"""Config loading: defaults, YAML files, env resolution, validation."""

import pytest

from mmfuse.config import (
    CONFIG_ENV_VAR,
    ConfigError,
    config_from_mapping,
    default_config,
    load_config,
    resolve_config,
)
from mmfuse.harness import default_fusion_config
from mmfuse.vocab import FUSION_OPERATIONS, Gesture, SpeechCommand


def test_default_config_values():
    cfg = default_config()
    assert cfg.seed == 0
    assert cfg.port == 7207
    assert cfg.fallback_window_ms == 2000
    assert cfg.detection is None


def test_default_fusion_config_matches_calibrated():
    app = default_config()
    assert app.fusion_config().d == default_fusion_config().d


def test_fusion_config_calibrates_from_configured_models():
    from mmfuse.fusion import calibrate_detection
    from mmfuse.speech import REFERENCE_ERROR_RATES
    from mmfuse.vocab import operation_for_gesture

    cfg = config_from_mapping({"version": 1, "emg": {"error_rates": {"fist": 0.16}}})
    op = operation_for_gesture(Gesture.FIST)
    expected = calibrate_detection(0.16, REFERENCE_ERROR_RATES[op.speech], 0.04).d
    assert cfg.fusion_config().detection_prob(op) == expected
    # the other operations keep their reference calibration
    for other in FUSION_OPERATIONS:
        if other is not op:
            assert cfg.fusion_config().d[other] == default_fusion_config().d[other]


def test_minimal_mapping():
    cfg = config_from_mapping({"version": 1})
    assert cfg.seed == 0
    assert cfg.port == 7207


def test_full_mapping():
    cfg = config_from_mapping(
        {
            "version": 1,
            "seed": 42,
            "server": {"port": 9000},
            "emg": {"error_rates": {"fist": 0.2}},
            "speech": {"p_correct": {"move up": 0.5}},
            "fusion": {"fallback_window_ms": 1500, "detection": {"uniform": 0.8}},
        }
    )
    assert cfg.seed == 42
    assert cfg.port == 9000
    assert cfg.fallback_window_ms == 1500
    assert cfg.gesture_model.error_rate(Gesture.FIST) == pytest.approx(0.2)
    # untouched rates keep their defaults
    assert cfg.gesture_model.error_rate(Gesture.WAVE_IN) == pytest.approx(0.091)
    assert cfg.recognition_model.p_correct[SpeechCommand.MOVE_UP] == 0.5
    for op in FUSION_OPERATIONS:
        assert cfg.fusion_config().detection_prob(op) == 0.8


def test_per_operation_detection():
    per_op = {op.speech.value: 0.5 for op in FUSION_OPERATIONS}
    cfg = config_from_mapping(
        {"version": 1, "fusion": {"detection": {"per_operation": per_op}}}
    )
    assert all(cfg.fusion_config().detection_prob(op) == 0.5 for op in FUSION_OPERATIONS)


def test_per_operation_detection_must_cover_all():
    per_op = {FUSION_OPERATIONS[0].speech.value: 0.5}
    with pytest.raises(ConfigError):
        config_from_mapping(
            {"version": 1, "fusion": {"detection": {"per_operation": per_op}}}
        )


def test_detection_uniform_xor_per_operation():
    with pytest.raises(ConfigError):
        config_from_mapping(
            {
                "version": 1,
                "fusion": {
                    "detection": {
                        "uniform": 0.5,
                        "per_operation": {
                            op.speech.value: 0.5 for op in FUSION_OPERATIONS
                        },
                    }
                },
            }
        )


def test_detection_out_of_range_rejected():
    with pytest.raises(ConfigError):
        config_from_mapping(
            {"version": 1, "fusion": {"detection": {"uniform": 1.5}}}
        )


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError):
        config_from_mapping({"version": 1, "speling": True})


def test_version_required_and_checked():
    with pytest.raises(ConfigError):
        config_from_mapping({})
    with pytest.raises(ConfigError):
        config_from_mapping({"version": 2})


def test_port_range_checked():
    with pytest.raises(ConfigError):
        config_from_mapping({"version": 1, "server": {"port": 0}})
    with pytest.raises(ConfigError):
        config_from_mapping({"version": 1, "server": {"port": 70000}})


def test_bad_rate_values_rejected():
    with pytest.raises(ConfigError):
        config_from_mapping({"version": 1, "emg": {"error_rates": {"fist": 1.5}}})
    with pytest.raises(ConfigError):
        config_from_mapping({"version": 1, "speech": {"p_correct": {"move up": -0.1}}})


def test_unknown_item_names_rejected():
    with pytest.raises(ConfigError):
        config_from_mapping({"version": 1, "emg": {"error_rates": {"shrug": 0.1}}})


def test_load_config_from_yaml(tmp_path):
    path = tmp_path / "fuse.yaml"
    path.write_text("version: 1\nseed: 7\nserver:\n  port: 8100\n")
    cfg = load_config(path)
    assert cfg.seed == 7
    assert cfg.port == 8100


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.yaml")


def test_load_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "fuse.yaml"
    path.write_text("- just\n- a list\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_resolve_explicit_beats_env(tmp_path, monkeypatch):
    a = tmp_path / "a.yaml"
    a.write_text("version: 1\nseed: 1\n")
    b = tmp_path / "b.yaml"
    b.write_text("version: 1\nseed: 2\n")
    monkeypatch.setenv(CONFIG_ENV_VAR, str(b))
    assert resolve_config(str(a)).seed == 1
    assert resolve_config(None).seed == 2


def test_resolve_defaults_without_sources(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    cfg = resolve_config(None)
    assert cfg.seed == default_config().seed
    assert cfg.port == default_config().port
    assert cfg.detection is None


def test_models_bundle():
    cfg = default_config()
    models = cfg.models()
    assert models.gesture.error_rate(Gesture.DOUBLE_TAP) == pytest.approx(0.206)
    assert models.speech.p_correct[SpeechCommand.MOVE_LEFT] == pytest.approx(0.658)


def test_app_config_is_frozen():
    cfg = default_config()
    with pytest.raises(AttributeError):
        cfg.seed = 5
