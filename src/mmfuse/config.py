"""Versioned YAML configuration for models, fusion, and the server.

Every file starts with ``version: 1``; unknown versions and unknown top-level
keys are rejected loudly rather than half-applied.  All sections are
optional, so a config can override just one knob:

    version: 1
    seed: 42
    emg:
      error_rates: {fist: 0.136, wave in: 0.091}
      wrong_share: 0.7
      confusion_profile: uniform
    speech:
      p_correct: {move right: 0.90, move left: 0.658}
      error_mode_weights: {confusable: 0.5, duplicated: 0.25, extraneous: 0.25}
    normalization:
      entries: {override: move right}
    fusion:
      fallback_window_ms: 2000
      detection:
        uniform: 0.8
        # or: per_operation: {move gripper: 0.74}
    server:
      port: 7207

Partial ``emg.error_rates`` and ``speech.p_correct`` override the reference
measurements item by item; omitted items keep their defaults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Union

import yaml

from .emg import (
    DEFAULT_WRONG_SHARE,
    GestureOutcomeModel,
    REFERENCE_ERROR_RATES as EMG_REFERENCE_ERROR_RATES,
    default_gesture_model,
)
from .fusion import DEFAULT_FALLBACK_WINDOW_MS, FusionConfig, ModalityModels
from .protocol import DEFAULT_PORT
from .speech import (
    NormalizationMap,
    RecognitionModel,
    default_normalization_map,
    default_recognition_model,
    normalization_map_from_mapping,
    recognition_model_from_mapping,
)
from .speech import REFERENCE_CORRECT_RATES as SPEECH_REFERENCE_CORRECT_RATES
from .vocab import (
    FUSION_OPERATIONS,
    FusionOperation,
    operation_for_command,
    parse_command_name,
    parse_gesture_name,
)

CONFIG_VERSION = 1

#: Environment variables the CLI honors when flags are absent.
CONFIG_ENV_VAR = "MMFUSE_CONFIG"
PORT_ENV_VAR = "MMFUSE_PORT"

_TOP_LEVEL_KEYS = {"version", "seed", "emg", "speech", "normalization", "fusion", "server"}


class ConfigError(ValueError):
    """The config file is malformed, unversioned, or out of range."""


@dataclass(frozen=True)
class AppConfig:
    """Resolved runtime configuration with all defaults applied."""

    seed: int = 0
    port: int = DEFAULT_PORT
    gesture_model: GestureOutcomeModel = field(default_factory=default_gesture_model)
    recognition_model: RecognitionModel = field(
        default_factory=default_recognition_model
    )
    normalization_map: NormalizationMap = field(
        default_factory=default_normalization_map
    )
    fallback_window_ms: int = DEFAULT_FALLBACK_WINDOW_MS
    #: None means "calibrate from the configured models at use time".
    detection: Optional[Mapping[FusionOperation, float]] = None

    def models(self) -> ModalityModels:
        return ModalityModels(
            gesture=self.gesture_model, speech=self.recognition_model
        )

    def fusion_config(self) -> FusionConfig:
        """The fusion config; raises InfeasibleTargetError when calibration
        cannot reach an operation's target with the configured models."""
        if self.detection is not None:
            return FusionConfig(
                d=dict(self.detection), fallback_window_ms=self.fallback_window_ms
            )
        from .harness import default_fusion_config

        return default_fusion_config(self.fallback_window_ms, self.models())


def default_config() -> AppConfig:
    return AppConfig()


def _require_mapping(value: object, where: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _emg_model(section: Mapping) -> GestureOutcomeModel:
    rates = dict(EMG_REFERENCE_ERROR_RATES)
    if "error_rates" in section:
        for name, rate in _require_mapping(
            section["error_rates"], "emg.error_rates"
        ).items():
            try:
                g = parse_gesture_name(str(name))
            except ValueError as e:
                raise ConfigError(str(e)) from e
            rates[g] = float(rate)
    wrong_share = float(section.get("wrong_share", DEFAULT_WRONG_SHARE))
    profile = str(section.get("confusion_profile", "uniform"))
    try:
        return GestureOutcomeModel.from_error_rates(rates, wrong_share, profile)
    except ValueError as e:
        raise ConfigError(f"emg section: {e}") from e


def _speech_model(section: Mapping) -> RecognitionModel:
    merged = dict(section)
    rates = dict(SPEECH_REFERENCE_CORRECT_RATES)
    if "p_correct" in section:
        for name, rate in _require_mapping(
            section["p_correct"], "speech.p_correct"
        ).items():
            try:
                c = parse_command_name(str(name))
            except ValueError as e:
                raise ConfigError(str(e)) from e
            rates[c] = float(rate)
    merged["p_correct"] = {c.utterance: v for c, v in rates.items()}
    try:
        return recognition_model_from_mapping(merged)
    except ValueError as e:
        raise ConfigError(f"speech section: {e}") from e


def _detection(section: Mapping) -> Mapping[FusionOperation, float]:
    if "uniform" in section and "per_operation" in section:
        raise ConfigError("fusion.detection: choose uniform or per_operation, not both")
    if "uniform" in section:
        d = float(section["uniform"])
        return {op: d for op in FUSION_OPERATIONS}
    if "per_operation" in section:
        out = {}
        for name, d in _require_mapping(
            section["per_operation"], "fusion.detection.per_operation"
        ).items():
            try:
                op = operation_for_command(parse_command_name(str(name)))
            except ValueError as e:
                raise ConfigError(str(e)) from e
            out[op] = float(d)
        missing = [op.label for op in FUSION_OPERATIONS if op not in out]
        if missing:
            raise ConfigError(
                f"fusion.detection.per_operation missing: {', '.join(missing)}"
            )
        return out
    raise ConfigError("fusion.detection needs uniform or per_operation")


def config_from_mapping(raw: Mapping) -> AppConfig:
    """Validate plain parsed data and resolve it to an AppConfig."""
    raw = _require_mapping(raw, "config")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "version" not in raw:
        raise ConfigError("config must declare a version")
    if raw["version"] != CONFIG_VERSION:
        raise ConfigError(
            f"unsupported config version {raw['version']!r}, expected {CONFIG_VERSION}"
        )

    kwargs: dict = {}
    if "seed" in raw:
        kwargs["seed"] = int(raw["seed"])
        if kwargs["seed"] < 0:
            raise ConfigError("seed must be non-negative")
    if "emg" in raw:
        kwargs["gesture_model"] = _emg_model(_require_mapping(raw["emg"], "emg"))
    if "speech" in raw:
        kwargs["recognition_model"] = _speech_model(
            _require_mapping(raw["speech"], "speech")
        )
    if "normalization" in raw:
        try:
            kwargs["normalization_map"] = normalization_map_from_mapping(
                _require_mapping(raw["normalization"], "normalization")
            )
        except ValueError as e:
            raise ConfigError(f"normalization section: {e}") from e
    if "fusion" in raw:
        section = _require_mapping(raw["fusion"], "fusion")
        if "fallback_window_ms" in section:
            window = int(section["fallback_window_ms"])
            if window <= 0:
                raise ConfigError("fusion.fallback_window_ms must be positive")
            kwargs["fallback_window_ms"] = window
        if "detection" in section:
            detection = _detection(_require_mapping(section["detection"], "fusion.detection"))
            for op, d in detection.items():
                if not 0.0 <= d <= 1.0:
                    raise ConfigError(
                        f"detection probability for {op.label} out of [0, 1]: {d}"
                    )
            kwargs["detection"] = detection
    if "server" in raw:
        section = _require_mapping(raw["server"], "server")
        if "port" in section:
            port = int(section["port"])
            if not 1 <= port <= 65535:
                raise ConfigError(f"server.port out of range: {port}")
            kwargs["port"] = port
    return AppConfig(**kwargs)


def load_config(path: Union[str, Path]) -> AppConfig:
    """Read and validate one YAML config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"invalid YAML in {path}: {e}") from e
    if raw is None:
        raise ConfigError(f"config {path} is empty")
    return config_from_mapping(raw)


def resolve_config(explicit_path: Optional[str] = None) -> AppConfig:
    """Config from an explicit path, the environment, or defaults."""
    path = explicit_path or os.environ.get(CONFIG_ENV_VAR)
    if path:
        return load_config(path)
    return default_config()
