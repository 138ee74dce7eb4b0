"""Experiment harness: block statistics, reference tables, reproduction runs."""

import statistics

import numpy as np
import pytest

from mmfuse.emg import REFERENCE_ERROR_RATES, default_gesture_model
from mmfuse.fusion import closed_form_fused_error
from mmfuse.harness import (
    BlockStats,
    Modality,
    TABLE4_BLOCK_COUNTS,
    TABLE4_TARGET_ERROR_PCT,
    TABLE4_TARGET_VARIANCE,
    default_fusion_config,
    fused_error_summary,
    mean_accuracy,
    run_fusion_experiment,
    run_modality_experiment,
    run_reference_experiments,
)
from mmfuse.speech import REFERENCE_CORRECT_RATES
from mmfuse.vocab import FUSION_OPERATIONS, SpeechCommand

# error counts per 50-trial block for each fused operation
BLOCK_COUNTS = {
    SpeechCommand.MOVE_GRIPPER: (7, 2, 2, 4),
    SpeechCommand.MOVE_DOWN: (3, 1, 2, 2),
    SpeechCommand.MOVE_UP: (3, 3, 2, 2),
    SpeechCommand.MOVE_LEFT: (0, 3, 2, 2),
    SpeechCommand.MOVE_RIGHT: (3, 3, 4, 2),
}

EXPECTED_ERROR_PCT = {
    SpeechCommand.MOVE_GRIPPER: 7.5,
    SpeechCommand.MOVE_DOWN: 4.0,
    SpeechCommand.MOVE_UP: 5.0,
    SpeechCommand.MOVE_LEFT: 3.5,
    SpeechCommand.MOVE_RIGHT: 6.0,
}

EXPECTED_VARIANCE = {
    SpeechCommand.MOVE_GRIPPER: 5.58,
    SpeechCommand.MOVE_DOWN: 0.67,
    SpeechCommand.MOVE_UP: 0.33,
    SpeechCommand.MOVE_LEFT: 1.58,
    SpeechCommand.MOVE_RIGHT: 0.67,
}


def test_reference_block_counts_ship_with_package():
    by_command = {op.speech: tuple(v) for op, v in TABLE4_BLOCK_COUNTS.items()}
    assert by_command == BLOCK_COUNTS


def test_block_stats_reproduce_reference_rows():
    for cmd, counts in BLOCK_COUNTS.items():
        stats = BlockStats.from_counts(counts, block_size=50)
        assert stats.error_pct == pytest.approx(EXPECTED_ERROR_PCT[cmd], abs=1e-12)
        assert stats.variance == pytest.approx(EXPECTED_VARIANCE[cmd], abs=0.005)


def test_block_stats_against_independent_oracles():
    # recompute both statistics with stdlib/numpy, not the package's code
    for counts in BLOCK_COUNTS.values():
        stats = BlockStats.from_counts(counts, block_size=50)
        assert stats.error_pct == pytest.approx(100 * sum(counts) / 200, abs=1e-12)
        assert stats.variance == pytest.approx(statistics.variance(counts), abs=1e-12)
        assert stats.variance == pytest.approx(float(np.var(counts, ddof=1)), abs=1e-12)


def test_block_stats_fields():
    stats = BlockStats.from_counts((7, 2, 2, 4), block_size=50)
    assert stats.block_errors == (7, 2, 2, 4)
    assert stats.block_size == 50
    assert stats.total_trials == 200


def test_block_stats_validation():
    with pytest.raises(ValueError):
        BlockStats.from_counts((3,), block_size=50)  # variance needs 2+ blocks
    with pytest.raises(ValueError):
        BlockStats.from_counts((3, 51), block_size=50)  # count exceeds block
    with pytest.raises(ValueError):
        BlockStats.from_counts((3, -1), block_size=50)


def test_package_table_targets_match_reference():
    assert {op.speech: pct for op, pct in TABLE4_TARGET_ERROR_PCT.items()} == EXPECTED_ERROR_PCT
    for op, var in TABLE4_TARGET_VARIANCE.items():
        assert var == pytest.approx(statistics.variance(BLOCK_COUNTS[op.speech]), abs=1e-12)


def test_mean_accuracy_reference_aggregates():
    emg_correct = [100 * (1 - e) for e in REFERENCE_ERROR_RATES.values()]
    speech_correct = [100 * p for p in REFERENCE_CORRECT_RATES.values()]
    # independent oracle: plain arithmetic mean
    assert mean_accuracy(emg_correct) == pytest.approx(statistics.mean(emg_correct))
    assert mean_accuracy(emg_correct) == pytest.approx(86.54, abs=0.01)
    assert mean_accuracy(speech_correct) == pytest.approx(82.06, abs=0.01)


def test_fused_error_summary_reference_aggregate():
    stats = [BlockStats.from_counts(c, 50) for c in BLOCK_COUNTS.values()]
    assert fused_error_summary(stats) == pytest.approx(5.2, abs=0.01)
    # oracle: mean of the five row percentages
    assert fused_error_summary(stats) == pytest.approx(
        statistics.mean(EXPECTED_ERROR_PCT.values())
    )


def test_summaries_reject_empty_input():
    with pytest.raises(ValueError):
        mean_accuracy([])
    with pytest.raises(ValueError):
        fused_error_summary([])


# ---------------------------------------------------------------------------
# Simulated experiments
# ---------------------------------------------------------------------------


def test_modality_experiment_shape_and_bounds():
    table = run_modality_experiment(Modality.EMG, reps=3, per_rep=20, seed=1)
    assert table.reps == 3
    assert table.per_rep == 20
    assert len(table.rows) == 5
    for row in table.rows:
        assert row.trials == 60
        assert 0 <= row.errors <= 60
        assert row.error_pct + row.correct_pct == pytest.approx(100.0)


def test_modality_experiment_tracks_model_rates():
    table = run_modality_experiment(Modality.EMG, reps=100, per_rep=100, seed=3)
    model = default_gesture_model()
    for row in table.rows:
        target = 100 * model.error_rate(row.item)
        se = (target * (100 - target) / 10_000) ** 0.5
        assert abs(row.error_pct - target) < 4 * se


def test_speech_experiment_tracks_model_rates():
    table = run_modality_experiment(Modality.SPEECH, reps=100, per_rep=100, seed=4)
    for row in table.rows:
        target = 100 * (1 - REFERENCE_CORRECT_RATES[row.item])
        se = (target * (100 - target) / 10_000) ** 0.5
        assert abs(row.error_pct - target) < 4 * se


def test_modality_experiment_deterministic():
    a = run_modality_experiment(Modality.SPEECH, reps=2, per_rep=30, seed=9)
    b = run_modality_experiment(Modality.SPEECH, reps=2, per_rep=30, seed=9)
    assert a == b


def test_modality_rows_independent_of_one_another():
    # each item draws from its own derived stream: shrinking the table to a
    # single rep count must not change what the other items produced
    full = run_modality_experiment(Modality.EMG, reps=4, per_rep=25, seed=7)
    again = run_modality_experiment(Modality.EMG, reps=4, per_rep=25, seed=7)
    for row_a, row_b in zip(full.rows, again.rows):
        assert row_a == row_b


def test_default_fusion_config_detection_values():
    cfg = default_fusion_config()
    for op in FUSION_OPERATIONS:
        g = REFERENCE_ERROR_RATES[op.gesture]
        s = 1 - REFERENCE_CORRECT_RATES[op.speech]
        target = TABLE4_TARGET_ERROR_PCT[op] / 100
        d = cfg.detection_prob(op)
        assert closed_form_fused_error(g, s, d) == pytest.approx(target, abs=1e-12)


def test_fusion_experiment_shape():
    stats = run_fusion_experiment(FUSION_OPERATIONS[0], blocks=4, block_size=25, seed=2)
    assert len(stats.block_errors) == 4
    assert stats.block_size == 25
    assert stats.total_trials == 100


def test_fusion_experiment_deterministic():
    a = run_fusion_experiment(FUSION_OPERATIONS[2], blocks=4, block_size=50, seed=11)
    b = run_fusion_experiment(FUSION_OPERATIONS[2], blocks=4, block_size=50, seed=11)
    assert a == b


def test_fusion_experiment_tracks_calibrated_rate():
    op = FUSION_OPERATIONS[1]  # move down & fist
    stats = run_fusion_experiment(op, blocks=10, block_size=1000, seed=6)
    target = TABLE4_TARGET_ERROR_PCT[op]
    se = 100 * ((target / 100) * (1 - target / 100) / 10_000) ** 0.5
    assert abs(stats.error_pct - target) < 4 * se


def test_reference_experiments_bundle():
    results = run_reference_experiments(seed=0, reps=2, per_rep=20, blocks=2, block_size=20)
    assert results.emg.modality is Modality.EMG
    assert results.speech.modality is Modality.SPEECH
    assert set(results.fusion) == set(FUSION_OPERATIONS)
    assert 0 <= results.emg_mean_accuracy <= 100
    assert 0 <= results.speech_mean_accuracy <= 100
    assert 0 <= results.fused_average_error_pct <= 100


def test_reference_experiments_deterministic():
    a = run_reference_experiments(seed=3, reps=2, per_rep=10, blocks=2, block_size=10)
    b = run_reference_experiments(seed=3, reps=2, per_rep=10, blocks=2, block_size=10)
    assert a == b


def test_reference_experiments_draw_from_given_models():
    # a perfect gesture channel: targets above g = 0 calibrate to d = 0, and
    # no gesture or fused episode errs
    from mmfuse.emg import GestureOutcomeModel
    from mmfuse.fusion import ModalityModels, default_models

    perfect = GestureOutcomeModel.from_error_rates(dict.fromkeys(REFERENCE_ERROR_RATES, 0.0))
    models = ModalityModels(gesture=perfect, speech=default_models().speech)
    assert set(default_fusion_config(models=models).d.values()) == {0.0}
    results = run_reference_experiments(seed=3, models=models)
    assert all(row.errors == 0 for row in results.emg.rows)
    assert all(sum(bs.block_errors) == 0 for bs in results.fusion.values())


def test_table_row_lookup():
    table = run_modality_experiment(Modality.SPEECH, reps=2, per_rep=10, seed=1)
    row = table.row(SpeechCommand.MOVE_UP)
    assert row.item is SpeechCommand.MOVE_UP
    assert len(table.correct_percentages()) == 5
