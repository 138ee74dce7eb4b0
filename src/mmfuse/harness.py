"""Experiment runners and the statistics the reference tables are built from.

Three layers:

* per-modality experiments (each gesture or command alone, batched trials)
* fused experiments (whole episodes through the fusion machine, in blocks)
* arithmetic over the resulting tables (block stats, means, summaries)

Everything is deterministic per seed: items get independent streams derived
from the run seed and the item's fixed ordinal, so results do not depend on
the order items are run in and experiments can fan out across workers.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from .emg import GestureOutcomeModel, default_gesture_model
from .fusion import (
    DEFAULT_FALLBACK_WINDOW_MS,
    DetectionCalibration,
    FusionConfig,
    InfeasibleTargetError,
    ModalityModels,
    calibrate_detection,
    default_models,
    simulate_fused_operation,
)
from .seeding import derive_seed, make_rng
from .speech import RecognitionModel, default_recognition_model, sample_capture_kinds
from .vocab import (
    COMMANDS,
    FUSION_OPERATIONS,
    FusionOperation,
    GESTURES,
    Gesture,
    SpeechCommand,
    operation_for_command,
)

# ---------------------------------------------------------------------------
# Reference measurements the simulation is pinned to
# ---------------------------------------------------------------------------

#: Fused error targets, percent, per operation (bench measurements).
TABLE4_TARGET_ERROR_PCT: dict[FusionOperation, float] = {}

#: Per-block error counts behind those targets (4 blocks of 50 episodes).
TABLE4_BLOCK_COUNTS: dict[FusionOperation, tuple[int, ...]] = {}

#: Block variance of the reference runs, for comparison displays.
TABLE4_TARGET_VARIANCE: dict[FusionOperation, float] = {}


for _cmd, _counts in {
    SpeechCommand.MOVE_GRIPPER: (7, 2, 2, 4),
    SpeechCommand.MOVE_DOWN: (3, 1, 2, 2),
    SpeechCommand.MOVE_UP: (3, 3, 2, 2),
    SpeechCommand.MOVE_LEFT: (0, 3, 2, 2),
    SpeechCommand.MOVE_RIGHT: (3, 3, 4, 2),
}.items():
    _op = operation_for_command(_cmd)
    TABLE4_BLOCK_COUNTS[_op] = _counts
    TABLE4_TARGET_ERROR_PCT[_op] = 100.0 * sum(_counts) / 200.0
    TABLE4_TARGET_VARIANCE[_op] = statistics.variance(_counts)


class Modality(Enum):
    EMG = "emg"
    SPEECH = "speech"


ModalityItem = Union[Gesture, SpeechCommand]


@dataclass(frozen=True)
class BlockStats:
    """Error counts over consecutive equal blocks plus derived statistics."""

    block_errors: Tuple[int, ...]
    block_size: int
    total_trials: int
    error_pct: float
    variance: float

    @classmethod
    def from_counts(cls, counts: Sequence[int], block_size: int) -> "BlockStats":
        counts = tuple(int(c) for c in counts)
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        if len(counts) < 2:
            raise ValueError("need at least two blocks for a sample variance")
        for c in counts:
            if not 0 <= c <= block_size:
                raise ValueError(f"block error count {c} outside [0, {block_size}]")
        total = block_size * len(counts)
        return cls(
            block_errors=counts,
            block_size=block_size,
            total_trials=total,
            error_pct=100.0 * sum(counts) / total,
            variance=statistics.variance(counts),
        )


@dataclass(frozen=True)
class ItemStats:
    """Error summary for a single gesture or command."""

    item: ModalityItem
    trials: int
    errors: int

    @property
    def error_pct(self) -> float:
        return 100.0 * self.errors / self.trials

    @property
    def correct_pct(self) -> float:
        return 100.0 - self.error_pct


@dataclass(frozen=True)
class ModalityTable:
    """Per-item error table for one modality run."""

    modality: Modality
    rows: Tuple[ItemStats, ...]
    reps: int
    per_rep: int
    seed: int

    def row(self, item: ModalityItem) -> ItemStats:
        for r in self.rows:
            if r.item is item:
                return r
        raise KeyError(item)

    def correct_percentages(self) -> list[float]:
        return [r.correct_pct for r in self.rows]


def run_modality_experiment(
    modality: Modality,
    reps: int = 10,
    per_rep: int = 100,
    seed: int = 0,
    gesture_model: Optional[GestureOutcomeModel] = None,
    speech_model: Optional[RecognitionModel] = None,
) -> ModalityTable:
    """Error rate of each item alone: ``reps`` repetitions of ``per_rep`` trials.

    Repetitions are i.i.d., so the average error over repetitions equals the
    pooled error over reps*per_rep trials; the split exists to mirror the
    reference methodology and to support per-repetition displays.
    """
    if reps < 1 or per_rep < 1:
        raise ValueError("reps and per_rep must be positive")
    n = reps * per_rep
    rows = []
    if modality is Modality.EMG:
        model = gesture_model if gesture_model is not None else default_gesture_model()
        for idx, g in enumerate(GESTURES):
            rng = make_rng(derive_seed(seed, idx))
            kinds = model.sample_kinds(g, n, rng)
            rows.append(ItemStats(item=g, trials=n, errors=int((kinds != 0).sum())))
    else:
        smodel = (
            speech_model if speech_model is not None else default_recognition_model()
        )
        for idx, c in enumerate(COMMANDS):
            rng = make_rng(derive_seed(seed, idx))
            kinds = sample_capture_kinds(c, n, smodel, rng)
            rows.append(ItemStats(item=c, trials=n, errors=int((kinds != 0).sum())))
    return ModalityTable(
        modality=modality, rows=tuple(rows), reps=reps, per_rep=per_rep, seed=seed
    )


def operation_rates(
    op: FusionOperation, models: ModalityModels
) -> Tuple[float, float, float]:
    """``(g, s, target)``: the models' error rates for ``op`` and its fused target.

    Rates are rounded to 10 decimals, the rule that defines the reference
    speech error rates, so a model built from a table value calibrates
    exactly as that value does (``1 - 0.9`` is 0.09999999999999998).
    """
    g = round(models.gesture.error_rate(op.gesture), 10)
    s = round(models.speech.error_rate(op.speech), 10)
    return g, s, TABLE4_TARGET_ERROR_PCT[op] / 100.0


def calibrate_operation(
    op: FusionOperation, models: ModalityModels
) -> DetectionCalibration:
    """Detection probability that lands ``op`` on its fused target.

    Raises InfeasibleTargetError naming the operation when the target lies
    below the models' perfect-detection floor g*s.
    """
    try:
        return calibrate_detection(*operation_rates(op, models))
    except InfeasibleTargetError as e:
        raise InfeasibleTargetError(f"cannot calibrate {op.label}: {e}") from e


def default_fusion_config(
    fallback_window_ms: int = DEFAULT_FALLBACK_WINDOW_MS,
    models: Optional[ModalityModels] = None,
) -> FusionConfig:
    """Detection probabilities calibrated so each operation hits its target.

    Calibrated against ``models``, the reference models by default.
    """
    models = models if models is not None else default_models()
    d = {op: calibrate_operation(op, models).d for op in FUSION_OPERATIONS}
    return FusionConfig(d=d, fallback_window_ms=fallback_window_ms)


def run_fusion_experiment(
    op: FusionOperation,
    blocks: int = 4,
    block_size: int = 50,
    cfg: Optional[FusionConfig] = None,
    seed: int = 0,
    models: Optional[ModalityModels] = None,
) -> BlockStats:
    """Whole fused episodes for one operation, reported block by block."""
    if blocks < 2:
        raise ValueError("need at least two blocks")
    cfg = cfg if cfg is not None else default_fusion_config()
    models = models if models is not None else default_models()
    op_index = FUSION_OPERATIONS.index(op)
    rng = make_rng(derive_seed(seed, op_index))
    trials = simulate_fused_operation(op, models, cfg, blocks * block_size, rng)
    return BlockStats.from_counts(trials.block_error_counts(block_size), block_size)


def mean_accuracy(correct_percentages: Iterable[float]) -> float:
    """Unweighted arithmetic mean of per-item correct percentages."""
    values = list(correct_percentages)
    if not values:
        raise ValueError("accuracy table must be non-empty")
    return sum(values) / len(values)


def fused_error_summary(stats: Iterable[BlockStats]) -> float:
    """Unweighted mean error percent across operations."""
    values = [s.error_pct for s in stats]
    if not values:
        raise ValueError("need at least one operation's stats")
    return sum(values) / len(values)


@dataclass(frozen=True)
class ExperimentResults:
    """Everything one full reference-style run produces."""

    emg: ModalityTable
    speech: ModalityTable
    fusion: Dict[FusionOperation, BlockStats]
    seed: int

    @property
    def emg_mean_accuracy(self) -> float:
        return mean_accuracy(self.emg.correct_percentages())

    @property
    def speech_mean_accuracy(self) -> float:
        return mean_accuracy(self.speech.correct_percentages())

    @property
    def fused_average_error_pct(self) -> float:
        return fused_error_summary(self.fusion.values())


def run_reference_experiments(
    seed: int = 0,
    reps: int = 10,
    per_rep: int = 100,
    blocks: int = 4,
    block_size: int = 50,
    cfg: Optional[FusionConfig] = None,
    models: Optional[ModalityModels] = None,
) -> ExperimentResults:
    """The full bench protocol: both modalities alone, then all five fused.

    Everything draws from ``models`` (the reference models by default);
    ``cfg`` defaults to detection calibrated against them.
    """
    models = models if models is not None else default_models()
    emg = run_modality_experiment(
        Modality.EMG, reps, per_rep, seed=derive_seed(seed, 101),
        gesture_model=models.gesture,
    )
    speech = run_modality_experiment(
        Modality.SPEECH, reps, per_rep, seed=derive_seed(seed, 202),
        speech_model=models.speech,
    )
    cfg = cfg if cfg is not None else default_fusion_config(models=models)
    fusion = {
        op: run_fusion_experiment(
            op, blocks, block_size, cfg=cfg, seed=derive_seed(seed, 303),
            models=models,
        )
        for op in FUSION_OPERATIONS
    }
    return ExperimentResults(emg=emg, speech=speech, fusion=fusion, seed=seed)
