"""Priority-based fusion of the gesture and speech channels.

The band's gesture channel is authoritative: a capture that arrives is acted
on immediately.  Speech is a fallback that activates only when the gesture
channel is known to have failed, either because no capture arrived before the
window closed or because a wrong capture was caught by the error detector.
A wrong capture that slips past the detector drives the arm anyway; that is
the irreducible error floor of the scheme.

The module also carries the closed-form error algebra for the fused channel
and the inverse problem (choosing the detection probability that lands a
measured fused rate), so simulated runs can be checked against arithmetic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Tuple, Union

import numpy as np

from .emg import GestureOutcome, GestureOutcomeModel, OutcomeKind, default_gesture_model
from .speech import (
    EXTRANEOUS_FILLERS,
    RECOGNITION_MODES,
    RawUtterance,
    RecognitionModel,
    default_recognition_model,
    normalize_text,
    recognition_text,
)
from .vocab import (
    ArmAction,
    FusionOperation,
    GESTURES,
    Gesture,
    FUSION_OPERATIONS,
    SpeechCommand,
    action_for_command,
    action_for_gesture,
)

#: Simulated capture latency of the band, milliseconds after episode start.
GESTURE_LATENCY_MS = 250

#: Simulated latency from fallback activation to the recognized utterance.
SPEECH_LATENCY_MS = 500

DEFAULT_FALLBACK_WINDOW_MS = 2000


class EventSource(Enum):
    GESTURE = "gesture"
    SPEECH = "speech"


@dataclass(frozen=True)
class ModalityEvent:
    """One capture from one channel, stamped and sequenced by the producer.

    Producers must deliver events in a single total order: merged by ``t_ms``
    with the gesture channel first on ties. The machine trusts that order.
    """

    source: EventSource
    t_ms: int
    payload: Union[GestureOutcome, RawUtterance]
    seq: int

    def __post_init__(self) -> None:
        if self.t_ms < 0:
            raise ValueError("event timestamp must be non-negative")
        if self.seq < 0:
            raise ValueError("event sequence number must be non-negative")
        want = GestureOutcome if self.source is EventSource.GESTURE else RawUtterance
        if not isinstance(self.payload, want):
            raise TypeError(
                f"{self.source.value} event payload must be {want.__name__}"
            )


@dataclass(frozen=True)
class ClockTick:
    """Time advancing with no capture; drives window expiry."""

    t_ms: int

    def __post_init__(self) -> None:
        if self.t_ms < 0:
            raise ValueError("tick timestamp must be non-negative")


@dataclass(frozen=True)
class FusionConfig:
    """Window length and per-operation wrong-capture detection probability."""

    d: Mapping[FusionOperation, float]
    fallback_window_ms: int = DEFAULT_FALLBACK_WINDOW_MS

    def __post_init__(self) -> None:
        if self.fallback_window_ms <= 0:
            raise ValueError("fallback window must be positive")
        for op, p in self.d.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"detection probability for {op.label} out of [0, 1]")

    @classmethod
    def uniform(
        cls, d: float, fallback_window_ms: int = DEFAULT_FALLBACK_WINDOW_MS
    ) -> "FusionConfig":
        """Same detection probability for every operation."""
        return cls(
            d={op: d for op in FUSION_OPERATIONS},
            fallback_window_ms=fallback_window_ms,
        )

    def detection_prob(self, op: FusionOperation) -> float:
        if op not in self.d:
            raise KeyError(f"no detection probability configured for {op.label}")
        return self.d[op]


# ---------------------------------------------------------------------------
# States. Transitions:
#
#   Idle or Emitting --begin_episode---------------------> AwaitingGesture
#   AwaitingGesture --any capture------------------------> Emitting  (command;
#                                                          silently wrong when
#                                                          the capture is)
#   AwaitingGesture --empty capture or window expiry-----> SpeechFallback
#   SpeechFallback --utterance matching a known command--> Emitting  (command)
#   SpeechFallback --any other utterance------------------> Idle  (error)
#   SpeechFallback --window expiry------------------------> Idle  (error)
#
# Emitting is terminal for the episode; the next capture opens a new one
# (see capture_gesture). A wrong capture the detector caught reaches the
# machine as an empty capture, so the machine itself draws nothing.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Idle:
    pass


@dataclass(frozen=True)
class AwaitingGesture:
    deadline_ms: int


@dataclass(frozen=True)
class SpeechFallback:
    deadline_ms: int


@dataclass(frozen=True)
class Emitting:
    pass


FusionState = Union[Idle, AwaitingGesture, SpeechFallback, Emitting]


class CommandSource(Enum):
    GESTURE = "gesture"
    SPEECH = "speech"


@dataclass(frozen=True)
class FusedCommand:
    """The arm action the fused channel settled on, and which channel won."""

    action: ArmAction
    source: CommandSource
    t_ms: int


class FusionErrorKind(Enum):
    #: A wrong capture slipped past the detector and drove the arm.
    UNDETECTED_WRONG_GESTURE = "undetected wrong gesture"
    #: Fallback speech was captured but not as a clean known command.
    FALLBACK_FAILED = "fallback failed"
    #: A window closed with nothing usable on the active channel.
    WINDOW_EXPIRED = "window expired"


@dataclass(frozen=True)
class FusionError:
    kind: FusionErrorKind
    t_ms: int


StepResult = Tuple[FusionState, Optional[Union[FusedCommand, FusionError]]]

_CANONICAL_COMMANDS: dict[str, SpeechCommand] = {
    c.utterance: c for c in SpeechCommand
}


def begin_episode(t_ms: int, cfg: FusionConfig) -> AwaitingGesture:
    """Arm the gesture window for a new episode starting at ``t_ms``."""
    return AwaitingGesture(deadline_ms=t_ms + cfg.fallback_window_ms)


def step(
    state: FusionState,
    event: Union[ModalityEvent, ClockTick],
    cfg: FusionConfig,
) -> StepResult:
    """Advance the fusion machine by one event or tick.

    Returns the next state plus at most one of: a FusedCommand when a channel
    won the episode, or a FusionError when the episode failed. Events that
    have no meaning in the current state (speech while the gesture window is
    open, anything after emission) are ignored, matching the priority rule
    that the gesture channel owns the episode until it is known to have
    failed. Deterministic: the same state, event and config always give the
    same result.
    """
    if isinstance(state, Emitting):
        return state, None

    if isinstance(event, ClockTick):
        return _step_tick(state, event, cfg)

    if event.source is EventSource.GESTURE:
        return _step_gesture(state, event, cfg)
    return _step_speech(state, event)


def _step_tick(
    state: FusionState, tick: ClockTick, cfg: FusionConfig
) -> StepResult:
    if isinstance(state, AwaitingGesture) and tick.t_ms >= state.deadline_ms:
        # nothing captured: the miss is detected by construction
        return (
            SpeechFallback(deadline_ms=tick.t_ms + cfg.fallback_window_ms),
            None,
        )
    if isinstance(state, SpeechFallback) and tick.t_ms >= state.deadline_ms:
        return Idle(), FusionError(FusionErrorKind.WINDOW_EXPIRED, tick.t_ms)
    return state, None


def _step_gesture(
    state: FusionState, event: ModalityEvent, cfg: FusionConfig
) -> StepResult:
    if not isinstance(state, AwaitingGesture):
        # fallback already active or no episode armed; band input is stale
        return state, None
    captured = event.payload.captured  # type: ignore[union-attr]
    if captured is None or event.t_ms >= state.deadline_ms:
        # an empty capture, or one that arrives after the window closed, is
        # what a tick at this time finds: no capture to act on
        return (
            SpeechFallback(deadline_ms=event.t_ms + cfg.fallback_window_ms),
            None,
        )
    # the machine cannot tell a wrong capture from a correct one
    cmd = FusedCommand(
        action=action_for_gesture(captured),
        source=CommandSource.GESTURE,
        t_ms=event.t_ms,
    )
    return Emitting(), cmd


def _step_speech(state: FusionState, event: ModalityEvent) -> StepResult:
    if not isinstance(state, SpeechFallback):
        # gesture still owns the episode; fallback speech is not consumed
        return state, None
    utterance: RawUtterance = event.payload  # type: ignore[assignment]
    if event.t_ms >= state.deadline_ms:
        return Idle(), FusionError(FusionErrorKind.WINDOW_EXPIRED, event.t_ms)
    cmd = _CANONICAL_COMMANDS.get(normalize_text(utterance.text))
    if cmd is None:
        # duplicated, extraneous, or substituted capture: counted as a
        # failure even when a normalization table could recover it
        return Idle(), FusionError(FusionErrorKind.FALLBACK_FAILED, event.t_ms)
    fused = FusedCommand(
        action=action_for_command(cmd),
        source=CommandSource.SPEECH,
        t_ms=event.t_ms,
    )
    return Emitting(), fused


def capture_gesture(
    state: FusionState, g: Gesture, t_ms: int, seq: int, cfg: FusionConfig
) -> StepResult:
    """Deliver one band capture as the wire and the console report it.

    A reported capture carries no intent, so ``g`` is acted on as captured
    and ``Gesture.NONE`` is an empty window. An idle or finished machine
    opens a fresh episode at ``t_ms`` first.
    """
    if isinstance(state, (Idle, Emitting)):
        state = begin_episode(t_ms, cfg)
    if g is Gesture.NONE:
        outcome = GestureOutcome(kind=OutcomeKind.MISSED, intended=g, captured=None)
    else:
        outcome = GestureOutcome(kind=OutcomeKind.CORRECT, intended=g, captured=g)
    return step(state, ModalityEvent(EventSource.GESTURE, t_ms, outcome, seq), cfg)


# ---------------------------------------------------------------------------
# Closed-form error algebra
# ---------------------------------------------------------------------------


def closed_form_fused_error(g: float, s: float, d: float) -> float:
    """Expected fused error rate for gesture rate g, speech rate s, detection d.

    A gesture failure (probability g) slips through undetected with
    probability 1 - d; when detected, the speech fallback fails with
    probability s.  Hence g * (1 - d) + g * d * s.
    """
    for name, v in (("g", g), ("s", s), ("d", d)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be within [0, 1], got {v}")
    return g * (1.0 - d) + g * d * s


class InfeasibleTargetError(ValueError):
    """The requested fused rate is below the perfect-detection floor g*s."""


class CalibrationStatus(Enum):
    CALIBRATED = "calibrated"
    #: Target is at or above the raw gesture rate; fallback cannot help.
    NO_FALLBACK_NEEDED = "no fallback needed"


@dataclass(frozen=True)
class DetectionCalibration:
    d: float
    status: CalibrationStatus


def calibrate_detection(g: float, s: float, target_fused: float) -> DetectionCalibration:
    """Invert the closed form: the detection probability that hits the target.

    d = (g - target) / (g * (1 - s)). Targets above the raw gesture rate need
    no fallback at all (d = 0, flagged); targets below the perfect-detection
    floor g*s are unreachable and raise.
    """
    for name, v in (("g", g), ("s", s), ("target_fused", target_fused)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be within [0, 1], got {v}")
    if s >= 1.0:
        # fallback never succeeds; only target >= g is satisfiable
        if target_fused >= g:
            status = (
                CalibrationStatus.CALIBRATED
                if target_fused == g
                else CalibrationStatus.NO_FALLBACK_NEEDED
            )
            return DetectionCalibration(d=0.0, status=status)
        raise InfeasibleTargetError(
            f"target {target_fused} below floor {g} with unusable fallback"
        )
    floor = g * s
    if target_fused < floor - 1e-15:
        raise InfeasibleTargetError(
            f"target {target_fused} is below the perfect-detection floor {floor}"
        )
    if target_fused > g:
        return DetectionCalibration(d=0.0, status=CalibrationStatus.NO_FALLBACK_NEEDED)
    if g == 0.0:
        return DetectionCalibration(d=0.0, status=CalibrationStatus.CALIBRATED)
    d = (g - target_fused) / (g * (1.0 - s))
    d = min(max(d, 0.0), 1.0)
    return DetectionCalibration(d=d, status=CalibrationStatus.CALIBRATED)


# ---------------------------------------------------------------------------
# Episode simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModalityModels:
    """The stochastic sources an episode draws from."""

    gesture: GestureOutcomeModel = field(default_factory=default_gesture_model)
    speech: RecognitionModel = field(default_factory=default_recognition_model)


def default_models() -> ModalityModels:
    return ModalityModels()


class TrialCode:
    """Integer codes for per-trial outcomes (kept raw for compact arrays)."""

    EMIT_GESTURE = 0
    EMIT_SPEECH = 1
    UNDETECTED_WRONG = 2
    FALLBACK_FAILED = 3
    WINDOW_EXPIRED = 4

    ERROR_CODES = (2, 3, 4)


_ERROR_KIND_FOR_CODE = {
    TrialCode.UNDETECTED_WRONG: FusionErrorKind.UNDETECTED_WRONG_GESTURE,
    TrialCode.FALLBACK_FAILED: FusionErrorKind.FALLBACK_FAILED,
    TrialCode.WINDOW_EXPIRED: FusionErrorKind.WINDOW_EXPIRED,
}


@dataclass(frozen=True)
class FusionTrials:
    """Outcome codes for a batch of independent fused episodes."""

    op: FusionOperation
    codes: np.ndarray  # int8, TrialCode values

    @property
    def n(self) -> int:
        return int(self.codes.size)

    @property
    def error_count(self) -> int:
        return int(np.isin(self.codes, TrialCode.ERROR_CODES).sum())

    @property
    def error_rate(self) -> float:
        return self.error_count / self.n

    def kind_counts(self) -> dict[FusionErrorKind, int]:
        return {
            kind: int((self.codes == code).sum())
            for code, kind in _ERROR_KIND_FOR_CODE.items()
        }

    def block_error_counts(self, block_size: int) -> list[int]:
        """Error counts per consecutive block of ``block_size`` trials."""
        if block_size <= 0 or self.n % block_size:
            raise ValueError("trials must split into whole blocks")
        err = np.isin(self.codes, TrialCode.ERROR_CODES)
        return [int(b.sum()) for b in err.reshape(-1, block_size)]


def _classify_result(
    result: Optional[Union[FusedCommand, FusionError]], intended: ArmAction
) -> int:
    if isinstance(result, FusedCommand):
        if result.action != intended:
            # the machine cannot know, but the harness can: wrong action out
            return TrialCode.UNDETECTED_WRONG
        return (
            TrialCode.EMIT_GESTURE
            if result.source is CommandSource.GESTURE
            else TrialCode.EMIT_SPEECH
        )
    assert isinstance(result, FusionError)
    if result.kind is FusionErrorKind.FALLBACK_FAILED:
        return TrialCode.FALLBACK_FAILED
    return TrialCode.WINDOW_EXPIRED


def _step_episode(
    op: FusionOperation,
    captured: Optional[Gesture],
    speech_mode: int,
    cfg: FusionConfig,
    filler: str = EXTRANEOUS_FILLERS[0],
) -> int:
    """Step one episode of ``op`` through the machine; returns a TrialCode.

    ``captured`` is what reaches the machine from the band (None for an
    empty capture); ``speech_mode`` is the recognition the fallback hears
    if it opens, as a :meth:`RecognitionModel.sample_modes` code.
    """
    if captured is None:
        kind = OutcomeKind.MISSED
    else:
        kind = OutcomeKind.CORRECT if captured is op.gesture else OutcomeKind.WRONG
    outcome = GestureOutcome(kind=kind, intended=op.gesture, captured=captured)
    state: FusionState = begin_episode(0, cfg)
    event = ModalityEvent(EventSource.GESTURE, GESTURE_LATENCY_MS, outcome, 0)
    state, result = step(state, event, cfg)

    if isinstance(state, SpeechFallback):
        text = recognition_text(op.speech, speech_mode, filler)
        event = ModalityEvent(
            source=EventSource.SPEECH,
            t_ms=GESTURE_LATENCY_MS + SPEECH_LATENCY_MS,
            payload=RawUtterance(text=text, spoken=op.speech),
            seq=0,
        )
        state, result = step(state, event, cfg)

    assert result is not None, "episode must terminate in a command or error"
    return _classify_result(result, action_for_gesture(op.gesture))


#: What can reach the machine from the band: each gesture, then the empty
#: capture. Row order of the transition table.
_CAPTURES: Tuple[Optional[Gesture], ...] = (*GESTURES, None)
_EMPTY_CAPTURE = len(GESTURES)


@functools.lru_cache(maxsize=64)
def _transition_table(op: FusionOperation, fallback_window_ms: int) -> np.ndarray:
    """TrialCode of every (capture, speech mode) cell, stepped through the machine.

    Rows follow ``_CAPTURES``, columns the recognition modes. Detection and
    the models only choose a cell; what the cell yields depends on the
    operation and the window alone (a window that closes before the
    fallback speech arrives expires every fallback, and one that closes
    before the capture, at ``GESTURE_LATENCY_MS`` or less, expires every
    episode). Every extraneous filler is stepped and must give one code.
    Read-only, as it is shared.
    """
    cfg = FusionConfig(d={}, fallback_window_ms=fallback_window_ms)
    table = np.empty((len(_CAPTURES), RECOGNITION_MODES), dtype=np.int8)
    for row, captured in enumerate(_CAPTURES):
        for mode in range(RECOGNITION_MODES):
            codes = {
                _step_episode(op, captured, mode, cfg, filler)
                for filler in EXTRANEOUS_FILLERS
            }
            assert len(codes) == 1, f"fillers disagree for {op.label}, mode {mode}"
            table[row, mode] = codes.pop()
    table.flags.writeable = False
    return table


def run_episode(
    op: FusionOperation,
    models: ModalityModels,
    cfg: FusionConfig,
    rng: np.random.Generator,
) -> int:
    """One fused episode stepped through the state machine; returns a TrialCode.

    Takes exactly four uniforms, ``rng.random(4)``, and reads them in
    column order:

    0. fail: the gesture channel fails when ``u`` is below the model's
       error rate for the intended gesture; every failure surfaces as a
       wrong capture.
    1. confusion: which gesture a failure captures
       (:meth:`GestureOutcomeModel.confusable_at`).
    2. detect: the detector catches a failure when ``u`` is below
       ``cfg.detection_prob(op)``. Only the simulator knows the intent, so it
       draws the detector here: a caught wrong capture reaches the machine
       as an empty capture, which opens the speech fallback, and an
       uncaught one is acted on. That matches the closed-form algebra,
       where d gates all gesture failures alike.
    3. speech: the recognition mode the fallback hears
       (:meth:`RecognitionModel.modes_at`).

    Columns an episode does not use are drawn all the same, so ``n`` calls
    consume the stream of one ``simulate_fused_operation(..., n, rng)`` and
    agree with it code for code; this is the reference it is tested against.
    """
    u_fail, u_confusion, u_detect, u_speech = rng.random(4)
    model = models.gesture
    captured: Optional[Gesture] = op.gesture
    if u_fail < model.error_rate(op.gesture):
        if u_detect < cfg.detection_prob(op):
            captured = None
        else:
            captured = model.confusable_at(op.gesture, u_confusion)
    mode = int(models.speech.modes_at(op.speech, u_speech))
    return _step_episode(op, captured, mode, cfg)


def simulate_fused_operation(
    op: FusionOperation,
    models: ModalityModels,
    cfg: FusionConfig,
    n_trials: int,
    rng: np.random.Generator,
) -> FusionTrials:
    """Run ``n_trials`` independent episodes of ``op`` through the machine.

    One ``rng.random((n_trials, 4))`` draw gives each episode the four
    uniforms :func:`run_episode` reads, mapped by the same column rules to
    a capture and a speech mode; the episode's code is that cell of the
    transition table stepped from the machine.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    u = rng.random((n_trials, 4))
    model = models.gesture
    failed = u[:, 0] < model.error_rate(op.gesture)
    detected = u[:, 2] < cfg.detection_prob(op)
    wrong = model.confusable_indices(op.gesture, u[:, 1])
    captures = np.where(
        failed,
        np.where(detected, _EMPTY_CAPTURE, wrong),
        GESTURES.index(op.gesture),
    )
    modes = models.speech.modes_at(op.speech, u[:, 3])
    table = _transition_table(op, cfg.fallback_window_ms)
    return FusionTrials(op=op, codes=table[captures, modes])
