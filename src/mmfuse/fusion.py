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

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Tuple, Union

import numpy as np

from .emg import GestureOutcome, GestureOutcomeModel, OutcomeKind, default_gesture_model
from .speech import (
    RawUtterance,
    RecognitionModel,
    default_recognition_model,
    normalize_text,
    sample_recognition,
)
from .vocab import (
    ArmAction,
    FusionOperation,
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
    if captured is None:
        # equivalent to the window expiring: no capture to act on
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


def run_episode(
    op: FusionOperation,
    models: ModalityModels,
    cfg: FusionConfig,
    rng: np.random.Generator,
    t0_ms: int = 0,
    gesture_seq: int = 0,
    speech_seq: int = 0,
) -> int:
    """One fused episode through the state machine; returns a TrialCode.

    The gesture channel fails with the model's error rate for the intended
    gesture, and every failure surfaces as a wrong capture.  Only this
    driver knows the intent, so it draws the detector here: a caught wrong
    capture reaches the machine as an empty capture, which opens the speech
    fallback, and an uncaught one is acted on.  That matches the closed-form
    algebra, where the detection probability d gates all gesture failures
    alike.  Draw order per episode: failure, confusable gesture, detection
    (the last two only on failure), then speech inside the fallback.
    """
    intended_action = action_for_gesture(op.gesture)
    model = models.gesture
    state: FusionState = begin_episode(t0_ms, cfg)

    if rng.random() < model.error_rate(op.gesture):
        captured = model.draw_confusable(op.gesture, rng)
        if rng.random() < cfg.detection_prob(op):
            # the detector caught it: the machine sees an empty capture
            outcome = GestureOutcome(
                kind=OutcomeKind.MISSED, intended=op.gesture, captured=None
            )
        else:
            outcome = GestureOutcome(
                kind=OutcomeKind.WRONG, intended=op.gesture, captured=captured
            )
    else:
        outcome = GestureOutcome(
            kind=OutcomeKind.CORRECT, intended=op.gesture, captured=op.gesture
        )
    t_gesture = t0_ms + GESTURE_LATENCY_MS
    event = ModalityEvent(
        source=EventSource.GESTURE, t_ms=t_gesture, payload=outcome, seq=gesture_seq
    )
    state, result = step(state, event, cfg)

    if isinstance(state, SpeechFallback):
        utterance = sample_recognition(op.speech, models.speech, rng)
        event = ModalityEvent(
            source=EventSource.SPEECH,
            t_ms=t_gesture + SPEECH_LATENCY_MS,
            payload=utterance,
            seq=speech_seq,
        )
        state, result = step(state, event, cfg)

    assert result is not None, "episode must terminate in a command or error"
    return _classify_result(result, intended_action)


def simulate_fused_operation(
    op: FusionOperation,
    models: ModalityModels,
    cfg: FusionConfig,
    n_trials: int,
    rng: np.random.Generator,
) -> FusionTrials:
    """Run ``n_trials`` independent episodes of ``op`` through the machine."""
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    codes = np.empty(n_trials, dtype=np.int8)
    for i in range(n_trials):
        codes[i] = run_episode(op, models, cfg, rng, gesture_seq=i, speech_seq=i)
    return FusionTrials(op=op, codes=codes)


def fused_error_trials(
    g: float, s: float, d: float, n: int, rng: np.random.Generator
) -> float:
    """Vectorized Monte Carlo of the fused channel at abstract rates.

    Statistically identical to run_episode() with a gesture channel that
    fails at rate g (as wrong captures), a detector that fires with
    probability d, and a fallback that fails at rate s; usable on dense
    (g, s, d) grids where per-episode stepping would be too slow.
    """
    for name, v in (("g", g), ("s", s), ("d", d)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be within [0, 1], got {v}")
    fail = rng.random(n) < g
    detected = fail & (rng.random(n) < d)
    fallback_bad = detected & (rng.random(n) < s)
    errors = (fail & ~detected) | fallback_bad
    return float(errors.mean())
