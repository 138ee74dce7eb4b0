"""Fusion engine: state machine, error algebra, detection calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmfuse.emg import GestureOutcome, OutcomeKind
from mmfuse.fusion import (
    AwaitingGesture,
    CalibrationStatus,
    ClockTick,
    CommandSource,
    DEFAULT_FALLBACK_WINDOW_MS,
    Emitting,
    EventSource,
    FusedCommand,
    FusionConfig,
    FusionError,
    FusionErrorKind,
    FusionTrials,
    Idle,
    InfeasibleTargetError,
    ModalityEvent,
    TrialCode,
    begin_episode,
    calibrate_detection,
    closed_form_fused_error,
    default_models,
    run_episode,
    simulate_fused_operation,
    step,
)
from mmfuse.seeding import make_rng
from mmfuse.speech import RawUtterance
from mmfuse.vocab import (
    FUSION_OPERATIONS,
    GESTURES,
    Gesture,
    SpeechCommand,
    action_for_command,
    action_for_gesture,
)

CFG = FusionConfig.uniform(1.0)


def correct(g: Gesture, t_ms: int, seq: int = 0) -> ModalityEvent:
    return ModalityEvent(
        EventSource.GESTURE, t_ms, GestureOutcome(OutcomeKind.CORRECT, g, g), seq
    )


def missed(g: Gesture, t_ms: int, seq: int = 0) -> ModalityEvent:
    return ModalityEvent(
        EventSource.GESTURE, t_ms, GestureOutcome(OutcomeKind.MISSED, g, None), seq
    )


def wrong(intended: Gesture, captured: Gesture, t_ms: int, seq: int = 0) -> ModalityEvent:
    return ModalityEvent(
        EventSource.GESTURE,
        t_ms,
        GestureOutcome(OutcomeKind.WRONG, intended, captured),
        seq,
    )


def spoken(text: str, t_ms: int, seq: int = 0) -> ModalityEvent:
    return ModalityEvent(EventSource.SPEECH, t_ms, RawUtterance(text, None), seq)


# ---------------------------------------------------------------------------
# Transitions
# ---------------------------------------------------------------------------


def test_begin_episode_arms_gesture_window():
    state = begin_episode(1000, CFG)
    assert state == AwaitingGesture(deadline_ms=1000 + DEFAULT_FALLBACK_WINDOW_MS)


def test_correct_gesture_emits_gesture_command():
    state = begin_episode(0, CFG)
    state, out = step(state, correct(Gesture.WAVE_OUT, 250), CFG)
    assert isinstance(state, Emitting)
    assert out == FusedCommand(
        action=action_for_gesture(Gesture.WAVE_OUT),
        source=CommandSource.GESTURE,
        t_ms=250,
    )


def test_missed_gesture_opens_fallback():
    state = begin_episode(0, CFG)
    state, out = step(state, missed(Gesture.FIST, 250), CFG)
    assert state == SpeechFallbackAt(250)
    assert out is None


def SpeechFallbackAt(t_ms: int):
    from mmfuse.fusion import SpeechFallback

    return SpeechFallback(deadline_ms=t_ms + DEFAULT_FALLBACK_WINDOW_MS)


def test_wrong_capture_emits_captured_gesture_action():
    # step cannot tell a wrong capture from a correct one: it acts on it
    state = begin_episode(0, CFG)
    state, out = step(state, wrong(Gesture.FIST, Gesture.WAVE_IN, 250), CFG)
    assert isinstance(state, Emitting)
    assert out == FusedCommand(
        action=action_for_gesture(Gesture.WAVE_IN),
        source=CommandSource.GESTURE,
        t_ms=250,
    )


def _always_failing_models():
    from mmfuse.emg import GestureOutcomeModel
    from mmfuse.fusion import ModalityModels

    rates = {g: 1.0 for g in Gesture if g is not Gesture.NONE}
    return ModalityModels(
        gesture=GestureOutcomeModel.from_error_rates(rates),
        speech=default_models().speech,
    )


def test_detected_wrong_gesture_opens_fallback(rng):
    # d = 1: every failed capture is caught, so speech decides every episode
    models = _always_failing_models()
    for op in FUSION_OPERATIONS:
        codes = {run_episode(op, models, CFG, rng) for _ in range(200)}
        assert codes <= {TrialCode.EMIT_SPEECH, TrialCode.FALLBACK_FAILED}


def test_undetected_wrong_gesture_emits_blindly(rng):
    # d = 0: no failed capture is caught, so each drives the wrong action
    models = _always_failing_models()
    cfg = FusionConfig.uniform(0.0)
    for op in FUSION_OPERATIONS:
        codes = {run_episode(op, models, cfg, rng) for _ in range(200)}
        assert codes == {TrialCode.UNDETECTED_WRONG}


def test_speech_in_fallback_emits_speech_command():
    state = SpeechFallbackAt(250)
    state, out = step(state, spoken("move left", 750), CFG)
    assert isinstance(state, Emitting)
    assert out == FusedCommand(
        action=action_for_command(SpeechCommand.MOVE_LEFT),
        source=CommandSource.SPEECH,
        t_ms=750,
    )


def test_speech_normalizes_case_and_spacing():
    state = SpeechFallbackAt(250)
    _, out = step(state, spoken("  Move   LEFT ", 750), CFG)
    assert isinstance(out, FusedCommand)


def test_garbled_speech_fails_fallback():
    state = SpeechFallbackAt(250)
    state, out = step(state, spoken("move left move left", 750), CFG)
    assert isinstance(state, Idle)
    assert out == FusionError(FusionErrorKind.FALLBACK_FAILED, 750)


def test_late_speech_expires_window():
    state = SpeechFallbackAt(250)
    state, out = step(state, spoken("move left", 2250), CFG)
    assert isinstance(state, Idle)
    assert out == FusionError(FusionErrorKind.WINDOW_EXPIRED, 2250)


def test_tick_expires_gesture_window_into_fallback():
    state = begin_episode(0, CFG)
    state, out = step(state, ClockTick(2000), CFG)
    assert state == SpeechFallbackAt(2000)
    assert out is None


def test_tick_expires_fallback_window():
    state = SpeechFallbackAt(0)
    state, out = step(state, ClockTick(2000), CFG)
    assert isinstance(state, Idle)
    assert out == FusionError(FusionErrorKind.WINDOW_EXPIRED, 2000)


def test_early_tick_is_noop():
    state = begin_episode(0, CFG)
    assert step(state, ClockTick(1999), CFG) == (state, None)


def test_speech_ignored_while_gesture_window_open():
    state = begin_episode(0, CFG)
    assert step(state, spoken("move left", 100), CFG) == (state, None)


def test_gesture_ignored_in_fallback():
    state = SpeechFallbackAt(250)
    assert step(state, correct(Gesture.FIST, 500), CFG) == (state, None)


def test_gesture_ignored_when_idle():
    state = Idle()
    assert step(state, correct(Gesture.FIST, 500), CFG) == (state, None)


def test_capture_after_window_opens_fallback():
    # the capture is stamped after the gesture deadline (2000 ms): not acted on
    from mmfuse.fusion import capture_gesture

    state, out = capture_gesture(begin_episode(0, CFG), Gesture.FIST, 5000, 1, CFG)
    assert state == SpeechFallbackAt(5000)
    assert out is None


@given(
    deadline=st.integers(0, 10_000),
    t_ms=st.integers(0, 10_000),
    window=st.integers(1, 5000),
    intended=st.sampled_from(GESTURES),
    captured=st.sampled_from((*GESTURES, None)),
)
def test_gesture_step_agrees_with_ticking_first(deadline, t_ms, window, intended, captured):
    # the server ticks before each capture; stepping the capture alone must
    # give the same result
    cfg = FusionConfig.uniform(1.0, fallback_window_ms=window)
    if captured is None:
        kind = OutcomeKind.MISSED
    else:
        kind = OutcomeKind.CORRECT if captured is intended else OutcomeKind.WRONG
    event = ModalityEvent(
        EventSource.GESTURE, t_ms, GestureOutcome(kind, intended, captured), 0
    )
    state = AwaitingGesture(deadline_ms=deadline)
    ticked, tick_out = step(state, ClockTick(t_ms), cfg)
    assert tick_out is None
    assert step(state, event, cfg) == step(ticked, event, cfg)


def test_emitting_absorbs_everything():
    state = Emitting()
    for event in (correct(Gesture.FIST, 900), spoken("move up", 901), ClockTick(99999)):
        assert step(state, event, CFG) == (state, None)


def test_event_payload_type_enforced():
    with pytest.raises(TypeError):
        ModalityEvent(EventSource.GESTURE, 0, RawUtterance("move up", None), 0)
    with pytest.raises(ValueError):
        ModalityEvent(EventSource.SPEECH, -1, RawUtterance("move up", None), 0)


def test_config_validates_probabilities():
    with pytest.raises(ValueError):
        FusionConfig.uniform(1.5)
    with pytest.raises(ValueError):
        FusionConfig.uniform(0.5, fallback_window_ms=0)


# ---------------------------------------------------------------------------
# Closed-form algebra
# ---------------------------------------------------------------------------


def test_closed_form_hand_values():
    assert closed_form_fused_error(0.2, 0.1, 0.5) == pytest.approx(0.11)
    assert closed_form_fused_error(0.0, 0.5, 0.5) == 0.0
    assert closed_form_fused_error(0.3, 0.2, 0.0) == pytest.approx(0.3)
    assert closed_form_fused_error(0.3, 0.2, 1.0) == pytest.approx(0.06)


def test_closed_form_validates_inputs():
    with pytest.raises(ValueError):
        closed_form_fused_error(1.1, 0.1, 0.5)
    with pytest.raises(ValueError):
        closed_form_fused_error(0.1, -0.1, 0.5)


@given(
    st.floats(0, 1, allow_nan=False),
    st.floats(0, 1, allow_nan=False),
    st.floats(0, 1, allow_nan=False),
)
def test_closed_form_bounded_by_gesture_rate(g, s, d):
    fused = closed_form_fused_error(g, s, d)
    assert 0.0 <= fused <= g + 1e-12


@given(
    st.floats(0, 1, allow_nan=False),
    st.floats(0, 1, allow_nan=False),
    st.floats(0, 1, allow_nan=False),
    st.floats(0, 1, allow_nan=False),
)
def test_closed_form_monotone_in_d(g, s, d1, d2):
    lo, hi = sorted((d1, d2))
    # raising detection never raises the fused rate (s <= 1)
    assert closed_form_fused_error(g, s, hi) <= closed_form_fused_error(g, s, lo) + 1e-12


# ---------------------------------------------------------------------------
# Detection calibration
# ---------------------------------------------------------------------------

# reference rates keyed by operation: (gesture error, speech error, fused target)
REFERENCE_TRIPLES = {
    "Move Gripper & Double Tap": (0.206, 0.141, 0.075),
    "Move Down & Fist": (0.136, 0.225, 0.040),
    "Move Up & Finger Spread": (0.145, 0.089, 0.050),
    "Move Left & Wave In": (0.091, 0.342, 0.035),
    "Move Right & Wave Out": (0.095, 0.100, 0.060),
}


def test_calibration_round_trips_reference_targets():
    for label, (g, s, target) in REFERENCE_TRIPLES.items():
        cal = calibrate_detection(g, s, target)
        assert cal.status is CalibrationStatus.CALIBRATED
        assert 0.0 <= cal.d <= 1.0
        assert closed_form_fused_error(g, s, cal.d) == pytest.approx(target, abs=1e-12)


def test_calibration_matches_independent_formula():
    # d = (g - target) / (g * (1 - s)), derived by solving the closed form
    for g, s, target in REFERENCE_TRIPLES.values():
        expected = (g - target) / (g * (1.0 - s))
        assert calibrate_detection(g, s, target).d == pytest.approx(expected, abs=1e-15)


def test_calibration_no_fallback_needed():
    cal = calibrate_detection(0.1, 0.2, 0.15)
    assert cal.status is CalibrationStatus.NO_FALLBACK_NEEDED
    assert cal.d == 0.0


def test_calibration_infeasible_below_floor():
    # perfect detection still leaves g*s = 0.02
    with pytest.raises(InfeasibleTargetError):
        calibrate_detection(0.1, 0.2, 0.01)


def test_calibration_floor_is_reachable():
    cal = calibrate_detection(0.1, 0.2, 0.1 * 0.2)
    assert cal.d == pytest.approx(1.0)


def test_calibration_rejects_out_of_range():
    with pytest.raises(ValueError):
        calibrate_detection(1.2, 0.2, 0.1)


@given(
    st.floats(0.01, 0.99),
    st.floats(0.0, 0.95),
    st.floats(0.0, 0.99),
)
@settings(max_examples=200)
def test_calibration_round_trip_property(g, s, frac):
    # any target between the floor g*s and g is reachable
    target = g * s + frac * (g - g * s)
    cal = calibrate_detection(g, s, target)
    assert 0.0 <= cal.d <= 1.0
    assert closed_form_fused_error(g, s, cal.d) == pytest.approx(target, abs=1e-9)


# ---------------------------------------------------------------------------
# Episode simulation
# ---------------------------------------------------------------------------


def test_run_episode_codes_are_valid(rng):
    models = default_models()
    cfg = FusionConfig.uniform(0.7)
    codes = {run_episode(FUSION_OPERATIONS[0], models, cfg, rng) for _ in range(300)}
    assert codes <= {0, 1, 2, 3}


def test_run_episode_with_perfect_gesture_always_emits_gesture(rng):
    from mmfuse.emg import GestureOutcomeModel
    from mmfuse.fusion import ModalityModels

    models = ModalityModels(
        gesture=GestureOutcomeModel.from_error_rates({g: 0.0 for g in Gesture if g is not Gesture.NONE}),
        speech=default_models().speech,
    )
    for op in FUSION_OPERATIONS:
        assert run_episode(op, models, CFG, rng) == TrialCode.EMIT_GESTURE


def test_episode_rate_matches_closed_form():
    models = default_models()
    op = FUSION_OPERATIONS[0]  # gripper & double tap
    d = 0.7403054
    cfg = FusionConfig.uniform(d)
    rng = make_rng(31)
    n = 60_000
    trials = simulate_fused_operation(op, models, cfg, n, rng)
    g = models.gesture.error_rate(op.gesture)
    s = models.speech.error_rate(op.speech)
    expected = closed_form_fused_error(g, s, d)
    se = (expected * (1 - expected) / n) ** 0.5
    assert abs(trials.error_rate - expected) < 3 * se


def _assert_engine_matches_stepped(op, models, cfg, n, seed):
    """The engine and n stepped episodes agree code for code and leave the
    generator at the same point."""
    engine_rng, stepped_rng = make_rng(seed), make_rng(seed)
    trials = simulate_fused_operation(op, models, cfg, n, engine_rng)
    stepped = [run_episode(op, models, cfg, stepped_rng) for _ in range(n)]
    assert trials.codes.dtype == np.int8
    assert trials.codes.tolist() == stepped
    assert engine_rng.random() == stepped_rng.random()


@pytest.mark.parametrize("op", FUSION_OPERATIONS, ids=lambda op: op.label)
def test_engine_matches_stepped_episodes(op):
    from mmfuse.harness import default_fusion_config

    _assert_engine_matches_stepped(op, default_models(), default_fusion_config(), 3000, 21)


@settings(max_examples=60, deadline=None)
@given(
    op=st.sampled_from(FUSION_OPERATIONS),
    d=st.floats(0.0, 1.0),
    window=st.integers(1, 5000),
    rates=st.lists(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        min_size=5,
        max_size=5,
    ),
    profile=st.sampled_from(["uniform", "emphasized"]),
    p_speech=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32),
)
def test_engine_matches_stepped_episodes_property(
    op, d, window, rates, profile, p_speech, n, seed
):
    from mmfuse.emg import GestureOutcomeModel
    from mmfuse.fusion import ModalityModels
    from mmfuse.speech import REFERENCE_CORRECT_RATES, RecognitionModel
    from mmfuse.vocab import GESTURES

    models = ModalityModels(
        gesture=GestureOutcomeModel.from_error_rates(
            dict(zip(GESTURES, rates)), confusion_profile=profile
        ),
        speech=RecognitionModel(
            p_correct={**REFERENCE_CORRECT_RATES, op.speech: p_speech}
        ),
    )
    cfg = FusionConfig.uniform(d, fallback_window_ms=window)
    _assert_engine_matches_stepped(op, models, cfg, n, seed)


def test_window_shorter_than_speech_latency_expires_every_fallback():
    from mmfuse.fusion import SPEECH_LATENCY_MS

    models = _always_failing_models()
    op = FUSION_OPERATIONS[0]
    rng = make_rng(4)
    # the same operation at the default window first, so a table cached by
    # operation alone would answer the short window wrongly
    simulate_fused_operation(op, models, CFG, 10, rng)
    short = FusionConfig.uniform(1.0, fallback_window_ms=SPEECH_LATENCY_MS - 1)
    trials = simulate_fused_operation(op, models, short, 500, rng)
    assert set(trials.codes.tolist()) == {TrialCode.WINDOW_EXPIRED}


@pytest.mark.parametrize("op", FUSION_OPERATIONS, ids=lambda op: op.label)
def test_window_closing_before_capture_expires_every_cell(op):
    from mmfuse.fusion import GESTURE_LATENCY_MS, _transition_table

    for window in (100, GESTURE_LATENCY_MS):
        assert set(_transition_table(op, window).ravel().tolist()) == {
            TrialCode.WINDOW_EXPIRED
        }
    # one millisecond more and the capture lands inside the window
    assert TrialCode.EMIT_GESTURE in _transition_table(op, GESTURE_LATENCY_MS + 1)


def test_error_kinds_match_closed_form_terms():
    # each operation's undetected wrong captures land on g(1-d) and its failed
    # fallbacks on g*d*s; nothing expires at the default window
    from mmfuse.harness import default_fusion_config

    models = default_models()
    cfg = default_fusion_config()
    n = 1_000_000
    for i, op in enumerate(FUSION_OPERATIONS):
        g = models.gesture.error_rate(op.gesture)
        s = models.speech.error_rate(op.speech)
        d = cfg.detection_prob(op)
        counts = simulate_fused_operation(op, models, cfg, n, make_rng(700 + i)).kind_counts()
        for kind, p in (
            (FusionErrorKind.UNDETECTED_WRONG_GESTURE, g * (1 - d)),
            (FusionErrorKind.FALLBACK_FAILED, g * d * s),
        ):
            se = (p * (1 - p) / n) ** 0.5
            assert abs(counts[kind] / n - p) < 5 * se, (op.label, kind, counts[kind])
        assert counts[FusionErrorKind.WINDOW_EXPIRED] == 0, op.label


def test_simulate_rejects_empty_run(rng):
    with pytest.raises(ValueError):
        simulate_fused_operation(FUSION_OPERATIONS[0], default_models(), CFG, 0, rng)


def test_trials_bookkeeping():
    codes = np.array([0, 1, 2, 3, 4, 0, 0, 1], dtype=np.int8)
    trials = FusionTrials(op=FUSION_OPERATIONS[0], codes=codes)
    assert trials.n == 8
    assert trials.error_count == 3  # codes 2, 3, 4
    assert trials.error_rate == pytest.approx(3 / 8)
    counts = trials.kind_counts()
    assert counts == {
        FusionErrorKind.UNDETECTED_WRONG_GESTURE: 1,
        FusionErrorKind.FALLBACK_FAILED: 1,
        FusionErrorKind.WINDOW_EXPIRED: 1,
    }
    # blocks of 2: [0,1] [2,3] [4,0] [0,1] with errors only at codes 2/3/4
    assert trials.block_error_counts(2) == [0, 2, 1, 0]


def test_block_counts_require_exact_division():
    trials = FusionTrials(op=FUSION_OPERATIONS[0], codes=np.zeros(10, dtype=np.int8))
    with pytest.raises(ValueError):
        trials.block_error_counts(3)


def test_simulation_is_deterministic_by_seed():
    models = default_models()
    cfg = FusionConfig.uniform(0.5)
    a = simulate_fused_operation(FUSION_OPERATIONS[1], models, cfg, 500, make_rng(9))
    b = simulate_fused_operation(FUSION_OPERATIONS[1], models, cfg, 500, make_rng(9))
    assert np.array_equal(a.codes, b.codes)
