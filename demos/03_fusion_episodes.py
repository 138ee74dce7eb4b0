"""Drive the fusion state machine by hand, then check it against the algebra.

An episode starts awaiting a gesture. Any capture fuses immediately; an
empty one opens a fallback window, and the next utterance inside it
decides the episode. The simulator, which knows the intended gesture,
turns a wrong capture into an empty one with the calibrated detection
probability. The expected error rate of that procedure has a closed form,
and a Monte Carlo run through a transition table stepped from the machine
lands on it.
"""

from mmfuse import (
    ClockTick,
    EventSource,
    FusedCommand,
    FusionError,
    Gesture,
    GestureOutcome,
    ModalityEvent,
    OutcomeKind,
    RawUtterance,
    calibrate_detection,
    begin_episode,
    closed_form_fused_error,
    default_fusion_config,
    default_models,
    make_rng,
    operation_for_gesture,
    simulate_fused_operation,
    step,
)


def show(label, state, out) -> None:
    name = type(state).__name__
    if isinstance(out, FusedCommand):
        print(f"  {label:28s} -> {name}, fused pin {out.action.pin} via {out.source.value}")
    elif isinstance(out, FusionError):
        print(f"  {label:28s} -> {name}, error {out.kind.value}")
    else:
        print(f"  {label:28s} -> {name}")


def walk_episodes() -> None:
    cfg = default_fusion_config()

    print("episode 1: clean gesture")
    st = begin_episode(0, cfg)
    ev = ModalityEvent(
        EventSource.GESTURE,
        40,
        GestureOutcome(OutcomeKind.CORRECT, Gesture.WAVE_OUT, Gesture.WAVE_OUT),
        seq=0,
    )
    st, out = step(st, ev, cfg)
    show("correct wave out", st, out)

    print("episode 2: missed gesture, speech rescues inside the window")
    st = begin_episode(1000, cfg)
    ev = ModalityEvent(
        EventSource.GESTURE,
        1040,
        GestureOutcome(OutcomeKind.MISSED, Gesture.WAVE_OUT, None),
        seq=1,
    )
    st, out = step(st, ev, cfg)
    show("missed wave out", st, out)
    ev = ModalityEvent(
        EventSource.SPEECH, 1900, RawUtterance("move right", None), seq=2
    )
    st, out = step(st, ev, cfg)
    show('utterance "move right"', st, out)

    print("episode 3: missed gesture, window expires before any utterance")
    st = begin_episode(5000, cfg)
    ev = ModalityEvent(
        EventSource.GESTURE,
        5040,
        GestureOutcome(OutcomeKind.MISSED, Gesture.FIST, None),
        seq=3,
    )
    st, out = step(st, ev, cfg)
    show("missed fist", st, out)
    st, out = step(st, ClockTick(t_ms=9000), cfg)
    show("clock tick at +4 s", st, out)


def algebra_vs_machine() -> None:
    models = default_models()
    cfg = default_fusion_config()
    print("\nclosed form vs 100k simulated episodes per operation")
    print(f"{'operation':28s} {'closed':>8s} {'machine':>8s}")
    for i, g in enumerate(
        (Gesture.FIST, Gesture.WAVE_IN, Gesture.WAVE_OUT)
    ):
        op = operation_for_gesture(g)
        gm = models.gesture.rates[g]
        sm = models.speech.error_rate(op.speech)
        d = cfg.detection_prob(op)
        closed = closed_form_fused_error(gm.p_wrong + gm.p_missed, sm, d)
        trials = simulate_fused_operation(
            op, models, cfg, 100_000, make_rng(300 + i)
        )
        print(f"{op.label:28s} {100 * closed:8.3f} {100 * trials.error_rate:8.3f}")


def calibration_example() -> None:
    # pick d so the fused rate halves the gesture rate, then verify
    g, s = 0.20, 0.10
    target = 0.10
    cal = calibrate_detection(g, s, target)
    print(f"\ncalibrate: g={g} s={s} target={target}")
    print(f"  d = {cal.d:.6f} ({cal.status.value})")
    print(f"  closed_form_fused_error round trip = {closed_form_fused_error(g, s, cal.d):.6f}")


if __name__ == "__main__":
    walk_episodes()
    algebra_vs_machine()
    calibration_example()
