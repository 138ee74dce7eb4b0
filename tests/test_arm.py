"""Servo arm simulator: stepping, clamping, gripper toggling, and the log."""

import pytest

from mmfuse.arm import (
    GRIPPER_ANGLES,
    GripperState,
    TimeOrderError,
    UnmappedPinError,
    apply_action,
    apply_pin_high,
    log_to_csv,
    new_arm,
)
from mmfuse.seeding import make_rng
from mmfuse.vocab import Gesture, action_for_gesture


def test_new_arm_defaults():
    a = new_arm()
    assert len(a.servos) == 5
    assert all(s.angle == 90.0 for s in a.servos)
    assert a.gripper is GripperState.OPEN
    assert a.log == ()


def test_servo_pins_step_their_servo():
    a = new_arm()
    a = apply_pin_high(a, 3, 10)
    a = apply_pin_high(a, 4, 20)
    a = apply_pin_high(a, 5, 30)
    a = apply_pin_high(a, 9, 40)
    assert [s.angle for s in a.servos[:4]] == [95, 95, 95, 95]


def test_pin_high_is_pure():
    a = new_arm()
    b = apply_pin_high(a, 3, 10)
    assert a.servos[0].angle == 90.0
    assert b.servos[0].angle == 95.0
    assert a.log == ()


def test_gripper_toggle_cycles_and_mirrors_servo():
    a = new_arm()
    a = apply_pin_high(a, 10, 10)
    assert a.gripper is GripperState.CLOSED
    assert a.servos[4].angle == GRIPPER_ANGLES[GripperState.CLOSED]
    a = apply_pin_high(a, 10, 20)
    assert a.gripper is GripperState.OPEN
    assert a.servos[4].angle == GRIPPER_ANGLES[GripperState.OPEN]


def test_angles_clamp_at_limits():
    a = new_arm()
    t = 0
    for _ in range(40):  # 90 + 40*5 would be 290 unclamped
        t += 10
        a = apply_pin_high(a, 3, t)
    assert a.servos[0].angle == 180.0
    a = apply_pin_high(a, 3, t + 10)
    assert a.servos[0].angle == 180.0


def test_negative_step_clamps_at_zero():
    a = new_arm()
    a = apply_pin_high(a, 3, 10, step_deg=-200)
    assert a.servos[0].angle == 0.0


def test_unmapped_pin_rejected():
    with pytest.raises(UnmappedPinError):
        apply_pin_high(new_arm(), 7, 10)


def test_time_must_not_regress():
    a = apply_pin_high(new_arm(), 3, 100)
    with pytest.raises(TimeOrderError):
        apply_pin_high(a, 4, 99)
    # equal timestamps are fine: two pins can fire in the same tick
    apply_pin_high(a, 4, 100)


def test_apply_action_matches_pin_semantics():
    direct = apply_pin_high(new_arm(), 5, 10)
    via_action = apply_action(new_arm(), action_for_gesture(Gesture.WAVE_OUT), 10)
    assert [s.angle for s in direct.servos] == [s.angle for s in via_action.servos]


def test_log_records_every_event():
    a = new_arm()
    a = apply_pin_high(a, 3, 100)
    a = apply_pin_high(a, 10, 200)
    assert len(a.log) == 2
    assert a.log[0].t_ms == 100
    assert a.log[0].pin == 3
    assert a.log[1].pin == 10


def test_log_csv_format():
    a = new_arm()
    a = apply_pin_high(a, 3, 100)
    a = apply_pin_high(a, 10, 200)
    lines = log_to_csv(a).splitlines()
    assert lines[0] == "t_ms,pin,servo_or_gripper,before,after"
    assert lines[1] == "100,3,base,90,95"
    assert lines[2].startswith("200,10,gripper,open,closed")


def test_random_pin_fuzz_keeps_angles_bounded():
    # smaller cousin of the acceptance fuzz: any pin sequence stays in range
    rng = make_rng(2024)
    pins = [3, 4, 5, 9, 10]
    a = new_arm()
    t = 0
    for _ in range(1000):
        t += int(rng.integers(0, 50))
        step = float(rng.integers(-30, 31))
        a = apply_pin_high(a, pins[int(rng.integers(0, 5))], t, step_deg=step)
        assert all(0.0 <= s.angle <= 180.0 for s in a.servos)


def test_servo_state_validates_angle():
    from mmfuse.arm import ServoState

    with pytest.raises(ValueError):
        ServoState(servo_id=0, angle=200.0)
    with pytest.raises(ValueError):
        ServoState(servo_id=0, angle=-1.0)
