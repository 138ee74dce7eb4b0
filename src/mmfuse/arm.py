"""Pin-level simulated controller board driving a five-servo arm.

The interface is deliberately thin: the only input is "this pin went high at
this time", mirroring how the physical controller was driven.  Four pins each
nudge one joint by a fixed step; the fifth toggles the gripper.  Every
accepted event appends one entry to an audit log, so a whole session can be
replayed or exported.

State is immutable; every operation returns a new ArmState.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from enum import Enum
from typing import Tuple

from .vocab import (
    ArmAction,
    DEFAULT_STEP_DEG,
    GRIPPER_PIN,
    SERVO_FOR_PIN,
    SERVO_NAMES,
    StepServo,
    ToggleGripper,
)

ANGLE_MIN = 0
ANGLE_MAX = 180
HOME_ANGLE = 90

#: Pins the board reacts to.
DRIVEN_PINS = frozenset(SERVO_FOR_PIN) | {GRIPPER_PIN}


class UnmappedPinError(ValueError):
    """The pin is not wired to any servo or the gripper."""


class TimeOrderError(ValueError):
    """An event arrived with a timestamp earlier than the log tail."""


class GripperState(Enum):
    OPEN = "open"
    CLOSED = "closed"


#: Claw servo angle for each gripper state.
GRIPPER_ANGLES = {GripperState.OPEN: 90.0, GripperState.CLOSED: 0.0}


@dataclass(frozen=True)
class ServoState:
    servo_id: int
    angle: float

    def __post_init__(self) -> None:
        if not 0 <= self.servo_id <= 4:
            raise ValueError(f"servo_id out of range: {self.servo_id}")
        if not ANGLE_MIN <= self.angle <= ANGLE_MAX:
            raise ValueError(f"angle out of [{ANGLE_MIN}, {ANGLE_MAX}]: {self.angle}")

    @property
    def name(self) -> str:
        return SERVO_NAMES[self.servo_id]


@dataclass(frozen=True)
class LogEntry:
    """One accepted pin event and the state delta it caused."""

    t_ms: int
    pin: int
    target: str  # joint name or "gripper"
    before: str
    after: str


@dataclass(frozen=True)
class ArmState:
    servos: Tuple[ServoState, ...]
    gripper: GripperState
    log: Tuple[LogEntry, ...]

    def __post_init__(self) -> None:
        if len(self.servos) != 5:
            raise ValueError("arm has exactly five servos")
        for i, s in enumerate(self.servos):
            if s.servo_id != i:
                raise ValueError("servos must be ordered by servo_id")

    @property
    def last_t_ms(self) -> int:
        return self.log[-1].t_ms if self.log else -1

    def angle(self, servo_id: int) -> float:
        return self.servos[servo_id].angle


def new_arm() -> ArmState:
    """All joints at the home angle, gripper open, empty log."""
    servos = tuple(ServoState(servo_id=i, angle=HOME_ANGLE) for i in range(5))
    return ArmState(servos=servos, gripper=GripperState.OPEN, log=())


def _clamp(angle: float) -> float:
    return min(max(angle, ANGLE_MIN), ANGLE_MAX)


def apply_pin_high(
    state: ArmState, pin: int, t_ms: int, step_deg: float = DEFAULT_STEP_DEG
) -> ArmState:
    """One pin-high event: step the mapped joint or toggle the gripper.

    Events must arrive in non-decreasing time order relative to the log.
    """
    if pin not in DRIVEN_PINS:
        raise UnmappedPinError(f"pin {pin} is not wired")
    if t_ms < state.last_t_ms:
        raise TimeOrderError(
            f"event at {t_ms} ms precedes log tail at {state.last_t_ms} ms"
        )

    if pin == GRIPPER_PIN:
        after = (
            GripperState.CLOSED
            if state.gripper is GripperState.OPEN
            else GripperState.OPEN
        )
        # the claw is the fifth servo, driven to a fixed angle per state
        claw = ServoState(servo_id=4, angle=GRIPPER_ANGLES[after])
        servos = state.servos[:4] + (claw,)
        entry = LogEntry(
            t_ms=t_ms,
            pin=pin,
            target="gripper",
            before=state.gripper.value,
            after=after.value,
        )
        return replace(state, gripper=after, servos=servos, log=state.log + (entry,))

    sid = SERVO_FOR_PIN[pin]
    old = state.servos[sid]
    moved = ServoState(servo_id=sid, angle=_clamp(old.angle + step_deg))
    servos = state.servos[:sid] + (moved,) + state.servos[sid + 1 :]
    entry = LogEntry(
        t_ms=t_ms,
        pin=pin,
        target=old.name,
        before=f"{old.angle:g}",
        after=f"{moved.angle:g}",
    )
    return replace(state, servos=servos, log=state.log + (entry,))


def apply_action(state: ArmState, action: ArmAction, t_ms: int) -> ArmState:
    """Drive the board from a decoded arm action (as the fusion layer emits)."""
    if isinstance(action.effect, StepServo):
        return apply_pin_high(state, action.pin, t_ms, step_deg=action.effect.step_deg)
    assert isinstance(action.effect, ToggleGripper)
    return apply_pin_high(state, action.pin, t_ms)


def log_to_csv(state: ArmState) -> str:
    """Audit log as CSV text with a header row."""
    buf = io.StringIO()
    buf.write("t_ms,pin,servo_or_gripper,before,after\n")
    for e in state.log:
        buf.write(f"{e.t_ms},{e.pin},{e.target},{e.before},{e.after}\n")
    return buf.getvalue()
