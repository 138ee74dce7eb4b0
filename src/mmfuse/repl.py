"""Interactive episode driver: type captures, watch the fused channel react.

Commands:

    g <gesture|none>   deliver a band capture (the token is what the band
                       reported; "none" is an empty window)
    s "<utterance>"    deliver a recognized speech string
    tick <ms>          advance the clock
    state              show the fusion state and arm pose
    reset              fresh machine, fresh arm, clock back to zero
    quit               leave

Each command prints what the fusion layer did: armed windows, fused commands
with the resulting joint movement, or episode errors.
"""

from __future__ import annotations

import shlex
import sys
from typing import IO, Optional

from .arm import ArmState, GripperState, apply_action, new_arm
from .fusion import (
    AwaitingGesture,
    ClockTick,
    Emitting,
    EventSource,
    FusedCommand,
    FusionConfig,
    FusionError,
    FusionState,
    Idle,
    ModalityEvent,
    SpeechFallback,
    StepResult,
    capture_gesture,
    step,
)
from .speech import RawUtterance
from .vocab import parse_gesture_name

_USAGE = (
    'commands: g <gesture|none>, s "<utterance>", tick <ms>, state, reset, quit'
)

#: Milliseconds the clock advances before each delivered capture.
_CAPTURE_SPACING_MS = 100


def _state_name(state: FusionState) -> str:
    if isinstance(state, Idle):
        return "idle"
    if isinstance(state, AwaitingGesture):
        return f"awaiting gesture (window closes at {state.deadline_ms} ms)"
    if isinstance(state, SpeechFallback):
        return f"speech fallback (window closes at {state.deadline_ms} ms)"
    return "emitted"


class ReplSession:
    """One interactive session; drives a fusion machine and a simulated arm."""

    def __init__(self, cfg: Optional[FusionConfig] = None) -> None:
        self.cfg = cfg if cfg is not None else FusionConfig.uniform(1.0)
        self.state: FusionState = Idle()
        self.arm: ArmState = new_arm()
        self.t_ms = 0
        self.seq = 0

    def _absorb(self, result, out: IO[str]) -> None:
        if isinstance(result, FusedCommand):
            self.arm = apply_action(self.arm, result.action, result.t_ms)
            entry = self.arm.log[-1]
            print(
                f"FUSED PIN{result.action.pin} ({result.source.value}) "
                f"{entry.target} {entry.before} -> {entry.after}",
                file=out,
            )
        elif isinstance(result, FusionError):
            print(f"ERROR {result.kind.value} at {result.t_ms} ms", file=out)

    def _advance(self, stepped: StepResult, out: IO[str]) -> None:
        before = self.state
        self.state, result = stepped
        if isinstance(self.state, SpeechFallback) and not isinstance(
            before, SpeechFallback
        ):
            print(
                f"gesture channel failed; speak before {self.state.deadline_ms} ms",
                file=out,
            )
        self._absorb(result, out)

    def do_gesture(self, token: str, out: IO[str]) -> None:
        g = parse_gesture_name(token)
        self.t_ms += _CAPTURE_SPACING_MS
        self._advance(capture_gesture(self.state, g, self.t_ms, self.seq, self.cfg), out)
        self.seq += 1

    def do_speech(self, text: str, out: IO[str]) -> None:
        self.t_ms += _CAPTURE_SPACING_MS
        event = ModalityEvent(
            source=EventSource.SPEECH,
            t_ms=self.t_ms,
            payload=RawUtterance(text=text, spoken=None),
            seq=self.seq,
        )
        self.seq += 1
        if isinstance(self.state, (Idle, Emitting)):
            print("no episode waiting on speech; capture a gesture first", file=out)
            return
        self._advance(step(self.state, event, self.cfg), out)

    def do_tick(self, ms: int, out: IO[str]) -> None:
        self.t_ms += ms
        self._advance(step(self.state, ClockTick(self.t_ms), self.cfg), out)
        print(f"clock at {self.t_ms} ms", file=out)

    def do_state(self, out: IO[str]) -> None:
        print(f"fusion: {_state_name(self.state)}", file=out)
        joints = "  ".join(f"{s.name} {s.angle:g}" for s in self.arm.servos[:4])
        grip = "open" if self.arm.gripper is GripperState.OPEN else "closed"
        print(f"arm: {joints}  gripper {grip}", file=out)

    def do_reset(self, out: IO[str]) -> None:
        self.state = Idle()
        self.arm = new_arm()
        self.t_ms = 0
        self.seq = 0
        print("reset", file=out)

    def handle(self, line: str, out: IO[str]) -> bool:
        """Run one command line; returns False when the session should end."""
        try:
            words = shlex.split(line)
        except ValueError as e:
            print(f"cannot parse: {e}", file=out)
            print(_USAGE, file=out)
            return True
        if not words:
            return True
        cmd, args = words[0].lower(), words[1:]
        try:
            if cmd == "quit":
                return False
            if cmd == "g" and len(args) >= 1:
                self.do_gesture(" ".join(args), out)
            elif cmd == "s" and len(args) == 1:
                self.do_speech(args[0], out)
            elif cmd == "tick" and len(args) == 1:
                self.do_tick(int(args[0]), out)
            elif cmd == "state" and not args:
                self.do_state(out)
            elif cmd == "reset" and not args:
                self.do_reset(out)
            else:
                print(_USAGE, file=out)
        except (ValueError, KeyError) as e:
            print(f"error: {e}", file=out)
            print(_USAGE, file=out)
        return True


def run_repl(
    stdin: Optional[IO[str]] = None,
    stdout: Optional[IO[str]] = None,
    cfg: Optional[FusionConfig] = None,
) -> int:
    """Read commands until quit or EOF; returns the process exit code."""
    inp = stdin if stdin is not None else sys.stdin
    out = stdout if stdout is not None else sys.stdout
    session = ReplSession(cfg=cfg)
    interactive = inp is sys.stdin and sys.stdin.isatty()
    if interactive:
        print(_USAGE, file=out)
    while True:
        if interactive:
            out.write("mmfuse> ")
            out.flush()
        line = inp.readline()
        if not line:
            break
        if not session.handle(line, out):
            break
    return 0
