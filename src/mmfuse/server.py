"""Fusion server: one protocol session per connection, event-time windows.

Each connection speaks the line protocol from :mod:`mmfuse.protocol`.  The
session wraps one fusion state machine; window expiry is judged against the
timestamps carried by events, never against wall-clock arrival, so a recorded
session replays byte-identically.

Wire captures carry no information about what the operator intended, so a
wrong capture arrives looking like a correct capture of some other gesture,
and one the band's detector caught arrives as an empty capture (``NONE``).
Sessions therefore draw no randomness: the replies depend only on the lines
and the fusion config.

Error codes: 400 protocol violation and 409 ordering violation close the
connection; 503 (fallback failed) and 504 (window expired) report a failed
episode and leave the session open for the next one.
"""

from __future__ import annotations

import socketserver
from typing import Iterable, List, Optional, Tuple

from . import protocol as wire
from .fusion import (
    ClockTick,
    EventSource,
    FusedCommand,
    FusionConfig,
    FusionError,
    FusionErrorKind,
    FusionState,
    Idle,
    ModalityEvent,
    capture_gesture,
    step,
)
from .speech import RawUtterance

_FUSION_ERR_CODES = {
    FusionErrorKind.FALLBACK_FAILED: (503, "fallback failed"),
    FusionErrorKind.WINDOW_EXPIRED: (504, "window expired"),
}


def _fused_line(cmd: FusedCommand) -> str:
    return wire.encode(
        wire.Fused(
            t_ms=cmd.t_ms,
            action_name=f"PIN{cmd.action.pin}",
            source=cmd.source,
        )
    )


class Session:
    """Protocol state for one connection; strictly serial message handling."""

    def __init__(self, cfg: Optional[FusionConfig] = None) -> None:
        # only the window length matters here; d is drawn by the simulator
        self.cfg = cfg if cfg is not None else FusionConfig.uniform(1.0)
        self.state: FusionState = Idle()
        self.greeted = False
        self.closed = False
        self.last_seq = -1
        self.last_t_ms = -1

    def _violation(self, code: int, message: str) -> Tuple[List[str], bool]:
        self.closed = True
        return [wire.encode(wire.Err(code=code, message=message))], False

    def _absorb(self, result, replies: List[str]) -> None:
        if isinstance(result, FusedCommand):
            replies.append(_fused_line(result))
        elif isinstance(result, FusionError):
            code, text = _FUSION_ERR_CODES[result.kind]
            replies.append(wire.encode(wire.Err(code=code, message=text)))

    def handle_line(self, line: str) -> Tuple[List[str], bool]:
        """Replies for one inbound line, plus whether to keep the connection."""
        if self.closed:
            return [], False
        try:
            msg = wire.decode(line)
        except wire.ParseError as e:
            return self._violation(400, str(e))

        if not self.greeted:
            if not isinstance(msg, wire.Hello):
                return self._violation(400, "expected HELLO")
            if msg.version != wire.PROTOCOL_VERSION:
                return self._violation(
                    400, f"unsupported version {msg.version}"
                )
            self.greeted = True
            return [wire.encode(wire.Hello())], True

        if isinstance(msg, wire.Bye):
            self.closed = True
            return [wire.encode(wire.Bye())], False
        if not isinstance(msg, wire.Evt):
            return self._violation(400, "only EVT or BYE after handshake")

        if msg.seq <= self.last_seq:
            return self._violation(409, f"seq {msg.seq} not increasing")
        if msg.t_ms < self.last_t_ms:
            return self._violation(409, f"t_ms {msg.t_ms} went backwards")
        self.last_seq = msg.seq
        self.last_t_ms = msg.t_ms

        replies = [wire.encode(wire.Ack(seq=msg.seq))]

        # advance the clock to the event time first so expiries fire in order
        self.state, result = step(self.state, ClockTick(msg.t_ms), self.cfg)
        self._absorb(result, replies)

        if msg.source is EventSource.GESTURE:
            g = wire.gesture_from_token(msg.payload)
            self.state, result = capture_gesture(
                self.state, g, msg.t_ms, msg.seq, self.cfg
            )
        else:
            utterance = RawUtterance(text=msg.payload, spoken=None)
            event = ModalityEvent(EventSource.SPEECH, msg.t_ms, utterance, msg.seq)
            self.state, result = step(self.state, event, self.cfg)
        self._absorb(result, replies)
        return replies, True


def run_session(
    lines: Iterable[str],
    cfg: Optional[FusionConfig] = None,
    base_seed: int = 0,
    session_index: int = 0,
) -> List[str]:
    """Feed a whole transcript through a fresh session; return all replies.

    Deterministic: the same lines and config always produce byte-identical
    output. ``base_seed`` and ``session_index`` are accepted for callers that
    name a replay, but the replies do not depend on them. This is the replay
    path used by tests and tools.
    """
    session = Session(cfg=cfg)
    out: List[str] = []
    for line in lines:
        replies, keep = session.handle_line(line)
        out.extend(replies)
        if not keep:
            break
    return out


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        server: FusionServer = self.server  # type: ignore[assignment]
        session = Session(cfg=server.cfg)
        while True:
            raw = self.rfile.readline()
            if not raw:
                break
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                line = ""  # force a parse error below
            replies, keep = session.handle_line(line or "\n")
            for reply in replies:
                self.wfile.write(reply.encode("utf-8"))
            self.wfile.flush()
            if not keep:
                break


class FusionServer(socketserver.ThreadingTCPServer):
    """TCP front end; one isolated session per connection."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int] = ("127.0.0.1", wire.DEFAULT_PORT),
        cfg: Optional[FusionConfig] = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.cfg = cfg

    @property
    def port(self) -> int:
        return self.server_address[1]


def serve(
    port: int = wire.DEFAULT_PORT,
    host: str = "127.0.0.1",
    cfg: Optional[FusionConfig] = None,
) -> None:  # pragma: no cover - blocking entry point
    """Run the fusion server until interrupted."""
    with FusionServer((host, port), cfg=cfg) as srv:
        srv.serve_forever()
