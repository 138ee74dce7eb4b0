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

One thread serves every connection from a selector loop; the replies to
all the lines that one read brings in leave in a single send.

Error codes: 400 protocol violation and 409 ordering violation close the
connection; 503 (fallback failed) and 504 (window expired) report a failed
episode and leave the session open for the next one.
"""

from __future__ import annotations

import selectors
import socket
import threading
import traceback
from typing import Dict, Iterable, List, Optional, Tuple

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


#: Bytes taken from a socket per read; every whole line in them is answered
#: before the next read.
_RECV_BYTES = 65536


class _Connection:
    """One client socket, its session, and the bytes not yet parsed or sent."""

    __slots__ = ("sock", "session", "inbox", "outbox", "closing", "events")

    def __init__(self, sock: socket.socket, cfg: Optional[FusionConfig]) -> None:
        self.sock = sock
        self.session = Session(cfg=cfg)
        self.inbox = b""
        self.outbox = b""
        self.closing = False
        self.events = selectors.EVENT_READ

    def answer(self, eof: bool) -> bytes:
        """Replies to every whole line in the inbox, joined into one send.

        Lines are cut where ``readline(MAX_LINE_BYTES + 1)`` would cut them,
        so a line past the cap is refused at its first byte over; at end of
        input a trailing partial line is answered too. Nothing after a reply
        that closes the session is read.
        """
        cap = wire.MAX_LINE_BYTES + 1
        inbox, start = self.inbox, 0
        replies: List[str] = []
        while not self.closing:
            end = inbox.find(b"\n", start, start + cap) + 1
            if not end:
                if len(inbox) - start >= cap:
                    end = start + cap
                elif eof and start < len(inbox):
                    end = len(inbox)
                else:
                    break
            raw, start = inbox[start:end], end
            try:
                line = wire.line_from_bytes(raw)
            except wire.ParseError as e:
                out, keep = self.session._violation(400, str(e))
            else:
                out, keep = self.session.handle_line(line)
            replies += out
            self.closing = not keep
        self.inbox = inbox[start:]
        return "".join(replies).encode("utf-8")


class FusionServer:
    """TCP front end; one isolated session per connection.

    One thread serves every connection from a selector loop: a session is
    serial and answers a line in microseconds, so no connection gets a
    thread of its own. The surface is socketserver's: ``serve_forever`` on
    a thread of the caller's, ``shutdown`` from another thread, then
    ``server_close``.
    """

    def __init__(
        self,
        address: Tuple[str, int] = ("127.0.0.1", wire.DEFAULT_PORT),
        cfg: Optional[FusionConfig] = None,
    ) -> None:
        self.cfg = cfg
        self.socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self.socket.bind(address)
            self.socket.listen()
        except BaseException:
            self.socket.close()
            raise
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        self._conns: Dict[socket.socket, _Connection] = {}
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._shutdown_request = False
        self._is_shut_down = threading.Event()

    @property
    def port(self) -> int:
        return self.server_address[1]

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve until :meth:`shutdown` is called from another thread.

        ``poll_interval`` bounds each wait, as in socketserver; shutdown
        wakes the loop at once either way.
        """
        self._is_shut_down.clear()
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(self.socket, selectors.EVENT_READ)
                sel.register(self._wake_r, selectors.EVENT_READ)
                for conn in self._conns.values():
                    sel.register(conn.sock, conn.events, conn)
                while not self._shutdown_request:
                    for key, events in sel.select(poll_interval):
                        if key.data is not None:
                            self._on_ready(sel, key.data, events)
                        elif key.fileobj is self.socket:
                            self._accept(sel)
                        else:
                            self._drain_wake()
        finally:
            self._shutdown_request = False
            self._is_shut_down.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until it has returned."""
        self._shutdown_request = True
        try:
            self._wake_w.send(b"\0")
        except OSError:  # the pipe is full, so the loop is already woken
            pass
        self._is_shut_down.wait()

    def server_close(self) -> None:
        """Close the listening socket and every open connection."""
        for sock in self._conns:
            sock.close()
        self._conns.clear()
        self.socket.close()
        self._wake_r.close()
        self._wake_w.close()

    def __enter__(self) -> "FusionServer":
        return self

    def __exit__(self, *exc) -> None:
        self.server_close()

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(256):
                pass
        except OSError:
            pass

    def _accept(self, sel: selectors.BaseSelector) -> None:
        try:
            sock, _ = self.socket.accept()
        except OSError:  # the client gave up already, or no descriptor is left
            return
        sock.setblocking(False)
        conn = _Connection(sock, self.cfg)
        self._conns[sock] = conn
        sel.register(sock, conn.events, conn)

    def _on_ready(self, sel: selectors.BaseSelector, conn: _Connection, events: int) -> None:
        try:
            if events & selectors.EVENT_READ:
                data = conn.sock.recv(_RECV_BYTES)
                conn.inbox += data
                conn.outbox = conn.answer(eof=not data)
                conn.closing = conn.closing or not data
            if conn.outbox:
                self._send(conn)
        except OSError:  # the peer reset or went away
            self._close(sel, conn)
            return
        except Exception:
            traceback.print_exc()
            self._close(sel, conn)
            return
        if conn.outbox:
            self._watch(sel, conn, selectors.EVENT_WRITE)
        elif conn.closing:
            self._close(sel, conn)
        else:
            self._watch(sel, conn, selectors.EVENT_READ)

    def _send(self, conn: _Connection) -> None:
        """Send what the socket takes of the outbox now.

        Each read's replies leave in one send: a second small send would
        wait behind Nagle's algorithm for the client's delayed ACK (about
        40 ms) before a closed-loop client could go on.
        """
        try:
            sent = conn.sock.send(conn.outbox)
        except BlockingIOError:
            return
        conn.outbox = conn.outbox[sent:]

    @staticmethod
    def _watch(sel: selectors.BaseSelector, conn: _Connection, events: int) -> None:
        # no reads while replies wait to go out, so a client that does not
        # read cannot make the server buffer without bound
        if conn.events != events:
            conn.events = events
            sel.modify(conn.sock, events, conn)

    def _close(self, sel: selectors.BaseSelector, conn: _Connection) -> None:
        sel.unregister(conn.sock)
        del self._conns[conn.sock]
        try:
            conn.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        conn.sock.close()


def serve(
    port: int = wire.DEFAULT_PORT,
    host: str = "127.0.0.1",
    cfg: Optional[FusionConfig] = None,
) -> None:  # pragma: no cover - blocking entry point
    """Run the fusion server until interrupted."""
    with FusionServer((host, port), cfg=cfg) as srv:
        srv.serve_forever()
