"""Line-based wire protocol between modality clients and the fusion server.

Six message kinds travel as single text lines, newline-terminated, fields
separated by exactly one space:

    HELLO mmfuse/1
    EVT GESTURE 3 900 FIST
    EVT SPEECH 7 1500 "move right"
    ACK 7
    FUSED 1600 PIN5 GESTURE
    ERR 400 "expected HELLO"
    BYE

Gesture payloads are bare uppercase tokens (NONE marks an empty capture
window); speech payloads and error messages are double-quoted with backslash
escapes for quote and backslash.  The grammar is strict: no extra whitespace,
no unterminated lines, unknown verbs rejected.  decode() is the exact inverse
of encode() on its image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .fusion import CommandSource, EventSource
from .vocab import Gesture, GESTURES, PIN_ASSIGNMENTS

PROTOCOL_VERSION = "mmfuse/1"
DEFAULT_PORT = 7207
#: Longest line a peer may send, newline included.
MAX_LINE_BYTES = 4096

_GESTURE_TOKENS: dict[str, Gesture] = {g.name: g for g in GESTURES}
_GESTURE_TOKENS["NONE"] = Gesture.NONE
_TOKEN_FOR_GESTURE = {g: t for t, g in _GESTURE_TOKENS.items()}

_ACTION_TOKENS = {f"PIN{pin}" for pin in PIN_ASSIGNMENTS.values()}

_SOURCE_TOKENS = {"GESTURE": EventSource.GESTURE, "SPEECH": EventSource.SPEECH}
_FUSED_SOURCE_TOKENS = {
    "GESTURE": CommandSource.GESTURE,
    "SPEECH": CommandSource.SPEECH,
}


class EncodeError(ValueError):
    """The message cannot be represented as a single wire line."""


class ParseError(ValueError):
    """Malformed wire line; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class UnknownVerb(ParseError):
    """The line starts with a verb outside the protocol."""


@dataclass(frozen=True)
class Hello:
    version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class Evt:
    source: EventSource
    seq: int
    t_ms: int
    payload: str  # gesture token or raw utterance text


@dataclass(frozen=True)
class Ack:
    seq: int


@dataclass(frozen=True)
class Fused:
    t_ms: int
    action_name: str  # PIN3 .. PIN10
    source: CommandSource


@dataclass(frozen=True)
class Err:
    code: int
    message: str


@dataclass(frozen=True)
class Bye:
    pass


WireMessage = Union[Hello, Evt, Ack, Fused, Err, Bye]


def gesture_token(g: Gesture) -> str:
    """Wire token for a gesture (``NONE`` for the empty capture)."""
    return _TOKEN_FOR_GESTURE[g]


def gesture_from_token(token: str) -> Gesture:
    try:
        return _GESTURE_TOKENS[token]
    except KeyError:
        raise ValueError(f"unknown gesture token {token!r}") from None


def _quote(text: str) -> str:
    if "\n" in text or "\r" in text:
        raise EncodeError("payload text must not contain line breaks")
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _check_token(text: str, what: str) -> str:
    if not text:
        raise EncodeError(f"{what} must be non-empty")
    if any(c.isspace() for c in text):
        raise EncodeError(f"{what} must not contain whitespace: {text!r}")
    return text


def encode(m: WireMessage) -> str:
    """One wire line for the message, newline-terminated."""
    if isinstance(m, Hello):
        return f"HELLO {_check_token(m.version, 'version')}\n"
    if isinstance(m, Evt):
        if m.seq < 0 or m.t_ms < 0:
            raise EncodeError("seq and t_ms must be non-negative")
        src = m.source.name
        if m.source is EventSource.GESTURE:
            if m.payload not in _GESTURE_TOKENS:
                raise EncodeError(f"unknown gesture token {m.payload!r}")
            return f"EVT {src} {m.seq} {m.t_ms} {m.payload}\n"
        if not m.payload:
            # the decoder refuses empty utterances; refuse to emit them
            raise EncodeError("utterance must be non-empty")
        return f"EVT {src} {m.seq} {m.t_ms} {_quote(m.payload)}\n"
    if isinstance(m, Ack):
        if m.seq < 0:
            raise EncodeError("seq must be non-negative")
        return f"ACK {m.seq}\n"
    if isinstance(m, Fused):
        if m.t_ms < 0:
            raise EncodeError("t_ms must be non-negative")
        if m.action_name not in _ACTION_TOKENS:
            raise EncodeError(f"unknown action token {m.action_name!r}")
        return f"FUSED {m.t_ms} {m.action_name} {m.source.name}\n"
    if isinstance(m, Err):
        if not 100 <= m.code <= 999:
            raise EncodeError(f"error code out of range: {m.code}")
        return f"ERR {m.code} {_quote(m.message)}\n"
    if isinstance(m, Bye):
        return "BYE\n"
    raise EncodeError(f"not a wire message: {m!r}")


class _Cursor:
    """Strict left-to-right scanner that reports faults as byte offsets."""

    def __init__(self, line: str) -> None:
        self.line = line
        self.pos = 0  # character position; offsets reported in bytes

    def _byte_offset(self, pos: int | None = None) -> int:
        p = self.pos if pos is None else pos
        return len(self.line[:p].encode("utf-8"))

    def fail(self, message: str, pos: int | None = None) -> ParseError:
        return ParseError(message, self._byte_offset(pos))

    def expect_space(self) -> None:
        if self.pos >= len(self.line) or self.line[self.pos] != " ":
            raise self.fail("expected a single space")
        self.pos += 1
        if self.pos < len(self.line) and self.line[self.pos] == " ":
            raise self.fail("multiple spaces between fields")

    def token(self) -> str:
        start = self.pos
        while self.pos < len(self.line) and self.line[self.pos] not in ' "':
            self.pos += 1
        if self.pos == start:
            raise self.fail("expected a field")
        return self.line[start : self.pos]

    def number(self, what: str) -> int:
        start = self.pos
        tok = self.token()
        if not tok.isdigit():
            raise self.fail(f"{what} must be a non-negative integer", start)
        return int(tok)

    def quoted(self) -> str:
        if self.pos >= len(self.line) or self.line[self.pos] != '"':
            raise self.fail("expected an opening quote")
        self.pos += 1
        out: list[str] = []
        while self.pos < len(self.line):
            c = self.line[self.pos]
            if c == "\\":
                if self.pos + 1 >= len(self.line):
                    raise self.fail("dangling escape")
                nxt = self.line[self.pos + 1]
                if nxt not in ('"', "\\"):
                    raise self.fail("unknown escape", self.pos)
                out.append(nxt)
                self.pos += 2
                continue
            if c == '"':
                self.pos += 1
                return "".join(out)
            out.append(c)
            self.pos += 1
        raise self.fail("unterminated quote")

    def end(self) -> None:
        if self.pos != len(self.line):
            raise self.fail("trailing characters after message")


def line_from_bytes(raw: bytes) -> str:
    """Text of one line read off the wire, refusing oversized and non-UTF-8 lines.

    ``raw`` comes from a read capped at ``MAX_LINE_BYTES + 1`` bytes, so a
    longer read means the line did not fit. Either fault raises ParseError
    at the first byte past the cap or the first invalid byte.
    """
    if len(raw) > MAX_LINE_BYTES:
        raise ParseError(f"line exceeds {MAX_LINE_BYTES} bytes", MAX_LINE_BYTES)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError("invalid UTF-8", e.start) from None


def decode(line: str) -> WireMessage:
    """Parse one wire line (including its terminating newline), strictly."""
    if not line.endswith("\n"):
        raise ParseError("line must end with a newline", len(line.encode("utf-8")))
    body = line[:-1]
    if "\n" in body or "\r" in body:
        idx = body.find("\n") if "\n" in body else body.find("\r")
        raise ParseError(
            "line break inside message", len(body[:idx].encode("utf-8"))
        )
    cur = _Cursor(body)
    verb = cur.token()

    if verb == "HELLO":
        cur.expect_space()
        version = cur.token()
        cur.end()
        return Hello(version=version)

    if verb == "EVT":
        cur.expect_space()
        src_start = cur.pos
        src_tok = cur.token()
        source = _SOURCE_TOKENS.get(src_tok)
        if source is None:
            raise cur.fail(f"unknown event source {src_tok!r}", src_start)
        cur.expect_space()
        seq = cur.number("seq")
        cur.expect_space()
        t_ms = cur.number("t_ms")
        cur.expect_space()
        if source is EventSource.GESTURE:
            pay_start = cur.pos
            payload = cur.token()
            if payload not in _GESTURE_TOKENS:
                raise cur.fail(f"unknown gesture token {payload!r}", pay_start)
        else:
            payload = cur.quoted()
            if not payload:
                raise cur.fail("utterance must be non-empty")
        cur.end()
        return Evt(source=source, seq=seq, t_ms=t_ms, payload=payload)

    if verb == "ACK":
        cur.expect_space()
        seq = cur.number("seq")
        cur.end()
        return Ack(seq=seq)

    if verb == "FUSED":
        cur.expect_space()
        t_ms = cur.number("t_ms")
        cur.expect_space()
        act_start = cur.pos
        action = cur.token()
        if action not in _ACTION_TOKENS:
            raise cur.fail(f"unknown action token {action!r}", act_start)
        cur.expect_space()
        src_start = cur.pos
        src_tok = cur.token()
        fsource = _FUSED_SOURCE_TOKENS.get(src_tok)
        if fsource is None:
            raise cur.fail(f"unknown command source {src_tok!r}", src_start)
        cur.end()
        return Fused(t_ms=t_ms, action_name=action, source=fsource)

    if verb == "ERR":
        cur.expect_space()
        code_start = cur.pos
        code = cur.number("code")
        if not 100 <= code <= 999:
            raise cur.fail("error code out of range", code_start)
        cur.expect_space()
        message = cur.quoted()
        cur.end()
        return Err(code=code, message=message)

    if verb == "BYE":
        cur.end()
        return Bye()

    raise UnknownVerb(f"unknown verb {verb!r}", 0)
