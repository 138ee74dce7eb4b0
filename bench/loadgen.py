"""Seeded ``mmfuse/1`` transcripts, their in-process oracle, and loopback clients.

Transcripts are made from the benchmark seed alone and cover the four
episode shapes a served session can take:

* ``gesture``: a capture that decides the episode (ACK, FUSED ... GESTURE)
* ``rescue``: an empty capture, then a clean utterance (FUSED ... SPEECH)
* ``failed``: an empty capture, then an unusable utterance (ERR 503)
* ``expired``: an empty capture, then an utterance after the window (ERR 504)

Shapes are dealt from a shuffled deck whose make-up comes from the package's
own error model (:func:`shape_deck`), with a floor of one failed and one
expired episode per deck so every run shows all four. Lines carry event
times in the layout the package simulates (:data:`THINK_MS` apart).

The oracle is the package's own replay path: every reply read off the socket
must equal, byte for byte, what in-process ``run_session`` returns for the
same lines. A mismatch, a closed connection or a read that hits the per-read
timeout fails the line (stream) or session (churn); nothing waits forever.

Client sockets set TCP_NODELAY, so the timings are the server's, not the
client's Nagle buffering. The server is a separate process started by
:class:`ServerProcess` from ``server_proc.py``.
"""

from __future__ import annotations

import functools
import json
import queue
import random
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

clock = time.perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SHAPES = ("gesture", "rescue", "failed", "expired")
#: Cards in one shuffled deck of episode shapes; see :func:`shape_deck`.
DECK_SIZE = 50
#: Each deck holds at least this many of the shapes the model makes rarely
#: or never, so every run covers all four.
DECK_FLOOR = {"failed": 1, "expired": 1}

#: Event time from an empty capture to the utterance, as the package
#: simulates it (``SPEECH_LATENCY_MS``); inside the 2000 ms fallback window.
_SPEECH_DELAY_MS = 500
#: Event time from an empty capture to a late utterance: past any fallback
#: window the server is configured with (2000 ms by default).
_EXPIRY_DELAY_MS = 5000
#: Operator pause, in event time, from an episode's last line to the next
#: capture (and from HELLO to the first, and from the last to BYE).
THINK_MS = (1000, 2000)


class ServerError(RuntimeError):
    """The server process failed to start, answer or stop."""


class ServerProcess:
    """``server_proc.py`` in a child process; times spawn until listening."""

    def __init__(self, spans: Optional[Path] = None, timeout: float = 60.0) -> None:
        cmd = [sys.executable, str(BENCH / "server_proc.py")]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        start = clock()
        self.proc = subprocess.Popen(
            cmd,
            cwd=str(ROOT),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._pump = threading.Thread(target=self._read_stdout, daemon=True)
        self._pump.start()
        try:
            line = self._next_line(timeout)
            if not line.startswith("PORT "):
                raise ServerError(f"unexpected ready line {line!r}")
            self.port = int(line.split()[1])
        except BaseException:
            self.stop()
            raise
        self.ready_s = clock() - start

    def _read_stdout(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _next_line(self, timeout: float) -> str:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise ServerError(f"server sent nothing within {timeout} s") from None
        if line is None:
            raise ServerError("server exited")
        return line

    def stats(self, timeout: float = 30.0) -> dict:
        """CPU seconds, peak RSS (KiB) and, when traced, per-layer totals."""
        assert self.proc.stdin is not None
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return json.loads(self._next_line(timeout))

    def threads(self) -> int:
        """Current thread count, read from the process status file."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
        return 0

    def stop(self, timeout: float = 15.0) -> None:
        """Close stdin so the server shuts down; kill it if it overstays."""
        try:
            if self.proc.stdin is not None:
                self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._pump.join(timeout=timeout)

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# Transcripts and oracle
# ---------------------------------------------------------------------------


def _vocabulary():
    from mmfuse.vocab import COMMANDS, GESTURES

    return tuple(g.name for g in GESTURES), tuple(c.utterance for c in COMMANDS)


def shape_shares() -> Dict[str, float]:
    """Share of each episode shape in the package's own model.

    The five fused operations are weighted equally. A gesture failure (rate
    g) is caught with the calibrated probability d and falls back to speech,
    which fails with rate s; a wrong capture that slips past the detector
    still decides the episode by gesture. On the wire a caught failure is an
    empty capture. The model's speech arrives inside the fallback window, so
    it never expires.
    """
    from mmfuse.fusion import default_models
    from mmfuse.harness import default_fusion_config
    from mmfuse.vocab import FUSION_OPERATIONS

    models = default_models()
    cfg = default_fusion_config()
    shares = dict.fromkeys(SHAPES, 0.0)
    for op in FUSION_OPERATIONS:
        g = models.gesture.error_rate(op.gesture)
        s = models.speech.error_rate(op.speech)
        fallback = g * cfg.detection_prob(op)
        shares["gesture"] += (1.0 - fallback) / len(FUSION_OPERATIONS)
        shares["rescue"] += fallback * (1.0 - s) / len(FUSION_OPERATIONS)
        shares["failed"] += fallback * s / len(FUSION_OPERATIONS)
    return shares


@functools.lru_cache(maxsize=None)
def shape_deck() -> Tuple[int, ...]:
    """Cards per shape in :data:`SHAPES` order.

    Each shape gets its model share of :data:`DECK_SIZE`, rounded, and at
    least its :data:`DECK_FLOOR`; gesture-decided episodes fill the rest
    (44/4/1/1 with the reference rates).
    """
    shares = shape_shares()
    counts = {k: max(round(DECK_SIZE * shares[k]), DECK_FLOOR.get(k, 0)) for k in SHAPES}
    counts["gesture"] = DECK_SIZE - sum(n for k, n in counts.items() if k != "gesture")
    return tuple(counts[k] for k in SHAPES)


def _episode(rng: random.Random, shape: str, seq: int, t_ms: int, vocab) -> List[Tuple[int, str]]:
    """(event time, line) for each line of one episode starting at ``t_ms``."""
    gestures, commands = vocab
    if shape == "gesture":
        return [(t_ms, f"EVT GESTURE {seq} {t_ms} {rng.choice(gestures)}\n")]
    cmd = rng.choice(commands)
    delay = _SPEECH_DELAY_MS
    if shape == "rescue":
        text = cmd
    elif shape == "failed":
        text = rng.choice((f"{cmd} {cmd}", f"{cmd} please", "pass the salt"))
    else:
        text, delay = cmd, _EXPIRY_DELAY_MS
    return [
        (t_ms, f"EVT GESTURE {seq} {t_ms} NONE\n"),
        (t_ms + delay, f'EVT SPEECH {seq + 1} {t_ms + delay} "{text}"\n'),
    ]


class ShapeDeck:
    """Episode shapes in seeded order, dealt from a reshuffled deck."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.cards: List[str] = []

    def deal(self) -> str:
        if not self.cards:
            self.cards = [s for s, n in zip(SHAPES, shape_deck()) for _ in range(n)]
            self.rng.shuffle(self.cards)
        return self.cards.pop()


def _session(
    rng: random.Random, vocab, shapes: Iterable[str], n_lines: int = 0, min_episodes: int = 1
) -> List[str]:
    """HELLO, episodes of the given shapes, BYE.

    Episodes stop when ``shapes`` runs out, or once the session holds at
    least ``n_lines`` lines and ``min_episodes`` episodes.
    """
    lines = ["HELLO mmfuse/1\n"]
    seq, t_ms, episodes = 1, 0, 0  # t_ms: event time of the last line
    for shape in shapes:
        if n_lines and len(lines) + 1 >= n_lines and episodes >= min_episodes:
            break
        ep = _episode(rng, shape, seq, t_ms + rng.randrange(*THINK_MS), vocab)
        t_ms = ep[-1][0]
        lines += [line for _, line in ep]
        seq += len(ep)
        episodes += 1
    lines.append("BYE\n")
    return lines


class OracleError(RuntimeError):
    """Session.handle_line and run_session disagree on a transcript."""


@dataclass
class Transcript:
    lines: List[str]
    replies: List[List[str]]  # expected replies, per line

    def __post_init__(self) -> None:
        self.data = [line.encode("utf-8") for line in self.lines]
        self.expected = [[r.encode("utf-8") for r in group] for group in self.replies]


def oracle(lines: Sequence[str]) -> Transcript:
    """Expected replies per line, checked against ``run_session``."""
    from mmfuse.server import Session, run_session

    session = Session()
    groups: List[List[str]] = []
    for line in lines:
        replies, keep = session.handle_line(line)
        groups.append(list(replies))
        if not keep:
            break
    flat = [r for g in groups for r in g]
    if len(groups) != len(lines) or flat != run_session(list(lines)):
        raise OracleError("transcript does not replay to the same replies")
    return Transcript(list(lines), groups)


def stream_transcript(seed: int, conn: int, n_lines: int) -> Transcript:
    """One long session of at least ``n_lines`` lines for connection ``conn``.

    It holds at least one whole deck, so it shows every shape.
    """
    rng = random.Random(seed * 7919 + conn)
    deck = ShapeDeck(rng)
    return oracle(_session(rng, _vocabulary(), iter(deck.deal, None), n_lines, DECK_SIZE))


class SessionSource:
    """Short sessions (HELLO, one episode, BYE) for one churn client."""

    def __init__(self, seed: int, client: int) -> None:
        self.rng = random.Random(seed * 7919 + 1000 + client)
        self.deck = ShapeDeck(self.rng)
        self.vocab = _vocabulary()

    def next(self) -> Transcript:
        return oracle(_session(self.rng, self.vocab, [self.deck.deal()]))


def shapes_seen(transcripts: Sequence[Transcript]) -> set:
    """Episode shapes the expected replies show."""
    seen = set()
    for tr in transcripts:
        for group in tr.replies:
            for reply in group:
                if reply.startswith("FUSED") and reply.endswith("GESTURE\n"):
                    seen.add("gesture")
                elif reply.startswith("FUSED"):
                    seen.add("rescue")
                elif reply.startswith("ERR 503"):
                    seen.add("failed")
                elif reply.startswith("ERR 504"):
                    seen.add("expired")
    return seen


# ---------------------------------------------------------------------------
# Clients
# ---------------------------------------------------------------------------


def _connect(port: int, timeout: float) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


@dataclass
class LineTimes:
    """Per-line clock readings for one connection; None where not reached."""

    due: List[float]
    sent: List[Optional[float]]
    first: List[Optional[float]]
    last: List[Optional[float]]

    @classmethod
    def empty(cls, due: List[float]) -> "LineTimes":
        n = len(due)
        return cls(due, [None] * n, [None] * n, [None] * n)


@dataclass
class StreamResult:
    conns: List[LineTimes]
    connect_s: List[float]
    errors: List[str] = field(default_factory=list)

    def answered(self) -> int:
        """Lines answered in full and correctly."""
        return sum(last is not None for lt in self.conns for last in lt.last)


def run_stream(
    port: int,
    transcripts: Sequence[Transcript],
    pipelined: bool,
    read_timeout: float,
    on_hello: Optional[Callable[[], None]] = None,
) -> StreamResult:
    """One connection per transcript, all at once.

    Closed loop: each line goes out once the previous line's replies are
    all in, and its latency counts from that send. Pipelined: every line is
    due at the common start and the whole transcript goes out in one send,
    so the server's speed alone sets how fast the replies come back.
    """
    socks = []
    result = StreamResult(conns=[], connect_s=[])
    try:
        for _ in transcripts:
            t0 = clock()
            socks.append(_connect(port, read_timeout))
            result.connect_s.append(clock() - t0)
        start = clock() + 0.05
        result.conns = [LineTimes.empty([start] * len(tr.lines)) for tr in transcripts]
        mode = "pipelined" if pipelined else "closed"
        threads = [
            threading.Thread(
                target=_drive, args=(sock, tr, times, mode, result.errors, on_hello)
            )
            for sock, tr, times in zip(socks, transcripts, result.conns)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        for sock in socks:
            sock.close()
    return result


def _shutdown(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


def _send_all(sock: socket.socket, tr: Transcript, times: LineTimes) -> None:
    delay = times.due[0] - clock()
    if delay > 0:
        time.sleep(delay)
    times.sent[:] = [clock()] * len(tr.data)
    try:
        sock.sendall(b"".join(tr.data))
    except OSError:
        return


class ReplyMismatch(RuntimeError):
    """A reply read off the socket differs from the oracle's."""


def _read_group(f, want: Sequence[bytes]) -> Tuple[float, float]:
    """Read one line's replies; the clock at the first and at the last."""
    first = last = 0.0
    for j, expected in enumerate(want):
        got = f.readline()
        last = clock()
        if got != expected:
            raise ReplyMismatch(f"expected {expected!r}, got {got!r}")
        if j == 0:
            first = last
    return first, last


def _drive(
    sock: socket.socket,
    tr: Transcript,
    times: LineTimes,
    mode: str,
    errors: List[str],
    on_hello: Optional[Callable[[], None]],
) -> bool:
    """Send ``tr`` on ``sock`` and check every reply; True if all matched.

    ``mode`` is ``closed`` (each line once the previous one is answered; its
    due time is when it is sent) or ``pipelined`` (the whole transcript at
    its first due time, from a second thread). Every read has the socket's
    timeout, so a stalled server fails the connection instead of hanging it.
    """
    f = sock.makefile("rb")
    writer = None
    i = 0
    try:
        if mode == "pipelined":
            writer = threading.Thread(target=_send_all, args=(sock, tr, times))
            writer.start()
        for i, want in enumerate(tr.expected):
            if mode == "closed":
                times.due[i] = times.sent[i] = clock()
                sock.sendall(tr.data[i])
            times.first[i], times.last[i] = _read_group(f, want)
            if i == 0 and on_hello is not None:
                on_hello()
        return True
    except (ReplyMismatch, OSError) as e:  # OSError includes the per-read timeout
        errors.append(f"line {i}: {e.__class__.__name__}: {e}")
        return False
    finally:
        f.close()
        _shutdown(sock)
        if writer is not None:
            writer.join()


@dataclass
class SessionTimes:
    start: float
    connect_s: float
    end: float
    lines: LineTimes
    replies: List[int]  # expected reply count per line


@dataclass
class ChurnResult:
    sessions: List[SessionTimes] = field(default_factory=list)
    attempted: int = 0
    errors: List[str] = field(default_factory=list)
    shapes: set = field(default_factory=set)  # episode shapes sent


def run_churn(
    port: int,
    seed: int,
    clients: int,
    read_timeout: float,
    deadline: Optional[float] = None,
    per_client: Optional[int] = None,
    on_hello: Optional[Callable[[], None]] = None,
) -> ChurnResult:
    """Closed loop: each client runs sessions back to back.

    A session is connect, HELLO, one episode, BYE, close; the next starts
    when the server has echoed BYE. Clients stop at ``deadline`` or after
    ``per_client`` sessions, but not before each has run a whole deck of
    shapes.
    """
    result = ChurnResult()
    lock = threading.Lock()

    def client(c: int) -> None:
        source = SessionSource(seed, c)
        k = 0
        while k < DECK_SIZE or (
            (per_client is None or k < per_client)
            and (deadline is None or clock() < deadline)
        ):
            tr = source.next()
            k += 1
            times, error = _one_session(port, tr, read_timeout, on_hello)
            with lock:
                result.shapes |= shapes_seen([tr])
                result.attempted += 1
                if error is None:
                    result.sessions.append(times)
                else:
                    result.errors.append(error)

    threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return result


def _one_session(
    port: int,
    tr: Transcript,
    read_timeout: float,
    on_hello: Optional[Callable[[], None]],
):
    lines = LineTimes.empty([0.0] * len(tr.lines))
    errors: List[str] = []
    start = clock()
    try:
        sock = _connect(port, read_timeout)
    except OSError as e:
        return None, f"connect: {e}"
    connect_s = clock() - start
    try:
        ok = _drive(sock, tr, lines, "closed", errors, on_hello)
        end = clock()
    finally:
        sock.close()
    if not ok:
        return None, errors[0]
    return SessionTimes(start, connect_s, end, lines, [len(g) for g in tr.replies]), None
