"""Session semantics and the TCP front end."""

import contextlib
import socket
import threading
import time

from hypothesis import given
from hypothesis import strategies as st

from mmfuse import protocol as wire
from mmfuse.fusion import EventSource, FusionConfig
from mmfuse.server import FusionServer, Session, run_session
from mmfuse.vocab import COMMANDS, GESTURES, Gesture

_EVENTS = st.one_of(
    st.tuples(
        st.just(EventSource.GESTURE),
        st.sampled_from([wire.gesture_token(g) for g in (*GESTURES, Gesture.NONE)]),
    ),
    st.tuples(
        st.just(EventSource.SPEECH),
        st.sampled_from([c.utterance for c in COMMANDS] + ["beam me up"]),
    ),
)


@st.composite
def valid_transcripts(draw):
    """HELLO, events with rising seq and non-decreasing t_ms, then BYE."""
    lines = [wire.encode(wire.Hello())]
    t_ms = 0
    for seq, (source, payload) in enumerate(draw(st.lists(_EVENTS, max_size=30)), 1):
        t_ms += draw(st.integers(min_value=0, max_value=3000))
        lines.append(wire.encode(wire.Evt(source, seq, t_ms, payload)))
    lines.append(wire.encode(wire.Bye()))
    return lines


def transcript(lines):
    return run_session([l + "\n" for l in lines])


def test_hello_is_echoed():
    out = transcript(["HELLO mmfuse/1", "BYE"])
    assert out == ["HELLO mmfuse/1\n", "BYE\n"]


def test_correct_gesture_flow():
    out = transcript(["HELLO mmfuse/1", "EVT GESTURE 1 250 WAVE_OUT"])
    assert out == ["HELLO mmfuse/1\n", "ACK 1\n", "FUSED 250 PIN5 GESTURE\n"]


def test_missed_gesture_then_speech_fallback():
    out = transcript(
        [
            "HELLO mmfuse/1",
            "EVT GESTURE 1 250 NONE",
            'EVT SPEECH 2 700 "move left"',
        ]
    )
    assert out == [
        "HELLO mmfuse/1\n",
        "ACK 1\n",
        "ACK 2\n",
        "FUSED 700 PIN4 SPEECH\n",
    ]


def test_failed_fallback_keeps_session_open():
    out = transcript(
        [
            "HELLO mmfuse/1",
            "EVT GESTURE 1 250 NONE",
            'EVT SPEECH 2 700 "pass the salt"',
            "EVT GESTURE 3 900 FIST",
        ]
    )
    assert out == [
        "HELLO mmfuse/1\n",
        "ACK 1\n",
        "ACK 2\n",
        'ERR 503 "fallback failed"\n',
        "ACK 3\n",
        "FUSED 900 PIN3 GESTURE\n",
    ]


def test_expired_window_keeps_session_open():
    out = transcript(
        [
            "HELLO mmfuse/1",
            "EVT GESTURE 1 250 NONE",
            'EVT SPEECH 2 9999 "move left"',
            "EVT GESTURE 3 10100 WAVE_IN",
        ]
    )
    assert 'ERR 504 "window expired"\n' in out
    assert "FUSED 10100 PIN4 GESTURE\n" in out


def test_gesture_after_emit_starts_new_episode():
    out = transcript(
        [
            "HELLO mmfuse/1",
            "EVT GESTURE 1 250 FIST",
            "EVT GESTURE 2 600 WAVE_IN",
        ]
    )
    assert out[-2:] == ["ACK 2\n", "FUSED 600 PIN4 GESTURE\n"]


def test_speech_with_no_episode_is_ignored_but_acked():
    out = transcript(["HELLO mmfuse/1", 'EVT SPEECH 1 100 "move left"'])
    assert out == ["HELLO mmfuse/1\n", "ACK 1\n"]


def test_handshake_required():
    out = transcript(["EVT GESTURE 1 250 FIST"])
    assert len(out) == 1
    assert out[0].startswith("ERR 400 ")


def test_wrong_version_rejected():
    out = transcript(["HELLO mmfuse/2"])
    assert out[0].startswith("ERR 400 ")


def test_second_hello_rejected():
    out = transcript(["HELLO mmfuse/1", "HELLO mmfuse/1"])
    assert out[0] == "HELLO mmfuse/1\n"
    assert out[1].startswith("ERR 400 ")


def test_parse_error_closes_with_400():
    out = transcript(["HELLO mmfuse/1", "EVT GESTURE one 250 FIST", "BYE"])
    # session closed: the BYE never gets a reply
    assert out[-1].startswith("ERR 400 ")


def test_seq_regression_closes_with_409():
    out = transcript(
        [
            "HELLO mmfuse/1",
            "EVT GESTURE 5 250 FIST",
            "EVT GESTURE 5 600 WAVE_IN",
        ]
    )
    assert out[-1].startswith("ERR 409 ")


def test_time_regression_closes_with_409():
    out = transcript(
        [
            "HELLO mmfuse/1",
            "EVT GESTURE 1 250 FIST",
            "EVT GESTURE 2 100 WAVE_IN",
        ]
    )
    assert out[-1].startswith("ERR 409 ")


def test_equal_timestamps_allowed():
    out = transcript(
        [
            "HELLO mmfuse/1",
            "EVT GESTURE 1 250 NONE",
            'EVT SPEECH 2 250 "move left"',
        ]
    )
    assert out[-1] == "FUSED 250 PIN4 SPEECH\n"


def test_sessions_are_deterministic():
    lines = [
        "HELLO mmfuse/1\n",
        "EVT GESTURE 1 250 NONE\n",
        'EVT SPEECH 2 700 "move gripper"\n',
        "BYE\n",
    ]
    a = run_session(lines, base_seed=5, session_index=3)
    b = run_session(lines, base_seed=5, session_index=3)
    assert a == b


@given(valid_transcripts())
def test_replies_do_not_depend_on_detection(lines):
    # sessions draw nothing, so d cannot reach a served reply
    assert run_session(lines, cfg=FusionConfig.uniform(0.0)) == run_session(
        lines, cfg=FusionConfig.uniform(1.0)
    )


def test_session_handle_line_api():
    s = Session()
    replies, keep_open = s.handle_line("HELLO mmfuse/1\n")
    assert replies == ["HELLO mmfuse/1\n"]
    assert keep_open
    replies, keep_open = s.handle_line("BYE\n")
    assert replies == ["BYE\n"]
    assert not keep_open


def test_session_accepts_custom_config():
    cfg = FusionConfig.uniform(1.0, fallback_window_ms=100)
    s = Session(cfg=cfg)
    s.handle_line("HELLO mmfuse/1\n")
    s.handle_line("EVT GESTURE 1 250 NONE\n")
    replies, keep_open = s.handle_line('EVT SPEECH 2 400 "move left"\n')
    # 100 ms window closed at t=350
    assert replies == ["ACK 2\n", 'ERR 504 "window expired"\n']
    assert keep_open


@contextlib.contextmanager
def serving(server=None):
    """A loopback server on an ephemeral port, served from a thread."""
    server = server or FusionServer(("127.0.0.1", 0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def connect(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=5)
    return sock, sock.makefile("rw", encoding="utf-8", newline="")


def test_tcp_round_trip():
    with serving() as port:
        sock, f = connect(port)
        with sock, f:
            f.write("HELLO mmfuse/1\n")
            f.flush()
            assert f.readline() == "HELLO mmfuse/1\n"
            f.write("EVT GESTURE 1 250 WAVE_OUT\n")
            f.flush()
            assert f.readline() == "ACK 1\n"
            assert f.readline() == "FUSED 250 PIN5 GESTURE\n"
            f.write("BYE\n")
            f.flush()
            assert f.readline() == "BYE\n"


def test_tcp_parse_error_closes_connection():
    with serving() as port:
        sock, f = connect(port)
        with sock, f:
            f.write("GIBBERISH\n")
            f.flush()
            assert f.readline().startswith("ERR 400 ")
            assert f.readline() == ""  # server hung up


def test_closed_loop_replies_do_not_stall():
    # each line gets ACK and FUSED; a reply sent on its own would wait for
    # the client's delayed ACK, about 40 ms a line
    lines = [f"EVT GESTURE {i} {250 * i} WAVE_OUT\n" for i in range(1, 21)]
    with serving() as port:
        sock, f = connect(port)
        with sock, f:
            f.write("HELLO mmfuse/1\n")
            f.flush()
            assert f.readline() == "HELLO mmfuse/1\n"
            start = time.perf_counter()
            for i, line in enumerate(lines, 1):
                f.write(line)
                f.flush()
                assert f.readline() == f"ACK {i}\n"
                assert f.readline() == f"FUSED {250 * i} PIN5 GESTURE\n"
            elapsed = time.perf_counter() - start
    assert elapsed < 0.4, f"20 closed-loop lines took {elapsed * 1000:.0f} ms"


class _RecordingServer(FusionServer):
    """Records the bytes each send is given."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.writes = []

    def _send(self, conn):
        self.writes.append(bytes(conn.outbox))
        super()._send(conn)


def test_each_lines_replies_leave_in_one_send():
    lines = [
        "HELLO mmfuse/1\n",
        "EVT GESTURE 1 250 WAVE_OUT\n",
        'EVT SPEECH 2 300 "move left"\n',
        "EVT GESTURE 3 400 NONE\n",
        'EVT SPEECH 4 900 "pass the salt"\n',
        "EVT GESTURE 5 1000 NONE\n",
        "EVT GESTURE 6 9000 FIST\n",
        "BYE\n",
    ]
    session = Session()
    expected = ["".join(session.handle_line(line)[0]) for line in lines]
    server = _RecordingServer(("127.0.0.1", 0))
    with serving(server) as port:
        sock, f = connect(port)
        with sock, f:
            for line, replies in zip(lines, expected):
                f.write(line)
                f.flush()
                for _ in range(replies.count("\n")):
                    f.readline()
            assert f.readline() == ""
    assert server.writes == [r.encode("utf-8") for r in expected]
    assert b"".join(server.writes) == "".join(run_session(lines)).encode("utf-8")


def _refused(payload: bytes, want: str) -> None:
    """Send ``payload`` after the handshake; expect ``want`` and then EOF."""
    with serving() as port:
        sock, f = connect(port)
        with sock, f:
            f.write("HELLO mmfuse/1\n")
            f.flush()
            assert f.readline() == "HELLO mmfuse/1\n"
            sock.sendall(payload)
            assert f.readline() == want
            assert f.readline() == ""


def test_line_at_the_cap_is_served():
    head = 'EVT SPEECH 1 250 "'
    line = head + "x" * (wire.MAX_LINE_BYTES - len(head) - 2) + '"\n'
    assert len(line.encode("utf-8")) == wire.MAX_LINE_BYTES
    with serving() as port:
        sock, f = connect(port)
        with sock, f:
            f.write("HELLO mmfuse/1\n" + line)
            f.flush()
            assert f.readline() == "HELLO mmfuse/1\n"
            assert f.readline() == "ACK 1\n"


def test_oversized_line_closes_with_400():
    # exactly one byte over, with no newline, so nothing is left unread
    _refused(
        b"E" * (wire.MAX_LINE_BYTES + 1),
        f'ERR 400 "line exceeds {wire.MAX_LINE_BYTES} bytes (byte {wire.MAX_LINE_BYTES})"\n',
    )


def test_non_utf8_line_reports_byte_offset():
    _refused(b'EVT SPEECH 1 250 "caf\xe9"\n', 'ERR 400 "invalid UTF-8 (byte 21)"\n')


def _read_all(sock):
    chunks = []
    while True:
        data = sock.recv(65536)
        if not data:
            return b"".join(chunks)
        chunks.append(data)


def test_pipelined_transcript_matches_replay():
    # far more replies than one send takes, sent while the client is still
    # writing: the server stops reading until its replies are out
    lines = [wire.encode(wire.Hello())]
    for seq in range(1, 6001):
        lines.append(f"EVT GESTURE {seq} {250 * seq} WAVE_OUT\n")
    lines.append(wire.encode(wire.Bye()))
    payload = "".join(lines).encode("utf-8")
    with serving() as port:
        sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        with sock:
            writer = threading.Thread(target=sock.sendall, args=(payload,))
            writer.start()
            got = _read_all(sock)
            writer.join()
    assert got == "".join(run_session(lines)).encode("utf-8")


def test_partial_last_line_is_answered_at_eof():
    with serving() as port:
        sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        with sock:
            sock.sendall(b"HELLO mmfuse/1\nEVT GESTURE 1 250 FIST")
            sock.shutdown(socket.SHUT_WR)
            got = _read_all(sock).decode("utf-8")
    assert got == "".join(
        run_session(["HELLO mmfuse/1\n", "EVT GESTURE 1 250 FIST"])
    )
    assert got.splitlines()[-1].startswith("ERR 400 ")


def test_connections_are_served_together_without_threads():
    with serving() as port:
        threads = threading.active_count()
        a, fa = connect(port)
        b, fb = connect(port)
        with a, fa, b, fb:
            # b is answered while a sits idle mid-session
            fa.write("HELLO mmfuse/1\n")
            fa.flush()
            assert fa.readline() == "HELLO mmfuse/1\n"
            fb.write("HELLO mmfuse/1\nEVT GESTURE 1 250 WAVE_OUT\n")
            fb.flush()
            assert [fb.readline() for _ in range(3)] == [
                "HELLO mmfuse/1\n",
                "ACK 1\n",
                "FUSED 250 PIN5 GESTURE\n",
            ]
            fa.write("BYE\n")
            fa.flush()
            assert fa.readline() == "BYE\n"
            assert fa.readline() == ""
            assert threading.active_count() == threads
