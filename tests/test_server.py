"""Session semantics and the TCP front end."""

import socket
import threading

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


def test_tcp_round_trip():
    server = FusionServer(("127.0.0.1", 0))
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            f = sock.makefile("rw", encoding="ascii", newline="")
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
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_tcp_parse_error_closes_connection():
    server = FusionServer(("127.0.0.1", 0))
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            f = sock.makefile("rw", encoding="ascii", newline="")
            f.write("GIBBERISH\n")
            f.flush()
            assert f.readline().startswith("ERR 400 ")
            assert f.readline() == ""  # server hung up
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
