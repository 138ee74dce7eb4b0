"""Interactive console: scripted sessions over string IO."""

import io

from mmfuse.fusion import FusionConfig
from mmfuse.repl import ReplSession, run_repl


def run_script(script: str, cfg=None):
    out = io.StringIO()
    code = run_repl(io.StringIO(script), out, cfg=cfg)
    return code, out.getvalue()


def test_exit_code_zero():
    code, _ = run_script("quit\n")
    assert code == 0


def test_eof_terminates_cleanly():
    code, _ = run_script("")
    assert code == 0


def test_correct_gesture_commands_the_arm():
    _, out = run_script("g wave_out\nquit\n")
    assert "FUSED PIN5 (gesture) elbow 90 -> 95" in out


def test_missed_gesture_prompts_for_speech():
    _, out = run_script("g none\nquit\n")
    assert "gesture channel failed; speak before" in out


def test_speech_fallback_commands_the_arm():
    _, out = run_script('g none\ns "move left"\nquit\n')
    assert "FUSED PIN4 (speech) shoulder 90 -> 95" in out


def test_failed_fallback_reports_error():
    _, out = run_script('g none\ns "flip the table"\nquit\n')
    assert "ERROR fallback failed" in out


def test_speech_without_episode_is_refused():
    _, out = run_script('s "move left"\nquit\n')
    assert "no episode waiting on speech" in out


def test_tick_advances_clock_and_expires_window():
    _, out = run_script("g none\ntick 99999\nquit\n")
    assert "ERROR window expired" in out


def test_state_shows_arm_and_fusion():
    _, out = run_script("g fist\nstate\nquit\n")
    assert "base 95" in out
    assert "gripper open" in out


def test_gripper_toggle_via_double_tap():
    _, out = run_script("g double_tap\nstate\nquit\n")
    assert "gripper closed" in out


def test_reset_restores_arm():
    _, out = run_script("g fist\nreset\nstate\nquit\n")
    assert "base 90" in out


def test_unknown_input_prints_usage():
    _, out = run_script("dance\nquit\n")
    assert "commands:" in out


def test_unknown_gesture_name_is_reported():
    _, out = run_script("g shrug\nquit\n")
    assert out != ""
    assert "FUSED" not in out


def test_transcripts_are_deterministic():
    script = 'g none\ns "move gripper"\ng wave_in\nstate\nquit\n'
    _, a = run_script(script)
    _, b = run_script(script)
    assert a == b


def test_custom_window_config():
    cfg = FusionConfig.uniform(1.0, fallback_window_ms=500)
    _, out = run_script("g none\nquit\n", cfg=cfg)
    # fallback window closes 500 ms after the missed capture
    assert "speak before" in out
    assert "2200" not in out


def test_session_object_api():
    s = ReplSession()
    out = io.StringIO()
    keep_going = s.handle("g fist", out)
    assert keep_going
    assert "FUSED" in out.getvalue()
    assert not s.handle("quit", out)
