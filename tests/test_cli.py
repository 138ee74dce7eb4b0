"""Command line front end: subcommands, exit codes, env handling."""

import os
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mmfuse
from mmfuse.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_table2(capsys):
    code, out, _ = run_cli(["simulate", "--table", "2", "--seed", "1", "--trials", "100"], capsys)
    assert code == 0
    assert "fist" in out
    assert "double tap" in out
    assert "mean accuracy" in out.lower()


def test_simulate_table3(capsys):
    code, out, _ = run_cli(["simulate", "--table", "3", "--seed", "1", "--trials", "100"], capsys)
    assert code == 0
    assert "move left" in out


def test_simulate_table4(capsys):
    code, out, _ = run_cli(["simulate", "--table", "4", "--seed", "1", "--trials", "200"], capsys)
    assert code == 0
    assert "Move Gripper & Double Tap" in out
    assert "average" in out.lower()


def test_simulate_is_deterministic(capsys):
    _, a, _ = run_cli(["simulate", "--table", "4", "--seed", "9", "--trials", "200"], capsys)
    _, b, _ = run_cli(["simulate", "--table", "4", "--seed", "9", "--trials", "200"], capsys)
    assert a == b


def test_simulate_trials_must_divide(capsys):
    code, _, err = run_cli(["simulate", "--table", "2", "--trials", "103"], capsys)
    assert code == 2
    assert err != ""


def test_simulate_rejects_unknown_table(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--table", "9"])
    assert exc.value.code == 2


def test_calibrate_all_operations(capsys):
    code, out, _ = run_cli(["calibrate"], capsys)
    assert code == 0
    for label in ("Move Gripper & Double Tap", "Move Right & Wave Out"):
        assert label in out
    assert "0.7403" in out  # gripper detection probability


def test_calibrate_single_operation(capsys):
    code, out, _ = run_cli(["calibrate", "--op", "move left"], capsys)
    assert code == 0
    assert "Move Left & Wave In" in out
    assert "Move Right" not in out


def test_calibrate_unknown_operation(capsys):
    code, _, err = run_cli(["calibrate", "--op", "moonwalk"], capsys)
    assert code == 2
    assert err != ""


def test_report_writes_bundle(tmp_path, capsys):
    code, out, _ = run_cli(["report", "--out", str(tmp_path), "--seed", "2"], capsys)
    assert code == 0
    for name in (
        "table2_gestures.csv",
        "table3_speech.csv",
        "table4_fused.csv",
        "summary.md",
        "figure4_fused.svg",
    ):
        assert (tmp_path / name).exists()
        assert name in out


def test_config_flag_applies(tmp_path, capsys):
    cfg = tmp_path / "fuse.yaml"
    cfg.write_text("version: 1\nseed: 5\n")
    code, _, _ = run_cli(
        ["--config", str(cfg), "simulate", "--table", "2", "--trials", "100"], capsys
    )
    assert code == 0


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "fuse.yaml"
    cfg.write_text("version: 99\n")
    code, _, err = run_cli(["--config", str(cfg), "calibrate"], capsys)
    assert code == 2
    assert "version" in err


def test_calibrate_unreachable_target_exits_2(tmp_path):
    # at g = 0.30 the fist operation's 4% target is below the floor g * s
    cfg = tmp_path / "fuse.yaml"
    cfg.write_text("version: 1\nemg:\n  error_rates: {fist: 0.30}\n")
    out = subprocess.run(
        [sys.executable, "-m", "mmfuse.cli", "--config", str(cfg), "calibrate"],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert "Move Down & Fist" in out.stderr


def test_unreachable_target_exits_2_on_every_fused_command(tmp_path):
    # at g = 0.20 the fist operation's 4% target is below the floor g * s;
    # every command that fuses reports it as calibrate does, before any output
    cfg = tmp_path / "fuse.yaml"
    cfg.write_text("version: 1\nemg:\n  error_rates: {fist: 0.20}\n")
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    commands = (
        ["calibrate"],
        ["simulate", "--table", "4"],
        ["report", "--out", str(tmp_path / "report")],
        ["serve", "--port", str(port)],
        ["repl"],
    )
    errors = set()
    for argv in commands:
        out = subprocess.run(
            [sys.executable, "-m", "mmfuse.cli", "--config", str(cfg), *argv],
            env=_child_env(),
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 2, (argv, out.stderr)
        assert out.stderr.startswith("mmfuse: cannot calibrate Move Down & Fist: "), argv
        if argv[0] != "calibrate":
            assert out.stdout == "", argv
        errors.add(out.stderr)
    assert len(errors) == 1, errors
    assert not (tmp_path / "report").exists()


def test_config_env_var(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "fuse.yaml"
    cfg.write_text("version: 1\nseed: 11\n")
    monkeypatch.setenv("MMFUSE_CONFIG", str(cfg))
    code, _, _ = run_cli(["simulate", "--table", "3", "--trials", "50"], capsys)
    assert code == 0


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_repl_subcommand_scripted(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO("g fist\nquit\n"))
    code = main(["repl"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FUSED PIN3" in out


def _wait_for_port(port, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=1):
                return True
        except OSError:
            time.sleep(0.05)
    return False


def _child_env(**extra):
    """The current environment, with PYTHONPATH led by the directory this
    process imported ``mmfuse`` from, so a child interpreter runs the same
    code whatever command started the tests."""
    src = str(Path(mmfuse.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    path = os.pathsep.join([src, inherited]) if inherited else src
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_serve_honors_port_env():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "mmfuse.cli", "serve"],
        env=_child_env(MMFUSE_PORT=str(port)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert _wait_for_port(port), (
            proc.stderr.read().decode() if proc.poll() is not None else "no listener"
        )
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            f = sock.makefile("rw", encoding="ascii", newline="")
            f.write("HELLO mmfuse/1\nBYE\n")
            f.flush()
            assert f.readline() == "HELLO mmfuse/1\n"
            assert f.readline() == "BYE\n"
    finally:
        proc.terminate()
        proc.wait(timeout=10)


def test_entry_point_installed():
    """The console script declared in pyproject.toml starts the CLI in a fresh
    process, run the way the wrapper that an install generates runs it."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["mmfuse"]
    module, attr = target.split(":")
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    out = subprocess.run(
        [sys.executable, "-c", launcher, "calibrate"],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert "Move Gripper & Double Tap" in out.stdout


@pytest.mark.skipif(
    shutil.which("mmfuse") is None,
    reason="no `mmfuse` executable on PATH: the package is not installed",
)
def test_installed_console_script():
    out = subprocess.run(
        ["mmfuse", "calibrate"], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0
    assert "Move Gripper & Double Tap" in out.stdout
