"""Every demo script runs to completion in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import _child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # demos that write files put them in a fresh temporary directory
    out = subprocess.run(
        [sys.executable, str(demo)],
        env=_child_env(TMPDIR=str(tmp_path)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    # a demo that needed a temporary directory removed it
    assert not list(tmp_path.glob("mmfuse-*"))
