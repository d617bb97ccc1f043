"""Each demo script runs to completion; the demos assert on their own results."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import i2gatp

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(i2gatp.__file__).resolve().parent.parent))
    result = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
