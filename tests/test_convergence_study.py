"""Smoke test of scripts/convergence_study.py, run as a user runs it."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_three_levels_second_order():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "convergence_study.py"),
         "--levels", "3", "--t-end", "0.05"],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == ["u", "v", "w"]
    for row in rows:
        assert float(row[-1]) > 1.8, row
