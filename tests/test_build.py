"""Building the compiled step: a missing compiler is an error of the verbs
that step, and the cached library follows its C source.

Each test runs the package from a copy in tmp_path, whose __pycache__
starts empty, in a fresh interpreter.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

from pipestab import dynamics

PACKAGE = Path(dynamics.__file__).resolve().parent

CONFIG = """\
pipe.L = 1.0
pipe.a = 2.0
pipe.theta = 0.1
feedback.k = 4.0
stationary.u0 = 0.3
disturbance.family = decaying_burst
disturbance.A = 1e-4
disturbance.nu = 1.0
disturbance.C_nu = 1e-6
disturbance.T_period = 0.5
solver.nx = 32
solver.t_end = 1.0
solver.snapshot_dt = 0.25
certificate.lambda = 0.6
output.csv_path = {tmp}/run.csv
output.report_path = {tmp}/report.txt
"""


def copy_package(tmp_path: Path) -> Path:
    """A copy of the package without its caches; returns its parent, for PYTHONPATH."""
    root = tmp_path / "pkg"
    shutil.copytree(PACKAGE, root / "pipestab", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def python(root: Path, args: list, path=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(root))
    if path is not None:
        env["PATH"] = str(path)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


LOADED = ["-c", "from pipestab import dynamics; print(dynamics.step_library()._name)"]


def test_missing_compiler_is_an_error(tmp_path):
    root = copy_package(tmp_path)
    empty = tmp_path / "bin"
    empty.mkdir()
    config = tmp_path / "scenario.cfg"
    config.write_text(CONFIG.format(tmp=tmp_path))
    command = " ".join(dynamics._COMPILE)
    for verb in (["run", str(config)],
                 ["sweep", str(config), "--set", "stationary.u0=0.2,0.4",
                  "--out", str(tmp_path / "sweep.csv")]):
        proc = python(root, ["-m", "pipestab.cli", *verb], path=empty)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert f"`{command}`" in proc.stderr
    # no output; sweep checks that it can write its summary before the grid runs
    assert not (tmp_path / "run.csv").exists() and (tmp_path / "sweep.csv").read_text() == ""
    for verb in ("constants", "stationary"):
        proc = python(root, ["-m", "pipestab.cli", verb, str(config)], path=empty)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
    assert not list((root / "pipestab" / "__pycache__").glob("*.so"))


def test_edited_source_builds_a_new_library(tmp_path):
    root = copy_package(tmp_path)
    cache = root / "pipestab" / "__pycache__"
    first = python(root, LOADED)
    assert first.returncode == 0, first.stderr
    old = Path(first.stdout.strip())
    assert old.parent == cache and old.exists()
    # a second process loads the cached build
    assert python(root, LOADED).stdout == first.stdout

    source = root / "pipestab" / "_lw.c"
    source.write_text(source.read_text() + "/* edited */\n")
    second = python(root, LOADED)
    assert second.returncode == 0, second.stderr
    new = Path(second.stdout.strip())
    assert new.parent == cache and new != old
    assert sorted(cache.glob("*.so")) == sorted([old, new])


def test_unwritable_cache_builds_privately(tmp_path):
    # a file where __pycache__ would be: the library is built for this process alone
    root = copy_package(tmp_path)
    (root / "pipestab" / "__pycache__").write_text("")
    config = tmp_path / "scenario.cfg"
    config.write_text(CONFIG.format(tmp=tmp_path))
    loaded = python(root, LOADED)
    assert loaded.returncode == 0, loaded.stderr
    assert not Path(loaded.stdout.strip()).is_relative_to(root)
    assert not Path(loaded.stdout.strip()).exists()
    proc = python(root, ["-m", "pipestab.cli", "run", str(config)])
    assert proc.returncode == 0, proc.stderr


def test_compile_flags_keep_numpy_rounding():
    # no fused multiply-add and no reordering, on any machine, and libm's
    # pow, exp, sin and cos, as Python calls them
    assert {"-O2", "-std=c99", "-ffp-contract=off", "-fno-builtin"} <= set(dynamics._COMPILE)
    assert not any(f.startswith("-march") or "fast-math" in f or f == "-Ofast"
                   for f in dynamics._COMPILE)


def test_source_compiles_without_warnings(tmp_path):
    # a parameter or variable the loop no longer reads, or any other warning,
    # fails here rather than going unseen in the cached build
    command = [*dynamics._COMPILE, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "_lw.so"),
               str(PACKAGE / "_lw.c"), "-lm"]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
