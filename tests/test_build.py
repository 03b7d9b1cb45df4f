"""Building the compiled step: a missing compiler is an error of the verbs
that step, the cached library follows its C source, and the loop's
vectorised kernels give the baseline build's values bit for bit.

The tests that run the command line run the package from a copy in
tmp_path, whose __pycache__ starts empty, in a fresh interpreter.
"""

import ctypes
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pipestab import dynamics
from pipestab.disturbance import DisturbanceSpec
from pipestab.stationary import PipeParams, build_stationary

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
    # no output: sweep checks that it can write its summary before the grid runs,
    # and leaves no empty one behind
    assert not (tmp_path / "run.csv").exists() and not (tmp_path / "sweep.csv").exists()
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
    # pow, exp, sin and cos, as Python calls them; the vector ISA is chosen
    # by the kernels' clones alone, at load time; -pthread for the helper
    # thread of a split step
    assert {"-O3", "-std=c99", "-ffp-contract=off", "-fno-builtin",
            "-pthread"} <= set(dynamics._COMPILE)
    assert not any(f.startswith("-march") or "fast-math" in f or f == "-Ofast"
                   for f in dynamics._COMPILE)
    assert not any(f.startswith(("-mavx", "-mfma")) for f in dynamics._COMPILE)


def test_source_compiles_without_warnings(tmp_path):
    # a parameter or variable the loop no longer reads, or any other warning,
    # fails here rather than going unseen in the cached build
    command = [*dynamics._COMPILE, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "_lw.so"),
               str(PACKAGE / "_lw.c"), "-lm"]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# the kernels of _lw.c, each with the index of its vectorised loop among its `for` loops:
# `finish`'s is its lane loop, which takes u at t + dt, the sums and the maxima
KERNELS = {"predictor": 0, "corrector": 0, "finish": 2}
CLONES = '#define CLONES __attribute__((target_clones("avx2", "default")))\n'


def compiler_macros() -> set:
    """The names the C compiler of dynamics._COMPILE predefines."""
    proc = subprocess.run([*dynamics._COMPILE, "-dM", "-E", "-x", "c", os.devnull],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("#define ")}


def is_gcc(macros: set) -> bool:
    return "__GNUC__" in macros and "__clang__" not in macros


def baseline_source(tmp_path: Path) -> Path:
    """A copy of _lw.c whose kernels are built for the baseline ISA alone."""
    source = (PACKAGE / "_lw.c").read_text()
    assert source.count(CLONES) == 1       # else the copy would still be cloned
    copy = tmp_path / "_lw_baseline.c"
    copy.write_text(source.replace(CLONES, "#define CLONES\n"))
    return copy


def build(source: Path, target: Path, *flags) -> str:
    """Compiles `source` as dynamics does; returns the compiler's diagnostics."""
    proc = subprocess.run([*dynamics._COMPILE, *flags, "-o", str(target), str(source), "-lm"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


def test_kernels_stay_vectorised(tmp_path):
    # control flow or possible aliasing in a kernel's loop stops GCC
    # vectorising it: that fails here, not unseen in the run time
    macros = compiler_macros()
    if not is_gcc(macros):
        pytest.skip("the compiler is not GCC, whose -fopt-info-vec reports are read here")
    lines = (PACKAGE / "_lw.c").read_text().splitlines()
    loops = {}          # kernel -> line number of its loop
    for name, nth in KERNELS.items():
        head = next(i for i, line in enumerate(lines) if f" void {name}(" in line)
        loops[name] = [i for i in range(head, len(lines)) if "for (" in lines[i]][nth] + 1

    def widths(source: Path) -> dict:
        """kernel -> the vector widths in bytes GCC reports its loop vectorised with."""
        report = build(source, tmp_path / "_lw.so", "-fopt-info-vec-optimized")
        found = {name: set() for name in KERNELS}
        for match in re.finditer(r":(\d+):\d+: optimized: loop vectorized using (\d+) byte",
                                 report):
            for name, line in loops.items():
                if int(match[1]) == line:
                    found[name].add(int(match[2]))
        return found

    assert all(widths(baseline_source(tmp_path)).values())
    if {"__x86_64__", "__linux__"} <= macros:       # where CLONES makes an AVX2 clone
        assert all(32 in found for found in widths(PACKAGE / "_lw.c").values())


def has_avx2() -> bool:
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        return False
    return any(line.startswith("flags") and "avx2" in line.split() for line in cpuinfo.splitlines())


def nan_step(members: list, threads: int = 1) -> list:
    """The bytes of one step of `members` from their initial data, with NaNs
    put in u and w of each member after its wave speed is taken, in the
    lanes of `finish`'s vectorised loop for member 0 and in the tail of its
    last block, taken node by node, for member 1: the records, io and the
    state that the failed step wrote.  The NaNs are np.nan alike: where two
    NaNs meet in one operation, the one that comes out follows the operand
    order of the instruction, which the AVX2 and baseline forms may differ
    in.  With `threads` = 2 the step is split at node 32, after member 0's
    NaN and before member 1's.  Both members fail their guard at that step."""
    xs = members[0].profile.xs
    terms = dynamics.profile_terms([(m.profile, m.params) for m in members])
    state = dynamics.FieldState([0.0] * len(members), xs,
                                *(np.array([m[f] for m in members]) for f in (4, 5, 6)))
    work = dynamics.StepWork(state, threads)
    never = [np.inf] * len(members)
    work.load([m.disturbance for m in members], speed=dynamics.wave_speed(terms, state),
              guard=[1.0] * len(members), cfl_dx=[0.45 * (xs[1] - xs[0])] * len(members),
              t_snap=never, t_end=never)
    for row, node in enumerate((20, len(xs) - 4)):
        state.u[row, node] = state.w[row, node + 1] = np.nan
    records = np.zeros((len(dynamics.RECORDS), len(members), 2))
    dynamics.step(state, terms, work, records, 1)
    for row in range(len(members)):
        error = dynamics.failure(work, row)
        assert type(error) is dynamics.BlowUpError and str(error).startswith("max|u| = nan ")
    return [records.tobytes(), work.io.tobytes(), work.states[1].tobytes()]


def test_baseline_build_equals_dispatched_build(tmp_path, monkeypatch):
    # the AVX2 clones that this CPU runs give the baseline ISA's values, and
    # so does the serial rescan of a step that makes a NaN; and a step split
    # between two threads, whose parts start at other offsets of the
    # vectorised loops, gives them too
    macros = compiler_macros()
    if not (is_gcc(macros) and {"__x86_64__", "__linux__"} <= macros):
        pytest.skip("the kernels are cloned only by GCC on x86-64 Linux")
    if not has_avx2():
        pytest.skip("this CPU has no AVX2, so the dispatched build runs the baseline clone")
    library = tmp_path / "_lw_baseline.so"
    build(baseline_source(tmp_path), library)

    nx = 61         # n, n - 1 and n - 2 nodes leave remainders for every vector width
    xs = np.linspace(0.0, 1.0, nx + 1)
    config = dynamics.SolverConfig(nx=nx, t_end=0.6, snapshot_dt=0.2)
    members = []
    for bump, amplitude, k in ((1e-3, 0.0, 4.0), (0.0, 1e-3, 2.5)):
        params = PipeParams(L=1.0, a=2.0, theta=0.1, k=k)
        phi, dphi = dynamics.bump_profile(xs, bump, 0.5, 0.2)
        spec = DisturbanceSpec(family="decaying_burst", amplitude=amplitude, frequency=1.0,
                               gamma=0.5, T_period=0.2, seed=3)
        members.append(dynamics.Member(params, build_stationary(params, 0.3, xs), spec, config,
                                       phi, -2.0 * dphi, dphi))
    dispatched, dispatched_nan = dynamics.simulate_batch(members), nan_step(members)
    monkeypatch.setattr(dynamics, "SPLIT_NODES", nx + 1)
    runs = [dynamics.simulate_batch(members, threads=2)]
    assert nan_step(members, threads=2) == dispatched_nan
    monkeypatch.setattr(dynamics, "_LW", dynamics._declare(ctypes.CDLL(str(library))))
    runs += [dynamics.simulate_batch(members), dynamics.simulate_batch(members, threads=2)]
    assert nan_step(members) == dispatched_nan
    assert nan_step(members, threads=2) == dispatched_nan

    for got, want in (pair for run in runs for pair in zip(run, dispatched, strict=True)):
        assert len(want.times) > 50
        assert got.times.tobytes() == want.times.tobytes()
        for name in want.series:
            assert got.series[name].tobytes() == want.series[name].tobytes(), name
        for name in want.boundary:
            assert got.boundary[name].tobytes() == want.boundary[name].tobytes(), name
        for s1, s2 in zip(got.states, want.states, strict=True):
            assert [x.tobytes() for x in (s1.u, s1.v, s1.w)] == [
                x.tobytes() for x in (s2.u, s2.v, s2.w)]
