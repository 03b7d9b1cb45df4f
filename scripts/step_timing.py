#!/usr/bin/env python3
"""Time the compiled Lax–Wendroff step, one thread against the split.

Usage (from the repository root):

    python scripts/step_timing.py [--nx 400 800 1600 3200] [--rounds 5]
                                  [--steps 500] [--calls 9] [--src DIR ...]

Each measurement is a fresh interpreter that builds one member with the
`demo` physics (L = 1, a = 2, theta = 0.1, k = 4, u0 = 0.3, its decaying
burst) and a bump of 1e-3 on nx + 1 nodes, and then calls
`dynamics.step` `--calls` times, each call taking `--steps` steps (a
call that the member leaves early, having failed, ends the measurement
with an error); it reports the median wall time per step over the calls
after the first.
"one thread" is StepWork(state, 1); "split" is StepWork(state, 2), which
splits every step between the calling thread and a helper thread, whatever
dynamics.SPLIT_NODES says.  A round measures every nx, thread count and
source tree once, in an order that is reversed from one round to the
next.  The table gives per nx the median over rounds of each time, with
its range, and of each round's ratio one thread / split (above 1: the
split is faster).

`--src` names the directory that holds the package `pipestab` (default:
this checkout's src/); given more than once, the trees are measured in
the same rounds and get one table each.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import math, statistics, sys, time
import numpy as np
from pipestab import dynamics
from pipestab.disturbance import DisturbanceSpec
from pipestab.stationary import PipeParams, build_stationary

nx, threads, steps, calls = map(int, sys.argv[1:])
params = PipeParams(L=1.0, a=2.0, theta=0.1, k=4.0)
xs = np.linspace(0.0, 1.0, nx + 1)
phi, dphi = dynamics.bump_profile(xs, 1e-3, 0.5, 0.2)
state = dynamics.FieldState([0.0], xs, phi[None], -params.a * dphi[None], dphi[None])
terms = dynamics.profile_terms([(build_stationary(params, 0.3, xs), params)])
work = dynamics.StepWork(state, threads)
spec = DisturbanceSpec(family="decaying_burst", amplitude=1e-4, frequency=1.0, gamma=0.6,
                       T_period=1.0, seed=0)
work.load([spec], speed=dynamics.wave_speed(terms, state), guard=[1.0],
          cfl_dx=[0.45 * (xs[1] - xs[0])], t_snap=[math.inf], t_end=[math.inf])
records = np.empty((len(dynamics.RECORDS), 1, steps + 1))
per_step = []
for _ in range(calls):
    start = time.perf_counter()
    state = dynamics.step(state, terms, work, records, 1)
    per_step.append((time.perf_counter() - start) / work.taken)
    if work.taken != steps:         # a failed member is retired, not raised
        sys.exit(f"the member stopped after {work.taken} of {steps} steps: "
                 f"{dynamics.failure(work, 0)}")
print(statistics.median(per_step[1:]) * 1e6)
"""


def measure(src: Path, nx: int, threads: int, steps: int, calls: int) -> float:
    """Microseconds per step of one fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", CHILD, str(nx), str(threads), str(steps),
                           str(calls)], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{src}, nx = {nx}, threads = {threads}: {proc.stderr.strip()}")
    return float(proc.stdout)


def spread(values: list, unit: str = "", digits: int = 2) -> str:
    return (f"{statistics.median(values):.{digits}f}{unit} "
            f"({min(values):.{digits}f}–{max(values):.{digits}f})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--nx", type=int, nargs="+", default=[400, 800, 1600, 3200])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--calls", type=int, default=9)
    parser.add_argument("--src", type=Path, action="append")
    args = parser.parse_args(argv)
    trees = [path.resolve() for path in args.src or [ROOT / "src"]]
    cases = [(src, nx, threads) for src in trees for nx in args.nx for threads in (1, 2)]
    times = {case: [] for case in cases}
    for r in range(args.rounds):
        for case in cases if r % 2 == 0 else cases[::-1]:
            times[case].append(measure(*case, args.steps, args.calls))
    for src in trees:
        print(f"\n{src}: µs per step, medians of {args.rounds} rounds (range)\n")
        print("| `solver.nx` | one thread | two threads | one thread / split |")
        print("|-------------|------------|-------------|--------------------|")
        for nx in args.nx:
            one, two = times[src, nx, 1], times[src, nx, 2]
            ratios = [a / b for a, b in zip(one, two)]
            print(f"| {nx:<11} | {spread(one, ' µs')} | {spread(two, ' µs')} | "
                  f"{spread(ratios, '×')} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
