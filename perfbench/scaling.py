"""Scaling of the Lax-Wendroff step with grid size.

Usage (from the repository root):  python3 perfbench/scaling.py

Runs the fine_grid scenario of seed SEED = 1 once, traced, at each
nx in 200, 400, ..., 3200, and prints dynamics.steps, dynamics.step_s and
dynamics.cell_updates_per_s for each.  The figures in README.md come
from this script.
"""

import sys
import tempfile
from pathlib import Path

import run
import workloads

SEED = 1


def main() -> int:
    root = Path.cwd()
    base = workloads.make("fine_grid", SEED, root)
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    print("nx,steps,step_s,cell_updates_per_s")
    for nx in (200, 400, 800, 1600, 3200):
        wl = workloads.Workload("scaling", dict(base.config, **{"solver.nx": nx}))
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            bench = run.Bench(root, wl, Path(tmp))
            layers = bench.operation(traced=True)["layers"]
        print(f"{nx},{layers['dynamics.steps']},{layers['dynamics.step_s']:.4f},"
              f"{layers['dynamics.cell_updates_per_s']:.4g}")
    scratch.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
