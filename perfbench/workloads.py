"""Scenario configs of the benchmark workloads, generated from a seed.

Each workload is one invocation of the `pipestab` command line: `run` on
one config, or `sweep` over a grid of overrides.  The same (workload,
seed) pair always gives the same values; run.py writes them to the config
files the program reads, and the program sees nothing else.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

# The pipe and controller of the committed demo; fine_grid and gain_sweep
# start from it so that all three workloads simulate the same system.
PIPE = {
    "pipe.L": 1.0, "pipe.a": 2.0, "pipe.theta": 0.1,
    "feedback.k": 4.0, "stationary.u0": 0.3,
    "solver.cfl": 0.45, "certificate.lambda": 0.6,
}


@dataclass
class Workload:
    name: str
    config: dict                   # the config file the program reads
    grid: dict = field(default_factory=dict)   # sweep key -> values; empty: one run

    @property
    def verb(self) -> str:
        return "sweep" if self.grid else "run"

    def scenario_configs(self) -> list[dict]:
        """Config of every scenario, in the order `pipestab sweep` runs them."""
        keys = sorted(self.grid)
        return [dict(self.config, **dict(zip(keys, combo)))
                for combo in itertools.product(*(self.grid[k] for k in keys))]


def read_config(path: Path) -> dict:
    """Parse a committed `key = value` config file into typed values."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        values[key.strip()] = _typed(val.strip())
    return values


def _typed(text: str):
    for typ in (int, float):
        try:
            return typ(text)
        except ValueError:
            pass
    return text


def render(values: dict) -> str:
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                   for k, v in values.items())


def demo(rng: random.Random, root: Path) -> Workload:
    # The reference run: configs/demo.cfg as committed, whatever the seed.
    # (A non-zero disturbance.seed would also change its cost, see README.)
    return Workload("demo", read_config(root / "configs" / "demo.cfg"))


def fine_grid(rng: random.Random, root: Path) -> Workload:
    center = rng.uniform(0.4, 0.6)
    cfg = dict(PIPE, **{
        "disturbance.family": "compact_burst",
        "disturbance.A": rng.uniform(0.5e-4, 1.5e-4),
        "disturbance.f": rng.uniform(0.8, 1.2),
        "disturbance.gamma": 0.6,
        "disturbance.nu": 1.0,
        "disturbance.C_nu": 1e-5,
        "disturbance.T_period": 0.5,
        "disturbance.seed": rng.randrange(1, 2 ** 31),
        "initial.family": "bump",
        "initial.amplitude": rng.uniform(0.5e-3, 1.5e-3),
        "initial.center": center,
        "initial.width": rng.uniform(0.15, 0.25),
        "solver.nx": 3200,
        "solver.t_end": 0.75,
        "solver.snapshot_dt": 0.05,
    })
    return Workload("fine_grid", cfg)


def gain_sweep(rng: random.Random, root: Path) -> Workload:
    cfg = dict(PIPE, **{
        "disturbance.family": "decaying_burst",
        "disturbance.A": 1e-4,
        "disturbance.f": 1.0,
        "disturbance.gamma": 0.6,
        "disturbance.nu": 1.0,
        "disturbance.C_nu": 4e-7,
        "disturbance.T_period": 1.0,
        "disturbance.seed": 0,
        "initial.family": "zero",
        "solver.nx": 100,
        "solver.t_end": 2.0,
        "solver.snapshot_dt": 0.25,
    })
    # u0 sets the wave speed and so the step count; it is fixed so that
    # every seed costs the same.  k and the disturbance seeds cost nothing.
    grid = {
        "feedback.k": sorted(rng.uniform(2.0, 8.0) for _ in range(3)),
        "stationary.u0": [0.2, 0.4],
        "disturbance.seed": rng.sample(range(1, 2 ** 31), 4),
    }
    return Workload("gain_sweep", cfg, grid)


WORKLOADS = {"demo": demo, "fine_grid": fine_grid, "gain_sweep": gain_sweep}


def make(name: str, seed: int, root: Path) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), root)
