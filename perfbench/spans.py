"""Spans around the program's layers, recorded from outside the program.

`Tracer.install` rebinds module attributes of `pipestab` so that each
call into a layer records a span (name, start, end, parent) in flat
in-memory arrays; `Tracer.write` stores them at the end and
`layer_metrics` turns a stored trace into the per-layer metrics.
Nothing inside the package changes.
"""

from __future__ import annotations

import array
import functools
import json
import time
from pathlib import Path

import numpy as np

# (module, attribute, span name).  The attribute is the binding the caller
# looks up at call time: `cli` imported `simulate` and `build_stationary`
# by name, `dynamics` imported `sample_b` and the energy functionals.
SPANS = [
    ("cli", "main", "cli.main"),
    ("config.ScenarioConfig", "from_file", "config.parse"),
    ("config.ScenarioConfig", "replace", "config.parse"),
    ("cli", "build_stationary", "stationary.build"),
    ("cli", "simulate", "dynamics.simulate"),
    ("dynamics", "step", "dynamics.step"),
    ("dynamics", "lower_order_F", "dynamics.lower_order_F"),
    ("dynamics", "f_tilde", "dynamics.f_tilde"),
    ("dynamics", "sample_b", "disturbance.sample_b"),
    ("dynamics", "energy_E1", "lyapunov.record_energy"),
    ("dynamics", "energy_classic", "lyapunov.record_energy"),
    ("dynamics", "grad_norm", "lyapunov.record_energy"),
    ("dynamics", "h1_integrand", "lyapunov.record_energy"),
    ("cli", "verify_noise_bound", "disturbance.verify_noise_bound"),
    ("lyapunov", "windowed_series", "lyapunov.windowed_series"),
    ("lyapunov", "fit_decay_rate", "lyapunov.fit_decay_rate"),
    ("certificate", "compute_constants", "certificate"),
    ("certificate", "check_hypotheses", "certificate"),
    ("certificate", "verify_decay_bounds", "certificate"),
    ("certificate", "assemble_report", "certificate"),
    ("cli", "_write_csv", "cli.output"),
    ("cli", "_write_reports", "cli.output"),
]


def _trajectory_bytes(traj) -> int:
    """Bytes of the arrays a finished Trajectory holds (snapshot grids shared)."""
    arrays = [traj.times, *traj.series.values(), *traj.boundary.values()]
    for st in traj.states:
        arrays += [st.u, st.v, st.w]
    if traj.states:
        arrays.append(traj.states[0].xs)
    return sum(a.nbytes for a in arrays)


class Tracer:
    """Flat span store: one row per call, parent given by row index (-1: root)."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ix = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters = {"cell_updates": 0, "trajectory_bytes": 0}
        self._stack = [-1]
        self._undo = []

    def _wrap(self, fn, name: str, after=None):
        if name not in self.names:
            self.names.append(name)
        ix = self.names.index(name)
        name_ix, parent, start, end = self.name_ix, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = len(start)
            name_ix.append(ix)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(row)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[row] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result
        return traced

    def install(self, package):
        """Wrap every entry of SPANS in the imported `package`."""
        counters = self.counters

        def count_cells(state):
            counters["cell_updates"] += state.u.size

        def keep_largest_trajectory(result):
            counters["trajectory_bytes"] = max(counters["trajectory_bytes"],
                                               _trajectory_bytes(result))

        after = {"dynamics.step": count_cells,
                 "dynamics.simulate": keep_largest_trajectory}
        for owner_path, attr, name in SPANS:
            owner = package
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, after.get(name)))
            else:
                new = self._wrap(raw, name, after.get(name))
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def write(self, path: Path):
        """Store the spans as a JSON header line plus the raw arrays (native byte order)."""
        header = {"names": self.names, "rows": len(self.start),
                  "counters": self.counters}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ix, self.parent, self.start, self.end):
                arr.tofile(fh)


def read(path: Path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["rows"]
        name_ix = np.fromfile(fh, dtype=np.int32, count=n)
        parent = np.fromfile(fh, dtype=np.int32, count=n)
        start = np.fromfile(fh, dtype=np.float64, count=n)
        end = np.fromfile(fh, dtype=np.float64, count=n)
    return header, name_ix, parent, start, end


UNITS = {
    "config.parse_s": "s",
    "stationary.build_s": "s",
    "dynamics.steps": "count",
    "dynamics.cell_updates_per_s": "1/s",
    "dynamics.simulate_self_s": "s",
    "dynamics.step_s": "s",
    "dynamics.lower_order_F_s": "s",
    "dynamics.f_tilde_calls": "count",
    "lyapunov.record_energy_s": "s",
    "lyapunov.record_energy_calls": "count",
    "disturbance.sample_b_s": "s",
    "disturbance.sample_b_calls": "count",
    "disturbance.verify_noise_bound_s": "s",
    "lyapunov.windowed_series_s": "s",
    "lyapunov.fit_decay_rate_s": "s",
    "certificate.s": "s",
    "cli.output_s": "s",
    "cli.output_bytes": "bytes",
    "dynamics.trajectory_bytes": "bytes",
}


def layer_metrics(path: Path, output_bytes: int) -> dict:
    """Per-layer metrics of one traced invocation, from its stored spans.

    Times are inclusive of child spans except `dynamics.simulate_self_s`,
    which is the span's duration minus the time its child spans cover.
    """
    header, name_ix, parent, start, end = read(path)
    names = header["names"]
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    def total(name, values=dur):
        return float(values[name_ix == names.index(name)].sum()) if name in names else 0.0

    def calls(name):
        return int(np.count_nonzero(name_ix == names.index(name))) if name in names else 0

    step_s = total("dynamics.step")
    return {
        "config.parse_s": total("config.parse"),
        "stationary.build_s": total("stationary.build"),
        "dynamics.steps": calls("dynamics.step"),
        "dynamics.cell_updates_per_s": header["counters"]["cell_updates"] / step_s,
        "dynamics.simulate_self_s": total("dynamics.simulate", self_time),
        "dynamics.step_s": step_s,
        "dynamics.lower_order_F_s": total("dynamics.lower_order_F"),
        "dynamics.f_tilde_calls": calls("dynamics.f_tilde"),
        "lyapunov.record_energy_s": total("lyapunov.record_energy"),
        "lyapunov.record_energy_calls": calls("lyapunov.record_energy"),
        "disturbance.sample_b_s": total("disturbance.sample_b"),
        "disturbance.sample_b_calls": calls("disturbance.sample_b"),
        "disturbance.verify_noise_bound_s": total("disturbance.verify_noise_bound"),
        "lyapunov.windowed_series_s": total("lyapunov.windowed_series"),
        "lyapunov.fit_decay_rate_s": total("lyapunov.fit_decay_rate"),
        "certificate.s": total("certificate"),
        "cli.output_s": total("cli.output"),
        "cli.output_bytes": output_bytes,
        "dynamics.trajectory_bytes": header["counters"]["trajectory_bytes"],
    }
