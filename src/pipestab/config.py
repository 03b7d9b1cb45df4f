"""Scenario configuration: flat dotted-key text files.

Grammar: one `section.key = value` per line; blank lines and lines
starting with `#` are ignored.  Values are ints, floats or bare strings
depending on the key's schema type.  Serialization emits floats with
repr (shortest round-trip decimal), so parse/serialize round-trips
identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .disturbance import FAMILIES, DisturbanceSpec
from .dynamics import SolverConfig, bump_profile
from .stationary import PipeParams


class ConfigError(ValueError):
    pass


# Every snapshot ends a step and is kept in memory, so a tiny snapshot_dt
# forces a tiny step and an unbounded trajectory.
MAX_SNAPSHOTS = 10000

# key -> (type, default, constraint text, predicate on the merged values);
# the last two are None for unconstrained keys.  Every float must also be finite.
SCHEMA: dict[str, tuple] = {
    "pipe.L": (float, 1.0, "pipe.L > 0", lambda v: v["pipe.L"] > 0),
    "pipe.a": (float, 1.0, "pipe.a > 0", lambda v: v["pipe.a"] > 0),
    "pipe.theta": (float, 0.0, "pipe.theta >= 0", lambda v: v["pipe.theta"] >= 0),
    "feedback.k": (float, 2.0, "feedback.k > 0", lambda v: v["feedback.k"] > 0),
    "stationary.u0": (float, 0.25, "0 < stationary.u0 < pipe.a",
                      lambda v: 0 < v["stationary.u0"] < v["pipe.a"]),
    "disturbance.family": (str, "zero", f"disturbance.family in {{{', '.join(FAMILIES)}}}",
                           lambda v: v["disturbance.family"] in FAMILIES),
    "disturbance.A": (float, 0.0, None, None),
    "disturbance.f": (float, 1.0, None, None),
    "disturbance.gamma": (float, 1.0, "disturbance.gamma >= 0",
                          lambda v: v["disturbance.gamma"] >= 0),
    "disturbance.nu": (float, 1.0, "disturbance.nu > 0", lambda v: v["disturbance.nu"] > 0),
    "disturbance.C_nu": (float, 1.0, "disturbance.C_nu > 0", lambda v: v["disturbance.C_nu"] > 0),
    "disturbance.T_period": (float, 1.0, "disturbance.T_period > 0",
                             lambda v: v["disturbance.T_period"] > 0),
    "disturbance.seed": (int, 0, "disturbance.seed >= 0", lambda v: v["disturbance.seed"] >= 0),
    "initial.family": (str, "zero", "initial.family in {zero, bump}",
                       lambda v: v["initial.family"] in ("zero", "bump")),
    "initial.amplitude": (float, 0.0, None, None),
    "initial.center": (float, 0.5, None, None),
    "initial.width": (float, 0.2, "initial.width > 0, and for initial.family = bump the bump "
                      "support initial.center ± initial.width lies strictly inside (0, pipe.L)",
                      lambda v: v["initial.width"] > 0 and (
                          v["initial.family"] != "bump"
                          or 0 < v["initial.center"] - v["initial.width"]
                          and v["initial.center"] + v["initial.width"] < v["pipe.L"])),
    "solver.nx": (int, 200, "solver.nx >= 16", lambda v: v["solver.nx"] >= 16),
    "solver.cfl": (float, 0.45, "0 < solver.cfl < 1", lambda v: 0 < v["solver.cfl"] < 1),
    "solver.t_end": (float, 10.0, "solver.t_end > disturbance.T_period",
                     lambda v: v["solver.t_end"] > v["disturbance.T_period"]),
    "solver.snapshot_dt": (float, 0.1, "solver.snapshot_dt > 0 and "
                           f"solver.t_end / solver.snapshot_dt <= {MAX_SNAPSHOTS}",
                           lambda v: v["solver.snapshot_dt"] > 0
                           and v["solver.t_end"] / v["solver.snapshot_dt"] <= MAX_SNAPSHOTS),
    "certificate.lambda": (float, 0.75, "1/2 < certificate.lambda < 1",
                           lambda v: 0.5 < v["certificate.lambda"] < 1),
    "output.csv_path": (str, "run.csv", None, None),
    "output.report_path": (str, "report.txt", None, None),
}


def _parse_value(key: str, text: str):
    """Typed value of `key` from its text form."""
    if key not in SCHEMA:
        raise ConfigError(f"unknown configuration key `{key}`")
    typ = SCHEMA[key][0]
    try:
        return typ(text) if typ is not str else text
    except ValueError:
        raise ConfigError(f"value {text!r} for `{key}` is not a valid {typ.__name__}") from None


@dataclass
class ScenarioConfig:
    """Validated flat scenario configuration."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {k: spec[1] for k, spec in SCHEMA.items()}
        for k, v in self.values.items():
            if k not in SCHEMA:
                raise ConfigError(f"unknown configuration key `{k}`")
            merged[k] = v
        self.values = merged
        self.validate()

    def __getitem__(self, key):
        return self.values[key]

    def validate(self):
        v = self.values
        for key, (typ, _, rule, ok) in SCHEMA.items():
            if typ is float and not math.isfinite(v[key]):
                raise ConfigError(f"invalid value for `{key}`: {v[key]!r} is not finite")
            if ok is not None and not ok(v):
                raise ConfigError(f"invalid value for `{key}`: constraint `{rule}` violated")

    # -- parsing / serialization ------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "ScenarioConfig":
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
            key, _, val = line.partition("=")
            try:
                values[key.strip()] = _parse_value(key.strip(), val.strip())
            except ConfigError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
        return cls(values)

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from None
        return cls.from_text(text)

    def to_text(self) -> str:
        lines = []
        for key in SCHEMA:
            val = self.values[key]
            lines.append(f"{key} = {val!r}" if isinstance(val, float) else f"{key} = {val}")
        return "\n".join(lines) + "\n"

    def to_file(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_text())

    def replace(self, **overrides) -> "ScenarioConfig":
        """New config with dotted keys overridden (keys use `.` as given)."""
        values = dict(self.values)
        values.update(overrides)
        return ScenarioConfig(values)

    # -- builders ----------------------------------------------------------

    def pipe_params(self) -> PipeParams:
        return PipeParams(L=self["pipe.L"], a=self["pipe.a"],
                          theta=self["pipe.theta"], k=self["feedback.k"])

    def solver_config(self) -> SolverConfig:
        return SolverConfig(nx=self["solver.nx"], cfl=self["solver.cfl"],
                            t_end=self["solver.t_end"],
                            snapshot_dt=self["solver.snapshot_dt"])

    def disturbance_spec(self) -> DisturbanceSpec:
        t_off = self["solver.t_end"] - self["disturbance.T_period"]
        return DisturbanceSpec(
            family=self["disturbance.family"],
            amplitude=self["disturbance.A"],
            frequency=self["disturbance.f"],
            gamma=self["disturbance.gamma"],
            nu=self["disturbance.nu"],
            C_nu=self["disturbance.C_nu"],
            T_period=self["disturbance.T_period"],
            seed=self["disturbance.seed"],
            t_off=t_off if self["disturbance.family"] == "compact_burst" else math.inf)

    def initial_arrays(self, xs):
        if self["initial.family"] == "zero":
            z = np.zeros_like(xs)
            return z, z.copy(), z.copy()
        phi, dphi = bump_profile(xs, self["initial.amplitude"],
                                 self["initial.center"], self["initial.width"])
        return phi, np.zeros_like(xs), dphi
