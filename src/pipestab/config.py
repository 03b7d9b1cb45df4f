"""Scenario configuration: flat dotted-key text files.

Grammar: one `section.key = value` per line; blank lines and lines
starting with `#` are ignored.  Values are ints, floats or bare strings
depending on the key's schema type.  Serialization emits floats with
repr (shortest round-trip decimal), so parse/serialize round-trips
identically.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .disturbance import DisturbanceSpec
from .dynamics import RECORDS, SolverConfig, bump_profile
from .stationary import FieldError, PipeParams


class ConfigError(ValueError):
    pass


# Every snapshot ends a step and is kept in memory, so a tiny snapshot_dt
# forces a tiny step and an unbounded trajectory.
MAX_SNAPSHOTS = 10000
# Every step keeps one float64 per record until the run ends, in a buffer that
# doubles when full: while it grows, the old and the new buffer live at once,
# 3 * 8 * len(RECORDS) = 192 bytes a step.  After the run the buffer holds at
# most 2 * 64 bytes a step, and the certificate stage adds at most six float64
# arrays and one bool array the length of the series (the windowed E and H,
# the work of the noise check, the decay checks and the fit, and the hypothesis
# flags): 177 bytes a step.  So this cap on the steps keeps one scenario's
# per-step arrays within 1 GiB.  A step is CFL-limited at a wave speed below
# 3 pipe.a (|ubar| < a and the blow-up guard |u| <= a), or it ends on one of at
# most MAX_SNAPSHOTS snapshots or on t_end.
MAX_STEPS = 2 ** 30 // (3 * 8 * len(RECORDS))
# Every snapshot keeps 3 float64 arrays of nx + 1 values until the run ends,
# so this cap on their cells keeps one scenario's snapshots within 1 GiB.
MAX_SNAPSHOT_CELLS = 2 ** 30 // 24

# key -> (type, default, constraint text, predicate on the merged values).  A number
# must be a finite float64, and PipeParams, SolverConfig and DisturbanceSpec check
# the ranges of their fields: only the rules that no dataclass owns are written here.
SCHEMA: dict[str, tuple] = {
    "pipe.L": (float, 1.0, None, None),
    "pipe.a": (float, 1.0, None, None),
    "pipe.theta": (float, 0.0, None, None),
    # the certificate's Cg holds a^2 k^2, and Python's k ** 2 raises OverflowError
    # beyond k = 1.3e154: an overflow to +inf would make the certified bound vacuous
    "feedback.k": (float, 2.0, "feedback.k <= 1e150 and feedback.k * pipe.a <= 1e150",
                   lambda v: v["feedback.k"] <= 1e150 and v["feedback.k"] * v["pipe.a"] <= 1e150),
    "stationary.u0": (float, 0.25, "0 < stationary.u0 < pipe.a",
                      lambda v: 0 < v["stationary.u0"] < v["pipe.a"]),
    "disturbance.family": (str, "zero", None, None),
    "disturbance.A": (float, 0.0, None, None),
    "disturbance.f": (float, 1.0, None, None),
    "disturbance.gamma": (float, 1.0, None, None),
    "disturbance.nu": (float, 1.0, None, None),
    # Cg is C_nu times (4/3) e a^2 k^2 plus a term below 1/(2e), which is 0 unless
    # a^2 k^2 > 4/3; so this rule keeps Cg below 4e300, where a +inf would make the
    # certified bound vacuous.  The feedback.k rule, checked first, keeps the square finite
    "disturbance.C_nu": (float, 1.0, "disturbance.C_nu * (feedback.k * pipe.a) ** 2 <= 1e300",
                         lambda v: v["disturbance.C_nu"] * (v["feedback.k"] * v["pipe.a"]) ** 2
                         <= 1e300),
    "disturbance.T_period": (float, 1.0, None, None),
    "disturbance.seed": (int, 0, None, None),
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
    "solver.nx": (int, 200, "(solver.nx + 1) * (solver.t_end / solver.snapshot_dt + 1) "
                  f"<= {MAX_SNAPSHOT_CELLS}",
                  # beyond MAX_SNAPSHOTS snapshots the solver.snapshot_dt rule names the fault
                  lambda v: (v["solver.nx"] + 1) * (min(v["solver.t_end"] / v["solver.snapshot_dt"],
                                                        MAX_SNAPSHOTS) + 1) <= MAX_SNAPSHOT_CELLS),
    "solver.cfl": (float, 0.45, None, None),
    "solver.t_end": (float, 10.0, "solver.t_end > disturbance.T_period and "
                     "solver.t_end * 3 * pipe.a * solver.nx / (solver.cfl * pipe.L) "
                     f"+ {MAX_SNAPSHOTS + 1} <= {MAX_STEPS}",
                     lambda v: v["solver.t_end"] > v["disturbance.T_period"]
                     # one divisor at a time: solver.cfl * pipe.L may underflow to 0
                     and v["solver.t_end"] * 3 * v["pipe.a"] * v["solver.nx"]
                     / v["solver.cfl"] / v["pipe.L"] + MAX_SNAPSHOTS + 1 <= MAX_STEPS),
    "solver.snapshot_dt": (float, 0.1, f"solver.t_end / solver.snapshot_dt <= {MAX_SNAPSHOTS}",
                           lambda v: v["solver.t_end"] / v["solver.snapshot_dt"]
                           <= MAX_SNAPSHOTS),
    "certificate.lambda": (float, 0.75, "1/2 < certificate.lambda < 1",
                           lambda v: 0.5 < v["certificate.lambda"] < 1),
    "output.csv_path": (str, "run.csv", None, None),
    "output.report_path": (str, "report.txt", None, None),
}
KINDS = {str: str, int: numbers.Integral, float: numbers.Real}   # an int is a float too


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
        unknown = [k for k in self.values if k not in SCHEMA]
        if unknown:
            raise ConfigError(f"unknown configuration key `{unknown[0]}`")
        self.values = {k: self.values.get(k, spec[1]) for k, spec in SCHEMA.items()}
        self.validate()

    def __getitem__(self, key):
        return self.values[key]

    def validate(self):
        """Check each value's type, build the dataclasses, then the SCHEMA rules."""
        v = self.values
        for key, (typ, *_) in SCHEMA.items():
            if isinstance(v[key], bool) or not isinstance(v[key], KINDS[typ]):
                raise ConfigError(f"invalid value for `{key}`: expected {typ.__name__}, "
                                  f"got {type(v[key]).__name__}")
            # an int beyond the float range would overflow in a rule's float arithmetic
            if typ is not str and not abs(v[key]) <= sys.float_info.max:
                raise ConfigError(f"invalid value for `{key}`: not a finite float64 number")
            v[key] = typ(v[key])
        self.pipe_params(), self.solver_config(), self.disturbance_spec()
        for key, (_, _, rule, ok) in SCHEMA.items():
            if ok is not None and not ok(v):
                raise ConfigError(f"invalid value for `{key}`: constraint `{rule}` violated")

    # -- parsing / serialization ------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "ScenarioConfig":
        values, lines = {}, {}      # key -> its value, and the line that gave it
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
            key, _, val = (part.strip() for part in line.partition("="))
            if key in lines:
                raise ConfigError(f"line {lineno}: `{key}` is given again, after line "
                                  f"{lines[key]}; give each key once")
            try:
                values[key] = _parse_value(key, val)
            except ConfigError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
            lines[key] = lineno
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
        return ScenarioConfig({**self.values, **overrides})

    # -- builders ----------------------------------------------------------

    def _build(self, cls, keys: dict, **extra):
        """cls with each field in `keys` read from its config key; a field
        error becomes a ConfigError that names the key."""
        try:
            return cls(**{name: self[key] for name, key in keys.items()}, **extra)
        except FieldError as exc:
            raise ConfigError(f"invalid value for `{keys[exc.field]}`: {exc}") from None

    def pipe_params(self) -> PipeParams:
        return self._build(PipeParams, {"L": "pipe.L", "a": "pipe.a", "theta": "pipe.theta",
                                        "k": "feedback.k"})

    def solver_config(self) -> SolverConfig:
        return self._build(SolverConfig, {name: "solver." + name for name in
                                          ("nx", "cfl", "t_end", "snapshot_dt")})

    def disturbance_spec(self) -> DisturbanceSpec:
        compact = self["disturbance.family"] == "compact_burst"
        t_off = self["solver.t_end"] - self["disturbance.T_period"]
        if not (compact and t_off > 0):     # t_off <= 0: the solver.t_end rule names the fault
            t_off = math.inf
        return self._build(DisturbanceSpec, {
            "family": "disturbance.family", "amplitude": "disturbance.A",
            "frequency": "disturbance.f", "gamma": "disturbance.gamma", "nu": "disturbance.nu",
            "C_nu": "disturbance.C_nu", "T_period": "disturbance.T_period",
            "seed": "disturbance.seed"}, t_off=t_off)

    def initial_arrays(self, xs):
        if self["initial.family"] == "zero":
            z = np.zeros_like(xs)
            return z, z.copy(), z.copy()
        phi, dphi = bump_profile(xs, self["initial.amplitude"],
                                 self["initial.center"], self["initial.width"])
        return phi, np.zeros_like(xs), dphi
