"""Subsonic stationary states of the pipe flow.

The stationary velocity profile of the isothermal pipe model solves

    ubar_x = (theta/2) * |ubar| * ubar^2 / (a^2 - ubar^2)

and has the closed form ubar(x) = a / sqrt(y(x)), where y >= 1 solves
y - ln y = -(theta*x + c1), that is y = -W_{-1}(-exp(theta*x + c1)) on the
lower branch of the Lambert W function.  For positive flow the
profile is strictly increasing and blows up (becomes sonic) at a finite
critical length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class FieldError(ValueError):
    """A dataclass field holds a value outside its range; `field` names it."""

    def __init__(self, field: str, rule: str):
        super().__init__(f"{field} must be {rule}")
        self.field = field


def require(ok: bool, field: str, rule: str):
    """Raise FieldError for `field` unless `ok`, a test written so that NaN fails it."""
    if not ok:
        raise FieldError(field, rule)


@dataclass(frozen=True)
class PipeParams:
    """Physical pipe description plus the boundary feedback gain."""

    L: float            # pipe length
    a: float            # speed of sound
    theta: float        # friction ratio f_g / diameter, >= 0
    k: float            # Neumann feedback gain at x = 0

    def __post_init__(self):
        require(0.0 < self.L < math.inf, "L", "finite and > 0")
        require(0.0 < self.a < math.inf, "a", "finite and > 0")
        require(0.0 <= self.theta < math.inf, "theta", "finite and >= 0")
        require(0.0 < self.k < math.inf, "k", "finite and > 0")


def _minus_w_minus1(q):
    """y >= 1 with y - ln y = q, element-wise for q >= 1: y = -W_{-1}(-exp(-q)).

    Solved in log space, so no exponential underflows however large q is.
    Halley's method starts from the branch-point series in
    p = sqrt(2(q - 1)) when q - 1 < 1 and from q + ln q beyond (Corless,
    Gonnet, Hare, Jeffrey & Knuth, Adv. Comput. Math. 5, 1996); both starts
    are within 15 % of y, so three cubically convergent steps reach
    float64 accuracy and the fourth is margin.
    """
    q = np.maximum(np.asarray(q, dtype=float), 1.0)
    p = np.sqrt(2.0 * np.minimum(q - 1.0, 1.0))
    series = 1.0 + p * (1.0 + p * (1.0 / 3.0 + p * (1.0 / 36.0 + p * (-1.0 / 270.0 + p / 4320.0))))
    y = np.where(q - 1.0 < 1.0, series, q + np.log(q))
    for _ in range(4):
        # f = y - ln y - q, f' = (y - 1) / y, f'' = 1 / y^2; y = 1 only at q = 1, where f = 0
        t = np.maximum(y - 1.0, np.finfo(float).tiny)
        newton = (y - np.log(y) - q) * (y / t)
        y = y - newton / (1.0 - 0.5 * (newton / y) / t)
    return y


@dataclass
class StationaryProfile:
    """Sampled stationary velocity profile on a grid."""

    u0: float                 # inflow velocity ubar(0), in (0, a)
    c1: float                 # Lambert constant, < -1
    L_crit: float             # blow-up length (inf for theta = 0)
    xs: np.ndarray = field(repr=False)
    ubar: np.ndarray = field(repr=False)
    ubar_x: np.ndarray = field(repr=False)


def _c1_of(params: PipeParams, u0: float) -> float:
    ratio = params.a / u0
    r = ratio * ratio           # inf, where ratio ** 2 would raise OverflowError
    if not math.isfinite(r):
        raise ValueError(f"u0 = {u0!r} is too small: (a / u0)^2 overflows")
    return math.log(r) - r


def critical_length(params: PipeParams, u0: float) -> float:
    """Length at which the stationary profile becomes sonic (ubar = a)."""
    if not 0.0 < u0 < params.a:
        raise ValueError("u0 must lie in (0, a)")
    if params.theta == 0.0:
        return math.inf
    return (-1.0 - _c1_of(params, u0)) / params.theta


def stationary_ode_rhs(u: float | np.ndarray, params: PipeParams):
    """Right-hand side of the stationary ODE for the velocity."""
    return 0.5 * params.theta * np.abs(u) * u ** 2 / (params.a ** 2 - u ** 2)


def build_stationary(params: PipeParams, u0: float, xs) -> StationaryProfile:
    """Evaluate the closed-form stationary profile on the grid xs.

    Positive flow only; the derivative is taken from the stationary ODE,
    not from differencing the samples.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.min() < 0.0 or xs.max() > params.L + 1e-12:
        raise ValueError("grid must lie inside [0, L]")
    lcrit = critical_length(params, u0)
    c1 = _c1_of(params, u0)
    ubar = params.a / np.sqrt(_minus_w_minus1(-(params.theta * xs + c1)))
    # a length just below lcrit can still round ubar up to a at the outflow
    if params.L >= lcrit or not np.all(ubar < params.a):
        raise ValueError(
            f"pipe length {params.L} reaches the critical length {lcrit:.6g}; "
            "the stationary profile becomes sonic inside the pipe")
    ubar_x = np.asarray(stationary_ode_rhs(ubar, params))
    return StationaryProfile(u0=u0, c1=c1, L_crit=lcrit, xs=xs, ubar=ubar, ubar_x=ubar_x)

