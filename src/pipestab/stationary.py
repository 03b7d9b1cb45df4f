"""Subsonic stationary states of the pipe flow.

The stationary velocity profile of the isothermal pipe model solves

    ubar_x = (theta/2) * |ubar| * ubar^2 / (a^2 - ubar^2)

and has the closed form ubar(x) = a / sqrt(-W_{-1}(-exp(theta*x + c1)))
on the W_{-1} branch of the Lambert W function.  For positive flow the
profile is strictly increasing and blows up (becomes sonic) at a finite
critical length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

INV_E = math.exp(-1.0)


@dataclass(frozen=True)
class PipeParams:
    """Physical pipe description plus the boundary feedback gain."""

    L: float            # pipe length
    a: float            # speed of sound
    theta: float        # friction ratio f_g / diameter, >= 0
    k: float            # Neumann feedback gain at x = 0

    def __post_init__(self):
        if not self.L > 0:
            raise ValueError("pipe length L must be > 0")
        if not self.a > 0:
            raise ValueError("sound speed a must be > 0")
        if self.theta < 0:
            raise ValueError("friction ratio theta must be >= 0")
        if not self.k > 0:
            raise ValueError("feedback gain k must be > 0")


def lambert_w_minus1(z: float) -> float:
    """Lambert W on the lower real branch, W_{-1}(z) <= -1 for z in [-1/e, 0).

    Halley iteration from the asymptotic guess log(-z) - log(-log(-z));
    near the branch point the series in p = -sqrt(2(1 + e*z)) is used
    instead, where the iteration stagnates.
    """
    z = float(z)
    tol = 4.0 * np.finfo(float).eps
    if z >= 0.0 or z < -INV_E * (1.0 + tol):
        raise ValueError(f"lambert_w_minus1 requires -1/e <= z < 0, got {z}")
    z = max(z, -INV_E)

    arg = 2.0 * (1.0 + math.e * z)
    if arg <= 0.0:
        return -1.0
    p = -math.sqrt(arg)
    if abs(z + INV_E) < 1e-6:
        # branch-point series, accurate to ~p^7 here
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (
            -43.0 / 540.0 + p * (769.0 / 17280.0 - p * 221.0 / 8505.0)))))
        if abs(z + INV_E) < 1e-9:
            return w
    elif z > -0.27:
        lz = math.log(-z)
        w = lz - math.log(-lz)
    else:
        # mid range: branch-point series is still the better starting point
        w = -1.0 + p * (1.0 - p / 3.0 + 11.0 / 72.0 * p * p)

    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - z
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        dw = f / denom
        w -= dw
        if abs(dw) <= 1e-15 * (1.0 + abs(w)):
            break
    return min(w, -1.0) if w > -1.0 else w


def _w_minus1_array(z):
    return np.array([lambert_w_minus1(zi) for zi in np.asarray(z, dtype=float).ravel()])


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
    r = params.a ** 2 / u0 ** 2
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
    if not 0.0 < u0 < params.a:
        raise ValueError("u0 must lie in (0, a)")
    xs = np.asarray(xs, dtype=float)
    if xs.min() < 0.0 or xs.max() > params.L + 1e-12:
        raise ValueError("grid must lie inside [0, L]")
    lcrit = critical_length(params, u0)
    if params.L >= lcrit:
        raise ValueError(
            f"pipe length {params.L} reaches the critical length {lcrit:.6g}; "
            "the stationary profile becomes sonic inside the pipe")

    c1 = _c1_of(params, u0)
    if params.theta == 0.0:
        # frictionless pipe: the profile is constant and the Lambert-W
        # evaluation would underflow for small u0
        ubar = np.full_like(xs, u0)
    else:
        w = _w_minus1_array(-np.exp(params.theta * xs + c1))
        ubar = params.a / np.sqrt(-w)
    ubar_x = np.asarray(stationary_ode_rhs(ubar, params))
    return StationaryProfile(u0=u0, c1=c1, L_crit=lcrit, xs=xs, ubar=ubar, ubar_x=ubar_x)

