"""Energy functionals for the closed-loop pipe flow and decay-rate fitting.

All spatial integrals are composite trapezoid on the solver grid, taken
as a dot product with the grid's precomputed weights (`Quadrature`); the
moving-window energies integrate the per-step series in time, again by
trapezoid, so the window sees full time resolution.
"""

from __future__ import annotations

import numpy as np
from numpy import add, multiply, square, subtract


class Quadrature:
    """The time-independent weights of the spatial integrals on one grid.

    `weights` are the composite-trapezoid weights, so int y dx = y @ weights;
    `decay` is the cross-term weight exp(-x/L) of E1 and `two_decay` is
    2 exp(-x/L), the factor E1 multiplies by.
    """

    def __init__(self, xs):
        xs = np.asarray(xs, dtype=float)
        half = 0.5 * np.diff(xs)
        self.weights = np.append(half, 0.0) + np.insert(half, 0, 0.0)
        self.decay = np.exp(-(xs - xs[0]) / (xs[-1] - xs[0]))
        self.two_decay = 2.0 * self.decay


def _trapz(y, weights):
    """int y dx over the last axis: a float for one member, a (..., 1) column
    for a batch of rows or a block of batches.

    np.vecdot takes one dot product per row, not one matrix product, so
    that each row's sum is bit for bit np.dot of that row alone.
    """
    return np.vecdot(y, weights, keepdims=y.ndim > 1)


def energy_E1(state, profile, k: float, a: float, quad: Quadrature, *, out) -> float:
    """Weighted wave energy with the exponential cross term.

    E1 = int k[(a^2 - (ubar+u)^2) u_x^2 + u_t^2]
         - 2 exp(-x/L) [(ubar+u) u_x^2 + u_t u_x] dx

    `quad` is Quadrature(state.xs), likewise below.  Also takes a batch
    state, with k and a as (B, 1) columns, or a block of states, whose u, v
    and w have a further leading axis; a is squared as a * a, which a float
    and a column round alike.  `out` is three work arrays of the state's
    shape.
    """
    f, m, t = out
    add(profile.ubar, state.u, m)
    square(state.w, t)
    square(m, f)
    subtract(a * a, f, f)
    multiply(f, t, f)
    multiply(m, t, m)
    square(state.v, t)
    add(f, t, f)
    multiply(k, f, f)
    multiply(state.v, state.w, t)
    add(m, t, m)
    multiply(quad.two_decay, m, m)
    subtract(f, m, f)
    return _trapz(f, quad.weights)


def energy_classic(state, k: float, a: float, quad: Quadrature) -> float:
    """Classical wave energy k * int a^2 u_x^2 + u_t^2 dx."""
    return _trapz(k * (a ** 2 * state.w ** 2 + state.v ** 2), quad.weights)


def grad_norm(state, quad: Quadrature) -> float:
    """int u_t^2 + u_x^2 dx."""
    return _trapz(state.v ** 2 + state.w ** 2, quad.weights)


def h1_integrand(state, quad: Quadrature, *, out) -> float:
    """int u^2 + u_x^2 + u_t^2 dx (the spatial part of the windowed H1 norm).

    `out` is two work arrays of the state's shape.
    """
    f, t = out
    square(state.u, f)
    square(state.v, t)
    add(f, t, f)
    square(state.w, t)
    add(f, t, f)
    return _trapz(f, quad.weights)


# Window starts per np.interp call in `windowed_series`: fewer than the
# series' samples, so that np.interp builds no slope table of their length.
INTERP_CHUNK = 4096


def windowed_series(series, times, T_period):
    """Trapezoid integral of a per-step series over the trailing window.

    Returns the integral over [t - T_period, t] at every sample time t;
    `times` must be strictly increasing.  The window start is placed by
    linear interpolation of the cumulative integral, which clamps at
    times[0]: for t < times[0] + T_period the window is truncated at the
    start of the series.  Works in two arrays of the series' length, the
    result one of them.
    """
    times = np.ascontiguousarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    cum, out = np.empty(len(times)), np.empty(len(times))
    cum[0] = 0.0
    # the cumulative integral: trapezoid areas in out, their widths in cum
    area, width = out[1:], cum[1:]
    add(series[1:], series[:-1], area)
    multiply(0.5, area, area)
    subtract(times[1:], times[:-1], width)
    multiply(area, width, area)
    np.cumsum(area, out=cum[1:])
    # minus its value at each window start, chunk by chunk in place of the starts
    subtract(times, T_period, out)
    for lo in range(0, len(out), INTERP_CHUNK):
        part = out[lo:lo + INTERP_CHUNK]
        subtract(cum[lo:lo + INTERP_CHUNK], np.interp(part, times, cum), part)
    return out


def fit_decay_rate(series, times, window=None):
    """Least-squares exponential decay rate of a positive series.

    Fits a line through (t, log series) in closed form, about the means
    of t and log series; the rate is the negated slope, so positive means
    decay.  `times` must be strictly increasing; `window` = (t0, t1)
    keeps the samples with t0 <= t <= t1.  Nonpositive samples are
    excluded and counted; fewer than 8 usable samples is an error.
    """
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    if window is not None:
        lo, hi = np.searchsorted(times, window[0]), np.searchsorted(times, window[1], "right")
        times, series = times[lo:hi], series[lo:hi]
    usable = series > 0
    n_excluded = len(series) - int(np.count_nonzero(usable))
    if n_excluded:
        times, series = times[usable], series[usable]
    if len(series) < 8:
        raise ValueError(f"need at least 8 positive samples, have {len(series)}")
    # y, then y minus its mean, in the copy the exclusion made, if any
    y = np.log(series, out=series if n_excluded else None)
    t_mean, y_mean = times.mean(), y.mean()
    x = subtract(times, t_mean)
    subtract(y, y_mean, y)
    slope = np.vecdot(x, y) / np.vecdot(x, x)
    ss_tot = float(np.vecdot(y, y))
    # the residuals y - slope x, in x
    multiply(slope, x, x)
    subtract(y, x, x)
    r2 = 1.0 - float(np.vecdot(x, x)) / ss_tot if ss_tot > 0 else 1.0
    return {"rate": -float(slope), "intercept": float(y_mean - slope * t_mean),
            "r_squared": r2, "n_excluded": n_excluded}
