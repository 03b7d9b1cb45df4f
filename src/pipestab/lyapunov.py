"""Energy functionals for the closed-loop pipe flow and decay-rate fitting.

All spatial integrals are composite trapezoid on the solver grid, the
integrand times the grid's precomputed weights (`Quadrature`) summed in
one fixed order, in lanes of blocks of nodes that are then added in block
order (`_dot`), as the compiled time loop sums them; the
moving-window energies integrate the per-step series in time, again by
trapezoid, so the window sees full time resolution.
"""

from __future__ import annotations

import numpy as np
from numpy import add, multiply, subtract


class Quadrature:
    """The time-independent weights of the spatial integrals on one grid.

    `weights` are the composite-trapezoid weights, so int y dx = _dot(y, weights);
    `decay` is the cross-term weight exp(-x/L) of E1 and `two_decay` is
    2 exp(-x/L), the factor E1 multiplies by.
    """

    def __init__(self, xs):
        xs = np.asarray(xs, dtype=float)
        half = 0.5 * np.diff(xs)
        self.weights = np.append(half, 0.0) + np.insert(half, 0, 0.0)
        self.decay = np.exp(-(xs - xs[0]) / (xs[-1] - xs[0]))
        self.two_decay = 2.0 * self.decay


# The order of every spatial integral: LANES lanes in each block of BLOCK
# nodes (see _dot).  _lw.c's time loop sums in the same order, and splits a
# step at a block edge.
LANES, BLOCK = 4, 32


def _dot(x, y):
    """The sum of x * y over the last axis: a float for a 1-D x, one per
    row of x otherwise, added in one fixed order that depends only on the
    axis' length, as `finish` in _lw.c adds its integrals.  Term j goes into
    lane j % LANES of its block of BLOCK terms; each lane adds its terms in
    order from -0.0; the LANES lanes are folded by halving, lane l plus lane
    l + w for w = 2, 1; and the block sums are added in block order from
    -0.0.  np.add.accumulate and np.cumsum add in order, where np.dot adds
    in the order of the BLAS kernel that NumPy picks for the CPU.
    """
    *lead, n = np.shape(x)
    terms = np.full((*lead, -(-n // BLOCK) * BLOCK), -0.0)     # a missing term adds nothing
    multiply(x, y, terms[..., :n])
    lanes = add.accumulate(terms.reshape(*lead, -1, BLOCK // LANES, LANES), axis=-2)[..., -1, :]
    while lanes.shape[-1] > 1:
        w = lanes.shape[-1] // 2
        lanes = add(lanes[..., :w], lanes[..., w:])
    return np.cumsum(lanes[..., 0], axis=-1).take(-1, axis=-1)


def _ordered_dot(x, y, out):
    """The sum of x * y over its one axis, added term after term from the
    first, with the products and their running sums in `out`: the sums of
    `fit_decay_rate`, which do not depend on the BLAS kernel either, in
    the scratch of one array."""
    return np.cumsum(multiply(x, y, out), out=out)[-1]


def energy_E1(state, profile, k: float, a: float, quad: Quadrature) -> float:
    """Weighted wave energy with the exponential cross term.

    E1 = int k[(a^2 - (ubar+u)^2) u_x^2 + u_t^2]
         - 2 exp(-x/L) [(ubar+u) u_x^2 + u_t u_x] dx

    `quad` is Quadrature(state.xs), likewise below.  Also takes a batch
    state, with k and a as (B, 1) columns; a is squared as a * a, which a
    float and a column round alike.  `lw_step` in _lw.c computes E1 of
    every step with these operations, in this order, its sum included.
    """
    m = profile.ubar + state.u
    w2 = state.w ** 2
    return _dot(k * ((a * a - m ** 2) * w2 + state.v ** 2)
                - quad.two_decay * (m * w2 + state.v * state.w), quad.weights)


def energy_classic(state, k: float, a: float, quad: Quadrature) -> float:
    """Classical wave energy k * int a^2 u_x^2 + u_t^2 dx."""
    return _dot(k * (a ** 2 * state.w ** 2 + state.v ** 2), quad.weights)


def grad_norm(state, quad: Quadrature) -> float:
    """int u_t^2 + u_x^2 dx."""
    return _dot(state.v ** 2 + state.w ** 2, quad.weights)


def h1_integrand(state, quad: Quadrature) -> float:
    """int u^2 + u_x^2 + u_t^2 dx (the spatial part of the windowed H1 norm);
    `lw_step` in _lw.c computes it with these operations, its sum included."""
    return _dot((state.u ** 2 + state.v ** 2) + state.w ** 2, quad.weights)


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
    products = np.empty_like(x)
    slope = _ordered_dot(x, y, products) / _ordered_dot(x, x, products)
    ss_tot = float(_ordered_dot(y, y, products))
    # the residuals y - slope x, in x
    multiply(slope, x, x)
    subtract(y, x, x)
    r2 = 1.0 - float(_ordered_dot(x, x, products)) / ss_tot if ss_tot > 0 else 1.0
    return {"rate": -float(slope), "intercept": float(y_mean - slope * t_mean),
            "r_squared": r2, "n_excluded": n_excluded}
