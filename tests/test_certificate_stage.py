"""The certificate stage works in a few arrays of the series' length.

Each function's traced peak, over what its inputs already hold, stays
within four float arrays of the series plus 64 KiB, so that a long run's
peak memory is its records and snapshots, not its certificate.  The
windows are slices and the arithmetic runs in place, and the values are
those of boolean-mask copies and fresh arrays, bit for bit.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pipestab.certificate import compute_constants, verify_decay_bounds
from pipestab.disturbance import verify_noise_bound
from pipestab.lyapunov import INTERP_CHUNK, fit_decay_rate, windowed_series
from pipestab.stationary import PipeParams

from oracles import decay_margins_masked, verify_noise_bound_masked, windowed_series_concat

N = 100_000
BUDGET = 4 * 8 * N + 64 * 1024
T_PERIOD = 1.0

TIMES = np.linspace(0.0, 50.0, N)
E1 = 1e-6 * np.exp(-0.3 * TIMES) * (1.5 + np.cos(3.0 * TIMES))
B = 1e-4 * np.exp(-0.6 * TIMES) * np.sin(2.0 * np.pi * TIMES)
B_T = np.gradient(B, TIMES)
E_SERIES = windowed_series(E1, TIMES, T_PERIOD)
# a few samples excluded from the fit
E_GAPPED = E_SERIES.copy()
E_GAPPED[[5000, 60_000, 90_000]] = 0.0
CONSTANTS = compute_constants(PipeParams(L=1.0, a=2.0, theta=0.1, k=4.0), 0.6, 1.0, 4e-7)

CALLS = {
    "windowed_series": lambda: windowed_series(E1, TIMES, T_PERIOD),
    "verify_noise_bound": lambda: verify_noise_bound(TIMES, B, B_T, T_PERIOD, 1.0, 4e-7),
    "verify_decay_bounds": lambda: verify_decay_bounds(TIMES, E_SERIES, E_SERIES, CONSTANTS,
                                                       T_PERIOD, 1.0, b_final_zero=True),
    "fit_decay_rate": lambda: fit_decay_rate(E_SERIES, TIMES, window=(1.5, 50.0)),
    "fit_decay_rate, samples excluded": lambda: fit_decay_rate(E_GAPPED, TIMES,
                                                               window=(1.5, 50.0)),
}


def traced_peak(call) -> int:
    """Bytes the call allocates at its peak above what was held before it."""
    call()                      # first-call caches stay out of the measure
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    del result
    return peak


@pytest.mark.parametrize("name", list(CALLS))
def test_peak_within_four_arrays(name):
    peak = traced_peak(CALLS[name])
    assert peak <= BUDGET, f"{name}: {peak / N:.1f} bytes per sample"


def trace(seed: int, n: int, on_grid: bool):
    """Strictly increasing times from 0 with uneven steps, a window length
    on or off the sample grid, and a decaying series with some zeros."""
    rng = np.random.default_rng(seed)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, n - 1))]) * (20.0 / n)
    T_period = (times[rng.integers(1, n)] if on_grid else rng.uniform(0.0, 0.9) * times[-1])
    series = np.exp(-0.3 * times) * rng.normal(1.0, 0.2, n)
    series[rng.integers(0, n, 3)] = 0.0
    return rng, times, T_period, series


TRACES = dict(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 2 * INTERP_CHUNK + 10),
              on_grid=st.booleans())


@given(**TRACES)
@settings(max_examples=60, deadline=None)
def test_windowed_series_bitwise(seed, n, on_grid):
    _, times, T_period, series = trace(seed, n, on_grid)
    got = windowed_series(series, times, T_period)
    assert got.tobytes() == windowed_series_concat(series, times, T_period).tobytes()


@given(**TRACES, zero=st.booleans(), nu=st.floats(0.1, 40.0))
@settings(max_examples=60, deadline=None)
def test_verify_noise_bound_bitwise(seed, n, on_grid, zero, nu):
    rng, times, T_period, b = trace(seed, n, on_grid)
    b_t = rng.normal(0.0, 1e-3, n) * (0.0 if zero else 1.0)
    b = b * (0.0 if zero else 1e-4)
    args = (times, b, b_t, T_period, nu, 1e-6)
    if times[-1] <= T_period:
        with pytest.raises(ValueError, match="beyond T_period"):
            verify_noise_bound(*args)
        return
    assert repr(verify_noise_bound(*args)) == repr(verify_noise_bound_masked(*args))


@given(**TRACES, k=st.sampled_from([0.3, 4.0]), C_nu=st.floats(1e-9, 1e-3))
@settings(max_examples=60, deadline=None)
def test_verify_decay_bounds_bitwise(seed, n, on_grid, k, C_nu):
    # k = 0.3 gives M1 <= 0, so K1 = +inf
    rng, times, T_period, E_series = trace(seed, n, on_grid)
    H_series = E_series * rng.uniform(0.5, 2.0)
    constants = compute_constants(PipeParams(L=1.0, a=2.0, theta=0.1, k=k), 0.6, 1.0, C_nu)
    got = verify_decay_bounds(times, E_series, H_series, constants, T_period, 1.0)
    want = decay_margins_masked(times, E_series, H_series, constants, T_period, 1.0)
    assert repr({key: got[key] for key in want}) == repr(want)
