import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pipestab.certificate import compute_constants
from pipestab.dynamics import FieldState
from pipestab.lyapunov import (Quadrature, _dot, energy_E1, energy_classic, fit_decay_rate,
                               grad_norm, h1_integrand, windowed_series)
from pipestab.stationary import PipeParams, build_stationary

from oracles import block_sum, polyfit_decay_rate, trapz_intervals


def const_state(xs, u=0.0, v=0.0, w=0.0):
    return FieldState(t=0.0, xs=xs, u=np.full_like(xs, u),
                      v=np.full_like(xs, v), w=np.full_like(xs, w))


def e1_of(state, profile, k, a):
    """energy_E1 of one state, as the run calls it."""
    return energy_E1(state, profile, k, a, Quadrature(state.xs))


class TestPointwiseEnergies:
    params = PipeParams(L=1.0, a=2.0, theta=0.0, k=3.0)

    def setup_method(self):
        self.xs = np.linspace(0.0, 1.0, 2001)
        self.profile = build_stationary(self.params, 0.5, self.xs)

    def test_e1_pure_velocity(self):
        # u = w = 0, v = c: E1 = k L c^2, exactly (constant integrand)
        c = 0.7
        state = const_state(self.xs, v=c)
        assert e1_of(state, self.profile, 3.0, 2.0) == pytest.approx(
            3.0 * 1.0 * c ** 2, rel=1e-14)

    def test_e1_pure_gradient(self):
        # u = v = 0, w = c, constant base flow m = 0.5:
        # E1 = k (a^2 - m^2) L c^2 - 2 m c^2 L (1 - 1/e)
        c, m, k, a, L = 0.3, 0.5, 3.0, 2.0, 1.0
        state = const_state(self.xs, w=c)
        expected = k * (a ** 2 - m ** 2) * L * c ** 2 - 2.0 * m * c ** 2 * L * (1 - math.exp(-1))
        assert e1_of(state, self.profile, k, a) == pytest.approx(expected, rel=1e-7)

    def test_classic_energy_hand_value(self):
        # k = a = 1, v = w = 1 on [0, 1]: integral of (1 + 1) = 2
        state = const_state(self.xs, v=1.0, w=1.0)
        assert energy_classic(state, 1.0, 1.0, Quadrature(self.xs)) == pytest.approx(2.0, rel=1e-14)

    def test_grad_and_h1(self):
        state = const_state(self.xs, u=1.0, v=2.0, w=3.0)
        quad = Quadrature(self.xs)
        assert grad_norm(state, quad) == pytest.approx(4.0 + 9.0, rel=1e-14)
        assert h1_integrand(state, quad) == pytest.approx(
            1.0 + 4.0 + 9.0, rel=1e-14)


class TestQuadrature:
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_weights_match_interval_trapezoid(self, seed):
        # any grid, uniform or not: y @ weights is the interval-by-interval trapezoid
        rng = np.random.default_rng(seed)
        xs = np.sort(rng.uniform(0.0, 2.0, rng.integers(2, 500)))
        y = rng.uniform(0.0, 1.0, len(xs))
        lean = float(y @ Quadrature(xs).weights)
        assert lean == pytest.approx(trapz_intervals(y, xs), rel=1e-13, abs=0.0)

    def test_decay_weight(self):
        xs = np.linspace(0.5, 2.5, 11)
        quad = Quadrature(xs)
        assert quad.decay[0] == 1.0
        assert quad.decay[-1] == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert quad.two_decay.tobytes() == (2.0 * quad.decay).tobytes()

    @given(st.sampled_from([1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 401, 3201]), st.integers(1, 6),
           st.integers(-300, 300), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_dot_rows_are_ordered_sums(self, n, batch, exponent, seed):
        # every row of a member or a batch sums its products in the fixed
        # order of `block_sum`, across the edges of lanes and blocks, also
        # when the rows or their elements are strided, whatever BLAS kernel
        # NumPy picked; and that sum is np.dot's to rounding, within 1e-13
        # of the sum of the terms' magnitudes
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.0, 1.0, n)
        # elements strided by 2, and rows strided like a slice of a batch
        spaced = rng.uniform(-1.0, 1.0, (2, 2 * batch, 2 * n)) * 10.0 ** exponent
        for y in (spaced[0, :batch, :n], spaced[1, ::2, ::2]):
            single = _dot(y[0], weights)
            assert isinstance(single, float)
            per_row = np.array([block_sum((row * weights).tolist()) for row in y])
            assert np.float64(single).tobytes() == per_row[0].tobytes()
            assert _dot(y, weights).tobytes() == per_row.tobytes()
            for row, total in zip(y, per_row):
                scale = block_sum(np.abs(row * weights).tolist())
                assert abs(total - np.dot(row, weights)) <= 1e-13 * scale


class TestWindowedEnergies:
    def test_constant_series(self):
        times = np.linspace(0.0, 5.0, 5001)
        series = np.full_like(times, 3.0)
        assert windowed_series(series, times, 1.0)[2500] == pytest.approx(3.0, rel=1e-12)
        assert windowed_series(series, times, 2.0)[-1] == pytest.approx(6.0, rel=1e-12)

    def test_exponential_series(self):
        times = np.linspace(0.0, 3.0, 3001)
        got = windowed_series(np.exp(-times), times, 1.0)[2000]
        assert got == pytest.approx(math.exp(-1) - math.exp(-2), rel=1e-5)

    def test_window_truncated_at_start(self):
        # before t = T_period the window is [0, t]: the running integral
        times = np.linspace(0.0, 2.0, 201)
        vals = windowed_series(np.ones_like(times), times, 1.0)
        assert vals[0] == 0.0
        assert vals[50] == pytest.approx(0.5, rel=1e-12)
        assert vals[100:] == pytest.approx(np.ones(101), rel=1e-12)

    def test_energy_h_constant(self):
        # H(t) = windowed h1 over [t - T, t]; constant h1 = 1 gives H = T
        times = np.linspace(0.0, 4.0, 2001)
        H = windowed_series(np.ones_like(times), times, 1.0)
        assert H[1500] == pytest.approx(1.0, rel=1e-12)

    def test_windowed_series_matches_pointwise(self):
        # window start between samples: trapezoid over the whole cells inside
        # plus the fraction of the cut cell that lies inside the window
        times = np.linspace(0.0, 3.0, 601)
        series = np.cos(times) ** 2 + 0.5
        T = 1.0013
        vals = windowed_series(series, times, T)
        for j in (300, 450, 600):
            t0 = times[j] - T
            i0 = int(np.searchsorted(times, t0))
            frac = (times[i0] - t0) / (times[i0] - times[i0 - 1])
            cut = 0.5 * (series[i0 - 1] + series[i0]) * (times[i0] - times[i0 - 1])
            ts, ys = times[i0:j + 1], series[i0:j + 1]
            inner = float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(ts)))
            assert 0.0 < frac < 1.0
            assert vals[j] == pytest.approx(inner + frac * cut, rel=1e-12)


class TestEquivalence:
    """M1 g <= E1 <= K2 g and int u_t^2 + (1+2L^2) u_x^2 <= K1 E1, g = int u_t^2 + u_x^2,
    where 0 <= ubar + u <= a/2 pointwise and M1 > 0."""
    params = PipeParams(L=1.0, a=2.0, theta=0.2, k=4.0)
    slack = 1e-10

    def setup_method(self):
        self.xs = np.linspace(0.0, 1.0, 401)
        self.profile = build_stationary(self.params, 0.3, self.xs)
        self.const = compute_constants(self.params, 0.6, 0.1, 1.0)

    def in_regime(self, state):
        m = self.profile.ubar + state.u
        return bool(np.all(m >= -self.slack) and np.all(m <= self.params.a / 2 + self.slack)
                    and self.const.M1 > 0)

    def sandwich(self, state):
        """E1 and whether each of the three inequalities holds."""
        quad, c, L = Quadrature(self.xs), self.const, self.params.L
        e1 = energy_E1(state, self.profile, self.params.k, self.params.a, quad)
        g = grad_norm(state, quad)
        wg = _dot(state.v ** 2 + (1.0 + 2.0 * L ** 2) * state.w ** 2, quad.weights)
        return e1, (c.M1 * g <= e1 + self.slack, e1 <= c.K2 * g + self.slack,
                    wg <= c.K1 * e1 + self.slack)

    def test_zero_state(self):
        state = const_state(self.xs)
        e1, holds = self.sandwich(state)
        assert all(holds)
        assert self.in_regime(state)
        assert e1 == 0.0

    def test_random_states_in_regime(self):
        rng = np.random.default_rng(17)
        a = self.params.a
        for _ in range(200):
            # keep 0 <= ubar + u <= a/2 pointwise
            amp = rng.uniform(0.0, min(np.min(self.profile.ubar),
                                       a / 2.0 - np.max(self.profile.ubar)))
            u = amp * np.sin(rng.uniform(1, 5) * np.pi * self.xs)
            v = rng.uniform(-1.0, 1.0) * np.cos(rng.uniform(1, 5) * np.pi * self.xs)
            w = rng.uniform(-1.0, 1.0) * np.sin(rng.uniform(1, 5) * np.pi * self.xs)
            state = FieldState(t=0.0, xs=self.xs, u=u, v=v, w=w)
            assert self.in_regime(state)
            assert all(self.sandwich(state)[1])


class TestFitDecayRate:
    def test_exact_exponential(self):
        times = np.linspace(0.0, 10.0, 101)
        fit = fit_decay_rate(4.0 * np.exp(-0.5 * times), times)
        assert fit["rate"] == pytest.approx(0.5, rel=1e-12)
        assert fit["intercept"] == pytest.approx(math.log(4.0), rel=1e-12)
        assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)
        assert fit["n_excluded"] == 0

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_rate_scale_invariant(self, scale):
        times = np.linspace(0.0, 5.0, 64)
        series = np.exp(-1.3 * times)
        base = fit_decay_rate(series, times)["rate"]
        scaled = fit_decay_rate(scale * series, times)["rate"]
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_two_exponential_mixture(self):
        times = np.linspace(0.0, 20.0, 401)
        series = np.exp(-0.2 * times) + np.exp(-2.0 * times)
        rate = fit_decay_rate(series, times)["rate"]
        assert 0.2 < rate < 2.0

    def test_window_selects_tail(self):
        times = np.linspace(0.0, 20.0, 401)
        series = np.exp(-0.2 * times) + np.exp(-2.0 * times)
        rate = fit_decay_rate(series, times, window=(10.0, 20.0))["rate"]
        assert rate == pytest.approx(0.2, rel=1e-2)

    def test_nonpositive_excluded_and_counted(self):
        times = np.linspace(0.0, 9.0, 10)
        series = np.exp(-times)
        series[3] = 0.0
        series[7] = -1.0
        fit = fit_decay_rate(series, times)
        assert fit["n_excluded"] == 2
        assert fit["rate"] == pytest.approx(1.0, rel=1e-9)

    def test_too_few_samples_rejected(self):
        times = np.linspace(0.0, 1.0, 7)
        with pytest.raises(ValueError, match="8"):
            fit_decay_rate(np.exp(-times), times)

    @given(n=st.integers(40, 400), t0=st.floats(0.0, 2.0), span=st.floats(2.0, 20.0),
           rate=st.floats(0.2, 3.0), sign=st.sampled_from([1.0, -1.0]),
           log_amp=st.one_of(st.floats(-20.0, -2.0), st.floats(2.0, 5.0)),
           wiggle=st.floats(0.0, 0.01),
           lo=st.floats(0.0, 0.25), hi=st.floats(0.75, 1.0),
           excluded=st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, -1.0])),
                             max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_matches_polyfit(self, n, t0, span, rate, sign, log_amp, wiggle, lo, hi, excluded):
        # the closed-form line against np.polyfit on mask-selected samples; the
        # intercept, about log_amp, stays away from 0, so its relative error is defined
        times = t0 + span * np.linspace(0.0, 1.0, n)
        series = np.exp(log_amp - sign * rate * times + wiggle * np.sin(7.3 * times))
        for where, value in excluded:
            series[int(where * (n - 1))] = value
        window = (t0 + lo * span, t0 + hi * span)
        try:
            want = polyfit_decay_rate(series, times, window)
        except ValueError:
            with pytest.raises(ValueError, match="8"):
                fit_decay_rate(series, times, window)
            return
        got = fit_decay_rate(series, times, window)
        assert got["n_excluded"] == want["n_excluded"]
        assert got["rate"] == pytest.approx(want["rate"], rel=1e-12, abs=0.0)
        assert got["intercept"] == pytest.approx(want["intercept"], rel=1e-12, abs=0.0)
        assert got["r_squared"] == pytest.approx(want["r_squared"], rel=0.0, abs=1e-12)
