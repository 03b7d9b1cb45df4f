import dataclasses
import json
import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pipestab.certificate import (HypothesisFlags, assemble_report,
                                  check_hypotheses, compute_constants,
                                  linear_rate_mu0, verify_decay_bounds)
from pipestab.stationary import PipeParams, build_stationary

E = math.e


class TestConstants:
    def test_equivalence_constants_hand_values(self):
        # a = 2, k = 2, L = 1: M1 = min(12 - 3, 1) = 1, K1 = 3, K2 = 11
        c = compute_constants(PipeParams(L=1.0, a=2.0, theta=0.0, k=2.0), 0.6, 1.0, 1.0)
        assert c.M1 == pytest.approx(1.0, rel=1e-15)
        assert c.K1 == pytest.approx(3.0, rel=1e-15)
        assert c.K2 == pytest.approx(11.0, rel=1e-15)

    def test_decay_rate_hand_value(self):
        c = compute_constants(PipeParams(L=1.0, a=2.0, theta=0.0, k=1.5), 0.6, 1.0, 1.0)
        assert c.mu == pytest.approx(1.0 / (6.0 * E), rel=1e-15)

    def test_c0_hand_value(self):
        # a = 2, k = 2, theta = 0: 24 + 4*3*(18 + 2) + 10 = 274
        c = compute_constants(PipeParams(L=1.0, a=2.0, theta=0.0, k=2.0), 0.6, 1.0, 1.0)
        assert c.C0 == pytest.approx(274.0, rel=1e-15)

    @given(st.floats(min_value=1.1, max_value=4.0),
           st.floats(min_value=1.0, max_value=8.0),
           st.floats(min_value=0.2, max_value=3.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    @example(a=1.49887, k=1.5, L=1.0, theta=0.0)   # M1 ~ 0.029 from terms ~ 2.5
    def test_independent_rederivation(self, a, k, L, theta):
        params = PipeParams(L=L, a=a, theta=theta, k=k)
        c = compute_constants(params, 0.75, 0.5, 2.0)
        M1 = min(0.75 * k * a * a - a - 1.0, k - 1.0)
        # M1 is a difference of summands up to ~k a^2: float64 fixes it to a
        # few ulps of the largest summand, not of M1 (a different operation
        # order moves it by that much), and 1/M1 in K1 inherits the same error
        m1_tol = 1e-14 * (0.75 * k * a * a + a + 1.0 + k)
        assert c.M1 == pytest.approx(M1, rel=1e-14, abs=m1_tol)
        if M1 > 0:
            K1 = (1.0 + 2.0 * L * L) / M1
            assert c.K1 == pytest.approx(K1, rel=1e-14 + m1_tol / M1)
            # M1 <= K2 always (the energy sandwich is consistent)
            assert c.M1 <= c.K2
            cg = ((4.0 / 3.0) * E * a * a * k * k + 1.0 / (2.0 * E * K1 * k)) * 2.0
            assert c.Cg == pytest.approx(cg, rel=1e-14)
        else:
            assert c.K1 == math.inf
        assert c.mu == pytest.approx(1.0 / (4.0 * E * L * k), rel=1e-14)
        assert c.K2 == pytest.approx(max(k * a * a + a + 1.0, k + 1.0), rel=1e-14)
        assert c.delta == pytest.approx(0.5 - c.mu, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 0.2, 1.5])
    def test_lambda_out_of_range(self, lam):
        with pytest.raises(ValueError, match="lambda"):
            compute_constants(PipeParams(L=1.0, a=2.0, theta=0.0, k=2.0), lam, 1.0, 1.0)

    def test_m1_nonpositive_gives_inf_k1(self):
        c = compute_constants(PipeParams(L=1.0, a=2.0, theta=0.0, k=0.5), 0.6, 1.0, 1.0)
        assert c.M1 <= 0
        assert c.K1 == math.inf


class TestLinearRate:
    def test_hand_value(self):
        # a = 1, L = 1, k = 3: mu0 = ln(1 + 2/2) = ln 2
        r = linear_rate_mu0(1.0, 1.0, 3.0)
        assert r["mu0"] == pytest.approx(math.log(2.0), rel=1e-15)
        assert r["ratio_mu0_over_mu"] == pytest.approx(12.0 * E * math.log(2.0), rel=1e-15)

    def test_ratio_limit_8e(self):
        # as a*k grows the ratio tends to 8e from above
        prev = None
        for ak in np.geomspace(2.0, 1e6, 25):
            ratio = linear_rate_mu0(ak, 1.0, 1.0)["ratio_mu0_over_mu"]
            assert ratio > 8.0 * E
            if prev is not None:
                assert ratio < prev
            prev = ratio
        assert prev == pytest.approx(8.0 * E, rel=1e-5)

    def test_requires_ak_above_one(self):
        with pytest.raises(ValueError):
            linear_rate_mu0(1.0, 1.0, 1.0)


class TestGronwall:
    """The Gronwall step: U' <= -mu U + Cg exp(-nu t) gives U(t) <= exp(-mu t) (U(0) + Cg/delta),
    the energy bound verify_decay_bounds checks, here with T_period = 0."""
    params = PipeParams(L=1.0, a=2.0, theta=0.1, k=4.0)

    def check(self, U, t, mu, nu, Cg):
        c = dataclasses.replace(compute_constants(self.params, 0.6, nu, 1.0),
                                mu=mu, nu=nu, Cg=Cg, delta=nu - mu)
        return verify_decay_bounds(t, U, U, c, 0.0, self.params.L)

    def test_bound_hand_value(self):
        # U0 = 0.25, Cg = 0.25, delta = 1: the bound is 0.5 at t = 0 and 0.5/e at t = 1
        res = self.check(np.array([0.25, 0.0]), np.array([0.0, 1.0]), 1.0, 2.0, 0.25)
        assert res["bracket"] == pytest.approx(0.5)
        assert res["worst_energy_margin"] == pytest.approx(0.5 / E)

    def test_exact_ode_solution_passes(self):
        mu, nu, Cg, U0 = 0.3, 0.8, 2.0, 1.5
        t = np.linspace(0.0, 10.0, 10001)
        delta = nu - mu
        U = U0 * np.exp(-mu * t) + (Cg / delta) * (np.exp(-mu * t) - np.exp(-nu * t))
        assert self.check(U, t, mu, nu, Cg)["energy_bound_ok"]

    def test_growing_series_fails(self):
        t = np.linspace(0.0, 10.0, 1001)
        U = np.exp(0.1 * t)
        assert not self.check(U, t, 0.3, 0.8, 0.1)["energy_bound_ok"]


class TestHypotheses:
    def make_traj(self, max_u=1e-9, max_ux=1e-9, max_ut=1e-9, n=50):
        times = np.linspace(0.0, 5.0, n)
        series = {"max_u": np.full(n, max_u), "max_ux": np.full(n, max_ux),
                  "max_ut": np.full(n, max_ut)}
        return types.SimpleNamespace(times=times, series=series)

    def test_feedback_gain_threshold(self):
        # a = 1 needs k >= (4/3)(1 + 1) = 8/3
        params_lo = PipeParams(L=1.0, a=1.0, theta=0.0, k=2.0)
        params_hi = PipeParams(L=1.0, a=1.0, theta=0.0, k=3.0)
        xs = np.linspace(0.0, 1.0, 33)
        for params, expect in ((params_lo, False), (params_hi, True)):
            profile = build_stationary(params, 1e-7, xs)
            c = compute_constants(params, 0.9, 1.0, 1.0)
            flags = check_hypotheses(self.make_traj(), profile, params, c, True)
            assert flags.feedback_gain_ok is expect

    def test_state_smallness_and_violation_time(self):
        params = PipeParams(L=1.0, a=2.0, theta=0.0, k=4.0)
        xs = np.linspace(0.0, 1.0, 33)
        profile = build_stationary(params, 1e-8, xs)
        c = compute_constants(params, 0.6, 1.0, 1.0)
        good = check_hypotheses(self.make_traj(), profile, params, c, True)
        assert good.state_small_ok and good.all_ok()
        traj = self.make_traj()
        traj.series["max_ux"] = traj.series["max_ux"].copy()
        traj.series["max_ux"][10:] = 1.0   # far above the cap
        bad = check_hypotheses(traj, profile, params, c, True)
        assert not bad.state_small_ok
        assert bad.first_violation_time == pytest.approx(traj.times[10])
        assert not bad.all_ok()

    def test_noise_flag_propagates(self):
        params = PipeParams(L=1.0, a=2.0, theta=0.0, k=4.0)
        xs = np.linspace(0.0, 1.0, 33)
        profile = build_stationary(params, 1e-8, xs)
        c = compute_constants(params, 0.6, 1.0, 1.0)
        flags = check_hypotheses(self.make_traj(), profile, params, c, False)
        assert not flags.noise_bound_ok
        assert not flags.all_ok()


class TestDecayBounds:
    params = PipeParams(L=1.0, a=2.0, theta=0.1, k=4.0)

    def constants(self, nu=1.0, C_nu=1e-6):
        return compute_constants(self.params, 0.6, nu, C_nu)

    def test_zero_run_passes(self):
        c = self.constants()
        times = np.linspace(1.0, 10.0, 901)
        z = np.zeros_like(times)
        res = verify_decay_bounds(times, z, z, c, 1.0, self.params.L)
        assert res["energy_bound_ok"] and res["h1_bound_ok"]
        assert res["bracket"] == pytest.approx(c.Cg / c.delta)

    def test_synthetic_decay_passes(self):
        c = self.constants()
        times = np.linspace(1.0, 10.0, 901)
        E_series = 0.5 * c.Cg / c.delta * np.exp(-c.mu * (times - 1.0))
        H_series = 0.5 * c.K1 * c.Cg / c.delta * np.exp(-c.mu * (times - 1.0))
        res = verify_decay_bounds(times, E_series, H_series, c, 1.0, self.params.L)
        assert res["energy_bound_ok"] and res["h1_bound_ok"]
        assert res["worst_energy_margin"] > 0

    def test_violation_detected(self):
        # mu ~ 1/(16e) is small, so the half-rate series needs a horizon
        # of a few decay times before it pierces the bound
        c = self.constants()
        times = np.linspace(1.0, 1.0 + 80.0, 2001)
        E_series = 2.0 * (c.Cg / c.delta) * np.exp(-0.5 * c.mu * (times - 1.0))
        res = verify_decay_bounds(times, E_series, np.zeros_like(times), c,
                                  1.0, self.params.L)
        assert not res["energy_bound_ok"]
        assert res["worst_energy_margin"] < 0

    def test_final_window_check(self):
        c = self.constants()
        times = np.linspace(1.0, 10.0, 901)
        z = np.zeros_like(times)
        res = verify_decay_bounds(times, z, z, c, 1.0, self.params.L, b_final_zero=True)
        assert res["final_window_checked"] and res["final_window_ok"]
        res2 = verify_decay_bounds(times, z, z, c, 1.0, self.params.L, b_final_zero=False)
        assert not res2["final_window_checked"]
        assert math.isnan(res2["final_window_margin"])

    def test_infinite_k1_is_not_applicable(self):
        # k = 1/a: M1 <= 0 and K1 = +inf, so the H1 bounds hold vacuously; they
        # are reported as None (JSON null), which the verdict does not count as failed
        params = PipeParams(L=1.0, a=2.0, theta=0.1, k=0.5)
        c = compute_constants(params, 0.6, 1.0, 1e-6)
        assert c.K1 == math.inf
        times = np.linspace(1.0, 10.0, 901)
        E_series = 0.5 * c.Cg / c.delta * np.exp(-c.mu * (times - 1.0))
        res = verify_decay_bounds(times, E_series, E_series, c, 1.0, params.L,
                                  b_final_zero=True)
        assert res["energy_bound_ok"] is True
        assert res["h1_bound_ok"] is None and res["final_window_ok"] is None
        flags = HypothesisFlags(feedback_gain_ok=False, stationary_small_ok=True,
                                state_small_ok=True, noise_bound_ok=True,
                                rate_gap_ok=True, m1_positive=False)
        rep = assemble_report(c, flags, res, {"worst_ratio": 0.0, "pass": True}, {})
        assert rep.verdict == "bound_holds_hypotheses_fail"
        bounds = json.loads(rep.to_json())["bounds"]
        assert bounds["h1_bound_ok"] is None and bounds["final_window_ok"] is None
        assert bounds["worst_h1_margin"] is None

    def test_rate_gap_violation_raises(self):
        c = self.constants(nu=0.0)
        times = np.linspace(1.0, 5.0, 401)
        with pytest.raises(ValueError, match="delta"):
            verify_decay_bounds(times, np.zeros_like(times), np.zeros_like(times),
                                c, 1.0, self.params.L)


class TestReport:
    params = PipeParams(L=1.0, a=2.0, theta=0.1, k=4.0)
    observed = {"fitted_rate": 0.5, "r_squared": 0.99, "max_u": 1e-4}

    def pieces(self, bound_ok=True, hyp_ok=True):
        c = compute_constants(self.params, 0.6, 1.0, 1e-6)
        flags = HypothesisFlags(feedback_gain_ok=True, stationary_small_ok=hyp_ok,
                                state_small_ok=True, noise_bound_ok=True,
                                rate_gap_ok=True, m1_positive=True)
        bounds = {"energy_bound_ok": bound_ok, "h1_bound_ok": True,
                  "final_window_ok": True, "worst_energy_margin": 0.1,
                  "worst_h1_margin": 0.1}
        noise = {"worst_ratio": 0.2, "pass": True, "minimal_C_nu": 1e-7}
        return c, flags, bounds, noise

    def test_verdicts(self):
        c, flags, bounds, noise = self.pieces()
        assert assemble_report(c, flags, bounds, noise, self.observed).verdict == "certified"
        c, flags, bounds, noise = self.pieces(hyp_ok=False)
        assert (assemble_report(c, flags, bounds, noise, self.observed).verdict
                == "bound_holds_hypotheses_fail")
        c, flags, bounds, noise = self.pieces(bound_ok=False, hyp_ok=False)
        assert assemble_report(c, flags, bounds, noise, self.observed).verdict == "bound_violated"

    def test_half_time_formula(self):
        c, flags, bounds, noise = self.pieces()
        rep = assemble_report(c, flags, bounds, noise, self.observed, T_period=2.0)
        expect = (1.0 / c.mu) * math.log(2.0 * c.K1 * c.K2) + 2.0
        assert rep.T_half == pytest.approx(expect, rel=1e-14)

    def test_json_round_trip(self):
        # an unchecked final window has margin NaN in memory and null on disk,
        # so the report is strict RFC 8259 JSON
        c, flags, bounds, noise = self.pieces()
        bounds.update(final_window_checked=False, final_window_margin=math.nan)
        rep = assemble_report(c, flags, bounds, noise, self.observed)

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")
        parsed = json.loads(rep.to_json(), parse_constant=reject)
        assert parsed["verdict"] == "certified"
        assert parsed["constants"]["mu"] == pytest.approx(c.mu)
        assert parsed["bounds"]["final_window_margin"] is None
        assert math.isnan(rep.as_dict()["bounds"]["final_window_margin"])
        assert "per_step_ok" not in parsed["hypotheses"]
        assert parsed["observed"] == self.observed
        txt = rep.to_text()
        assert "verdict: certified" in txt
        assert "observed:\n  fitted_rate = 0.5\n" in txt
