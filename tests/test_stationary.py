import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pipestab.stationary import PipeParams, _minus_w_minus1, build_stationary, critical_length

from oracles import verify_stationary_ode

INV_E = math.exp(-1.0)


def bisect_w_minus1(z, lo=-50.0, hi=-1.0, iters=200):
    """Independent oracle: bisection on x exp(x) = z over [-50, -1]."""
    def f(x):
        return x * math.exp(x) - z
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def lambert_w_minus1(z):
    """W_{-1}(z) for z in [-1/e, 0) through the profile's solve: -y with y - ln y = -ln(-z)."""
    return -float(_minus_w_minus1(-math.log(-z)))


class TestPipeParams:
    @pytest.mark.parametrize("field,value", [
        ("L", 0.0), ("L", math.nan), ("a", -1.0), ("a", math.inf), ("theta", -0.1),
        ("theta", math.nan), ("k", 0.0), ("k", math.inf),
    ])
    def test_invalid_field_rejected(self, field, value):
        # each check is written so that NaN fails it, and names its field
        kwargs = {"L": 1.0, "a": 2.0, "theta": 0.1, "k": 4.0, field: value}
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            PipeParams(**kwargs)


class TestLambertW:
    def test_branch_point(self):
        assert lambert_w_minus1(-INV_E) == pytest.approx(-1.0, abs=1e-8)

    def test_forward_evaluation(self):
        # x e^x at x = -4
        assert lambert_w_minus1(-4.0 * math.exp(-4.0)) == pytest.approx(-4.0, rel=1e-13)

    def test_bisection_oracle(self):
        # frozen from the bisection oracle above
        assert bisect_w_minus1(-0.2) == pytest.approx(-2.542641357773527, rel=1e-12)
        assert lambert_w_minus1(-0.2) == pytest.approx(-2.542641357773527, rel=1e-12)

    def test_residual_log_spaced(self):
        zs = -np.geomspace(1e-12, INV_E - 1e-12, 1000)
        for z in zs:
            w = lambert_w_minus1(z)
            assert w <= -1.0
            assert abs(w * math.exp(w) - z) / abs(z) <= 1e-13

    @given(st.floats(min_value=1e-10, max_value=INV_E - 1e-10),
           st.floats(min_value=1e-10, max_value=INV_E - 1e-10))
    @settings(max_examples=200, deadline=None)
    @example(m1=1e-10, m2=1.0000000000000002e-10)   # true drop 2.3e-16 < ulp(W) 3.6e-15
    def test_strictly_decreasing(self, m1, m2):
        # W' = W / (z (1 + W)) < 0.  A float64 W is uncertain by about
        # ulp(W) + |W'| ulp(z) (z itself is rounded; near the branch point
        # that term dominates), so strict decrease is required only where the
        # true drop exceeds a few of these; closer pairs may tie or swap by
        # no more than that.
        z1, z2 = sorted((-m1, -m2))
        if z1 == z2:
            return
        w1, w2 = lambert_w_minus1(z1), lambert_w_minus1(z2)
        slope = min(abs(w / (z * (1.0 + w))) for z, w in ((z1, w1), (z2, w2)))
        noise = 4.0 * (max(math.ulp(w1), math.ulp(w2)) + slope * math.ulp(z1))
        if slope * (z2 - z1) > noise:
            assert w1 > w2
        else:
            assert w1 >= w2 - noise


class TestStationaryProfile:
    params = PipeParams(L=1.0, a=2.0, theta=1.0, k=2.0)

    def test_c1_half_sonic(self):
        xs = np.linspace(0.0, 1.0, 11)
        prof = build_stationary(self.params, 1.0, xs)   # u0 = a/2
        assert prof.c1 == pytest.approx(math.log(4.0) - 4.0, rel=1e-14)

    def test_inflow_boundary_condition(self):
        xs = np.linspace(0.0, 1.0, 21)
        for u0 in (0.2, 0.5, 1.0):
            prof = build_stationary(self.params, u0, xs)
            assert prof.ubar[0] == pytest.approx(u0, rel=1e-12)

    def test_zero_friction_constant(self):
        p = PipeParams(L=1.0, a=2.0, theta=0.0, k=2.0)
        xs = np.linspace(0.0, 1.0, 33)
        prof = build_stationary(p, 0.7, xs)
        assert np.allclose(prof.ubar, 0.7, rtol=1e-12, atol=0)
        assert np.all(prof.ubar_x == 0.0)

    def test_strictly_increasing_subsonic(self):
        xs = np.linspace(0.0, 1.0, 101)
        prof = build_stationary(self.params, 0.8, xs)
        assert np.all(np.diff(prof.ubar) > 0)
        assert np.all(prof.ubar_x > 0)
        assert np.all((prof.ubar > 0) & (prof.ubar < self.params.a))

    def test_derivative_matches_ode_rhs(self):
        xs = np.linspace(0.0, 1.0, 41)
        prof = build_stationary(self.params, 0.9, xs)
        rhs = 0.5 * self.params.theta * prof.ubar ** 3 / (self.params.a ** 2 - prof.ubar ** 2)
        assert np.allclose(prof.ubar_x, rhs, rtol=1e-14)

    def test_too_long_pipe_rejected(self):
        p = PipeParams(L=2.0, a=2.0, theta=1.0, k=2.0)
        lcrit = critical_length(p, 1.0)
        assert lcrit < 2.0
        with pytest.raises(ValueError, match="critical length"):
            build_stationary(p, 1.0, np.linspace(0.0, 2.0, 11))

    @pytest.mark.parametrize("u0", [0.0, -0.5, 2.0, 2.5])
    def test_bad_inflow_rejected(self, u0):
        with pytest.raises(ValueError):
            build_stationary(self.params, u0, np.linspace(0.0, 1.0, 11))

    @pytest.mark.parametrize("u0", [1e-160, 1e-200])
    def test_overflowing_inflow_rejected(self, u0):
        # (a / u0)^2 overflows: c1 would be -inf or NaN
        with pytest.raises(ValueError, match=r"u0 = 1e-"):
            build_stationary(self.params, u0, np.linspace(0.0, 1.0, 11))

    def test_small_inflow_with_friction(self):
        # exp(theta*x + c1) underflows once u0 < a/27 (subnormal for u0/a in about
        # [0.0365, 0.0374], zero below); the profile is built from its logarithm
        p = PipeParams(L=1.0, a=2.0, theta=0.1, k=2.0)
        xs = np.linspace(0.0, 1.0, 101)
        ratios = np.concatenate([np.geomspace(5e-7, 0.05, 400), np.linspace(0.0360, 0.0380, 401),
                                 [0.072945 / 2.0, 0.0731 / 2.0]])
        for u0 in p.a * ratios:
            prof = build_stationary(p, u0, xs)
            assert prof.ubar[0] == pytest.approx(u0, rel=1e-12, abs=0)
            r = (p.a / prof.ubar) ** 2
            residual = np.max(np.abs(np.log(r) - r - (p.theta * xs + prof.c1)))
            assert residual <= 1e-14 * max(1.0, abs(prof.c1))
            assert np.all(np.diff(prof.ubar) >= 0)


class TestCriticalLength:
    def test_closed_form(self):
        p = PipeParams(L=1.0, a=2.0, theta=1.0, k=2.0)
        assert critical_length(p, 1.0) == pytest.approx(3.0 - math.log(4.0), rel=1e-14)

    def test_inverse_in_theta(self):
        p1 = PipeParams(L=1.0, a=2.0, theta=1.0, k=2.0)
        p2 = PipeParams(L=1.0, a=2.0, theta=2.0, k=2.0)
        assert critical_length(p2, 1.0) == pytest.approx(0.5 * critical_length(p1, 1.0))

    def test_sonic_inflow_limit(self):
        p = PipeParams(L=1.0, a=2.0, theta=1.0, k=2.0)
        assert critical_length(p, 2.0 - 1e-9) < 1e-8

    def test_zero_friction_sentinel(self):
        p = PipeParams(L=1.0, a=2.0, theta=0.0, k=2.0)
        assert critical_length(p, 1.0) == math.inf


class TestOdeCrossCheck:
    def test_zero_friction_exact(self):
        p = PipeParams(L=1.0, a=2.0, theta=0.0, k=2.0)
        prof = build_stationary(p, 0.7, np.linspace(0.0, 1.0, 17))
        assert verify_stationary_ode(prof, p) == 0.0

    def test_half_critical_length(self):
        # u0 = a/2, theta = 1, L = 0.5 * L_crit = 0.5 * (3 - ln 4)
        L = 0.5 * (3.0 - math.log(4.0))
        p = PipeParams(L=L, a=2.0, theta=1.0, k=2.0)
        xs = np.linspace(0.0, L, 1025)
        prof = build_stationary(p, 1.0, xs)
        err = verify_stationary_ode(prof, p, substeps_per_cell=4)  # 4096 RK4 steps
        assert err <= 1e-8

    def test_fourth_order_convergence(self):
        L = 0.5 * (3.0 - math.log(4.0))
        p = PipeParams(L=L, a=2.0, theta=1.0, k=2.0)
        xs = np.linspace(0.0, L, 9)
        prof = build_stationary(p, 1.0, xs)
        e_coarse = verify_stationary_ode(prof, p, substeps_per_cell=4)
        e_fine = verify_stationary_ode(prof, p, substeps_per_cell=8)
        assert e_coarse / e_fine == pytest.approx(16.0, rel=0.25)

    @pytest.mark.parametrize("u0,theta", [(0.3, 0.5), (1.0, 1.0), (1.5, 0.2)])
    def test_agreement_below_critical(self, u0, theta):
        probe = PipeParams(L=1e-3, a=2.0, theta=theta, k=2.0)
        L = 0.9 * critical_length(probe, u0)
        p = PipeParams(L=L, a=2.0, theta=theta, k=2.0)
        prof = build_stationary(p, u0, np.linspace(0.0, L, 257))
        assert verify_stationary_ode(prof, p) <= 1e-8

    @pytest.mark.parametrize("theta", [0.1, 1.0])
    @pytest.mark.parametrize("u0", [1e-6, 4e-5, 0.05])
    def test_agreement_small_inflow(self, u0, theta):
        p = PipeParams(L=1.0, a=2.0, theta=theta, k=2.0)
        prof = build_stationary(p, u0, np.linspace(0.0, 1.0, 129))
        assert prof.ubar[-1] > prof.ubar[0]
        assert verify_stationary_ode(prof, p) <= 1e-12
