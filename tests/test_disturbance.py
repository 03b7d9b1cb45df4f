import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pipestab.disturbance import FAMILIES, DisturbanceSpec, sample_b, verify_noise_bound

import oracles


def sample_trace(spec, t_end, n):
    ts = np.linspace(0.0, t_end, n)
    vals = np.array([sample_b(spec, t) for t in ts])
    return ts, vals[:, 0], vals[:, 1], vals[:, 2]


class TestSampleB:
    def test_zero_family(self):
        spec = DisturbanceSpec(family="zero")
        for t in (0.0, 0.5, 3.0):
            assert sample_b(spec, t) == (0.0, 0.0, 0.0)

    def test_compatibility_at_start(self):
        spec = DisturbanceSpec(family="decaying_burst", amplitude=1.0,
                               frequency=1.0, gamma=1.0, T_period=1.0)
        assert sample_b(spec, 0.0) == (0.0, 0.0, 0.0)

    def test_hand_value_past_ramp(self):
        # past the ramp: b(t) = e^{-t} sin(2 pi t), so b(2) = 0 and
        # b'(2) = 2 pi e^{-2}
        spec = DisturbanceSpec(family="decaying_burst", amplitude=1.0,
                               frequency=1.0, gamma=1.0, T_period=1.0, seed=0)
        b, bt, _ = sample_b(spec, 2.0)
        assert b == pytest.approx(0.0, abs=1e-14)
        assert bt == pytest.approx(2.0 * math.pi * math.exp(-2.0), rel=1e-12)

    @pytest.mark.parametrize("family", ["decaying_burst", "compact_burst"])
    def test_derivatives_match_finite_differences(self, family):
        spec = DisturbanceSpec(family=family, amplitude=0.7, frequency=1.3,
                               gamma=0.8, T_period=1.0, seed=3, t_off=6.0)
        ts = np.linspace(0.05, 5.0, 37)
        for h_idx, h in enumerate((1e-3, 5e-4)):
            worst_b = worst_bt = 0.0
            for t in ts:
                bm, btm, bttm = sample_b(spec, t - h)
                b0, bt0, btt0 = sample_b(spec, t)
                bp, btp, bttp = sample_b(spec, t + h)
                worst_b = max(worst_b, abs((bp - bm) / (2 * h) - bt0))
                worst_bt = max(worst_bt, abs((btp - btm) / (2 * h) - btt0))
            if h_idx == 0:
                first = (worst_b, worst_bt)
        # O(h^2): halving h shrinks the error by about 4
        assert first[0] / worst_b == pytest.approx(4.0, rel=0.3)
        assert first[1] / worst_bt == pytest.approx(4.0, rel=0.3)

    def test_compact_burst_exactly_zero_after_cutoff(self):
        spec = DisturbanceSpec(family="compact_burst", amplitude=1.0,
                               frequency=2.0, gamma=0.5, T_period=1.0, t_off=4.0)
        for t in (4.0, 4.1, 7.0, 100.0):
            assert sample_b(spec, t) == (0.0, 0.0, 0.0)
        # and genuinely nonzero just before the cutoff ramp
        assert abs(sample_b(spec, 3.2)[0]) > 0

    def test_seed_moves_only_the_phase(self):
        s0 = DisturbanceSpec(family="decaying_burst", amplitude=1.0, seed=1,
                             frequency=1.0, gamma=0.5, T_period=1.0)
        s1 = DisturbanceSpec(family="decaying_burst", amplitude=1.0, seed=2,
                             frequency=1.0, gamma=0.5, T_period=1.0)
        assert s0.phase != s1.phase
        assert s0.phase == DisturbanceSpec(family="zero", seed=1).phase
        assert DisturbanceSpec(family="decaying_burst", seed=0).phase == 0.0

    def test_phase_drawn_once(self):
        spec = DisturbanceSpec(family="decaying_burst", amplitude=1.0, seed=3)
        expect = float(np.random.default_rng(3).uniform(0.0, 2.0 * math.pi))
        assert spec.phase == expect
        assert "phase" in vars(spec)   # cached on the instance after the first draw

    @pytest.mark.parametrize("seed", [1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 5,
                                      int("7" * 1000)])
    def test_phase_is_numpys_first_draw(self, seed):
        expect = float(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi))
        assert DisturbanceSpec(seed=seed).phase == expect

    @given(st.integers(min_value=0, max_value=2**130 - 1))
    @settings(max_examples=200, deadline=None)
    def test_phase_is_numpys_first_draw_for_any_seed(self, seed):
        expect = float(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi)) if seed else 0.0
        assert DisturbanceSpec(seed=seed).phase == expect

    @pytest.mark.parametrize("seed", [-1, -2**64, 1.0, 2.5, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # a negative seed would never run out of 32-bit words
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            DisturbanceSpec(family="decaying_burst", amplitude=1.0, seed=seed)

    @pytest.mark.parametrize("field,value", [
        ("family", "spike"), ("amplitude", math.nan), ("frequency", math.inf),
        ("gamma", math.nan), ("gamma", -1.0), ("T_period", math.nan), ("T_period", 0.0),
        ("nu", 0.0), ("nu", math.nan), ("C_nu", -1.0), ("C_nu", math.inf),
        ("t_off", math.nan), ("t_off", 0.0),
    ])
    def test_invalid_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            DisturbanceSpec(**{"family": "decaying_burst", "amplitude": 1.0, field: value})

    def test_numpy_integer_seed(self):
        assert DisturbanceSpec(seed=np.uint64(3)).phase == DisturbanceSpec(seed=3).phase

    @given(st.sampled_from(FAMILIES), st.one_of(st.just(0.0), st.floats(-10.0, 10.0)),
           st.floats(-5.0, 5.0), st.floats(0.0, 3.0), st.floats(0.05, 4.0),
           st.one_of(st.just(0), st.integers(1, 2 ** 64)), st.floats(0.01, 20.0),
           st.sampled_from(["ramp", "p=1", "after ramp", "cutoff", "t_off", "after t_off"]),
           st.floats(0.0, 1.0))
    # ramp ** 2, gamma ** 2 and (2 pi f) ** 2 each round apart from x * x:
    # compiled without -fno-builtin, pow(x, 2.0) would become x * x
    @example("decaying_burst", 1.5, 4.133, 2.759, 2.759, 0, 20.0, "ramp", 0.5)
    @example("compact_burst", -0.5, 4.133, 2.759, 2.759, 7, 3.0, "cutoff", 0.25)
    @settings(max_examples=300, deadline=None)
    def test_compiled_matches_closed_form(self, family, amplitude, frequency, gamma, T_period,
                                          seed, t_off, where, fraction):
        # the compiled b(t) is the Python closed form bit for bit: inside the
        # switch-on ramp, at its end (p = 1) and after it, inside the compact
        # burst's cutoff [t_off - ramp, t_off), at t_off and after it
        spec = DisturbanceSpec(family=family, amplitude=amplitude, frequency=frequency,
                               gamma=gamma, T_period=T_period, seed=seed, t_off=t_off)
        ramp = 0.5 * T_period
        t = {"ramp": fraction * ramp, "p=1": ramp, "after ramp": ramp + 10.0 * fraction,
             "cutoff": max(0.0, t_off - ramp) + fraction * min(ramp, t_off),
             "t_off": t_off, "after t_off": t_off + 10.0 * fraction}[where]
        if where == "p=1":
            assert t / ramp == 1.0
        got, want = sample_b(spec, t), oracles.sample_b(spec, t)
        assert got == want
        assert np.array(got).tobytes() == np.array(want).tobytes()   # zeros keep their sign

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            sample_b(DisturbanceSpec(family="zero"), -0.1)


class TestVerifyNoiseBound:
    def test_zero_trace_passes(self):
        ts = np.linspace(0.0, 5.0, 501)
        rep = verify_noise_bound(ts, np.zeros_like(ts), np.zeros_like(ts),
                                 1.0, nu=3.0, C_nu=1e-6)
        assert rep["worst_ratio"] == 0.0
        assert rep["pass"]

    def test_too_short_trace_rejected(self):
        ts = np.linspace(0.0, 0.5, 51)
        with pytest.raises(ValueError):
            verify_noise_bound(ts, np.zeros_like(ts), np.zeros_like(ts), 1.0, 1.0, 1.0)

    def test_overclaimed_rate_fails(self):
        # the window integral decays like exp(-2 gamma t); claiming a
        # faster rate must fail once the horizon is long enough
        gamma = 0.1
        spec = DisturbanceSpec(family="decaying_burst", amplitude=1.0,
                               frequency=1.0, gamma=gamma, T_period=1.0)
        ts, b, bt, _ = sample_trace(spec, 60.0, 6001)
        rep_ok = verify_noise_bound(ts, b, bt, 1.0, nu=2 * gamma - 0.1, C_nu=1.0)
        c_min = rep_ok["minimal_C_nu"]
        assert verify_noise_bound(ts, b, bt, 1.0, nu=2 * gamma - 0.1, C_nu=c_min)["pass"]
        bad = verify_noise_bound(ts, b, bt, 1.0, nu=2 * gamma + 0.1, C_nu=10.0 * c_min)
        assert not bad["pass"]

    def test_minimal_c_nu_stable_under_refinement(self):
        spec = DisturbanceSpec(family="decaying_burst", amplitude=1.0,
                               frequency=1.0, gamma=1.0, T_period=1.0)
        ts1, b1, bt1, _ = sample_trace(spec, 10.0, 8001)
        ts2, b2, bt2, _ = sample_trace(spec, 10.0, 16001)
        nu = 2.0 - 0.1
        c1 = verify_noise_bound(ts1, b1, bt1, 1.0, nu, 1.0)["minimal_C_nu"]
        c2 = verify_noise_bound(ts2, b2, bt2, 1.0, nu, 1.0)["minimal_C_nu"]
        assert c1 == pytest.approx(c2, rel=1e-4)

    @given(st.floats(min_value=1e-8, max_value=1e3),
           st.floats(min_value=1.0, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_envelope_constant(self, c_nu, factor):
        spec = DisturbanceSpec(family="decaying_burst", amplitude=0.5,
                               frequency=1.0, gamma=1.0, T_period=1.0)
        ts, b, bt, _ = sample_trace(spec, 4.0, 401)
        small = verify_noise_bound(ts, b, bt, 1.0, nu=1.5, C_nu=c_nu)
        big = verify_noise_bound(ts, b, bt, 1.0, nu=1.5, C_nu=c_nu * factor)
        if small["pass"]:
            assert big["pass"]
