import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pipestab import lyapunov
from pipestab.disturbance import DisturbanceSpec
from pipestab.dynamics import (BlowUpError, CFLError, FieldState, Member, SolverConfig,
                               bump_profile, compatibility_residual, f_bound_constant,
                               f_tilde, lower_order_F, profile_terms, simulate,
                               simulate_batch, step, wave_speed)
from pipestab.lyapunov import energy_classic, energy_E1, grad_norm, h1_integrand
from pipestab.stationary import PipeParams, build_stationary

from oracles import lower_order_F_expanded, trapz_intervals


def make_setup(L=1.0, a=2.0, theta=0.5, k=4.0, u0=0.5, nx=200):
    params = PipeParams(L=L, a=a, theta=theta, k=k)
    xs = np.linspace(0.0, L, nx + 1)
    profile = build_stationary(params, u0, xs)
    return params, profile, xs


def advance(state, params, profile, dt, guard=None):
    """One step without disturbance; the guard defaults to the sound speed."""
    terms = profile_terms(profile, params)
    return step(state, terms, (0.0, 0.0), dt, params.a if guard is None else guard,
                wave_speed(terms, state))


class TestLowerOrderTerms:
    def test_f_tilde_hand_values(self):
        assert f_tilde(0.0, 0.0, 5.0, 1.0) == 0.0
        assert f_tilde(1.0, 1.0, 1.0, 0.0) == pytest.approx(-4.0, rel=1e-15)
        assert f_tilde(1.0, 1.0, 1.0, 0.4) == pytest.approx(-5.0, rel=1e-15)
        # odd symmetry of the friction part: |u| u keeps its sign structure
        assert f_tilde(-1.0, 1.0, 1.0, 0.4) == pytest.approx(-2.0 + 2.0 + 1.5 * 0.4 - 0.4)

    def test_definitional_matches_expanded(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(10000):
            a = rng.uniform(1.0, 3.0)
            theta = rng.uniform(0.0, 1.0)
            ubar = rng.uniform(1e-3, 0.4 * a)
            u = rng.uniform(-ubar, 0.4 * a)          # keeps ubar + u >= 0
            ux, ut = rng.uniform(-0.5, 0.5, 2)
            ubarx = rng.uniform(0.0, 0.3)
            f1 = lower_order_F(u, ux, ut, ubar, ubarx, a, theta)
            f2 = lower_order_F_expanded(u, ux, ut, ubar, ubarx, a, theta)
            worst = max(worst, abs(f1 - f2) / max(1.0, abs(f1)))
        assert worst <= 1e-12

    def test_f_bound_constant_hand_value(self):
        # 18 + 13*0.1 + (8 + 0.6)/4
        assert f_bound_constant(2.0, 0.1) == pytest.approx(21.45, rel=1e-15)

    def test_f_dominated_by_bound(self):
        # |F| <= C(a, theta) * T * (|u| + |u_x| + |u_t|) with T the max of
        # all six magnitudes, in the smallness regime
        rng = np.random.default_rng(3)
        c_worst = 0.0
        for _ in range(5000):
            a = rng.uniform(1.0, 3.0)
            theta = rng.uniform(0.0, 1.0)
            ubar = rng.uniform(0.0, 0.3)
            ubarx = rng.uniform(0.0, 0.3)
            u, ux, ut = rng.uniform(-0.3, 0.3, 3)
            if ubar + u < 0:
                continue
            F = lower_order_F(u, ux, ut, ubar, ubarx, a, theta)
            T = max(abs(u), abs(ux), abs(ut), ubar, ubarx)
            denom = T * (abs(u) + abs(ux) + abs(ut))
            if denom > 0:
                c_worst = max(c_worst, abs(F) / (f_bound_constant(a, theta) * denom))
        assert 0.0 < c_worst <= 1.0

    def test_supersonic_stationary_rejected(self):
        with pytest.raises(ValueError, match="subsonic"):
            lower_order_F(0.0, 0.0, 0.0, 1.5, 0.0, 1.0, 0.5)


class TestBumpProfile:
    def test_support_and_peak(self):
        xs = np.linspace(0.0, 1.0, 401)
        phi, dphi = bump_profile(xs, 2.0, 0.5, 0.2)
        assert phi.max() == pytest.approx(2.0)
        assert np.all(phi[np.abs(xs - 0.5) >= 0.2] == 0.0)
        assert np.all(dphi[np.abs(xs - 0.5) >= 0.2] == 0.0)

    def test_derivative_consistent(self):
        xs = np.linspace(0.3, 0.7, 2001)
        phi, dphi = bump_profile(xs, 1.0, 0.5, 0.2)
        dx = xs[1] - xs[0]
        fd = (phi[2:] - phi[:-2]) / (2.0 * dx)
        assert np.max(np.abs(fd - dphi[1:-1])) <= 1e-4


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs", [
        {"nx": 8}, {"cfl": 0.0}, {"cfl": 1.0}, {"t_end": -1.0}, {"snapshot_dt": 0.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestStep:
    def test_cfl_violation_raises(self):
        params, profile, xs = make_setup()
        state = FieldState(t=0.0, xs=xs, u=np.zeros_like(xs),
                           v=np.zeros_like(xs), w=np.zeros_like(xs))
        with pytest.raises(CFLError):
            advance(state, params, profile, dt=1.0)

    def test_blowup_guard_raises(self):
        params, profile, xs = make_setup()
        u = np.full_like(xs, 0.2)
        state = FieldState(t=0.0, xs=xs, u=u, v=np.zeros_like(xs), w=np.zeros_like(xs))
        with pytest.raises(BlowUpError):
            advance(state, params, profile, dt=1e-4, guard=0.1)

    def test_nan_state_raises_at_its_step(self):
        # every comparison with NaN is False, so the guard must be written to fail on it
        params, profile, xs = make_setup()
        u = np.zeros_like(xs)
        u[len(xs) // 2] = np.nan
        state = FieldState(t=0.25, xs=xs, u=u, v=np.zeros_like(xs), w=np.zeros_like(xs))
        with pytest.raises(BlowUpError, match=r"t=0\.2501"):
            advance(state, params, profile, dt=1e-4)

    def test_feedback_closure_exact(self):
        # the left boundary enforces w = k v to machine precision; the
        # stepped state carries its own max|u|
        params, profile, xs = make_setup()
        phi, dphi = bump_profile(xs, 1e-3, 0.5, 0.2)
        state = FieldState(t=0.0, xs=xs, u=phi, v=np.zeros_like(xs), w=dphi)
        dx = xs[1] - xs[0]
        for _ in range(20):
            state = advance(state, params, profile, dt=0.4 * dx / (params.a + 1.0))
        assert state.w[0] == params.k * state.v[0]
        assert state.max_abs_u == float(np.max(np.abs(state.u)))


class TestSimulate:
    def test_equilibrium_preserved(self):
        params, profile, _ = make_setup()
        traj = simulate(params, profile, DisturbanceSpec(family="zero"),
                        SolverConfig(nx=200, cfl=0.45, t_end=2.0, snapshot_dt=0.5))
        assert np.max(traj.series["max_u"]) <= 1e-10
        assert np.max(traj.series["E1"]) <= 1e-10

    def test_grid_mismatch_rejected(self):
        params, profile, _ = make_setup(nx=200)
        with pytest.raises(ValueError, match="grid"):
            simulate(params, profile, DisturbanceSpec(family="zero"),
                     SolverConfig(nx=100, cfl=0.45, t_end=1.0, snapshot_dt=0.5))

    def test_snapshot_times_exact(self):
        params, profile, _ = make_setup()
        traj = simulate(params, profile, DisturbanceSpec(family="zero"),
                        SolverConfig(nx=200, cfl=0.45, t_end=1.0, snapshot_dt=0.25))
        snaps = [s.t for s in traj.states]
        assert snaps == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], abs=1e-12)

    def test_deterministic_rerun(self):
        params, profile, _ = make_setup(nx=100)
        spec = DisturbanceSpec(family="decaying_burst", amplitude=1e-3,
                               frequency=1.0, gamma=0.5, T_period=1.0, seed=11)
        cfg = SolverConfig(nx=100, cfl=0.45, t_end=1.5, snapshot_dt=0.5)
        t1 = simulate(params, profile, spec, cfg)
        t2 = simulate(params, profile, spec, cfg)
        assert np.array_equal(t1.times, t2.times)
        for s1, s2 in zip(t1.states, t2.states):
            assert np.array_equal(s1.u, s2.u)
            assert np.array_equal(s1.v, s2.v)
            assert np.array_equal(s1.w, s2.w)

    def test_dirichlet_tracking_second_order(self):
        # u(L, t) tracks the disturbance trace b(t) at every snapshot; the
        # residual shrinks by ~4x per grid doubling
        params = PipeParams(L=1.0, a=2.0, theta=0.1, k=4.0)
        spec = DisturbanceSpec(family="decaying_burst", amplitude=1e-3,
                               frequency=1.0, gamma=0.5, T_period=1.0)
        errs = []
        for nx in (100, 200, 400):
            xs = np.linspace(0.0, 1.0, nx + 1)
            profile = build_stationary(params, 0.3, xs)
            traj = simulate(params, profile, spec,
                            SolverConfig(nx=nx, cfl=0.45, t_end=4.0, snapshot_dt=0.5))
            b = traj.boundary["b"][traj.snap_index]
            errs.append(np.max(np.abs([s.u[-1] for s in traj.states] - b)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)

    def test_linear_limit_pulse_transport(self):
        # theta = 0, near-zero base flow: a right-moving d'Alembert pulse
        # travels at speed a; after t = 0.45 the peak sits at 0.75
        params = PipeParams(L=1.0, a=1.0, theta=0.0, k=4.0)
        xs = np.linspace(0.0, 1.0, 801)
        profile = build_stationary(params, 1e-6, xs)
        phi, dphi = bump_profile(xs, 1e-3, 0.3, 0.15)
        traj = simulate(params, profile, DisturbanceSpec(family="zero"),
                        SolverConfig(nx=800, cfl=0.45, t_end=0.45, snapshot_dt=0.45),
                        initial_u=phi, initial_v=-dphi, initial_w=dphi)
        final = traj.states[-1]
        peak = xs[np.argmax(final.u)]
        assert peak == pytest.approx(0.75, abs=0.02 * 0.75)
        assert final.u.max() == pytest.approx(1e-3, rel=0.02)

    def test_compatibility_residual_small(self):
        params, profile, _ = make_setup()
        spec = DisturbanceSpec(family="decaying_burst", amplitude=1e-3,
                               frequency=1.0, gamma=0.5, T_period=1.0)
        traj = simulate(params, profile, spec,
                        SolverConfig(nx=200, cfl=0.45, t_end=3.0, snapshot_dt=1.0))
        amp = np.max(traj.series["max_u"])
        assert compatibility_residual(traj.states[-1]) <= 0.01 * amp

    def test_records_cover_every_step(self):
        # per-step records cover every step, snapshot-only energies every snapshot
        params, profile, _ = make_setup()
        traj = simulate(params, profile, DisturbanceSpec(family="zero"),
                        SolverConfig(nx=200, cfl=0.45, t_end=0.5, snapshot_dt=0.1))
        assert traj.times[0] == 0.0
        for name in ("E1", "h1", "max_u", "max_ux", "max_ut"):
            assert len(traj.series[name]) == len(traj.times)
        for name in ("b", "b_t"):
            assert len(traj.boundary[name]) == len(traj.times)
        assert len(traj.states) == 6
        for name in ("E_classic", "grad"):
            assert len(traj.series[name]) == len(traj.states)
        assert [traj.times[j] for j in traj.snap_index] == [s.t for s in traj.states]
        assert np.all(np.diff(traj.times) > 0)

    @given(st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=10, deadline=None)
    def test_blowup_guard_scales(self, guard_frac):
        # growing the initial bump above the guard must raise
        params, profile, xs = make_setup(nx=64)
        guard = guard_frac * params.a
        phi, dphi = bump_profile(xs, 1.5 * guard, 0.5, 0.2)
        with pytest.raises(BlowUpError):
            simulate(params, profile, DisturbanceSpec(family="zero"),
                     SolverConfig(nx=64, cfl=0.45, t_end=0.5, snapshot_dt=0.1,
                                  blowup_guard=guard),
                     initial_u=phi, initial_v=np.zeros_like(xs), initial_w=dphi)


def bump_run(amplitude, center, width, nx=64):
    params, profile, xs = make_setup(nx=nx)
    phi, dphi = bump_profile(xs, amplitude, center, width)
    spec = DisturbanceSpec(family="decaying_burst", amplitude=1e-4,
                           frequency=1.0, gamma=0.5, T_period=1.0)
    traj = simulate(params, profile, spec,
                    SolverConfig(nx=nx, cfl=0.45, t_end=0.2, snapshot_dt=0.05),
                    initial_u=phi, initial_v=-params.a * dphi, initial_w=dphi)
    return params, profile, xs, traj


bump_args = (st.floats(min_value=1e-4, max_value=1e-2),
             st.floats(min_value=0.35, max_value=0.65),
             st.floats(min_value=0.1, max_value=0.3))


class TestLeanPath:
    """The per-run precomputed terms give what the definitions give."""

    def test_precomputed_forcing_bitwise(self):
        params, profile, xs = make_setup()
        terms = profile_terms(profile, params)
        rng = np.random.default_rng(5)
        for ubar, ubar_x, forcing in ((terms.ubar_m, terms.ubarx_m, terms.forcing_m),
                                      (terms.ubar_i, terms.ubarx_i, terms.forcing_i)):
            u, ux, ut = rng.uniform(-0.1, 0.1, (3, len(ubar)))
            lean = lower_order_F(u, ux, ut, ubar, ubar_x, params.a, params.theta, forcing)
            fresh = lower_order_F(u, ux, ut, ubar, ubar_x, params.a, params.theta)
            assert lean.tobytes() == fresh.tobytes()

    @given(*bump_args)
    @settings(max_examples=10, deadline=None)
    def test_recorded_integrals_match_interval_trapezoid(self, amplitude, center, width):
        # the same integrands, integrated interval by interval instead of by weights
        params, profile, xs, traj = bump_run(amplitude, center, width)
        lean_trapz = lyapunov._trapz
        lyapunov._trapz = lambda y, weights: trapz_intervals(y, xs)
        try:
            for state, j in zip(traj.states, traj.snap_index):
                e1 = energy_E1(state, profile, params.k, params.a)
                h1 = h1_integrand(state)
                assert abs(traj.series["E1"][j] - e1) <= 1e-13 * abs(e1)
                assert abs(traj.series["h1"][j] - h1) <= 1e-13 * abs(h1)
        finally:
            lyapunov._trapz = lean_trapz

    @given(*bump_args)
    @settings(max_examples=5, deadline=None)
    def test_snapshot_energies_match_states(self, amplitude, center, width):
        params, _, _, traj = bump_run(amplitude, center, width)
        for i, state in enumerate(traj.states):
            assert traj.series["E_classic"][i] == energy_classic(state, params.k, params.a)
            assert traj.series["grad"][i] == grad_norm(state)


# a sound speed whose a ** 2 (C pow) and a * a round apart, so that a batch,
# which holds a as a column, must square it as a single run does
ODD_A = 1.71253018222773


def batch_member(u0=0.3, k=4.0, a=2.0, seed=0, t_end=0.4, amplitude=1e-4, guard=None,
                 bump=False, nan_at=None, nx=64):
    params = PipeParams(L=1.0, a=a, theta=0.1, k=k)
    xs = np.linspace(0.0, 1.0, nx + 1)
    profile = build_stationary(params, u0, xs)
    spec = DisturbanceSpec(family="decaying_burst", amplitude=amplitude, frequency=1.0,
                           gamma=0.5, T_period=0.2, seed=seed)
    config = SolverConfig(nx=nx, cfl=0.45, t_end=t_end, snapshot_dt=0.1, blowup_guard=guard)
    phi, dphi = bump_profile(xs, 1e-3 if bump else 0.0, 0.5, 0.2)
    v = -a * dphi
    if nan_at is not None:
        v[nan_at] = np.nan
    return Member(params, profile, spec, config, phi, v, dphi)


def solo(member):
    try:
        return simulate(*member)
    except BlowUpError as exc:
        return exc


class TestBatch:
    """A batch gives every member what a run of it alone gives, bit for bit."""

    MEMBERS = [
        batch_member(u0=0.2, k=4.0, t_end=0.4),
        batch_member(u0=0.4, k=2.5, seed=7, t_end=0.3, bump=True),     # faster: more steps
        batch_member(u0=0.3, k=6.0, a=ODD_A, seed=3, t_end=0.25),
        batch_member(u0=0.2, k=3.0, amplitude=1e-3, guard=1e-4),         # crosses the guard
        batch_member(u0=0.3, k=4.0, nan_at=40),                          # NaN after one step
        batch_member(u0=0.35, k=5.0, seed=11, t_end=0.35),
        batch_member(u0=0.3, amplitude=0.3, seed=2, t_end=0.4),         # speeds up: outgrows
    ]                                                                    # the record estimate

    def test_members_bitwise_equal_to_single_runs(self):
        assert ODD_A ** 2 != ODD_A * ODD_A
        alone = [solo(m) for m in self.MEMBERS]
        batched = simulate_batch(self.MEMBERS)
        steps = {len(t.times) for t in alone if not isinstance(t, Exception)}
        assert len(steps) == 5      # every member that finishes ends at its own step
        for single, member in zip(alone, batched):
            if isinstance(single, Exception):
                assert type(member) is type(single)
                assert str(member) == str(single)
                continue
            assert single.times.tobytes() == member.times.tobytes()
            assert single.snap_index.tobytes() == member.snap_index.tobytes()
            for s1, s2 in zip(single.states, member.states, strict=True):
                assert s1.t == s2.t
                for name in ("u", "v", "w"):
                    assert getattr(s1, name).tobytes() == getattr(s2, name).tobytes()
            for records1, records2 in ((single.series, member.series),
                                       (single.boundary, member.boundary)):
                assert records1.keys() == records2.keys()
                for name in records1:
                    assert records1[name].tobytes() == records2[name].tobytes(), name

    def test_failures_name_their_own_time(self):
        blowup, nan = simulate_batch(self.MEMBERS)[3:5]
        assert isinstance(blowup, BlowUpError) and isinstance(nan, BlowUpError)
        t_blowup = float(str(blowup).split("t=")[1].split(";")[0])
        t_nan = float(str(nan).split("t=")[1].split(";")[0])
        assert 0.02 < t_blowup < 0.4      # partway through: steps are about 0.003 long
        assert t_nan < 0.01
        assert "max|u| = nan" in str(nan)

    def test_snapshots_are_copied_rows(self):
        traj = simulate_batch(self.MEMBERS[:2])[0]
        for state in traj.states:
            assert state.u.base is None and state.u.shape == state.xs.shape

    def test_one_grid_per_batch(self):
        with pytest.raises(ValueError, match="one grid"):
            simulate_batch([batch_member(nx=64), batch_member(nx=32)])

    def test_member_setup_error_is_its_own(self):
        good = batch_member()
        bad = good._replace(initial_u=np.zeros(10))
        single, err = simulate_batch([good, bad])
        assert isinstance(err, ValueError) and "initial data" in str(err)
        assert single.times.tobytes() == simulate(*good).times.tobytes()
