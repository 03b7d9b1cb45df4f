import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pipestab import dynamics, lyapunov
from pipestab.certificate import f_bound_constant
from pipestab.disturbance import DisturbanceSpec
from pipestab.dynamics import (BLOCK_CELLS, BlowUpError, CFLError, FieldState, Member,
                               SolverConfig, SolverError, StepWork, bump_profile, f_tilde,
                               lower_order_F, profile_terms, simulate, simulate_batch, step,
                               wave_speed)
from pipestab.lyapunov import Quadrature, energy_classic, energy_E1, grad_norm, h1_integrand
from pipestab.stationary import PipeParams, build_stationary

import oracles
from oracles import lower_order_F_expanded, trapz_intervals


def make_setup(L=1.0, a=2.0, theta=0.5, k=4.0, u0=0.5, nx=200):
    params = PipeParams(L=L, a=a, theta=theta, k=k)
    xs = np.linspace(0.0, L, nx + 1)
    profile = build_stationary(params, u0, xs)
    return params, profile, xs


def advance(state, params, profile, dt, guard=None, work=None):
    """One step of a one-member (1, nx+1) state without disturbance; the
    guard defaults to the sound speed, the work set to a new one."""
    terms = profile_terms([(profile, params)])
    return step(state, terms, ([0.0], [0.0]), [dt], [params.a if guard is None else guard],
                wave_speed(terms, state), work or StepWork(state))


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
        {"t_end": np.nan}, {"t_end": np.inf}, {"snapshot_dt": np.nan},
        {"blowup_guard": np.nan}, {"blowup_guard": -1.0}, {"nx": np.nan}, {"nx": 16.5},
        {"nx": 64.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestStep:
    def test_cfl_violation_raises(self):
        params, profile, xs = make_setup()
        zeros = np.zeros((1, len(xs)))
        state = FieldState(t=[0.0], xs=xs, u=zeros, v=zeros.copy(), w=zeros.copy())
        with pytest.raises(CFLError):
            advance(state, params, profile, dt=1.0)

    def test_blowup_guard_raises(self):
        params, profile, xs = make_setup()
        u = np.full((1, len(xs)), 0.2)
        state = FieldState(t=[0.0], xs=xs, u=u, v=np.zeros_like(u), w=np.zeros_like(u))
        with pytest.raises(BlowUpError):
            advance(state, params, profile, dt=1e-4, guard=0.1)

    def test_nan_state_raises_at_its_step(self):
        # every comparison with NaN is False, so the guard must be written to fail on it
        params, profile, xs = make_setup()
        u = np.zeros((1, len(xs)))
        u[0, len(xs) // 2] = np.nan
        state = FieldState(t=[0.25], xs=xs, u=u, v=np.zeros_like(u), w=np.zeros_like(u))
        with pytest.raises(BlowUpError, match=r"t=0\.2501"):
            advance(state, params, profile, dt=1e-4)

    def test_feedback_closure_exact(self):
        # the left boundary enforces w = k v to machine precision; each
        # step records its new state's own max|u|
        params, profile, xs = make_setup()
        phi, dphi = bump_profile(xs, 1e-3, 0.5, 0.2)
        state = FieldState(t=[0.0], xs=xs, u=phi[None], v=np.zeros((1, len(xs))), w=dphi[None])
        dx = xs[1] - xs[0]
        work = StepWork(state)
        for _ in range(20):
            state = advance(state, params, profile, 0.4 * dx / (params.a + 1.0), work=work)
            assert work.pending[-1][1] == [float(np.max(np.abs(state.u)))]
        assert state.w[0, 0] == params.k * state.v[0, 0]


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
        # max |w - D_x u|, centred differences at the interior nodes
        final = traj.states[-1]
        du = (final.u[2:] - final.u[:-2]) / (2.0 * (final.xs[1] - final.xs[0]))
        assert np.max(np.abs(final.w[1:-1] - du)) <= 0.01 * amp

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
        terms = profile_terms([(profile, params)])
        rng = np.random.default_rng(5)
        for ubar, ubar_x, forcing in ((terms.ubar_m, terms.ubarx_m, terms.forcing_m),
                                      (terms.ubar[:, 1:-1], terms.ubar_x[:, 1:-1],
                                       terms.forcing_i)):
            u, ux, ut = rng.uniform(-0.1, 0.1, (3, *ubar.shape))
            lean = lower_order_F(u, ux, ut, ubar, ubar_x, params.a, params.theta, forcing)
            fresh = lower_order_F(u, ux, ut, ubar, ubar_x, params.a, params.theta)
            assert lean.tobytes() == fresh.tobytes()

    @given(*bump_args)
    @settings(max_examples=10, deadline=None)
    def test_recorded_integrals_match_interval_trapezoid(self, amplitude, center, width):
        # the same integrands, integrated interval by interval instead of by weights
        params, profile, xs, traj = bump_run(amplitude, center, width)
        quad, work = Quadrature(xs), np.empty((3, len(xs)))
        lean_trapz = lyapunov._trapz
        lyapunov._trapz = lambda y, weights: trapz_intervals(y, xs)
        try:
            for state, j in zip(traj.states, traj.snap_index):
                e1 = energy_E1(state, profile, params.k, params.a, quad, out=work)
                h1 = h1_integrand(state, quad, out=work[:2])
                assert abs(traj.series["E1"][j] - e1) <= 1e-13 * abs(e1)
                assert abs(traj.series["h1"][j] - h1) <= 1e-13 * abs(h1)
        finally:
            lyapunov._trapz = lean_trapz

    @given(*bump_args)
    @settings(max_examples=5, deadline=None)
    def test_snapshot_energies_match_states(self, amplitude, center, width):
        params, _, xs, traj = bump_run(amplitude, center, width)
        quad = Quadrature(xs)
        for i, state in enumerate(traj.states):
            assert traj.series["E_classic"][i] == energy_classic(state, params.k, params.a, quad)
            assert traj.series["grad"][i] == grad_norm(state, quad)


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
    except SolverError as exc:
        return exc


def assert_same_results(results, reference):
    """Each result is its reference: the same error, or a bitwise-equal Trajectory."""
    for got, want in zip(results, reference, strict=True):
        if isinstance(want, Exception):
            assert type(got) is type(want)
            assert str(got) == str(want)
            continue
        assert got.times.tobytes() == want.times.tobytes()
        assert got.snap_index.tobytes() == want.snap_index.tobytes()
        for s1, s2 in zip(got.states, want.states, strict=True):
            assert s1.t == s2.t
            for name in ("u", "v", "w"):
                assert getattr(s1, name).tobytes() == getattr(s2, name).tobytes()
        for records1, records2 in ((got.series, want.series), (got.boundary, want.boundary)):
            assert records1.keys() == records2.keys()
            for name in records1:
                assert records1[name].tobytes() == records2[name].tobytes(), name


class TestBatch:
    """A batch gives every member what a run of it alone gives, bit for bit."""

    MEMBERS = [
        batch_member(u0=0.2, k=4.0, t_end=0.4),
        batch_member(u0=0.4, k=2.5, seed=7, t_end=0.3, bump=True),     # faster: more steps
        batch_member(u0=0.3, k=6.0, a=ODD_A, seed=3, t_end=0.25),
        batch_member(u0=0.2, k=3.0, amplitude=1e-3, guard=1e-4),         # crosses the guard
        batch_member(u0=0.3, k=4.0, nan_at=40),                          # NaN in v: fails at t=0
        batch_member(u0=0.35, k=5.0, seed=11, t_end=0.35),
        batch_member(u0=0.3, amplitude=0.3, seed=2, t_end=0.4),         # speeds up: outgrows
    ]                                                                    # the record estimate

    def test_members_bitwise_equal_to_single_runs(self):
        assert ODD_A ** 2 != ODD_A * ODD_A
        alone = [solo(m) for m in self.MEMBERS]
        batched = simulate_batch(self.MEMBERS)
        steps = {len(t.times) for t in alone if not isinstance(t, Exception)}
        assert len(steps) == 5      # every member that finishes ends at its own step
        assert_same_results(batched, alone)

    def test_failures_name_their_own_time(self):
        blowup, nan = simulate_batch(self.MEMBERS)[3:5]
        assert isinstance(blowup, BlowUpError) and isinstance(nan, BlowUpError)
        t_blowup = float(str(blowup).split("t=")[1].split(";")[0])
        t_nan = float(str(nan).split("t=")[1].split(";")[0])
        assert 0.02 < t_blowup < 0.4      # partway through: steps are about 0.003 long
        assert t_nan == 0.0
        assert "initial_v = nan" in str(nan)

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

    def test_supersonic_member_fails_alone(self):
        # a sound speed below the profile's ubar >= 0.3: its terms cannot be built
        good = batch_member()
        bad = good._replace(params=PipeParams(L=1.0, a=0.25, theta=0.1, k=4.0))
        single, err = simulate_batch([good, bad])
        assert isinstance(err, ValueError) and "subsonic" in str(err)
        assert single.times.tobytes() == simulate(*good).times.tobytes()

    def test_nan_initial_state_fails_alone_at_t0(self):
        # the guard test of `step`, held to the initial state: it fails this
        # member alone, before the records are sized by the batch's wave speed
        good = batch_member()
        u = good.initial_u.copy()
        u[20] = np.nan
        single, err = simulate_batch([good, good._replace(initial_u=u)])
        assert isinstance(err, BlowUpError)
        assert "max|u| = nan" in str(err) and "at t=0;" in str(err)
        assert_same_results([single], [simulate(*good)])

    def test_nonfinite_initial_v_and_w_fail_alone_at_t0(self):
        # the guard reads u alone; a NaN in v or an inf in w is named at t=0,
        # not found in u one step later
        good = batch_member(nx=32)
        v, w = good.initial_v.copy(), good.initial_w.copy()
        v[5], w[7] = np.nan, np.inf
        single, nan_v, inf_w = simulate_batch([good, good._replace(initial_v=v),
                                               good._replace(initial_w=w)])
        assert isinstance(nan_v, BlowUpError) and isinstance(inf_w, BlowUpError)
        assert str(nan_v).startswith("initial_v = nan at x=0.15625 ") and "at t=0;" in str(nan_v)
        assert str(inf_w).startswith("initial_w = inf at x=0.21875 ") and "at t=0;" in str(inf_w)
        assert_same_results([single], [simulate(*good)])

    def test_initial_state_outside_guard_fails_at_t0(self):
        member = batch_member(guard=1e-4)
        member = member._replace(initial_u=np.full_like(member.profile.xs, 2e-4))
        with pytest.raises(BlowUpError, match=r"max\|u\| = 0\.0002 left the guard 0\.0001 at t=0;"):
            simulate(*member)


def cfl_member():
    """A member that fails the CFL check eight steps in: its steps are clipped
    to a snapshot cadence just inside the CFL limit at its initial wave
    speed, and its CFL number, set past SolverConfig's check, is 1.5, so
    the first step after the burst speeds the flow up is too long."""
    member = batch_member(u0=0.3, amplitude=0.3, seed=2, t_end=0.4)
    xs = member.profile.xs
    speed = float(np.max(np.abs(member.profile.ubar))) + member.params.a
    member.config.cfl = 1.5
    member.config.snapshot_dt = 0.95 * (xs[1] - xs[0]) / speed
    return member


class TestBlockRecord:
    """Records reduced per block of steps are the per-step records, bit for bit."""

    # members that end at their own steps, fail by blow-up, fail at t=0 by a
    # NaN in v, and outgrow the record estimate (TestBatch), and one that
    # fails by CFL
    BATCHES = [TestBatch.MEMBERS, [cfl_member(), *TestBatch.MEMBERS[:2]]]

    @pytest.mark.parametrize("rows", [1, 2, 3, 400])     # 400: a whole run in one block
    def test_series_match_per_step_record(self, monkeypatch, rows):
        grown = []      # (first step of the flush, records capacity before it)
        flush = dynamics._flush

        def watched(records, slots, index, work, *args):
            first = index + 1 - len(work.pending)
            out = flush(records, slots, index, work, *args)
            if out.shape[2] > records.shape[2]:
                grown.append((first, records.shape[2]))
            return out

        monkeypatch.setattr(dynamics, "_flush", watched)
        for members in self.BATCHES:
            cells = len(members) * (members[0].config.nx + 1)
            monkeypatch.setattr(dynamics, "BLOCK_CELLS", rows * cells)
            assert_same_results(simulate_batch(members),
                                oracles.simulate_batch_per_step(members))
            monkeypatch.setattr(dynamics, "BLOCK_CELLS", rows * (members[0].config.nx + 1))
            for member in members:
                assert_same_results([solo(member)], oracles.simulate_batch_per_step([member]))
        assert grown
        if rows == 400:
            # the block that grew the records began within them
            assert any(first < capacity for first, capacity in grown)

    @pytest.mark.parametrize("size", [1, 2])
    def test_member_ends_on_the_blocks_last_slot(self, monkeypatch, size):
        # the block holds as many steps as the first member to end takes, so
        # that member's last step fills the block's last slot: that flush
        # records the full block, and any other member goes on in a new one
        members = TestBatch.MEMBERS[:size]
        last = min(len(solo(member).times) - 1 for member in members)
        flushes = []    # (step index, newest slot, rows, pending states)
        flush = dynamics._flush

        def watched(records, slots, index, work, *args):
            flushes.append((index, work.newest, work.rows, len(work.pending)))
            return flush(records, slots, index, work, *args)

        monkeypatch.setattr(dynamics, "_flush", watched)
        monkeypatch.setattr(dynamics, "BLOCK_CELLS", last * size * (members[0].config.nx + 1))
        assert_same_results(simulate_batch(members), oracles.simulate_batch_per_step(members))
        assert flushes[:2] == [(0, 0, last, 1), (last, last, last, last)]
        assert len(flushes) == size + 1

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_repack_builds_its_work_set_alone(self, monkeypatch, extra):
        # a re-pack frees the old work set before it builds the survivors',
        # whose block holds as many steps as BLOCK_CELLS allows; extra = 1
        # leaves BLOCK_CELLS one cell short of 3 batch states, and extra = -1
        # gives the first block one batch state
        live, counts, works = weakref.WeakSet(), [], []

        class Watched(StepWork):
            def __init__(self, state):
                counts.append(len(live))
                super().__init__(state)
                live.add(self)
                works.append((self.rows, self.block[0, 0].size))

        members = TestBatch.MEMBERS
        # the cells of the members that start: the NaN member fails at t=0
        cells = (len(members) - 1) * (members[0].config.nx + 1)
        monkeypatch.setattr(dynamics, "StepWork", Watched)
        monkeypatch.setattr(dynamics, "BLOCK_CELLS", 2 * cells + extra * (cells - 1))
        assert_same_results(simulate_batch(members), oracles.simulate_batch_per_step(members))
        assert counts == [0] * 6    # the first work set, and one per member that ends before the last
        assert works[0] == ({-1: 1, 0: 2, 1: 2}[extra], cells)
        for rows, size in works:
            assert rows == max(1, dynamics.BLOCK_CELLS // size)

    def test_cfl_member_fails_mid_run(self):
        error = solo(cfl_member())
        assert isinstance(error, CFLError)
        assert 0.03 < float(str(error).split("t=")[1].split(":")[0]) < 0.1

    @pytest.mark.parametrize("nx", [100, 400, 3200])
    @pytest.mark.parametrize("count", [1, 8])
    def test_block_bytes_within_budget(self, nx, count):
        shape = (count, nx + 1)
        xs = np.linspace(0.0, 1.0, nx + 1)
        work = StepWork(FieldState([0.0] * count, xs, np.zeros(shape), np.zeros(shape),
                                   np.zeros(shape)))
        cells = int(np.prod(shape))
        # as many steps as the budget holds, and one when a state alone exceeds it
        assert work.rows == max(1, BLOCK_CELLS // cells)
        assert work.rows * cells <= max(BLOCK_CELLS, cells)
        # the rows + 1 slots of the block and the flush's work
        block_bytes = work.block.nbytes + work.spare.nbytes
        assert block_bytes == 8 * cells * (6 * work.rows + 3)
        assert block_bytes <= 8 * (6 * max(BLOCK_CELLS, cells) + 3 * cells)


def physics_pairs(physics, xs):
    """The (profile, params) of each (a, k, theta, u0) in physics on the grid xs."""
    pairs = []
    for a, k, theta, u0 in physics:
        params = PipeParams(L=1.0, a=a, theta=theta, k=k)
        pairs.append((build_stationary(params, u0, xs), params))
    return pairs


def lean_setup(nx, physics, seed, amplitude):
    """The batch's terms, the oracle's terms and a random state of
    len(physics) members on one grid.

    physics is a list of (a, k, theta, u0); the fields are noise of the given
    amplitude, except that u = -1.5 ubar at two adjacent nodes, so that
    ubar + u is negative at nodes and at a midpoint.
    """
    xs = np.linspace(0.0, 1.0, nx + 1)
    pairs = physics_pairs(physics, xs)
    terms = profile_terms(pairs)
    reference = oracles.stack_terms([oracles.profile_terms(*pair) for pair in pairs])
    rng = np.random.default_rng(seed)
    u, v, w = amplitude * rng.uniform(-1.0, 1.0, (3, *terms.ubar.shape))
    j = nx // 3
    u[..., j:j + 2] = -1.5 * terms.ubar[..., j:j + 2]
    return terms, reference, FieldState([0.25] * len(physics), xs, u, v, w), rng


def assert_same_state(lean, reference):
    assert lean.t == reference.t
    for name in ("u", "v", "w"):
        assert getattr(lean, name).tobytes() == getattr(reference, name).tobytes(), name


def copied(state):
    return FieldState(list(state.t), state.xs, state.u.copy(), state.v.copy(), state.w.copy())


PHYSICS_LISTS = [
    [(2.0, 4.0, 0.1, 0.3)],
    [(ODD_A, 6.0, 0.0, 0.25)],
    [(2.0, 4.0, 0.1, 0.3), (ODD_A, 2.5, 0.0, 0.2), (1.5, 8.0, 0.6, 0.4)],
]
PHYSICS = st.sampled_from(PHYSICS_LISTS)


class TestProfileTerms:
    """Each row of a batch's terms is its member's terms built alone, bit for bit."""

    @pytest.mark.parametrize("physics", [PHYSICS_LISTS[0], PHYSICS_LISTS[2]])
    def test_rows_equal_members_alone(self, physics):
        pairs = physics_pairs(physics, np.linspace(0.0, 1.0, 65))
        terms = profile_terms(pairs)
        assert terms.ubar.shape == (len(pairs), 65)
        for row, pair in enumerate(pairs):
            alone = oracles.profile_terms(*pair)
            arrays = {"ubar": terms.ubar, "ubar_m": terms.ubar_m, "ubarx_m": terms.ubarx_m,
                      "ubar_i": terms.ubar[:, 1:-1], "ubarx_i": terms.ubar_x[:, 1:-1]}
            for name, got in arrays.items():
                assert got[row].tobytes() == getattr(alone, name).tobytes(), name
            assert terms.ubar_x[row].tobytes() == pair[0].ubar_x.tobytes()
            for name in ("forcing_m", "forcing_i"):
                for got, want in zip(getattr(terms, name), getattr(alone, name), strict=True):
                    assert got[row].tobytes() == want.tobytes(), name
            # the compiled step's a, a ** 2, k, theta and 1.5 theta, which _flush
            # and wave_speed read too
            want = [np.asarray(getattr(alone, name)).item()
                    for name in ("a", "a2", "k", "theta", "theta_1_5")]
            assert terms.coefficients[:, row].tobytes() == np.array(want).tobytes()
        assert terms.coefficients.shape == (5, len(pairs))


class TestLeanStep:
    """The work-set step gives what the allocating step gave, bit for bit."""

    @given(st.integers(16, 48), PHYSICS, st.integers(0, 2 ** 32 - 1),
           st.floats(1e-6, 1.0), st.lists(st.floats(0.05, 0.99), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_matches_allocating_oracle(self, nx, physics, seed, amplitude, fractions):
        terms, reference_terms, state, rng = lean_setup(nx, physics, seed, amplitude)
        work = StepWork(state)
        dx = state.xs[1] - state.xs[0]
        lean, reference = state, copied(state)
        for _ in range(3):   # the first step copies the state in, the others write the block
            speed = wave_speed(terms, lean)
            assert speed == oracles.wave_speed(reference_terms, reference)
            dt = [f * dx / s for f, s in zip(fractions, speed)]
            b_now = (list(rng.normal(size=len(physics))), list(rng.normal(size=len(physics))))
            guard = [1e3] * len(physics)
            lean = step(lean, terms, b_now, dt, guard, speed, work)
            reference, max_u = oracles.step(reference, reference_terms, b_now, dt, guard, speed)
            assert_same_state(lean, reference)
            assert work.pending[-1] == (reference.t, max_u, *b_now)

    @given(PHYSICS, st.integers(0, 2 ** 32 - 1), st.sampled_from(["cfl", "guard"]))
    @settings(max_examples=20, deadline=None)
    def test_failed_step_leaves_its_input(self, physics, seed, failure):
        terms, reference_terms, state, rng = lean_setup(24, physics, seed, 0.1)
        work = StepWork(state)
        dx = state.xs[1] - state.xs[0]
        b_now = ([0.0] * len(physics), [0.0] * len(physics))
        big = [1e3] * len(physics)
        speed = wave_speed(terms, state)
        held = step(state, terms, b_now, [0.5 * dx / s for s in speed], big, speed, work)
        before = copied(held)
        speed = wave_speed(terms, held)
        # the last member fails: by its time step or by its guard
        fractions = [0.5] * len(physics)
        guards = [1e3] * len(physics)
        if failure == "cfl":
            fractions[-1] = 1.5
        else:
            guards[-1] = 1e-3
        dt = [f * dx / s for f, s in zip(fractions, speed)]
        error = CFLError if failure == "cfl" else BlowUpError
        with pytest.raises(error) as lean:
            step(held, terms, b_now, dt, guards, speed, work)
        with pytest.raises(error) as reference:
            oracles.step(before, reference_terms, b_now, dt, guards, speed)
        assert lean.value.failed == reference.value.failed == {
            len(physics) - 1: str(reference.value)}
        assert_same_state(held, before)
        # and the work set steps on from the state it kept
        dt = [0.5 * dx / s for s in speed]
        assert_same_state(step(held, terms, b_now, dt, big, speed, work),
                          oracles.step(before, reference_terms, b_now, dt, big, speed)[0])

    @given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(2, 40)),
                  elements=st.floats(-1e6, 1e6)),
           st.lists(st.floats(0.1, 1e3), min_size=4, max_size=4), st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_wave_speed_is_the_max_plus_a(self, u, speeds, nan_row):
        # max|ubar + u| + a equals max(|ubar + u| + a) exactly, per batch row,
        # a row holding NaN included; row 0 alone stands for one member, which
        # the oracle holds in floats
        rows, n = u.shape
        ubar = np.linspace(0.1, 0.4, n)
        if nan_row < rows:
            u[nan_row, n // 2] = np.nan
        for rows, a in ((1, speeds[0]), (rows, np.array(speeds[:rows])[:, None])):
            terms = SimpleNamespace(ubar=np.tile(ubar, (rows, 1)), a=a,
                                    coefficients=np.array([speeds[:rows]]))
            state = FieldState([0.0] * rows, ubar, u[:rows], u[:rows], u[:rows])
            lean, reference = wave_speed(terms, state), oracles.wave_speed(terms, state)
            assert np.array(lean).tobytes() == np.array(reference).tobytes()

    @given(st.integers(16, 48), st.floats(-2.0, 2.0), st.floats(0.0, 1.0),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_formulas_match_in_place_forms(self, n, scale, theta, seed):
        # the definitional forms compute what the NumPy step's in-place forms did
        rng = np.random.default_rng(seed)
        u, ux, ut, ubar, ubar_x = scale * rng.uniform(-1.0, 1.0, (5, n))
        assert f_tilde(u, ux, ut, theta).tobytes() == oracles.f_tilde_into(u, ux, ut, theta).tobytes()
        ubar = np.abs(ubar) * 0.4   # subsonic for a = 2
        lean = lower_order_F(u, ux, ut, ubar, ubar_x, 2.0, theta)
        assert lean.tobytes() == oracles.lower_order_F_into(u, ux, ut, ubar, ubar_x, 2.0,
                                                            theta).tobytes()


def compiled_setup(physics, nx, seed, amplitude, rows):
    """The batch's terms, the oracle's terms, a random state of len(physics)
    members and the two work sets, whose blocks hold `rows` states.

    physics is a list of (a, k, theta, u0 / a)."""
    xs = np.linspace(0.0, 1.0, nx + 1)
    pairs = physics_pairs([(a, k, theta, fraction * a) for a, k, theta, fraction in physics], xs)
    terms = profile_terms(pairs)
    reference_terms = oracles.stack_terms([oracles.profile_terms(*pair) for pair in pairs])
    rng = np.random.default_rng(seed)
    u, v, w = amplitude * rng.uniform(-1.0, 1.0, (3, len(pairs), nx + 1))
    state = FieldState([0.25] * len(pairs), xs, u, v, w)
    with mock.patch.object(dynamics, "BLOCK_CELLS", rows * u.size):
        works = StepWork(state), oracles.NumpyStepWork(state)
    return terms, reference_terms, state, works, rng


MEMBER_PHYSICS = st.tuples(st.floats(1.0, 3.0), st.floats(1.0, 8.0), st.floats(0.0, 1.0),
                           st.floats(0.05, 0.3))


class TestCompiledStep:
    """The compiled step gives what the NumPy step gave, bit for bit."""

    @given(st.lists(MEMBER_PHYSICS, min_size=1, max_size=4), st.integers(16, 64),
           st.integers(0, 2 ** 32 - 1), st.floats(1e-6, 0.1), st.integers(1, 3),
           st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6))
    @example([(2.0, 4.0, 0.1, 0.15)], 16, 0, 1e-3, 1, [1.0, 0.5, 1.0, 0.25, 1.0, 0.75])
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy_step(self, physics, nx, seed, amplitude, rows, fractions):
        # each step takes its fraction of every member's CFL step; with rows = 1
        # every step after the first starts a new block from slot 0, with 2 and
        # 3 some do
        terms, reference_terms, state, (work, reference_work), rng = compiled_setup(
            physics, nx, seed, amplitude, rows)
        members, dx = len(physics), state.xs[1] - state.xs[0]
        guard = [1e3] * members
        compiled, reference = state, copied(state)
        speed = wave_speed(terms, state)
        for fraction in fractions:
            dt = [fraction * dx / s for s in speed]
            b_now = (list(rng.normal(size=members)), list(rng.normal(size=members)))
            compiled = step(compiled, terms, b_now, dt, guard, speed, work)
            reference = oracles.numpy_step(reference, reference_terms, b_now, dt, guard, speed,
                                           reference_work)
            assert_same_state(compiled, reference)
            # the next wave speed, as wave_speed gives it from the new state
            assert work.speed == wave_speed(terms, reference)
            assert work.newest == reference_work.newest
            assert work.pending == reference_work.pending
            speed = work.speed

    def test_terms_of_another_batch_are_rejected(self):
        # the compiled step reads the terms through raw pointers: their shapes are checked
        physics = [(2.0, 4.0, 0.1, 0.15), (1.5, 8.0, 0.6, 0.2)]
        _, _, state, (work, _), _ = compiled_setup(physics, 24, 0, 1e-3, 2)
        terms = compiled_setup(physics + physics[:1], 24, 0, 1e-3, 2)[0]
        dt = [1e-3, 1e-3]
        with pytest.raises(ValueError, match="C-contiguous float64 array of shape"):
            step(state, terms, (dt, dt), dt, [1.0, 1.0], [2.5, 2.5], work)

    @pytest.mark.parametrize("field", ["u", "v", "w"])
    @pytest.mark.parametrize("row", [0, 2])
    def test_nan_member_fails_alone(self, field, row):
        # a NaN in v or w reaches u within the step; only its member fails,
        # with the NumPy step's message, and the input state is kept
        physics = [(2.0, 4.0, 0.1, 0.15), (ODD_A, 2.5, 0.0, 0.1), (1.5, 8.0, 0.6, 0.2)]
        terms, reference_terms, state, (work, reference_work), _ = compiled_setup(
            physics, 24, 7, 1e-3, 2)
        getattr(state, field)[row, 12] = np.nan
        state, before = copied(state), copied(state)
        dx = state.xs[1] - state.xs[0]
        speed = wave_speed(terms, state)
        dt = [0.5 * dx / s for s in speed]
        b_now = ([0.0] * 3, [1e-4] * 3)
        guard = [1e3] * 3
        with pytest.raises(BlowUpError) as compiled:
            step(state, terms, b_now, dt, guard, speed, work)
        with pytest.raises(BlowUpError) as reference:
            oracles.numpy_step(copied(state), reference_terms, b_now, dt, guard, speed,
                               reference_work)
        assert compiled.value.failed == reference.value.failed == {row: str(reference.value)}
        assert "max|u| = nan" in str(compiled.value)
        assert_same_state(state, before)


class TestSnapshotsOwnTheirArrays:
    """A snapshot holds its own copy of the fields, not a view of the work set."""

    def test_no_shared_memory_and_repeatable(self):
        runs = [lambda: [simulate(*TestBatch.MEMBERS[0])],
                lambda: simulate_batch(TestBatch.MEMBERS[:3])]
        for run in runs:
            first, second = run(), run()
            fields = [x for traj in first for s in traj.states for x in (s.u, s.v, s.w)]
            for i, x in enumerate(fields):
                for y in fields[i + 1:]:
                    assert not np.shares_memory(x, y)
            for traj1, traj2 in zip(first, second, strict=True):
                for s1, s2 in zip(traj1.states, traj2.states, strict=True):
                    assert s1.t == s2.t
                    for name in ("u", "v", "w"):
                        assert getattr(s1, name).tobytes() == getattr(s2, name).tobytes()
