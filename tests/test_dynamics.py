import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pipestab import dynamics, lyapunov
from pipestab.certificate import f_bound_constant
from pipestab.disturbance import FAMILIES, DisturbanceSpec
from pipestab.dynamics import (IO, RECORDS, BlowUpError, CFLError, FieldState, Member,
                               SolverConfig, SolverError, StepWork, bump_profile, f_tilde,
                               failure, lower_order_F, profile_terms, simulate, simulate_batch,
                               step, wave_speed)
from pipestab.lyapunov import Quadrature, energy_classic, energy_E1, grad_norm, h1_integrand
from pipestab.stationary import PipeParams, build_stationary

import oracles
from oracles import lower_order_F_expanded, trapz_intervals


def make_setup(L=1.0, a=2.0, theta=0.5, k=4.0, u0=0.5, nx=200):
    params = PipeParams(L=L, a=a, theta=theta, k=k)
    xs = np.linspace(0.0, L, nx + 1)
    profile = build_stationary(params, u0, xs)
    return params, profile, xs


def records_of(members: int, capacity: int) -> np.ndarray:
    """Records of `members` rows and `capacity` steps, for `step`."""
    return np.empty((len(RECORDS), members, capacity))


def advance(state, params, profile, dt, guard=None, work=None, records=None):
    """One step of a one-member (1, nx+1) state without disturbance, to its
    snapshot time t + dt, recorded at index 1 of `records`; the guard
    defaults to the sound speed, the work set and the records to new ones.
    Raises the member's error when the step fails it, which leaves the
    input state as it was."""
    terms = profile_terms([(profile, params)])
    work = work or StepWork(state)
    work.load([DisturbanceSpec()], speed=wave_speed(terms, state), cfl_dx=[math.inf],
              t_snap=[state.t[0] + dt], t_end=[math.inf],
              guard=[params.a if guard is None else guard])
    before = copied(state)
    new = step(state, terms, work, records_of(1, 2) if records is None else records, 1)
    error = failure(work, 0)
    if error:
        # a CFL violation fails the member before the step, the guard after it
        assert work.taken == (0 if isinstance(error, CFLError) else 1)
        assert_same_state(state, before)
        raise error
    return new


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
        # every comparison with NaN is False, so the guard must be written to
        # fail on it; the NaN is put in v, which reaches u within the step,
        # so that the wave speed, which reads u, and the time step stay finite
        params, profile, xs = make_setup()
        u = np.zeros((1, len(xs)))
        v = np.zeros_like(u)
        v[0, len(xs) // 2] = np.nan
        state = FieldState(t=[0.25], xs=xs, u=u, v=v, w=np.zeros_like(u))
        with pytest.raises(BlowUpError, match=r"max\|u\| = nan .* at t=0\.2501"):
            advance(state, params, profile, dt=1e-4)

    def test_feedback_closure_exact(self):
        # the left boundary enforces w = k v to machine precision; each
        # step records its new state's own max|u|
        params, profile, xs = make_setup()
        phi, dphi = bump_profile(xs, 1e-3, 0.5, 0.2)
        state = FieldState(t=[0.0], xs=xs, u=phi[None], v=np.zeros((1, len(xs))), w=dphi[None])
        dx = xs[1] - xs[0]
        work, records = StepWork(state), records_of(1, 2)
        for _ in range(20):
            state = advance(state, params, profile, 0.4 * dx / (params.a + 1.0), work=work,
                            records=records)
            assert records[1, :, 1].tolist() == [float(np.max(np.abs(state.u)))]
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
            lean = oracles.lower_order_F(u, ux, ut, ubar, ubar_x, params.a, params.theta, forcing)
            fresh = lower_order_F(u, ux, ut, ubar, ubar_x, params.a, params.theta)
            assert lean.tobytes() == fresh.tobytes()

    @given(*bump_args)
    @settings(max_examples=10, deadline=None)
    def test_recorded_integrals_match_interval_trapezoid(self, amplitude, center, width):
        # the same integrands, integrated interval by interval instead of by weights
        params, profile, xs, traj = bump_run(amplitude, center, width)
        quad = Quadrature(xs)
        lean_dot = lyapunov._dot
        lyapunov._dot = lambda y, weights: trapz_intervals(y, xs)
        try:
            for state, j in zip(traj.states, traj.snap_index):
                e1 = energy_E1(state, profile, params.k, params.a, quad)
                h1 = h1_integrand(state, quad)
                assert abs(traj.series["E1"][j] - e1) <= 1e-13 * abs(e1)
                assert abs(traj.series["h1"][j] - h1) <= 1e-13 * abs(h1)
        finally:
            lyapunov._dot = lean_dot

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

    def test_members_bitwise_equal_to_single_runs(self, monkeypatch):
        assert ODD_A ** 2 != ODD_A * ODD_A
        alone = [solo(m) for m in self.MEMBERS]
        calls = watch_calls(monkeypatch)
        batched = simulate_batch(self.MEMBERS)
        # the last member outruns the records' first estimate, which doubles
        assert calls[-1][2] > calls[0][2]
        assert_grown_when_full(calls, calls[0][2])
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

    def test_snapshots_are_copied_rows(self, monkeypatch):
        # a member keeps copies of its rows: no snapshot array shares memory
        # with the work set or with another member's snapshots
        made = []

        class Watched(StepWork):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(dynamics, "StepWork", Watched)
        first, second = simulate_batch(self.MEMBERS[:2])
        (work,) = made
        for traj, other in ((first, second), (second, first)):
            theirs = [x for state in other.states for x in (state.u, state.v, state.w)]
            for state in traj.states:
                assert state.u.shape == state.xs.shape
                for x in (state.u, state.v, state.w):
                    assert not np.shares_memory(x, work.states)
                    assert not any(np.shares_memory(x, y) for y in theirs)

    def test_member_failing_mid_call_leaves_the_others(self, monkeypatch):
        assert_member_fails_mid_call(monkeypatch, threads=1)

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


class Calls(list):
    """[first step index, steps taken, records capacity] of each call of
    `step`; `failed` maps the batch row of each member that a call failed to
    [that call's place in the list, the index of the step the member failed]."""

    def __init__(self):
        super().__init__()
        self.failed = {}

    def clear(self):
        super().clear()
        self.failed.clear()


def watch_calls(monkeypatch) -> Calls:
    """The Calls of `step` from now on."""
    calls = Calls()
    step = dynamics.step

    def watched(state, terms, work, records, index):
        status = work.values["status"]
        running = status == dynamics.RUNNING
        calls.append([index, 0, records.shape[2]])
        new = step(state, terms, work, records, index)
        calls[-1][1] = work.taken
        for row in np.flatnonzero(running & (status != dynamics.RUNNING)).tolist():
            if status[row] == dynamics.ENDED:
                continue
            # the guard fails a step whose time it names, the CFL test the
            # step after that time, which is the call's first step if no
            # step of the call recorded that time
            times = records[0, row, index:index + work.taken].tolist()
            at = work.values["at"][row]
            failed = index + (times.index(at) + (status[row] == dynamics.CFL_FAILED)
                              if at in times else 0)
            calls.failed[row] = [len(calls) - 1, failed]
        return new

    monkeypatch.setattr(dynamics, "step", watched)
    return calls


def assert_grown_when_full(calls, capacity):
    """The records of one simulate_batch start with room for `capacity`
    steps, and double when, and only when, a call filled them."""
    assert calls[0][2] == capacity
    for (index, taken, room), following in zip(calls, calls[1:]):
        full = index + taken == room
        assert following[2] == (2 * room if full else room)
        if full:
            assert following[0] == room


def assert_member_fails_mid_call(monkeypatch, threads):
    """A member that leaves its guard mid-run, in the middle of a call,
    leaves every other member's records, states and snapshots bit-equal to
    the member's run alone and to the per-step oracle, one thread or split."""
    if threads == 2:
        monkeypatch.setattr(dynamics, "SPLIT_NODES", 65)
    members = [TestBatch.MEMBERS[3], TestBatch.MEMBERS[0], TestBatch.MEMBERS[1]]
    alone = [solo(member) for member in members]
    calls = watch_calls(monkeypatch)
    results = simulate_batch(members, threads=threads)
    assert_same_results(results, alone)
    assert_same_results(results, oracles.simulate_batch_per_step(members))
    assert type(results[0]) is BlowUpError
    call, failed = calls.failed[0]
    index, taken, _ = calls[call]
    # steps into the run, and into the call, which goes on after it
    assert index < failed < index + taken - 1
    assert all(taken for _, taken, _ in calls)


class TestBlockRecord:
    """The records the compiled loop writes into the run's records are the
    per-step records, bit for bit, however the calls fill and grow them."""

    # members that end at their own steps, fail by blow-up, fail at t=0 by a
    # NaN in v, and outgrow the record estimate (TestBatch); one that fails
    # by CFL; and one that leaves its guard beside one that goes on
    BATCHES = [TestBatch.MEMBERS, [cfl_member(), *TestBatch.MEMBERS[:2]],
               [TestBatch.MEMBERS[3], TestBatch.MEMBERS[0]]]

    # the records start with room for 2 + spare steps, the t = 0 row's
    # included, and fill and double time and again; with 400 every run fits
    @pytest.mark.parametrize("spare", [0, 1, 2, 3, 400])
    def test_series_match_per_step_record(self, monkeypatch, spare):
        calls = watch_calls(monkeypatch)
        monkeypatch.setattr(dynamics, "_capacity", lambda active, speed: 2 + spare)
        filled = 0      # calls that filled the records
        for members in self.BATCHES:
            calls.clear()
            results = simulate_batch(members)
            assert_same_results(results, oracles.simulate_batch_per_step(members))
            assert_grown_when_full(calls, 2 + spare)
            filled += sum(index + taken == room for index, taken, room in calls)
            if spare == 400 and members is self.BATCHES[2]:
                # the guard fails in a call's middle: the other member takes
                # that step and the call goes on to that member's next
                # snapshot, so each call starts where the last one ended
                assert all(taken for _, taken, _ in calls)
                assert [index for index, _, _ in calls[1:]] == [
                    index + taken for index, taken, _ in calls[:-1]]
                call, failed = calls.failed[0]
                index, taken, _ = calls[call]
                assert index <= failed < index + taken - 1
                assert index + taken - 1 in results[1].snap_index
            for member in members:
                assert_same_results([solo(member)], oracles.simulate_batch_per_step([member]))
        assert (filled == 0) == (spare == 400)

    @pytest.mark.parametrize("size", [1, 2])
    def test_member_ends_on_the_blocks_last_slot(self, monkeypatch, size):
        # the records hold as many steps as the first member to end takes, so
        # that member's last step fills their last slot: that call returns
        # for both, and any other member goes on in records of twice the
        # room; the member's snapshots fall in between
        members = TestBatch.MEMBERS[:size]
        alone = [solo(member) for member in members]
        last = min(len(traj.times) - 1 for traj in alone)
        calls = watch_calls(monkeypatch)
        monkeypatch.setattr(dynamics, "_capacity", lambda active, speed: last + 1)
        assert_same_results(simulate_batch(members), oracles.simulate_batch_per_step(members))
        assert_grown_when_full(calls, last + 1)
        ends = [index + taken - 1 for index, taken, _ in calls]
        assert ends.count(last) == 1
        assert len(calls) - ends.index(last) == size
        first = next(traj for traj in alone if len(traj.times) - 1 == last)
        assert 0 < first.snap_index[1] < last

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_one_work_set_per_batch(self, monkeypatch, extra):
        # one work set serves every call: the members that end or fail keep
        # their rows of it.  The records start with room for 2 + extra steps,
        # and with extra = -1 the t = 0 row fills them before the first step
        sizes, works = [], []

        class Watched(StepWork):
            def __init__(self, state, *args):
                super().__init__(state, *args)
                sizes.append(len(state.u))

        def watched(state, terms, work, records, index):
            works.append(work)
            return step(state, terms, work, records, index)

        members = TestBatch.MEMBERS
        monkeypatch.setattr(dynamics, "step", watched)
        calls = watch_calls(monkeypatch)
        monkeypatch.setattr(dynamics, "StepWork", Watched)
        monkeypatch.setattr(dynamics, "_capacity", lambda runs, speed: 2 + extra)
        assert_same_results(simulate_batch(members), oracles.simulate_batch_per_step(members))
        # the NaN member fails at t=0, before the work set is built
        assert sizes == [6]
        assert len(works) == len(calls) > 6 and all(work is works[0] for work in works)
        assert calls[0][2] == (2 if extra == -1 else 2 + extra)
        assert_grown_when_full(calls, calls[0][2])

    def test_cfl_member_fails_mid_run(self, monkeypatch):
        calls = watch_calls(monkeypatch)
        error = solo(cfl_member())
        assert isinstance(error, CFLError)
        assert 0.03 < float(str(error).split("t=")[1].split(":")[0]) < 0.1
        # alone, the CFL member lands on a snapshot at every step, so each
        # call takes one step, until it fails before the first of a call
        failing = len(calls) - 1
        assert [taken for _, taken, _ in calls] == [1] * failing + [0]
        # beside a member that goes on: that member takes the failed step in
        # the same call, and its next steps, so no step is computed twice
        members = [cfl_member(), TestBatch.MEMBERS[0]]
        calls.clear()
        results = simulate_batch(members)
        assert_same_results(results, oracles.simulate_batch_per_step(members))
        assert type(results[0]) is CFLError and str(results[0]) == str(error)
        capacity = calls[0][2]
        assert calls[:failing] == [[j + 1, 1, capacity] for j in range(failing)]
        assert calls[failing][0] == failing + 1 and calls[failing][1] > 1
        assert calls.failed == {0: [failing, failing + 1]}
        assert all(taken for _, taken, _ in calls)
        assert [index for index, _, _ in calls[1:]] == [
            index + taken for index, taken, _ in calls[:-1]]

    @pytest.mark.parametrize("nx", [100, 400, 3200])
    @pytest.mark.parametrize("count", [1, 8])
    def test_block_bytes_within_budget(self, nx, count):
        shape = (count, nx + 1)
        xs = np.linspace(0.0, 1.0, nx + 1)
        work = StepWork(FieldState([0.0] * count, xs, np.zeros(shape), np.zeros(shape),
                                   np.zeros(shape)))
        cells, row = int(np.prod(shape)), (nx + 1 + 3) // 4 * 4
        share = 8 + 2 * -(-(nx + 1) // lyapunov.BLOCK)
        # two states of (u, v, w), one member's (u, v, w) at the half step in
        # rows of n rounded up to 4 doubles, each member's sums and maxima
        # (E1 and H1 of each block of the step's sum order, and the four
        # maxima of each of two parts), the per-member values, and the three
        # weights of the grid: the records are the run's, and no step is held
        # apart from them
        assert work.states.nbytes == 8 * 6 * cells
        assert work.half.shape == (3, row)
        assert work.share.shape == (count, share)
        assert work.io.nbytes == 8 * len(IO) * count
        held = [x for x in vars(work).values() if isinstance(x, np.ndarray)]
        held += [x for x in vars(work.quad).values() if isinstance(x, np.ndarray)]
        assert sum(x.nbytes for x in held) == 8 * (6 * cells + 3 * row + share * count
                                                   + len(IO) * count + 3 * (nx + 1))


def physics_pairs(physics, xs):
    """The (profile, params) of each (a, k, theta, u0) in physics on the grid xs."""
    pairs = []
    for a, k, theta, u0 in physics:
        params = PipeParams(L=1.0, a=a, theta=theta, k=k)
        pairs.append((build_stationary(params, u0, xs), params))
    return pairs


def lean_setup(nx, physics, seed, amplitude, negative=True):
    """The batch's terms, the oracle's terms and a random state of
    len(physics) members on one grid.

    physics is a list of (a, k, theta, u0); the fields are noise of the given
    amplitude.  With `negative`, u = -1.5 ubar at two adjacent nodes, so
    that ubar + u is negative at nodes and at a midpoint.
    """
    xs = np.linspace(0.0, 1.0, nx + 1)
    pairs = physics_pairs(physics, xs)
    terms = profile_terms(pairs)
    reference = oracles.stack_terms([oracles.profile_terms(*pair) for pair in pairs])
    rng = np.random.default_rng(seed)
    u, v, w = amplitude * rng.uniform(-1.0, 1.0, (3, *terms.ubar.shape))
    if negative:
        j = nx // 3
        u[..., j:j + 2] = -1.5 * terms.ubar[..., j:j + 2]
    return terms, reference, FieldState([0.25] * len(physics), xs, u, v, w), rng


def assert_same_state(lean, reference):
    assert lean.t == reference.t
    for name in ("u", "v", "w"):
        assert getattr(lean, name).tobytes() == getattr(reference, name).tobytes(), name


def assert_same_rows(state, rows, reference):
    """The members at `rows` of `state` are `reference` bit for bit, a 1-D
    state for one member as the oracles give it."""
    assert [state.t[row] for row in rows] == reference.t
    for name in ("u", "v", "w"):
        assert getattr(state, name)[rows].tobytes() == getattr(reference, name).tobytes(), name


def copied(state):
    return FieldState(list(state.t), state.xs, state.u.copy(), state.v.copy(), state.w.copy())


def member_terms(physics, xs) -> list:
    """The oracle's terms of each member of physics given as a list of (a,
    k, theta, u0 / a), as compiled_setup takes it, each built alone."""
    return [oracles.profile_terms(*pair) for pair in physics_pairs(
        [(a, k, theta, fraction * a) for a, k, theta, fraction in physics], xs)]


def disturbances(rng, count):
    """`count` disturbances of drawn family, parameters and seed, whose
    compact bursts switch off near t = 0.25, where the states start."""
    return [DisturbanceSpec(family=str(rng.choice(FAMILIES)), amplitude=rng.normal(),
                            frequency=rng.uniform(0.5, 3.0), gamma=rng.uniform(0.0, 1.0),
                            T_period=rng.uniform(0.1, 1.0), seed=int(rng.integers(0, 1000)),
                            t_off=rng.uniform(0.2, 0.4))
            for _ in range(count)]


def time_steps(work, state):
    """Each member's step from `state` as lw_advance takes it: min(cfl_dx / speed, t_snap - t)."""
    values = [work.values[name].tolist() for name in ("cfl_dx", "speed", "t_snap")]
    return [min(c / s, t_snap - t) for c, s, t_snap, t in zip(*values, state.t)]


def boundary(specs, state, dt):
    """The oracle's (b, b_t) of each member at t + dt."""
    b = [oracles.sample_b(spec, t + d)[:2] for spec, t, d in zip(specs, state.t, dt)]
    return [x for x, _ in b], [x for _, x in b]


def stepped(work, records, j, xs):
    """The state of the step recorded at index j, with the times recorded
    with it, while the work set still holds it: when the first call starts
    at index 1 from a state not in the work set, step j writes state j % 2."""
    return FieldState(records[0, :, j].tolist(), xs, *work.views[j % 2])


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
            # the compiled step's a, a ** 2, k, theta and 1.5 theta, which the
            # t = 0 record and wave_speed read too
            want = [np.asarray(getattr(alone, name)).item()
                    for name in ("a", "a2", "k", "theta", "theta_1_5")]
            assert terms.coefficients[:, row].tobytes() == np.array(want).tobytes()
        assert terms.coefficients.shape == (5, len(pairs))


MEMBER_PHYSICS = st.tuples(st.floats(1.0, 3.0), st.floats(1.0, 8.0), st.floats(0.0, 1.0),
                           st.floats(0.05, 0.3))


def calls(amplitude):
    """The strategies of assert_calls_match_allocating_step's inputs, with
    noise amplitudes up to `amplitude`."""
    return (st.lists(MEMBER_PHYSICS, min_size=1, max_size=4), st.integers(16, 64),
            st.integers(0, 2 ** 32 - 1), st.floats(1e-6, amplitude), st.integers(1, 3),
            st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6))


def assert_calls_match_allocating_step(physics, nx, seed, amplitude, negative, rows, fractions):
    """Calls of the compiled step give what oracles.step gives, step by step, bit for bit."""
    # each member steps by its own fraction of its CFL step and is clipped
    # to land on a snapshot time, after which it steps on; a call returns
    # when the records are full, a running member lands or no member runs.
    # They start with room for `rows` steps after the t = 0 row and double
    # when full, as in simulate_batch: with rows = 1 every call fills them
    # until a member lands.  Each step's records hold (t, max|u|, b, b_t),
    # max|u_x|, max|u_t| and the E1 and H1 integrals of the state it made,
    # as the allocating step and the energy functionals give them, bit for
    # bit.  A step fails the members the allocating step fails, with its
    # messages; each keeps its rows of the work set from then on, and the
    # others take that step as the allocating step takes it without them.
    # With `negative`, ubar + u < 0 at two nodes and a midpoint
    terms, _, state, work, rng = compiled_setup(physics, nx, seed, amplitude, negative)
    alone = member_terms(physics, state.xs)
    quad = Quadrature(state.xs)
    a, k = terms.coefficients[0, :, None], terms.coefficients[2, :, None]
    members, dx = len(physics), state.xs[1] - state.xs[0]
    specs, guard = disturbances(rng, members), [1e3] * members
    speed = wave_speed(terms, state)
    work.load(specs, speed=speed, guard=guard, cfl_dx=[f * dx for f in fractions[:members]],
              t_snap=[t + 2.5 * f * dx / s for t, f, s in zip(state.t, fractions[::-1], speed)],
              t_end=[math.inf] * members)
    compiled, reference = state, copied(state)
    records = records_of(members, 1 + rows)
    running, failed, kept = list(range(members)), {}, {}

    def reference_step():
        """The allocating step of the running members of `reference`, in
        place: a member it fails leaves `running` for `failed`, with its
        error, and the others take the step again.  Returns their max|u|
        and (b, b_t), or None when no member takes the step."""
        while running:
            sub = oracles._select(reference, running)
            sub_terms = oracles.stack_terms([alone[row] for row in running])
            speed = oracles.wave_speed(sub_terms, sub)
            dt = [min(c / s, t_snap - t) for c, s, t_snap, t in zip(
                work.values["cfl_dx"][running].tolist(), speed,
                work.values["t_snap"][running].tolist(), sub.t)]
            b_now = boundary([specs[row] for row in running], sub, dt)
            try:
                new, max_u = oracles.step(sub, sub_terms, b_now, dt,
                                          [guard[row] for row in running], speed)
            except SolverError as error:
                for i, message in error.failed.items():
                    failed[running[i]] = (type(error), message)
                running[:] = [row for i, row in enumerate(running) if i not in error.failed]
                continue
            for name in ("u", "v", "w"):
                getattr(reference, name)[running] = getattr(new, name)
            for row, t in zip(running, new.t):
                reference.t[row] = t
            return max_u, b_now
        return None

    def rows_of(state):
        """The running members of `state`, as a batch."""
        return FieldState([state.t[row] for row in running], state.xs,
                          *(x[running] for x in (state.u, state.v, state.w)))

    def assert_failures():
        """The compiled loop failed the members the allocating step failed, alike."""
        status = work.values["status"]
        assert np.flatnonzero(status == dynamics.RUNNING).tolist() == running
        errors = {row: failure(work, row) for row in range(members) if row not in running}
        assert {row: (type(e), str(e)) for row, e in errors.items()} == failed

    start = 1
    while start < 7 and running:
        if start == records.shape[2]:
            records = np.concatenate([records, np.empty_like(records)], axis=2)
        compiled = step(compiled, terms, work, records, start)
        end = start + work.taken
        for index in range(start, end):
            stepped_rows = reference_step()
            if stepped_rows is None:        # every member failed its guard at this step
                break
            max_u, b_now = stepped_rows
            if index == end - 2:            # the older state the work set holds
                assert_same_rows(stepped(work, records, index, state.xs), running,
                                 rows_of(reference))
            new = rows_of(reference)
            assert records[:4, running, index].tobytes() == np.array(
                [new.t, max_u, *b_now]).tobytes()
            tops = [np.max(np.abs(x), -1) for x in (new.w, new.v)]
            assert records[4:6, running, index].tobytes() == np.array(tops).tobytes()
            energies = [energy_E1(new, SimpleNamespace(ubar=terms.ubar[running]), k[running],
                                  a[running], quad), h1_integrand(new, quad)]
            assert records[6:, running, index].tobytes() == np.array(energies).tobytes()
        if running and not (work.values["status"] == dynamics.RUNNING).any():
            # every running member failed the CFL test at the step after the call's last
            assert reference_step() is None
        assert_failures()
        for row, held in kept.items():      # a failed member's rows stay as they were
            assert work.states[:, :, row].tobytes() == held
        kept.update((row, work.states[:, :, row].tobytes()) for row in failed if row not in kept)
        assert_same_rows(compiled, running, rows_of(reference))
        # the next wave speed, as wave_speed gives it from the new state
        assert work.values["speed"][running].tolist() == wave_speed(SimpleNamespace(
            ubar=terms.ubar[running], coefficients=terms.coefficients[:, running]),
            rows_of(reference))
        t_snap = work.values["t_snap"]
        landed = [row for row in running if compiled.t[row] >= t_snap[row] - 1e-12]
        assert end == records.shape[2] or landed or not running
        t_snap[landed] = math.inf
        start = end


class TestLeanStep:
    """The compiled step gives what the allocating step gave, bit for bit."""

    @given(*calls(1.0))
    @example([(2.0, 4.0, 0.1, 0.15), (ODD_A, 2.5, 0.0, 0.12)], 24, 1, 0.5, 2,
             [0.9, 0.3, 0.6, 0.9, 0.3, 0.6])
    @settings(max_examples=40, deadline=None)
    def test_matches_allocating_oracle(self, physics, nx, seed, amplitude, rows, fractions):
        # ubar + u < 0 at two nodes and a midpoint
        assert_calls_match_allocating_step(physics, nx, seed, amplitude, True, rows, fractions)

    @given(PHYSICS, st.integers(0, 2 ** 32 - 1), st.sampled_from(["cfl", "guard"]),
           st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_failed_step_leaves_its_input(self, physics, seed, way, one_row):
        # the failing call's input is the newest state of the work set; with
        # one_row, records of one step after the t = 0 row, its step filled
        # them, and the failing step is the first of records grown to twice
        # the room, else the next of the same records.  The last member
        # fails that step, by its time step or by its guard, with the
        # allocating step's error: the input is left as it was, the member
        # keeps its rows of the work set from then on, and every other
        # member takes that step and the next as the allocating step takes
        # them without it
        terms, reference_terms, state, rng = lean_setup(24, physics, seed, 0.1)
        alone = [oracles.profile_terms(*pair) for pair in physics_pairs(physics, state.xs)]
        work = StepWork(state)
        members, dx = len(physics), state.xs[1] - state.xs[0]
        others = list(range(members - 1))
        records = records_of(members, 2 if one_row else 8)
        specs, big, never = disturbances(rng, members), [1e3] * members, [math.inf] * members

        def landing(state):
            # each member's snapshot time half a CFL step ahead: one step
            # reaches it; the last member's, none
            return [t + 0.5 * dx / s for t, s in zip(state.t, work.values["speed"].tolist())]

        def others_step(state, dt, guards):
            """The allocating step of the members but the last, from `state` by `dt`."""
            sub = oracles._select(state, others)
            sub_dt = [dt[row] for row in others]
            return oracles.step(sub, oracles.stack_terms(alone[:-1]),
                                boundary(specs[:-1], sub, sub_dt), sub_dt, guards[:-1],
                                [wave_speed(terms, state)[row] for row in others])[0]

        work.load(specs, speed=wave_speed(terms, state), guard=big, cfl_dx=[dx] * members,
                  t_end=never)
        work.load(specs, t_snap=landing(state))
        held = step(state, terms, work, records, 1)
        assert work.taken == 1
        if one_row:
            records = np.concatenate([records, np.empty_like(records)], axis=2)
        before = copied(held)
        speed = wave_speed(terms, held)
        assert work.values["speed"].tolist() == speed
        # the last member fails: by its time step or by its guard
        fractions = [0.5] * members
        guards = [1e3] * members
        if way == "cfl":
            fractions[-1] = 1.5
        else:
            guards[-1] = 1e-3
        error = CFLError if way == "cfl" else BlowUpError
        work.load(specs, guard=guards, cfl_dx=[f * dx for f in fractions],
                  t_snap=landing(held)[:-1] + [math.inf])
        dt = time_steps(work, held)
        new = step(held, terms, work, records, 2)
        with pytest.raises(error) as reference:
            oracles.step(before, reference_terms, boundary(specs, before, dt), dt, guards, speed)
        assert reference.value.failed == {members - 1: str(reference.value)}
        lean = failure(work, members - 1)
        assert type(lean) is error and str(lean) == str(reference.value)
        assert [failure(work, row) for row in others] == [None] * len(others)
        # a CFL violation fails before the step: with no other member, none is taken
        assert work.taken == (0 if way == "cfl" and not others else 1)
        assert_same_state(held, before)
        kept = work.states[:, :, -1].tobytes()
        if not others:
            return
        assert_same_rows(new, others, others_step(before, dt, guards))
        # and the others step on, while the failed member keeps its rows
        after = copied(new)
        work.load(specs, guard=big, cfl_dx=[dx] * members, t_snap=landing(new))
        dt = time_steps(work, new)
        newer = step(new, terms, work, records, 3)
        assert work.taken == 1
        assert_same_rows(newer, others, others_step(after, dt, big))
        assert work.states[:, :, -1].tobytes() == kept

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
    def test_formulas_match_allocating_forms(self, n, scale, theta, seed):
        # the definitional forms compute what the allocating step's forms do
        rng = np.random.default_rng(seed)
        u, ux, ut, ubar, ubar_x = scale * rng.uniform(-1.0, 1.0, (5, n))
        assert f_tilde(u, ux, ut, theta).tobytes() == oracles.f_tilde(u, ux, ut, theta).tobytes()
        ubar = np.abs(ubar) * 0.4   # subsonic for a = 2
        lean = lower_order_F(u, ux, ut, ubar, ubar_x, 2.0, theta)
        assert lean.tobytes() == oracles.lower_order_F(u, ux, ut, ubar, ubar_x, 2.0,
                                                       theta).tobytes()


def compiled_setup(physics, nx, seed, amplitude, negative=False):
    """lean_setup of physics given as a list of (a, k, theta, u0 / a), and a
    StepWork of its state."""
    terms, reference_terms, state, rng = lean_setup(
        nx, [(a, k, theta, fraction * a) for a, k, theta, fraction in physics], seed, amplitude,
        negative)
    return terms, reference_terms, state, StepWork(state), rng


def serial_max(values) -> float:
    """The max of |x| over `values` as _lw.c's nan_max takes it, in node order
    from -1.0: NaN as soon as one value is NaN, and then the last NaN."""
    top = -1.0
    for x in values.tolist():
        if abs(x) > top or x != x:
            top = abs(x)
    return top


def quiet_nan(payload: int) -> float:
    """A quiet NaN that carries `payload`, so that which NaN comes out shows."""
    return float(np.array(0x7FF8000000000000 | payload, dtype=np.uint64).view(np.float64))


def load_two(work, terms, state, rng):
    """Loads two members: drawn disturbances, guard 1e3, half the CFL step, no
    snapshot time or t_end, and the wave speeds of `state`."""
    never = [math.inf] * 2
    work.load(disturbances(rng, 2), speed=wave_speed(terms, state), guard=[1e3] * 2,
              cfl_dx=[0.5 * (state.xs[1] - state.xs[0])] * 2, t_snap=never, t_end=never)


def stepped_maxima(work, records, terms, row) -> tuple:
    """The recorded max|u|, max|u_x|, max|u_t| and max|ubar + u| of `row` after
    a call of `step` from index 1 whose state was not one of work's, and
    serial_max of the state that the step wrote; each as float64 bytes."""
    u, v, w = (x[row] for x in work.views[1])
    got = [*records[[RECORDS.index(name) for name in ("max_u", "max_ux", "max_ut")], row, 1],
           work.values["top"][row]]
    want = [serial_max(x) for x in (u, w, v, terms.ubar[row] + u)]
    return np.array(got).tobytes(), np.array(want).tobytes()


class TestCompiledStep:
    """The compiled loop gives what the NumPy step oracles.step gives,
    checks what it is given, and fails, and takes its maxima, as that step does."""

    @given(*calls(0.1))
    @example([(2.0, 4.0, 0.1, 0.15)], 16, 0, 1e-3, 1, [1.0, 0.5, 1.0, 0.25, 1.0, 0.75])
    # member 0 leaves its guard in a call's middle, and the next call fails
    @example([(1.0, 1.0, 0.0, 0.1875), (1.0, 1.0, 0.0, 0.25)], 16, 583826, 0.0625, 2,
             [1.0, 1.0, 1.0, 1.0, 1.0, 0.375])
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy_step(self, physics, nx, seed, amplitude, rows, fractions):
        # ubar + u > 0 throughout, as in a run's states
        assert_calls_match_allocating_step(physics, nx, seed, amplitude, False, rows, fractions)

    def test_terms_of_another_batch_are_rejected(self):
        # the compiled loop reads the terms through raw pointers: their shapes are checked
        physics = [(2.0, 4.0, 0.1, 0.15), (1.5, 8.0, 0.6, 0.2)]
        _, _, state, work, _ = compiled_setup(physics, 24, 0, 1e-3)
        terms = compiled_setup(physics + physics[:1], 24, 0, 1e-3)[0]
        with pytest.raises(ValueError, match="C-contiguous float64 array of shape"):
            step(state, terms, work, records_of(2, 2), 1)

    def test_records_out_of_reach_are_rejected(self):
        # the compiled loop writes the records through a raw pointer: a step
        # index outside them, records of another batch's members, or records
        # of another layout, is refused
        physics = [(2.0, 4.0, 0.1, 0.15), (1.5, 8.0, 0.6, 0.2)]
        terms, _, state, work, _ = compiled_setup(physics, 24, 0, 1e-3)
        records = records_of(2, 4)
        for bad, index in ((records, 4), (records, -1), (records_of(1, 4), 1),
                           (records_of(3, 4), 1), (records[:7], 1), (records[:, :, :3], 1),
                           (records.astype(np.float32), 1)):
            with pytest.raises(ValueError):
                step(state, terms, work, bad, index)
        with pytest.raises(ValueError, match="outside records of shape"):
            step(state, terms, work, records, 4)

    @pytest.mark.parametrize("field", ["u", "v", "w"])
    @pytest.mark.parametrize("row", [0, 2])
    def test_nan_member_fails_alone(self, field, row):
        # a NaN in v or w reaches u within the step; only its member fails,
        # with the allocating step's message, the input state is kept, and
        # the others take that step as the allocating step takes it for them
        physics = [(2.0, 4.0, 0.1, 0.15), (ODD_A, 2.5, 0.0, 0.1), (1.5, 8.0, 0.6, 0.2)]
        terms, reference_terms, state, work, rng = compiled_setup(physics, 24, 7, 1e-3)
        getattr(state, field)[row, 12] = np.nan
        state, before = copied(state), copied(state)
        dx = state.xs[1] - state.xs[0]
        specs, guard, never = disturbances(rng, 3), [1e3] * 3, [math.inf] * 3
        speed = wave_speed(terms, state)
        work.load(specs, speed=speed, guard=guard, cfl_dx=[0.5 * dx] * 3, t_snap=never,
                  t_end=never)
        dt = time_steps(work, state)
        new = step(state, terms, work, records_of(3, 2), 1)
        assert work.taken == 1
        with pytest.raises(BlowUpError) as reference:
            oracles.step(copied(state), reference_terms, boundary(specs, state, dt), dt, guard,
                         speed)
        assert reference.value.failed == {row: str(reference.value)}
        compiled = [failure(work, member) for member in range(3)]
        assert type(compiled[row]) is BlowUpError and str(compiled[row]) == str(reference.value)
        assert "max|u| = nan" in str(compiled[row])
        assert_same_state(state, before)
        others = [member for member in range(3) if member != row]
        assert [compiled[member] for member in others] == [None, None]
        alone = member_terms(physics, state.xs)
        sub, sub_dt = oracles._select(before, others), [dt[m] for m in others]
        want, _ = oracles.step(sub, oracles.stack_terms([alone[m] for m in others]),
                               boundary([specs[m] for m in others], sub, sub_dt), sub_dt,
                               guard[:2], [speed[m] for m in others])
        assert_same_rows(new, others, want)

    # nx = 60: the maxima kernel's 8 lanes take nodes 0-55 and its tail 56-60
    @pytest.mark.parametrize("node", [20, 57], ids=["body", "tail"])
    def test_nan_maxima_are_taken_in_node_order(self, node):
        # a NaN in the new state makes the step take its maxima again in node
        # order: the member fails its guard at that step, and the records hold
        # the NaN that the serial maximum gives, the last one, not the first
        physics = [(2.0, 4.0, 0.1, 0.15), (1.5, 8.0, 0.6, 0.2)]
        terms, _, state, work, rng = compiled_setup(physics, 60, 7, 1e-3)
        load_two(work, terms, state, rng)
        state.u[1, node], state.w[1, node + 1] = quiet_nan(5), quiet_nan(9)
        records = records_of(2, 2)
        step(state, terms, work, records, 1)
        assert failure(work, 0) is None
        failed = failure(work, 1)
        assert type(failed) is BlowUpError and str(failed).startswith("max|u| = nan ")
        assert f"at t={records[0, 1, 1]:.6g};" in str(failed)
        for row in (0, 1):
            got, want = stepped_maxima(work, records, terms, row)
            assert got == want
        # the NaNs lie in the part of the nodes named, and differ
        where = np.isnan(np.array(work.views[1])[:, 1]).nonzero()[1]
        assert (where < 56).all() if node < 56 else (where >= 56).all()
        u = work.views[1][0][1]
        nans = np.abs(u[np.isnan(u)])
        assert nans[-1].tobytes() != nans[0].tobytes()

    def test_sums_start_from_negative_zero(self):
        # k negated in the terms (PipeParams refuses k < 0) makes every E1 term
        # of a zero state -0.0: the recorded E1 is then -0.0, one thread or
        # two, as energy_E1's, which a sum started from +0.0 would make +0.0
        params, profile, xs = make_setup(nx=60)
        terms = profile_terms([(profile, params)])
        terms.coefficients[2] = -params.k
        zero = np.zeros((1, len(xs)))
        state = FieldState([0.0], xs, zero, zero.copy(), zero.copy())
        for threads in (1, 2):
            work = StepWork(state, threads)
            work.load([DisturbanceSpec()], speed=wave_speed(terms, state), guard=[1.0],
                      cfl_dx=[0.45 * (xs[1] - xs[0])], t_snap=[math.inf], t_end=[math.inf])
            records = records_of(1, 4)
            step(state, terms, work, records, 1)
            assert not np.array(work.views[1]).any()
            e1 = records[RECORDS.index("E1"), 0, 1:]
            assert not e1.any() and np.signbit(e1).all()
        e1 = energy_E1(state, profile, -params.k, params.a, Quadrature(xs))
        assert e1 == 0.0 and np.signbit(e1)

    def test_infinite_maxima_without_nan(self):
        # each member's boundary closure divides by zero: the left one of member
        # 0 makes u, v and w -inf at x = 0, and it fails its guard; the right
        # one of member 1 makes w +inf at x = L.  No NaN, so the lanes'
        # maxima stand, and are the serial ones.  Split between two threads at
        # node 32, member 0's infinities are the caller's and member 1's the
        # helper's, and the records and the state are one thread's bit for bit
        physics = [(2.0, 4.0, 0.1, 0.15), (1.5, 8.0, 0.6, 0.2)]
        terms, _, state, _, rng = compiled_setup(physics, 60, 7, 1e-3)
        (a0, k0), a1 = physics[0][:2], physics[1][0]
        ubar_0, ubar_1 = terms.ubar[0, 0], terms.ubar[1, -1]
        u0, u1 = -1.0 / k0 - a0 - ubar_0, a1 - ubar_1
        while 1.0 + k0 * (a0 + (ubar_0 + u0)) != 0.0:      # 1 + k c_out at x = 0
            u0 = math.nextafter(u0, math.inf)
        while a1 - (ubar_1 + u1) != 0.0:                    # c_out at x = L
            u1 = math.nextafter(u1, math.inf)
        state.u[0, 0], state.u[1, -1] = u0, u1
        drawn, written = rng.bit_generator.state, []
        for threads in (1, 2):
            work = StepWork(state, threads)
            assert work.split == (61 if threads == 1 else 32)
            rng.bit_generator.state = drawn
            load_two(work, terms, state, rng)
            records = records_of(2, 2)
            step(state, terms, work, records, 1)
            assert type(failure(work, 0)) is BlowUpError and failure(work, 1) is None
            assert str(failure(work, 0)).startswith("max|u| = inf ")
            new = np.array(work.views[1])
            assert not np.isnan(new).any()
            assert [np.isinf(x[0]).nonzero()[0].tolist() for x in new] == [[0]] * 3
            assert [x.tolist() for x in np.isinf(new[:, 1]).nonzero()] == [[2], [60]]
            assert (new[0, 0, 0], new[2, 1, 60]) == (-math.inf, math.inf)
            for row in (0, 1):
                got, want = stepped_maxima(work, records, terms, row)
                assert got == want
            assert records[RECORDS.index("max_ux"), :, 1].tolist() == [math.inf] * 2
            written.append((records[:, :, 1].tobytes(), new.tobytes(), work.io.tobytes()))
        assert written[1] == written[0]


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
