"""Independent oracles shared by the test modules."""

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from pipestab.disturbance import NOISE_REL_SLACK, sample_b
from numpy import absolute, add, divide, multiply, square, subtract

from pipestab import dynamics
from pipestab.dynamics import (BlowUpError, CFLError, FieldState, SolverError, StepWork,
                               Trajectory, _Run, stationary_forcing)
from pipestab.lyapunov import Quadrature
from pipestab.stationary import PipeParams, StationaryProfile, stationary_ode_rhs


def lower_order_F_expanded(u, ux, ut, ubar, ubar_x, a, theta):
    """Expanded polynomial form of F, valid for ubar > 0 and ubar + u >= 0."""
    d_bar = a ** 2 - np.asarray(ubar, dtype=float) ** 2
    if np.any(d_bar <= 0):
        raise ValueError("stationary state must be subsonic: a^2 - ubar^2 > 0")
    sx = ux + ubar_x
    return (-2.0 * ut * sx
            - theta * (u + ubar) * ut
            - 2.0 * u * sx ** 2
            - 4.0 * ubar * ubar_x * ux
            - 2.0 * ubar * ux ** 2
            - 1.5 * theta * u * (u + 2.0 * ubar) * sx
            - 1.5 * theta * ubar ** 2 * ux
            - (2.0 * u * ubar + u ** 2) / d_bar
            * (2.0 * ubar * ubar_x ** 2 + 1.5 * theta * ubar ** 2 * ubar_x))


def trapz_intervals(y, x):
    """Composite trapezoid summed interval by interval from the grid spacing."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def windowed_series_concat(series, times, T_period):
    """windowed_series as one expression over fresh arrays."""
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (series[1:] + series[:-1]) * np.diff(times))])
    return cum - np.interp(times - T_period, times, cum)


def verify_noise_bound_masked(times, b, b_t, T_period, nu, C_nu):
    """verify_noise_bound's result from boolean-mask copies and fresh arrays."""
    integrand = b ** 2 + b_t ** 2
    sel = times - T_period >= times[0] - 1e-12
    t_w, w = times[sel], windowed_series_concat(integrand, times, T_period)[sel]
    envelope = C_nu * np.exp(-nu * t_w)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(envelope > 0, w / envelope, np.inf)
    worst = float(np.max(ratios)) if len(ratios) else 0.0
    if np.all(w == 0.0):
        worst = 0.0
    minimal_C = float(np.max(w * np.exp(nu * t_w))) if len(t_w) else 0.0
    return {"worst_ratio": worst, "pass": worst <= 1.0 + NOISE_REL_SLACK,
            "minimal_C_nu": minimal_C}


def decay_margins_masked(times, E_series, H_series, constants, T_period, L):
    """verify_decay_bounds's pointwise checks, from boolean-mask copies and
    fresh arrays: its energy_bound_ok, h1_bound_ok and worst margins."""
    sel = times >= T_period - 1e-12
    E_Tp = float(np.interp(T_period, times, E_series))
    times, E_series, H_series = times[sel], E_series[sel], H_series[sel]
    bracket = E_Tp + constants.Cg / constants.delta
    bound_E = np.exp(-constants.mu * (times - T_period)) * bracket
    bound_H = constants.K1 * bound_E + 2.0 * L * constants.C_nu * np.exp(-constants.nu * times)
    slack_E = 1e-12 * max(float(np.max(np.abs(bound_E))), 1e-300)
    slack_H = 1e-12 * max(float(np.max(np.abs(bound_H))), 1e-300)
    margin_E, margin_H = bound_E - E_series, bound_H - H_series
    return {"energy_bound_ok": bool(np.all(margin_E >= -slack_E)),
            "h1_bound_ok": bool(np.all(margin_H >= -slack_H)) if np.isfinite(constants.K1) else None,
            "worst_energy_margin": float(np.min(margin_E)),
            "worst_h1_margin": float(np.min(margin_H))}


def polyfit_decay_rate(series, times, window=None):
    """fit_decay_rate by np.polyfit on boolean-mask selections."""
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    if window is not None:
        sel = (times >= window[0]) & (times <= window[1])
        times, series = times[sel], series[sel]
    usable = series > 0
    n_excluded = int(np.sum(~usable))
    times, y = times[usable], np.log(series[usable])
    if len(y) < 8:
        raise ValueError(f"need at least 8 positive samples, have {len(y)}")
    slope, intercept = np.polyfit(times, y, 1)
    resid = y - (slope * times + intercept)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return {"rate": -float(slope), "intercept": float(intercept),
            "r_squared": r2, "n_excluded": n_excluded}


def verify_stationary_ode(profile: StationaryProfile, params: PipeParams,
                          substeps_per_cell: int = 4) -> float:
    """Max relative deviation between the Lambert-W profile and an RK4 solve.

    Integrates the stationary ODE from ubar(0) with classical RK4 at
    substeps_per_cell times the grid resolution and compares at the grid
    points.  Diagnostic cross-check; never raises.
    """
    xs = profile.xs
    u = float(profile.ubar[0])
    worst = 0.0
    for i in range(len(xs) - 1):
        h = (xs[i + 1] - xs[i]) / substeps_per_cell
        for _ in range(substeps_per_cell):
            k1 = stationary_ode_rhs(u, params)
            k2 = stationary_ode_rhs(u + 0.5 * h * k1, params)
            k3 = stationary_ode_rhs(u + 0.5 * h * k2, params)
            k4 = stationary_ode_rhs(u + h * k3, params)
            u = u + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        worst = max(worst, abs(u - profile.ubar[i + 1]) / abs(profile.ubar[i + 1]))
    return worst


# The allocating Lax-Wendroff step that the work-set step replaced, with
# the helpers and formulas it called, kept verbatim: the lean step must
# give its u, v and w bit for bit.  The batch helpers are those of the
# solver that held a single member in 1-D arrays, so the per-step record
# below runs one member the way that solver did.  Its terms are built
# member by member and then stacked, as that solver built them: the rows
# of a batch's profile_terms must equal them bit for bit.  Inside, a
# per-member value is a float for one member and a (B, 1) column for a
# batch, as in that solver; at the interface it is a list, one float per
# member, as `dynamics` passes it.


def _row_max(x):
    """Max over the last axis: a float for one member, a (B, 1) column for a batch."""
    return float(x.max()) if x.ndim == 1 else x.max(axis=-1, keepdims=True)


def _members(x) -> list:
    """Per-member values of a float (one member) or a (B, 1) column."""
    return x.ravel().tolist() if isinstance(x, np.ndarray) else [x]


def _column(values: list):
    """Inverse of _members: one member's value itself, else a (B, 1) column."""
    return values[0] if len(values) == 1 else np.array(values)[:, None]


def _row(state: FieldState, row: int) -> FieldState:
    """One member of a state, its arrays copied out of the batch or the work set."""
    u, v, w = ((state.u, state.v, state.w) if state.u.ndim == 1
               else (state.u[row], state.v[row], state.w[row]))
    return FieldState(state.t[row], state.xs, u.copy(), v.copy(), w.copy())


def _select(state: FieldState, rows: list) -> FieldState:
    """The members at `rows`; a single member becomes a 1-D state."""
    if state.u.ndim == 1 or len(rows) == len(state.u) > 1:
        return state
    if len(rows) == 1:
        one = _row(state, rows[0])
        return FieldState([one.t], one.xs, one.u, one.v, one.w)
    return FieldState([state.t[row] for row in rows], state.xs,
                      state.u[rows], state.v[rows], state.w[rows])


@dataclass(frozen=True)
class ProfileTerms:
    """The time-independent values `step` reads, built for one member by
    profile_terms; stack_terms gives those of a batch."""

    ubar: np.ndarray        # ubar at the nodes
    ubar_m: np.ndarray      # ubar and ubar_x averaged onto the midpoints
    ubarx_m: np.ndarray
    forcing_m: tuple        # stationary_forcing on the midpoints
    ubar_i: np.ndarray      # ubar and ubar_x at the interior nodes
    ubarx_i: np.ndarray
    forcing_i: tuple        # stationary_forcing at the interior nodes
    ubar_0: float           # ubar at x = 0 and at x = L
    ubar_L: float
    a: float
    a2: np.ndarray          # a ** 2, as lower_order_F writes it, theta and
    k: float                # 1.5 * theta: 0-d arrays, for the per-step ufuncs
    theta: np.ndarray
    theta_1_5: np.ndarray

    @cached_property
    def ends(self) -> list:
        """Each member's (a, k, ubar_0, ubar_L) in floats, for the boundary closure."""
        return list(zip(*map(_members, (self.a, self.k, self.ubar_0, self.ubar_L))))


def profile_terms(profile: StationaryProfile, params: PipeParams) -> ProfileTerms:
    ubar, ubar_x = profile.ubar, profile.ubar_x
    a, theta = params.a, params.theta
    ubar_m = 0.5 * (ubar[:-1] + ubar[1:])
    ubarx_m = 0.5 * (ubar_x[:-1] + ubar_x[1:])
    ubar_i, ubarx_i = ubar[1:-1], ubar_x[1:-1]
    return ProfileTerms(
        ubar, ubar_m, ubarx_m, stationary_forcing(ubar_m, ubarx_m, a, theta),
        ubar_i, ubarx_i, stationary_forcing(ubar_i, ubarx_i, a, theta),
        float(ubar[0]), float(ubar[-1]), a, np.array(a ** 2), params.k, np.array(theta),
        np.array(1.5 * theta))


def stack_terms(terms: list) -> ProfileTerms:
    """The terms of a batch, from the members' own terms."""
    if len(terms) == 1:
        return terms[0]

    def stack(values):
        if isinstance(values[0], tuple):
            return tuple(stack(parts) for parts in zip(*values))
        if isinstance(values[0], np.ndarray) and values[0].ndim:
            return np.stack(values)
        return _column(values)

    return ProfileTerms(*(stack([getattr(t, f.name) for t in terms])
                          for f in fields(ProfileTerms)))


def _fail(error, bad, message):
    """Raise `error` if `bad` flags a member (a bool, or a column for a
    batch); message(row) names the values of the member at `row`."""
    if isinstance(bad, np.ndarray):
        rows = np.flatnonzero(bad).tolist()
    else:
        rows = [0] if bad else []
    if rows:
        failed = {row: message(row) for row in rows}
        raise error(failed[rows[0]], failed)


# Index expressions by state dimension, so that one `step` serves a single
# member (1-D arrays, scalar boundary values) and a batch ((B, 1) columns
# at the boundary): the slices [:-1], [1:] and [1:-1] along the last axis,
# then the boundary nodes 0, 1, 2, -3, -2, -1.
_SLICES = {1: (np.s_[:-1], np.s_[1:], np.s_[1:-1]),
           2: (np.s_[:, :-1], np.s_[:, 1:], np.s_[:, 1:-1])}
_EDGES = {1: (0, 1, 2, -3, -2, -1),
          2: tuple(np.s_[:, j:j + 1 or None] for j in (0, 1, 2, -3, -2, -1))}


def f_tilde(u_val, ux_val, ut_val, theta):
    """Lower-order term of the wave equation for the full velocity."""
    abs_u = np.abs(u_val)
    return (-2.0 * ut_val * ux_val
            - 2.0 * u_val * ux_val ** 2
            - 1.5 * theta * u_val * abs_u * ux_val
            - theta * abs_u * ut_val)


def lower_order_F(u, ux, ut, ubar, ubar_x, a, theta, forcing=None, shared=None):
    """Lower-order term of the perturbation equation, definitional form.

    F = F~(u+ubar, u_x+ubar_x, u_t)
        - [(a^2 - (ubar+u)^2)/(a^2 - ubar^2)] * F~(ubar, ubar_x, 0).

    `forcing` is stationary_forcing(ubar, ubar_x, a, theta) and `shared`
    is (ubar + u, a ** 2 - (ubar + u) ** 2), which `step` needs too; each
    is computed here when not given.
    """
    if forcing is None:
        forcing = stationary_forcing(ubar, ubar_x, a, theta)
    if shared is None:
        m = ubar + u
        shared = m, a ** 2 - m ** 2
    d_bar, f_bar = forcing
    m, d = shared
    return f_tilde(m, ux + ubar_x, ut, theta) - (d / d_bar) * f_bar


def wave_speed(terms: ProfileTerms, state: FieldState) -> list:
    """Fastest characteristic speed max|ubar + u| + a of a state, per member."""
    return _members(_row_max(np.abs(terms.ubar + state.u) + terms.a))


def step(state: FieldState, terms: ProfileTerms, b_now, dt, guard, speed):
    """Advance the state by one Lax-Wendroff step of size dt; returns the
    new state and its max|u|.

    `terms` is profile_terms of the run, b_now = (b, b_t) evaluated at the
    new time t + dt, `guard` the bound on max|u| and `speed` is
    wave_speed(terms, state).  For a batch, `terms` comes from stack_terms.
    The state's t, dt, b and b_t, guard, speed and the max|u| returned are
    lists, one float per member.  A CFL violation raises CFLError before
    the step, a member outside the guard BlowUpError after it; `failed`
    names every such member.
    """
    t, dt, guard, speed = map(_column, (state.t, dt, guard, speed))
    b_now = tuple(map(_column, b_now))
    a, a2, k, theta = terms.a, terms.a2, terms.k, terms.theta
    xs = state.xs
    dx = xs[1] - xs[0]
    u, v, w = state.u, state.v, state.w

    lo, hi, mid = _SLICES[u.ndim]

    cfl = dt * speed / dx
    _fail(CFLError, cfl > 1.0 + 1e-12, lambda i: (
        f"CFL violation at t={_members(t)[i]:.6g}: dt*speed/dx = {_members(cfl)[i]:.4f}"))

    # predictor: provisional values at (x_{j+1/2}, t + dt/2)
    um = 0.5 * (u[lo] + u[hi])
    vm = 0.5 * (v[lo] + v[hi])
    wm = 0.5 * (w[lo] + w[hi])
    mm = terms.ubar_m + um
    dm = a2 - mm ** 2
    Fm = lower_order_F(um, wm, vm, terms.ubar_m, terms.ubarx_m, a, theta,
                       terms.forcing_m, (mm, dm))
    dv = v[hi] - v[lo]
    dw = w[hi] - w[lo]
    r = dt / (2.0 * dx)
    v_h = vm - r * (2.0 * mm * dv - dm * dw) + 0.5 * dt * Fm
    w_h = wm + r * dv
    u_h = um + 0.5 * dt * v_h

    # corrector at interior nodes, coefficients at the half-time level
    u_star = 0.5 * (u_h[lo] + u_h[hi])
    v_star = 0.5 * (v_h[lo] + v_h[hi])
    w_star = 0.5 * (w_h[lo] + w_h[hi])
    m_star = terms.ubar_i + u_star
    d_star = a2 - m_star ** 2
    F_star = lower_order_F(u_star, w_star, v_star, terms.ubar_i, terms.ubarx_i, a, theta,
                           terms.forcing_i, (m_star, d_star))
    dv_h = v_h[hi] - v_h[lo]
    dw_h = w_h[hi] - w_h[lo]
    v_new = np.empty_like(v)
    w_new = np.empty_like(w)
    v_new[mid] = v[mid] - (dt / dx) * (2.0 * m_star * dv_h - d_star * dw_h) + dt * F_star
    w_new[mid] = w[mid] + (dt / dx) * dv_h

    # left boundary: feedback w = k v plus extrapolated outgoing characteristic
    n0, n1, n2, nL2, nL1, nL = _EDGES[u.ndim]
    mb = terms.ubar_0 + u[n0]
    c_out = a + mb            # - d / lambda_-, frozen at the boundary speed
    r1 = v_new[n1] + c_out * w_new[n1]
    r2 = v_new[n2] + c_out * w_new[n2]
    r0 = 2.0 * r1 - r2
    v_new[n0] = r0 / (1.0 + k * c_out)
    w_new[n0] = k * v_new[n0]

    # right boundary: Dirichlet trace drives v = b_t plus outgoing characteristic
    b_val, bt_val = b_now
    mb = terms.ubar_L + u[nL]
    c_out = a - mb            # d / lambda_+, frozen at the boundary speed
    r1 = v_new[nL1] - c_out * w_new[nL1]
    r2 = v_new[nL2] - c_out * w_new[nL2]
    rL = 2.0 * r1 - r2
    v_new[nL] = bt_val
    w_new[nL] = (v_new[nL] - rL) / c_out

    u_new = u + 0.5 * dt * (v + v_new)

    new = FieldState(t=_members(t + dt), xs=xs, u=u_new, v=v_new, w=w_new)
    max_u = _row_max(np.abs(u_new))
    # written so that NaN fails too
    _fail(BlowUpError, np.logical_not(max_u <= guard), lambda i: (
        f"max|u| = {_members(max_u)[i]:.4g} left the guard {_members(guard)[i]:.4g} "
        f"at t={new.t[i]:.6g}; the run left the regime of validity"))
    return new, _members(max_u)


# The per-step record that the block record replaced: every step's E1, H1
# integrand and maxima taken from that step's state alone, member by
# member, each integral one np.dot, in the loop `simulate_batch` ran
# before, stepping with the allocating step above.

def _per_step_record(run, u, v, w, t, max_u, b, b_t, quad):
    m = run.terms.ubar + u
    w2 = w ** 2
    e1 = run.k * ((run.a * run.a - m ** 2) * w2 + v ** 2) - (2.0 * quad.decay) * (m * w2 + v * w)
    h1 = (u ** 2 + v ** 2) + w ** 2
    values = (t, float(np.dot(e1, quad.weights)), float(np.dot(h1, quad.weights)), max_u,
              float(np.max(np.abs(w))), float(np.max(np.abs(v))), b, b_t)
    for name, value in zip(("t", "E1", "h1", "max_u", "max_ux", "max_ut", "b", "b_t"), values):
        run.records.setdefault(name, []).append(value)


def _per_step_trajectory(run) -> Trajectory:
    rec = {name: np.array(values) for name, values in run.records.items()}
    series = {name: rec[name] for name in ("E1", "h1", "max_u", "max_ux", "max_ut")}
    series["E_classic"] = np.asarray(run.E_classic)
    series["grad"] = np.asarray(run.grad)
    return Trajectory(states=run.states, times=rec["t"], series=series,
                      boundary={"b": rec["b"], "b_t": rec["b_t"]},
                      snap_index=np.asarray(run.snap_index))


def simulate_batch_per_step(members: list) -> list:
    """simulate_batch with a per-step record: one result per member, its
    Trajectory or the error that ended it."""
    nx, L = members[0].config.nx, members[0].params.L
    xs = np.linspace(0.0, L, nx + 1)
    quad = Quadrature(xs)
    results = [None] * len(members)
    active = []
    for slot, member in enumerate(members):
        try:
            active.append(_Run(slot, member, xs))
        except (ValueError, BlowUpError) as exc:
            results[slot] = exc
    if not active:
        return results
    for run in active:
        run.records = {}
        run.terms = profile_terms(members[run.slot].profile, members[run.slot].params)

    def record(state, max_u, bs, bts):
        for row, (run, t, top) in enumerate(zip(active, state.t, max_u)):
            u, v, w = ((state.u, state.v, state.w) if state.u.ndim == 1
                       else (state.u[row], state.v[row], state.w[row]))
            _per_step_record(run, u, v, w, t, top, bs[row], bts[row], quad)

    rows = list(range(len(active)))
    state = _select(FieldState([0.0] * len(active), xs,
                               *(np.stack([run.initial[f] for run in active]) for f in range(3))),
                    rows)
    terms, guard = stack_terms([run.terms for run in active]), [r.guard for r in active]
    b0 = [sample_b(run.spec, 0.0)[:2] for run in active]
    record(state, _members(_row_max(np.abs(state.u))), [b for b, _ in b0], [bt for _, bt in b0])
    for row, run in enumerate(active):
        run.snapshot(_row(state, row), 0, quad)

    steps = 0
    ended = {row: None for row, run in enumerate(active) if not run.t < run.t_end - 1e-12}
    while True:
        if ended:
            for row, error in ended.items():
                run = active[row]
                results[run.slot] = _per_step_trajectory(run) if error is None else error
            rows = [row for row in range(len(active)) if row not in ended]
            active = [active[row] for row in rows]
            if not active:
                return results
            state = _select(state, rows)
            terms = stack_terms([run.terms for run in active])
            guard = [run.guard for run in active]
            ended = {}

        speed = wave_speed(terms, state)
        dts, bs, bts = [], [], []
        for run, s in zip(active, speed):
            dt = min(run.cfl_dx / s, run.t_snap - run.t)
            b_val, bt_val, _ = sample_b(run.spec, run.t + dt)
            dts.append(dt)
            bs.append(b_val)
            bts.append(bt_val)
        try:
            state, max_u = step(state, terms, (bs, bts), dts, guard, speed)
        except SolverError as exc:
            ended = {row: type(exc)(message) for row, message in exc.failed.items()}
            continue

        steps += 1
        record(state, max_u, bs, bts)
        for row, (run, t) in enumerate(zip(active, state.t)):
            run.t = t
            if t >= run.t_snap - 1e-12:
                run.snapshot(_row(state, row), steps, quad)
            if not t < run.t_end - 1e-12:
                ended[row] = None


# The NumPy form of the work-set step that the compiled step replaced, kept
# verbatim with the in-place formulas and buffers it used: the compiled
# step must give its u, v, w and max|u| bit for bit.  It reads terms built
# by profile_terms and stack_terms above.

# Constant factors of the per-step path.  NumPy takes a 0-d array operand
# faster than a Python float, and computes the same values from it.
_HALF, _TWO, _MINUS_TWO = np.array(0.5), np.array(2.0), np.array(-2.0)


def _work(count, *operands):
    """`count` fresh arrays of the broadcast shape of `operands`."""
    shape = np.broadcast_shapes(*map(np.shape, operands))
    return tuple(np.empty(shape) for _ in range(count))


def f_tilde_into(u_val, ux_val, ut_val, theta, *, theta_1_5=None, out=None):
    """F~ in place.  `theta_1_5` is 1.5 * theta, computed here when not given.
    `out` is (result, work, 2 u, work): arrays of the result's shape that
    receive F~ and its temporaries, the third keeping 2 u; fresh ones when
    not given."""
    f, abs_u, two_u, t = out or _work(4, u_val, ux_val, ut_val, theta)
    if theta_1_5 is None:
        theta_1_5 = 1.5 * theta
    absolute(u_val, abs_u)
    multiply(_MINUS_TWO, ut_val, f)
    multiply(f, ux_val, f)
    multiply(_TWO, u_val, two_u)
    square(ux_val, t)
    multiply(two_u, t, t)
    subtract(f, t, f)
    multiply(theta_1_5, u_val, t)
    multiply(t, abs_u, t)
    multiply(t, ux_val, t)
    subtract(f, t, f)
    multiply(theta, abs_u, t)
    multiply(t, ut_val, t)
    subtract(f, t, f)
    return f


def lower_order_F_into(u, ux, ut, ubar, ubar_x, a, theta, forcing=None, shared=None, *,
                       theta_1_5=None, out=None):
    """F in place.  `forcing` is stationary_forcing(ubar, ubar_x, a, theta)
    and `shared` is (ubar + u, a ** 2 - (ubar + u) ** 2), which the step
    needs too; each is computed here when not given, as is `theta_1_5` =
    1.5 * theta.  `out` is (result, work, work, 2 (ubar + u), work), arrays
    of the result's shape; fresh ones when not given."""
    if forcing is None:
        forcing = stationary_forcing(ubar, ubar_x, a, theta)
    if shared is None:
        m = ubar + u
        shared = m, a ** 2 - m ** 2
    d_bar, f_bar = forcing
    m, d = shared
    f, x, *work = out or _work(5, u, ux, ut, ubar, ubar_x, theta)
    add(ux, ubar_x, x)
    f_tilde_into(m, x, ut, theta, theta_1_5=theta_1_5, out=(f, *work))
    divide(d, d_bar, x)
    multiply(x, f_bar, x)
    subtract(f, x, f)
    return f


class _Fields:
    """(u, v, w) as one (3, B, n) array, and the views of it the step reads."""

    def __init__(self, uvw):
        self.u, self.v, self.w = uvw
        self.lo, self.hi = uvw[..., :-1], uvw[..., 1:]
        self.vw_lo, self.vw_hi = uvw[1:, ..., :-1], uvw[1:, ..., 1:]
        self.v_mid, self.w_mid = uvw[1:, ..., 1:-1]


class _Half:
    """The temporaries of one half of a step: the rows of one buffer, laid
    out so that ops on two adjacent rows run as one call."""

    ROWS = 13

    def __init__(self, buf):
        self.avg = buf[0:3]                 # (u, v, w) averaged over each cell
        self.um, self.vm, self.wm = self.avg
        self.m = buf[3]                     # ubar + u
        self.md = buf[4:6]                  # (2 m, a^2 - m^2); f_tilde writes 2 m
        self.d = buf[5]
        self.xdv = buf[6:8]                 # (2 m dv - d dw, dv)
        self.dvw = buf[7:9]                 # (v, w) differenced across each cell
        self.x, self.dv = self.xdv
        self.lof = (buf[9], buf[10], buf[11], buf[4], buf[12])   # lower_order_F's result and work
        self.prod = buf[10:12]              # (2 m dv, d dw), once lower_order_F is done
        self.p, self.q = self.prod


class NumpyStepWork(StepWork):
    """StepWork with the slot views and temporaries of the NumPy step: the
    predictor's temporaries are n - 1 wide, the corrector's are n - 2 wide
    views of the leading elements of the same buffer; `full` is work of
    the state's shape."""

    def __init__(self, state: FieldState):
        super().__init__(state)
        shape = state.u.shape
        members, n = shape
        self.slots = [_Fields(self.block[:, j]) for j in range(self.rows + 1)]
        self.half = _Fields(np.empty((3, members, n - 1)))   # (u, v, w) at t + dt/2
        rows = _Half.ROWS * members
        buf = np.empty(rows * (n - 1))
        self.predictor = _Half(buf.reshape(_Half.ROWS, members, n - 1))
        self.corrector = _Half(buf[:rows * (n - 2)].reshape(_Half.ROWS, members, n - 2))
        # dt / (2 dx), dt / 2 (which is 0.5 dt exactly), dt / dx and dt, each
        # a (B, 1) column
        self.divisors = np.reshape([2.0 * self.dx, 2.0, self.dx, 1.0], (4, 1, 1))
        self.coef = np.empty((4, members, 1))
        self.coefs = tuple(self.coef)
        self.full = np.empty(shape)


def _half_step(h: _Half, fields: _Fields, ubar, ubar_x, forcing, terms: ProfileTerms,
               c, e, base, out):
    """One half of a Lax-Wendroff step from the cell averages of `fields`:

    out_v = base_v - c (2 m dv - d dw) + e F,   out_w = base_w + c dv.
    """
    add(fields.lo, fields.hi, h.avg)
    multiply(_HALF, h.avg, h.avg)
    add(ubar, h.um, h.m)
    square(h.m, h.d)
    subtract(terms.a2, h.d, h.d)
    F = lower_order_F_into(h.um, h.wm, h.vm, ubar, ubar_x, terms.a, terms.theta, forcing,
                           (h.m, h.d), theta_1_5=terms.theta_1_5, out=h.lof)
    subtract(fields.vw_hi, fields.vw_lo, h.dvw)
    multiply(h.md, h.dvw, h.prod)
    subtract(h.p, h.q, h.x)
    multiply(c, h.xdv, h.xdv)
    subtract(base[0], h.x, out[0])
    multiply(e, F, h.q)
    add(out[0], h.q, out[0])
    add(base[1], h.dv, out[1])


def numpy_step(state: FieldState, terms: ProfileTerms, b_now, dt, guard, speed,
               work: NumpyStepWork) -> FieldState:
    """`dynamics.step` in NumPy calls, in a NumpyStepWork."""
    cfl = [dt_i * speed_i / work.dx for dt_i, speed_i in zip(dt, speed)]
    rows = [i for i, x in enumerate(cfl) if x > 1.0 + 1e-12]
    if rows:
        failed = {i: f"CFL violation at t={state.t[i]:.6g}: dt*speed/dx = {cfl[i]:.4f}"
                  for i in rows}
        raise CFLError(failed[rows[0]], failed)

    j = work.newest
    if j == work.rows or state.u is not work.slots[j].u:
        work.hold(state)
        j = 0
    src, dst = work.slots[j], work.slots[j + 1]

    # predictor: provisional values at (x_{j+1/2}, t + dt/2)
    divide(np.array(dt)[:, None], work.divisors, work.coef)
    r, half_dt, dt_dx, dt_arr = work.coefs
    pred, half = work.predictor, work.half
    _half_step(pred, src, terms.ubar_m, terms.ubarx_m, terms.forcing_m, terms,
               r, half_dt, (pred.vm, pred.wm), (half.v, half.w))
    multiply(half_dt, half.v, half.u)
    add(pred.um, half.u, half.u)

    # corrector at interior nodes, coefficients at the half-time level
    _half_step(work.corrector, half, terms.ubar_i, terms.ubarx_i, terms.forcing_i, terms,
               dt_dx, dt_arr, (src.v_mid, src.w_mid), (dst.v_mid, dst.w_mid))

    # both ends, member by member in Python floats
    u, v, w = src.u, dst.v, dst.w
    for i, ((a, k, ubar_0, ubar_L), b_t) in enumerate(zip(terms.ends, b_now[1])):
        # left boundary: feedback w = k v plus extrapolated outgoing characteristic
        c_out = a + (ubar_0 + u.item(i, 0))     # - d / lambda_-, frozen at the boundary speed
        r0 = 2.0 * (v.item(i, 1) + c_out * w.item(i, 1)) - (v.item(i, 2) + c_out * w.item(i, 2))
        v[i, 0] = v_0 = r0 / (1.0 + k * c_out)
        w[i, 0] = k * v_0

        # right boundary: Dirichlet trace drives v = b_t plus outgoing characteristic
        c_out = a - (ubar_L + u.item(i, -1))    # d / lambda_+, frozen at the boundary speed
        rL = 2.0 * (v.item(i, -2) - c_out * w.item(i, -2)) - (v.item(i, -3) - c_out * w.item(i, -3))
        v[i, -1] = b_t
        w[i, -1] = (b_t - rL) / c_out

    add(src.v, dst.v, dst.u)
    multiply(half_dt, dst.u, dst.u)
    add(src.u, dst.u, dst.u)
    t = [t_i + dt_i for t_i, dt_i in zip(state.t, dt)]
    top = np.maximum.reduce(absolute(dst.u, work.full), -1).tolist()
    # written so that NaN fails too
    rows = [i for i, (x, bound) in enumerate(zip(top, guard)) if not x <= bound]
    if rows:
        failed = {i: dynamics._left_guard(top[i], guard[i], t[i]) for i in rows}
        raise BlowUpError(failed[rows[0]], failed)
    work.newest = j + 1
    work.pending.append((t, top, *b_now))
    return FieldState(t, state.xs, dst.u, dst.v, dst.w)
