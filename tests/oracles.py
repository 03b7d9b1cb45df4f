"""Independent oracles shared by the test modules."""

from dataclasses import fields

import numpy as np

from pipestab.disturbance import sample_b
from pipestab.dynamics import (BlowUpError, CFLError, FieldState, ProfileTerms, SolverError,
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
# below runs one member the way that solver did.


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
    if state.u.ndim == 1:
        t, u, v, w = state.t, state.u, state.v, state.w
    else:
        t, u, v, w = float(state.t[row, 0]), state.u[row], state.v[row], state.w[row]
    return FieldState(t, state.xs, u.copy(), v.copy(), w.copy())


def _select(state: FieldState, rows: list) -> FieldState:
    """The members at `rows`; a single member becomes a 1-D state."""
    if state.u.ndim == 1 or len(rows) == len(state.u) > 1:
        return state
    if len(rows) == 1:
        return _row(state, rows[0])
    return FieldState(state.t[rows], state.xs, state.u[rows], state.v[rows], state.w[rows])


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


def wave_speed(terms: ProfileTerms, state: FieldState):
    """Fastest characteristic speed max|ubar + u| + a of a state, per member."""
    return _row_max(np.abs(terms.ubar + state.u) + terms.a)


def step(state: FieldState, terms: ProfileTerms, b_now, dt, guard, speed) -> FieldState:
    """Advance the state by one Lax-Wendroff step of size dt.

    `terms` is profile_terms of the run, b_now = (b, b_t) evaluated at the
    new time t + dt, `guard` the bound on max|u| and `speed` is
    wave_speed(terms, state).  For a batch, `terms` comes from stack_terms,
    and dt, b_now, guard and speed are (B, 1) columns.  A CFL violation
    raises CFLError before the step, a member outside the guard
    BlowUpError after it; `failed` names every such member.
    """
    a, a2, k, theta = terms.a, terms.a2, terms.k, terms.theta
    xs = state.xs
    dx = xs[1] - xs[0]
    u, v, w = state.u, state.v, state.w

    lo, hi, mid = _SLICES[u.ndim]

    cfl = dt * speed / dx
    _fail(CFLError, cfl > 1.0 + 1e-12, lambda i: (
        f"CFL violation at t={_members(state.t)[i]:.6g}: dt*speed/dx = {_members(cfl)[i]:.4f}"))

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

    new = FieldState(t=state.t + dt, xs=xs, u=u_new, v=v_new, w=w_new)
    # written so that NaN fails too
    _fail(BlowUpError, np.logical_not(new.max_abs_u <= guard), lambda i: (
        f"max|u| = {_members(new.max_abs_u)[i]:.4g} left the guard {_members(guard)[i]:.4g} "
        f"at t={_members(new.t)[i]:.6g}; the run left the regime of validity"))
    return new


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
        except ValueError as exc:
            results[slot] = exc
    for run in active:
        run.records = {}

    def record(state, bs, bts):
        for row, (run, t, top) in enumerate(zip(active, _members(state.t),
                                                _members(state.max_abs_u))):
            u, v, w = ((state.u, state.v, state.w) if state.u.ndim == 1
                       else (state.u[row], state.v[row], state.w[row]))
            _per_step_record(run, u, v, w, t, top, bs[row], bts[row], quad)

    rows = list(range(len(active)))
    state = _select(FieldState(np.zeros((len(active), 1)), xs,
                               *(np.stack([run.initial[f] for run in active]) for f in range(3))),
                    rows)
    terms, guard = stack_terms([run.terms for run in active]), _column([r.guard for r in active])
    b0 = [sample_b(run.spec, 0.0)[:2] for run in active]
    record(state, [b for b, _ in b0], [bt for _, bt in b0])
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
            guard = _column([run.guard for run in active])
            ended = {}

        speed = wave_speed(terms, state)
        dts, bs, bts = [], [], []
        for run, s in zip(active, _members(speed)):
            dt = min(run.cfl_dx / s, run.t_snap - run.t)
            b_val, bt_val, _ = sample_b(run.spec, run.t + dt)
            dts.append(dt)
            bs.append(b_val)
            bts.append(bt_val)
        try:
            state = step(state, terms, (_column(bs), _column(bts)), _column(dts), guard, speed)
        except SolverError as exc:
            ended = {row: type(exc)(message) for row, message in exc.failed.items()}
            continue

        steps += 1
        record(state, bs, bts)
        for row, (run, t) in enumerate(zip(active, _members(state.t))):
            run.t = t
            if t >= run.t_snap - 1e-12:
                run.snapshot(_row(state, row), steps, quad)
            if not t < run.t_end - 1e-12:
                ended[row] = None
