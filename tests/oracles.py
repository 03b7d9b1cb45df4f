"""Independent oracles shared by the test modules."""

import math
from dataclasses import dataclass, fields

import numpy as np

from pipestab.disturbance import NOISE_REL_SLACK, DisturbanceSpec
from pipestab.dynamics import (BlowUpError, CFLError, FieldState, SolverError, Trajectory, _Run,
                               stationary_forcing)
from pipestab.lyapunov import Quadrature
from pipestab.stationary import PipeParams, StationaryProfile, stationary_ode_rhs


# The closed form of the disturbance in Python floats, as `disturbance`
# computed it before the time loop was compiled: the compiled b(t) must
# give its b, b_t and b_tt bit for bit.

def _smoothstep(p: float) -> tuple[float, float, float]:
    """Quintic smoothstep on [0, 1] with vanishing value/slope/curvature at 0.

    Returns (s, s', s'') with respect to p; s == 1 with flat derivatives
    for p >= 1.
    """
    if p <= 0.0:
        return 0.0, 0.0, 0.0
    if p >= 1.0:
        return 1.0, 0.0, 0.0
    s = p ** 3 * (10.0 + p * (-15.0 + 6.0 * p))
    ds = 30.0 * p ** 2 * (1.0 + p * (-2.0 + p))
    dds = 60.0 * p * (1.0 + p * (-3.0 + 2.0 * p))
    return s, ds, dds


def sample_b(spec: DisturbanceSpec, t: float) -> tuple[float, float, float]:
    """Evaluate (b, b_t, b_tt) at time t >= 0 with exact derivatives."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if spec.family == "zero" or spec.amplitude == 0.0:
        return 0.0, 0.0, 0.0

    ramp = 0.5 * spec.T_period
    s, ds, dds = _smoothstep(t / ramp)
    ds /= ramp
    dds /= ramp ** 2

    g_amp = spec.gamma
    om = 2.0 * math.pi * spec.frequency
    ph = spec.phase
    e = math.exp(-g_amp * t)
    sn = math.sin(om * t + ph)
    cs = math.cos(om * t + ph)
    g = e * sn
    dg = e * (-g_amp * sn + om * cs)
    ddg = e * ((g_amp ** 2 - om ** 2) * sn - 2.0 * g_amp * om * cs)

    A = spec.amplitude
    b = A * s * g
    bt = A * (ds * g + s * dg)
    btt = A * (dds * g + 2.0 * ds * dg + s * ddg)

    if spec.family == "compact_burst":
        # C^2 cutoff descending on [t_off - ramp, t_off], identically zero after
        if t >= spec.t_off:
            return 0.0, 0.0, 0.0
        r0 = spec.t_off - ramp
        if t > r0:
            c, dc, ddc = _smoothstep((t - r0) / ramp)
            c, dc, ddc = 1.0 - c, -dc / ramp, -ddc / ramp ** 2
            b, bt, btt = (b * c,
                          bt * c + b * dc,
                          btt * c + 2.0 * bt * dc + b * ddc)
    return b, bt, btt


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


def ordered_sum(terms) -> float:
    """The terms added one after another from -0.0, in Python floats: the
    order of every integral the program takes.  (Not `sum`, which
    compensates float sums from Python 3.12 on.)"""
    total = -0.0
    for x in terms:
        total += x
    return total


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


# The allocating Lax-Wendroff step that the compiled step replaced, with
# the helpers and formulas it called, kept verbatim: the tests' one NumPy
# reference of a step.  The compiled step must give its u, v and w, its
# max|u| and its failures bit for bit.  The batch helpers are those of the
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
    k: float                # 1.5 * theta (the compiled step's coefficients): 0-d arrays
    theta: np.ndarray
    theta_1_5: np.ndarray


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


# The per-step record of the loop `simulate_batch` ran before its loop was
# compiled: every step's E1, H1 integral and maxima taken from that step's
# state alone, member by member, each integral an ordered sum in Python
# floats, stepping with the allocating step above.

def _per_step_record(run, u, v, w, t, max_u, b, b_t, quad):
    m = run.terms.ubar + u
    w2 = w ** 2
    e1 = run.k * ((run.a * run.a - m ** 2) * w2 + v ** 2) - (2.0 * quad.decay) * (m * w2 + v * w)
    h1 = (u ** 2 + v ** 2) + w ** 2
    values = (t, ordered_sum((e1 * quad.weights).tolist()),
              ordered_sum((h1 * quad.weights).tolist()), max_u,
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
        run.t, run.records = 0.0, {}
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
