"""Time integration of the closed-loop quasilinear wave equation.

The second-order equation for the velocity perturbation u is reduced to
first order in (u, v = u_t, w = u_x):

    v_t + 2 (ubar+u) v_x - (a^2 - (ubar+u)^2) w_x = F(x, u, w, v)
    w_t - v_x = 0
    u_t = v

and advanced with a two-step Lax-Wendroff (Richtmyer) scheme.  Boundary
closure: at x = 0 the Neumann feedback w = k v plus the outgoing
characteristic extrapolated from the interior; at x = L the Dirichlet
disturbance drives v = b_t plus the outgoing characteristic.  For the
subsonic regime 0 < ubar+u < a this is exactly one physical and one
numerical relation per end.

The solver runs a batch of scenarios on one grid at once.  A batch state
holds one (B, nx+1) array per field, and every per-member value (time,
time step, parameters, boundary data) is a (B, 1) column; a single
member is held as 1-D arrays and Python floats, so a single run does
the arithmetic of an unbatched solver.  Each member keeps its own time
step and snapshot cadence, and leaves the batch when it ends or fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .disturbance import DisturbanceSpec, sample_b
from .lyapunov import Quadrature, energy_E1, energy_classic, grad_norm, h1_integrand
from .stationary import PipeParams, StationaryProfile


class SolverError(RuntimeError):
    """A numerical failure of one or more members of a step.

    `failed` maps the batch row of each failed member to its own message,
    the message a run of that member alone gives; str(error) is the first.
    """

    def __init__(self, message: str, failed: dict | None = None):
        super().__init__(message)
        self.failed = failed if failed is not None else {0: message}


class BlowUpError(SolverError):
    """Raised when the perturbation leaves the configured amplitude guard."""


class CFLError(SolverError):
    pass


def _row_max(x):
    """Max over the last axis: a float for one member, a (B, 1) column for a batch."""
    return float(x.max()) if x.ndim == 1 else x.max(axis=-1, keepdims=True)


def _members(x) -> list:
    """Per-member values of a float (one member) or a (B, 1) column."""
    return x.ravel().tolist() if isinstance(x, np.ndarray) else [x]


def _column(values: list):
    """Inverse of _members: one member's value itself, else a (B, 1) column."""
    return values[0] if len(values) == 1 else np.array(values)[:, None]


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


@dataclass
class FieldState:
    """Discrete snapshot of (u, u_t, u_x) at one time, of one member or a batch."""

    t: float                            # a (B, 1) column for a batch
    xs: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)   # u_t
    w: np.ndarray = field(repr=False)   # u_x
    # max |u|, read by the blow-up guard and by the per-step record
    max_abs_u: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.max_abs_u = _row_max(np.abs(self.u))


def _row(state: FieldState, row: int) -> FieldState:
    """One member of a state, its arrays copied out of the batch."""
    if state.u.ndim == 1:
        return state
    return FieldState(float(state.t[row, 0]), state.xs, state.u[row].copy(),
                      state.v[row].copy(), state.w[row].copy())


def _select(state: FieldState, rows: list) -> FieldState:
    """The members at `rows`; a single member becomes a 1-D state."""
    if state.u.ndim == 1 or len(rows) == len(state.u) > 1:
        return state
    if len(rows) == 1:
        return _row(state, rows[0])
    return FieldState(state.t[rows], state.xs, state.u[rows], state.v[rows], state.w[rows])


@dataclass
class SolverConfig:
    nx: int = 200
    cfl: float = 0.45
    t_end: float = 10.0
    snapshot_dt: float = 0.1
    blowup_guard: float | None = None   # default: sound speed a

    def __post_init__(self):
        if self.nx < 16:
            raise ValueError("nx must be >= 16")
        if not 0.0 < self.cfl < 1.0:
            raise ValueError("cfl must lie in (0, 1)")
        if self.t_end <= 0 or self.snapshot_dt <= 0:
            raise ValueError("t_end and snapshot_dt must be > 0")


@dataclass
class Trajectory:
    """Snapshots plus scalar records of one simulation.

    `series` holds E1, h1, max_u, max_ux and max_ut at every step (aligned
    with `times`) and E_classic and grad at every snapshot (aligned with
    `states`); `boundary` holds the disturbance b and b_t at every step;
    `snap_index[i]` is the step index of `states[i]`.
    """

    states: list
    times: np.ndarray
    series: dict
    boundary: dict
    snap_index: np.ndarray


def f_tilde(u_val, ux_val, ut_val, theta):
    """Lower-order term of the wave equation for the full velocity."""
    abs_u = np.abs(u_val)
    return (-2.0 * ut_val * ux_val
            - 2.0 * u_val * ux_val ** 2
            - 1.5 * theta * u_val * abs_u * ux_val
            - theta * abs_u * ut_val)


def stationary_forcing(ubar, ubar_x, a, theta):
    """The time-independent factors of F: (a^2 - ubar^2, F~(ubar, ubar_x, 0))."""
    d_bar = a ** 2 - np.asarray(ubar, dtype=float) ** 2
    if np.any(d_bar <= 0):
        raise ValueError("stationary state must be subsonic: a^2 - ubar^2 > 0")
    return d_bar, f_tilde(ubar, ubar_x, 0.0, theta)


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


@dataclass(frozen=True)
class ProfileTerms:
    """The time-independent values `step` reads, built once per run.

    stack_terms gives every array a leading member axis and turns every
    per-member float into a (B, 1) column.
    """

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
    a2: float               # a ** 2, as lower_order_F writes it
    k: float
    theta: float


def profile_terms(profile: StationaryProfile, params: PipeParams) -> ProfileTerms:
    ubar, ubar_x = profile.ubar, profile.ubar_x
    a, theta = params.a, params.theta
    ubar_m = 0.5 * (ubar[:-1] + ubar[1:])
    ubarx_m = 0.5 * (ubar_x[:-1] + ubar_x[1:])
    ubar_i, ubarx_i = ubar[1:-1], ubar_x[1:-1]
    return ProfileTerms(
        ubar, ubar_m, ubarx_m, stationary_forcing(ubar_m, ubarx_m, a, theta),
        ubar_i, ubarx_i, stationary_forcing(ubar_i, ubarx_i, a, theta),
        ubar[0], ubar[-1], a, a ** 2, params.k, theta)


def stack_terms(terms: list) -> ProfileTerms:
    """The terms of a batch, from the members' own terms."""
    if len(terms) == 1:
        return terms[0]

    def stack(values):
        if isinstance(values[0], tuple):
            return tuple(stack(parts) for parts in zip(*values))
        if isinstance(values[0], np.ndarray):
            return np.stack(values)
        return _column(values)

    return ProfileTerms(*(stack([getattr(t, f.name) for t in terms])
                          for f in fields(ProfileTerms)))


def wave_speed(terms: ProfileTerms, state: FieldState):
    """Fastest characteristic speed max|ubar + u| + a of a state, per member."""
    return _row_max(np.abs(terms.ubar + state.u) + terms.a)


def f_bound_constant(a, theta):
    """Coefficient of the Lipschitz-type upper bound on |F|."""
    return 18.0 + 13.0 * theta + (8.0 + 6.0 * theta) / a ** 2


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


def compatibility_residual(state: FieldState) -> float:
    """Diagnostic: max |w - D_x u| with centered differences at interior nodes.

    O(dx^2) for smooth states; large values indicate the (u, w) pair has
    drifted apart.
    """
    dx = state.xs[1] - state.xs[0]
    du = (state.u[2:] - state.u[:-2]) / (2.0 * dx)
    return float(np.max(np.abs(state.w[1:-1] - du)))


def bump_profile(xs, amplitude, center, width):
    """Compactly supported C^5 bump and its derivative.

    phi(x) = amplitude * cos(pi s / 2)^6 for |s| < 1, s = (x-center)/width,
    zero elsewhere.  Vanishes together with its first five derivatives at
    the support boundary, comfortably beyond the second-order vanishing
    the discrete compatibility conditions require.  (A flat-contact
    exp(-1/(1-s^2)) bump has much larger high derivatives and visibly
    degrades the measured convergence order on practical grids.)
    """
    xs = np.asarray(xs, dtype=float)
    s = (xs - center) / width
    phi = np.zeros_like(xs)
    dphi = np.zeros_like(xs)
    inside = np.abs(s) < 1.0
    si = s[inside]
    c = np.cos(0.5 * math.pi * si)
    phi[inside] = amplitude * c ** 6
    dphi[inside] = -amplitude * 3.0 * math.pi * c ** 5 * np.sin(0.5 * math.pi * si) / width
    return phi, dphi


class Member(NamedTuple):
    """One scenario of a batch: the arguments of `simulate`."""

    params: PipeParams
    profile: StationaryProfile
    disturbance: DisturbanceSpec
    config: SolverConfig
    initial_u: np.ndarray | None = None
    initial_v: np.ndarray | None = None
    initial_w: np.ndarray | None = None


# the per-step records, in the order of the record buffer's first axis
RECORDS = ("t", "E1", "h1", "max_u", "max_ux", "max_ut", "b", "b_t")


class _Run:
    """What one member of a batch keeps apart from the batch arrays."""

    def __init__(self, slot: int, member: Member, xs):
        params, profile, config = member.params, member.profile, member.config
        if profile.xs.shape != xs.shape or not np.allclose(profile.xs, xs):
            raise ValueError("profile grid does not match the solver grid")
        self.initial = [np.zeros(len(xs)) if x is None else np.array(x, dtype=float)
                        for x in member[4:]]
        if any(x.shape != xs.shape for x in self.initial):
            raise ValueError("initial data does not match the solver grid")
        self.slot = slot                    # index into the batch and the record buffer
        self.spec = member.disturbance
        self.k, self.a = params.k, params.a
        self.terms = profile_terms(profile, params)
        self.guard = config.blowup_guard if config.blowup_guard is not None else params.a
        self.cfl_dx = config.cfl * (xs[1] - xs[0])
        self.snapshot_dt, self.t_end = config.snapshot_dt, config.t_end
        self.t = 0.0
        self.t_snap = 0.0                   # the next snapshot time
        self.n_snap = 0                     # snapshots taken
        self.states, self.snap_index, self.E_classic, self.grad = [], [], [], []

    def plan(self, speed) -> float:
        """This member's next time step: CFL-limited, clipped onto the snapshot cadence."""
        self.t_snap = min(self.n_snap * self.snapshot_dt, self.t_end)
        return min(self.cfl_dx / speed, self.t_snap - self.t)

    def snapshot(self, state: FieldState, index: int, quad: Quadrature):
        self.states.append(state)
        self.snap_index.append(index)
        self.E_classic.append(energy_classic(state, self.k, self.a, quad))
        self.grad.append(grad_norm(state, quad))
        self.n_snap += 1

    def trajectory(self, records, steps: int) -> Trajectory:
        rec = dict(zip(RECORDS, records[:, self.slot, :steps + 1]))
        times = rec.pop("t")
        series = {name: rec.pop(name) for name in ("E1", "h1", "max_u", "max_ux", "max_ut")}
        series["E_classic"] = np.asarray(self.E_classic)
        series["grad"] = np.asarray(self.grad)
        return Trajectory(states=self.states, times=times, series=series, boundary=rec,
                          snap_index=np.asarray(self.snap_index))


def _record(records, slots, index, state, terms, quad, b_now):
    values = (state.t, energy_E1(state, terms, terms.k, terms.a, quad), h1_integrand(state, quad),
              state.max_abs_u, _row_max(np.abs(state.w)), _row_max(np.abs(state.v)), *b_now)
    if isinstance(slots, int):
        records[:, slots, index] = values
    else:
        records[:, slots, index] = np.concatenate(values, axis=1).T


def simulate_batch(members: list) -> list:
    """Run scenarios that share one grid (solver.nx and pipe.L) as one batch.

    Returns one result per member: its Trajectory, or the error that ended
    it, which is the error `simulate` raises for that member alone.  Each
    member steps with its own CFL time step, clipped to land exactly on its
    own snapshot cadence, and leaves the batch when it reaches its t_end or
    fails; the others carry on.  Deterministic for fixed members.
    """
    grids = {(m.config.nx, m.params.L) for m in members}
    if len(grids) != 1:
        raise ValueError(f"batch members must share one grid (solver.nx, pipe.L), got {grids}")
    nx, L = grids.pop()
    xs = np.linspace(0.0, L, nx + 1)
    quad = Quadrature(xs)
    results = [None] * len(members)
    active = []
    for slot, member in enumerate(members):
        try:
            active.append(_Run(slot, member, xs))
        except ValueError as exc:
            results[slot] = exc
    if not active:
        return results

    def pack(active):
        """The batch columns of the active members, and their record slots."""
        slots = active[0].slot if len(active) == 1 else np.array([run.slot for run in active])
        guard = _column([run.guard for run in active])
        return stack_terms([run.terms for run in active]), guard, slots

    rows = list(range(len(active)))
    state = _select(FieldState(np.zeros((len(active), 1)), xs,
                               *(np.stack([run.initial[f] for run in active]) for f in range(3))),
                    rows)
    terms, guard, slots = pack(active)
    speed = wave_speed(terms, state)
    # the records of every member, grown should a member outrun the estimate
    capacity = 2 + max(int(1.05 * run.t_end * (s / run.cfl_dx + 1.0 / run.snapshot_dt))
                       for run, s in zip(active, _members(speed)))
    records = np.empty((len(RECORDS), len(members), capacity))
    b0 = [sample_b(run.spec, 0.0)[:2] for run in active]
    _record(records, slots, 0, state, terms, quad, (_column([b for b, _ in b0]),
                                                     _column([bt for _, bt in b0])))
    for row, run in enumerate(active):
        run.snapshot(_row(state, row), 0, quad)

    steps = 0
    # batch row -> result, for the members that leave the batch
    ended = {row: run.trajectory(records, 0) for row, run in enumerate(active)
             if not run.t < run.t_end - 1e-12}
    while True:
        if ended:
            for row, result in ended.items():
                results[active[row].slot] = result
            rows = [row for row in range(len(active)) if row not in ended]
            active = [active[row] for row in rows]
            if not active:
                return results
            state = _select(state, rows)
            terms, guard, slots = pack(active)
            ended = {}

        speed = wave_speed(terms, state)
        dts, bs, bts = [], [], []
        for run, s in zip(active, _members(speed)):
            dt = run.plan(s)
            b_val, bt_val, _ = sample_b(run.spec, run.t + dt)
            dts.append(dt)
            bs.append(b_val)
            bts.append(bt_val)
        b_now = (_column(bs), _column(bts))
        try:
            state = step(state, terms, b_now, _column(dts), guard, speed)
        except SolverError as exc:
            ended = {row: type(exc)(message) for row, message in exc.failed.items()}
            continue

        steps += 1
        if steps == records.shape[2]:
            records = np.concatenate([records, np.empty_like(records)], axis=2)
        _record(records, slots, steps, state, terms, quad, b_now)
        for row, (run, t) in enumerate(zip(active, _members(state.t))):
            run.t = t
            if t >= run.t_snap - 1e-12:
                run.snapshot(_row(state, row), steps, quad)
            if not t < run.t_end - 1e-12:
                ended[row] = run.trajectory(records, steps)


def simulate(params: PipeParams, profile: StationaryProfile,
             disturbance: DisturbanceSpec, config: SolverConfig,
             initial_u=None, initial_v=None, initial_w=None) -> Trajectory:
    """Run the closed-loop system on [0, t_end]: a batch of one member.

    Deterministic for a fixed configuration.  The time step is recomputed
    every step from the CFL condition and clipped to land exactly on the
    snapshot cadence, so output times are exact multiples of snapshot_dt.
    """
    (result,) = simulate_batch([Member(params, profile, disturbance, config,
                                       initial_u, initial_v, initial_w)])
    if isinstance(result, Exception):
        raise result
    return result
