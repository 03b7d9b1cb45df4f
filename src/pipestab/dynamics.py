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

The solver runs a batch of scenarios on one grid at once.  Every state
holds one (B, nx+1) array per field, a single run's too.  Every
per-member value (time, time step, parameters, boundary data) is a
(B, 1) column for a batch, and a float or 0-d array for one member, so
that no per-step ufunc of a single run takes a (1, 1) operand.  Each
member keeps its own time step and snapshot cadence, and leaves the
batch when it ends or fails.

`step` writes every array it computes into a StepWork built once per
batch, so that a step allocates no array of the grid's size.  The new
state goes into the next slot of a block of states, and the energies of
the per-step record are reduced over the whole block at once, when it is
full or a member leaves the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np
# the ufuncs of the per-step path, bound here once rather than looked up per call
from numpy import absolute, add, divide, multiply, square, subtract

from .disturbance import DisturbanceSpec, sample_b
from .lyapunov import Quadrature, energy_E1, energy_classic, grad_norm, h1_integrand
from .stationary import PipeParams, StationaryProfile


# Constant factors of the per-step path.  NumPy takes a 0-d array operand
# faster than a Python float, and computes the same values from it.
_HALF, _TWO, _MINUS_TWO = np.array(0.5), np.array(2.0), np.array(-2.0)


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
    """Max over the last axis, per member: a float for one, a (B, 1) column for a batch."""
    top = np.maximum.reduce(x, -1)
    return top.item() if top.size == 1 else top[:, None]


def _members(x) -> list:
    """Per-member values of a float (one member) or a (B, 1) column."""
    return x.ravel().tolist() if isinstance(x, np.ndarray) else [x]


def _column(values: list):
    """Inverse of _members: one member's value itself, else a (B, 1) column."""
    return values[0] if len(values) == 1 else np.array(values)[:, None]


def _flagged(bad) -> list:
    """The batch rows `bad` flags: a bool for one member, a (B, 1) column for a batch."""
    return [row for row, flag in enumerate(_members(bad)) if flag]


@dataclass
class FieldState:
    """(u, u_t, u_x) at one time: the (B, nx+1) arrays of a batch, or the
    1-D copies of one member's arrays that a snapshot holds."""

    t: float                            # per member: a (B, 1) column for a batch
    xs: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)   # u_t
    w: np.ndarray = field(repr=False)   # u_x
    # max |u|, read by the blow-up guard and by the per-step record; computed when not given
    max_abs_u: float = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.max_abs_u is None:
            self.max_abs_u = _row_max(np.abs(self.u))


def _row(state: FieldState, row: int) -> FieldState:
    """The snapshot of one member, its arrays copied out of the batch or the work set."""
    return FieldState(_members(state.t)[row], state.xs,
                      state.u[row].copy(), state.v[row].copy(), state.w[row].copy())


def _select(state: FieldState, rows: list) -> FieldState:
    """The members at `rows`, copied out of the batch."""
    t = _members(state.t)
    return FieldState(_column([t[row] for row in rows]), state.xs,
                      state.u[rows], state.v[rows], state.w[rows])


@dataclass
class SolverConfig:
    nx: int = 200
    cfl: float = 0.45
    t_end: float = 10.0
    snapshot_dt: float = 0.1
    blowup_guard: float | None = None   # default: sound speed a

    def __post_init__(self):
        # each check written so that NaN fails too
        if not (self.nx >= 16 and float(self.nx).is_integer()):
            raise ValueError("nx must be an integer >= 16")
        if not 0.0 < self.cfl < 1.0:
            raise ValueError("cfl must lie in (0, 1)")
        if not (0.0 < self.t_end < math.inf and 0.0 < self.snapshot_dt < math.inf):
            raise ValueError("t_end and snapshot_dt must be finite and > 0")
        if self.blowup_guard is not None and not 0.0 < self.blowup_guard < math.inf:
            raise ValueError("blowup_guard must be finite and > 0")


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


def _work(count, *operands):
    """`count` fresh arrays of the broadcast shape of `operands`."""
    shape = np.broadcast_shapes(*map(np.shape, operands))
    return tuple(np.empty(shape) for _ in range(count))


def f_tilde(u_val, ux_val, ut_val, theta, *, theta_1_5=None, out=None):
    """Lower-order term of the wave equation for the full velocity,

    F~ = -2 u_t u_x - 2 u u_x^2 - 1.5 theta u |u| u_x - theta |u| u_t.

    `theta_1_5` is 1.5 * theta, computed here when not given.  `out` is
    (result, work, 2 u, work): arrays of the result's shape that receive
    F~ and its temporaries, the third keeping 2 u; fresh ones when not given.
    """
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


def stationary_forcing(ubar, ubar_x, a, theta):
    """The time-independent factors of F: (a^2 - ubar^2, F~(ubar, ubar_x, 0))."""
    d_bar = a ** 2 - np.asarray(ubar, dtype=float) ** 2
    if np.any(d_bar <= 0):
        raise ValueError("stationary state must be subsonic: a^2 - ubar^2 > 0")
    return d_bar, f_tilde(ubar, ubar_x, 0.0, theta)


def lower_order_F(u, ux, ut, ubar, ubar_x, a, theta, forcing=None, shared=None, *,
                  theta_1_5=None, out=None):
    """Lower-order term of the perturbation equation, definitional form.

    F = F~(u+ubar, u_x+ubar_x, u_t)
        - [(a^2 - (ubar+u)^2)/(a^2 - ubar^2)] * F~(ubar, ubar_x, 0).

    `forcing` is stationary_forcing(ubar, ubar_x, a, theta) and `shared`
    is (ubar + u, a ** 2 - (ubar + u) ** 2), which `step` needs too; each
    is computed here when not given, as is `theta_1_5` = 1.5 * theta.  `out`
    is (result, work, work, 2 (ubar + u), work), arrays of the result's
    shape; fresh ones when not given.
    """
    if forcing is None:
        forcing = stationary_forcing(ubar, ubar_x, a, theta)
    if shared is None:
        m = ubar + u
        shared = m, a ** 2 - m ** 2
    d_bar, f_bar = forcing
    m, d = shared
    f, x, *work = out or _work(5, u, ux, ut, ubar, ubar_x, theta)
    add(ux, ubar_x, x)
    f_tilde(m, x, ut, theta, theta_1_5=theta_1_5, out=(f, *work))
    divide(d, d_bar, x)
    multiply(x, f_bar, x)
    subtract(f, x, f)
    return f


@dataclass(frozen=True)
class ProfileTerms:
    """The time-independent values `step` reads, built once per run.

    stack_terms gives every profile array a leading member axis, and turns
    the per-member values (MEMBER_VALUES) into (B, 1) columns for a batch.
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


# the ProfileTerms fields that hold one value per member, not one per node
MEMBER_VALUES = ("ubar_0", "ubar_L", "a", "a2", "k", "theta", "theta_1_5")


def stack_terms(terms: list) -> ProfileTerms:
    """The terms of a batch, from the members' own terms: (B, n) profile
    arrays, B = 1 included, and per-member values as _column gives them."""

    def stack(name):
        values = [getattr(t, name) for t in terms]
        if name in MEMBER_VALUES:
            return _column(values)
        if isinstance(values[0], tuple):         # stationary_forcing's pair
            return tuple(map(np.stack, zip(*values)))
        return np.stack(values)

    return ProfileTerms(*(stack(f.name) for f in fields(ProfileTerms)))


def wave_speed(terms: ProfileTerms, state: FieldState, *, out=None):
    """Fastest characteristic speed max|ubar + u| + a of a state, per member.

    Equal to max(|ubar + u| + a) bit for bit, since x -> fl(x + a) is
    monotone.  `out` is a work array of the state's shape.
    """
    m = add(terms.ubar, state.u, out)
    return _row_max(absolute(m, m)) + terms.a


class _Fields:
    """(u, v, w) as one (3, B, n) array, and the views of it `step` reads;
    also the states of a block, with the step axis after the first."""

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


# The cells (members x grid nodes) of the states in one block: a block
# holds max(1, BLOCK_CELLS // cells of a state) steps' states, so that it
# and the flush's work take about 6 * 8 * BLOCK_CELLS bytes.
BLOCK_CELLS = 16_384


class StepWork:
    """The arrays `step` works in, built once for one state shape.

    `block` holds the (u, v, w) of rows + 1 states, one per slot.  `step`
    reads the newest state and writes the next slot, in passes that run
    from slot 0 to slot `rows` and back: a pass ends at slot `end`, and the
    step after it turns back, so the `rows` states of one pass are the
    block that one flush records, and no state is ever copied.  A state
    the block does not hold is first copied into slot 0, where a pass
    ends.  So a state `step` returns stays until a pass comes back to its
    slot, one step later at the earliest.  `pending` holds, for each state
    of the pass not yet recorded, the (t, max|u|, b, b_t) written with it,
    and `spare` is the work of the flush.  The predictor's temporaries are
    n - 1 wide; the corrector's are n - 2 wide views of the leading
    elements of the same buffer.  `full` is work of the state's shape for
    wave_speed and the guard.

    Built from `base`, a work set of a state with at least as many cells,
    every array is carved out of the leading elements of the buffers that
    the batch's first work set allocated, and a pass holds no more cells
    than the first's, so the work set allocates nothing of the grid's
    size.  Base's arrays are then reused and must not be read again.
    """

    def __init__(self, state: FieldState, base: StepWork | None = None):
        shape = state.u.shape
        members, n = shape
        self.buffers = {} if base is None else base.buffers
        self.dx = float(state.xs[1] - state.xs[0])
        # the cells of one pass: at most those the first work set's flush holds
        budget = min(BLOCK_CELLS, self.buffers["spare"].size // 3) if self.buffers else BLOCK_CELLS
        self.rows = max(1, budget // state.u.size)
        self.block = self._carve("block", (3, self.rows + 1, *shape))
        self.slots = [_Fields(self.block[:, j]) for j in range(self.rows + 1)]
        self.newest = self.end = 0          # the slot of the newest state, of the pass's end
        self.pending = []
        self.spare = self._carve("spare", (3, self.rows, *shape))
        self.half = _Fields(self._carve("half", (3, members, n - 1)))   # (u, v, w) at t + dt/2
        rows = _Half.ROWS * members
        buf = self._carve("halves", (rows * (n - 1),))
        self.predictor = _Half(buf.reshape(_Half.ROWS, members, n - 1))
        self.corrector = _Half(buf[:rows * (n - 2)].reshape(_Half.ROWS, members, n - 2))
        # dt / (2 dx), dt / 2 (which is 0.5 dt exactly), dt / dx and dt, each
        # shaped like t: 0-d for one member, a (B, 1) column for a batch
        column = np.shape(state.t)
        self.divisors = np.reshape([2.0 * self.dx, 2.0, self.dx, 1.0], (4, *(1 for _ in column)))
        self.coef = self._carve("coef", (4, *column))
        self.coefs = tuple(self.coef[i, ...] for i in range(4))
        self.full = self._carve("full", shape)

    def _carve(self, name: str, shape: tuple) -> np.ndarray:
        """An array of `shape` over the leading elements of buffer `name`,
        which the first work set of a batch allocates."""
        size = math.prod(shape)
        if name not in self.buffers:
            self.buffers[name] = np.empty(size)
        return self.buffers[name][:size].reshape(shape)

    def take(self, state: FieldState) -> _Fields:
        """Copy `state` into slot 0 as the newest state, at the end of a pass."""
        slot = self.slots[0]
        slot.u[...], slot.v[...], slot.w[...] = state.u, state.v, state.w
        self.newest = self.end = 0
        self.pending.clear()
        return slot

    def hold(self, state: FieldState, b_now) -> FieldState:
        """Take `state` as the one pending state, with its boundary data
        b_now = (b, b_t); returns it as held in the block."""
        slot = self.take(state)
        self.pending.append((state.t, state.max_abs_u, *b_now))
        return FieldState(state.t, state.xs, slot.u, slot.v, slot.w, state.max_abs_u)


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
    F = lower_order_F(h.um, h.wm, h.vm, ubar, ubar_x, terms.a, terms.theta, forcing, (h.m, h.d),
                      theta_1_5=terms.theta_1_5, out=h.lof)
    subtract(fields.vw_hi, fields.vw_lo, h.dvw)
    multiply(h.md, h.dvw, h.prod)
    subtract(h.p, h.q, h.x)
    multiply(c, h.xdv, h.xdv)
    subtract(base[0], h.x, out[0])
    multiply(e, F, h.q)
    add(out[0], h.q, out[0])
    add(base[1], h.dv, out[1])


def step(state: FieldState, terms: ProfileTerms, b_now, dt, guard, speed,
         work: StepWork) -> FieldState:
    """Advance the state by one Lax-Wendroff step of size dt.

    `terms` is profile_terms of the run, b_now = (b, b_t) evaluated at the
    new time t + dt, `guard` the bound on max|u|, `speed` is
    wave_speed(terms, state) and `work` is StepWork for the state's shape;
    the new state lives in the next slot of its block, pending with its
    (t, max|u|, b, b_t).  The state is (B, nx+1), B = 1 included, `terms`
    comes from stack_terms, and dt, b_now, guard and speed are per member:
    floats or 0-d arrays for one member, (B, 1) columns for a batch.  A CFL
    violation raises CFLError before the step, a member outside the guard
    BlowUpError after it; `failed` names every such member, and the input
    state is left as it was.
    """
    cfl = dt * speed / work.dx
    rows = _flagged(cfl > 1.0 + 1e-12)
    if rows:
        t, cfl = _members(state.t), _members(cfl)
        failed = {i: f"CFL violation at t={t[i]:.6g}: dt*speed/dx = {cfl[i]:.4f}" for i in rows}
        raise CFLError(failed[rows[0]], failed)

    j = work.newest
    src = work.slots[j]
    if state.u is not src.u:
        src = work.take(state)
        j = 0
    if j == work.end:               # the pass is over: turn back
        work.end = work.rows - j
        work.pending.clear()
    j += 1 if work.end > j else -1
    dst = work.slots[j]

    # predictor: provisional values at (x_{j+1/2}, t + dt/2)
    divide(dt, work.divisors, work.coef)
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
    for i, ((a, k, ubar_0, ubar_L), b_t) in enumerate(zip(terms.ends, _members(b_now[1]))):
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
    new = FieldState(state.t + dt, state.xs, dst.u, dst.v, dst.w,
                     _row_max(absolute(dst.u, work.full)))
    # written so that NaN fails too
    rows = _flagged(np.logical_not(new.max_abs_u <= guard))
    if rows:
        top, t, guard = _members(new.max_abs_u), _members(new.t), _members(guard)
        failed = {i: (f"max|u| = {top[i]:.4g} left the guard {guard[i]:.4g} at t={t[i]:.6g}; "
                      "the run left the regime of validity") for i in rows}
        raise BlowUpError(failed[rows[0]], failed)
    work.newest = j
    work.pending.append((new.t, new.max_abs_u, *b_now))
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


# the per-step records, in the order of the record buffer's first axis:
# the four that `step` writes, then the four that _flush reduces
RECORDS = ("t", "max_u", "b", "b_t", "E1", "h1", "max_ux", "max_ut")


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
        self.cfl_dx = config.cfl * float(xs[1] - xs[0])
        self.snapshot_dt, self.t_end = config.snapshot_dt, config.t_end
        self.t = 0.0
        self.t_snap = 0.0                   # the next snapshot time
        self.n_snap = 0                     # snapshots taken
        self.states, self.snap_index, self.E_classic, self.grad = [], [], [], []

    def snapshot(self, state: FieldState, index: int, quad: Quadrature):
        self.states.append(state)
        self.snap_index.append(index)
        self.E_classic.append(energy_classic(state, self.k, self.a, quad))
        self.grad.append(grad_norm(state, quad))
        self.n_snap += 1
        self.t_snap = min(self.n_snap * self.snapshot_dt, self.t_end)

    def trajectory(self, records, steps: int) -> Trajectory:
        rec = dict(zip(RECORDS, records[:, self.slot, :steps + 1]))
        times = rec.pop("t")
        series = {name: rec.pop(name) for name in ("E1", "h1", "max_u", "max_ux", "max_ut")}
        series["E_classic"] = np.asarray(self.E_classic)
        series["grad"] = np.asarray(self.grad)
        return Trajectory(states=self.states, times=times, series=series, boundary=rec,
                          snap_index=np.asarray(self.snap_index))


def _flush(records, slots, index, work: StepWork, terms: ProfileTerms, quad: Quadrature):
    """Record the pending states of `work`, the newest of which is step `index`.

    Their (t, max|u|, b, b_t) are copied as `step` wrote them; E1, the H1
    integrand, max|u_x| and max|u_t| are reduced over the block at once.
    `slots` are the members' rows of `records`; returns the records, grown
    when they are too short.
    """
    count = len(work.pending)
    if not count:
        return records
    while index >= records.shape[2]:
        records = np.concatenate([records, np.empty_like(records)], axis=2)
    steps = np.s_[index + 1 - count:index + 1]
    records[:4, slots, steps] = np.array(work.pending).reshape(count, 4, -1).transpose(1, 2, 0)
    j = work.newest
    if work.end:        # a pass up the slots: the newest state is the last
        states = work.block[:, j + 1 - count:j + 1]
    else:               # a pass down the slots: in step order from the top
        states = work.block[:, j:j + count][:, ::-1]
    block = _Fields(states)
    spare = tuple(work.spare[:, :count])
    reduced = (energy_E1(block, terms, terms.k, terms.a, quad, out=spare),
               h1_integrand(block, quad, out=spare[:2]),
               np.maximum.reduce(absolute(block.w, spare[0]), -1, keepdims=True),
               np.maximum.reduce(absolute(block.v, spare[0]), -1, keepdims=True))
    records[4:, slots, steps] = np.concatenate(reduced, -1).reshape(count, -1, 4).transpose(2, 1, 0)
    work.pending.clear()
    return records


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

    def pack(active, state, work=None):
        """The batch columns of the active members, their record slots and
        work set, carved out of `work` when given."""
        slots = np.array([run.slot for run in active])
        guard = _column([run.guard for run in active])
        return stack_terms([run.terms for run in active]), guard, slots, StepWork(state, work)

    state = FieldState(_column([0.0] * len(active)), xs,
                       *(np.stack([run.initial[f] for run in active]) for f in range(3)))
    terms, guard, slots, work = pack(active, state)
    speed = wave_speed(terms, state, out=work.full)
    # the records of every member, grown should a member outrun the estimate
    capacity = 2 + max(int(1.05 * run.t_end * (s / run.cfl_dx + 1.0 / run.snapshot_dt))
                       for run, s in zip(active, _members(speed)))
    records = np.empty((len(RECORDS), len(members), capacity))
    b0 = [sample_b(run.spec, 0.0)[:2] for run in active]
    state = work.hold(state, (_column([b for b, _ in b0]), _column([bt for _, bt in b0])))
    for row, run in enumerate(active):
        run.snapshot(_row(state, row), 0, quad)

    steps = 0
    # batch row -> None for the members that reached their t_end, the error
    # for those that failed
    ended = {row: None for row, run in enumerate(active) if not run.t < run.t_end - 1e-12}
    while True:
        # record the pass when it is over, and before members leave: their
        # trajectories read the records, and the others go on in a new block
        if ended or work.newest == work.end:
            records = _flush(records, slots, steps, work, terms, quad)
        if ended:
            for row, error in ended.items():
                run = active[row]
                results[run.slot] = run.trajectory(records, steps) if error is None else error
            rows = [row for row in range(len(active)) if row not in ended]
            active = [active[row] for row in rows]
            if not active:
                return results
            state = _select(state, rows)     # a copy: the new work set reuses the block
            terms, guard, slots, work = pack(active, state, work)
            ended = {}

        speed = wave_speed(terms, state, out=work.full)
        dts, bs, bts = [], [], []
        for run, s in zip(active, _members(speed)):
            dt = min(run.cfl_dx / s, run.t_snap - run.t)
            b_val, bt_val, _ = sample_b(run.spec, run.t + dt)
            dts.append(dt)
            bs.append(b_val)
            bts.append(bt_val)
        b_now = (_column(bs), _column(bts))
        try:
            state = step(state, terms, b_now, _column(dts), guard, speed, work)
        except SolverError as exc:
            ended = {row: type(exc)(message) for row, message in exc.failed.items()}
            continue

        steps += 1
        for row, (run, t) in enumerate(zip(active, _members(state.t))):
            run.t = t
            if t >= run.t_snap - 1e-12:
                run.snapshot(_row(state, row), steps, quad)
            if not t < run.t_end - 1e-12:
                ended[row] = None


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
