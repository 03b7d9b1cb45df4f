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

The arithmetic of `step` runs in C (`_lw.c`), as one loop per member
instead of some seventy NumPy calls: the same IEEE operations in the same
order, so its values are those of the NumPy form bit for bit.  The library
is built when this module is imported, with the C compiler Python was
built with, and cached in the package's `__pycache__`.  The new state goes
into the next slot of a block of states held in a StepWork built once per
batch, and the energies of the per-step record are reduced over the whole
block at once, when it is full or a member leaves the batch.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import os
import sysconfig
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .disturbance import DisturbanceSpec, sample_b
from .lyapunov import Quadrature, energy_E1, energy_classic, grad_norm, h1_integrand
from .stationary import PipeParams, StationaryProfile, require


# How _lw.c is compiled.  -ffp-contract=off, and no -march and no fast-math,
# so that no a * b + c becomes a fused multiply-add and nothing is reordered:
# each operation rounds as the NumPy ufunc that it replaces does.
_COMPILE = [*(sysconfig.get_config_var("CC") or "cc").split(),
            "-O2", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared"]


class _Batch(ctypes.Structure):
    """lw_batch of _lw.c: the sizes of a batch and the addresses of its arrays."""

    _fields_ = [("members", ctypes.c_long), ("n", ctypes.c_long), ("slots", ctypes.c_long),
                ("dx", ctypes.c_double)] + [
        (name, ctypes.c_void_p) for name in (
            "block", "half", "io", "coefficients", "ubar", "ubar_x", "ubar_m", "ubarx_m",
            "d_bar_m", "f_bar_m", "d_bar_i", "f_bar_i")]


def _compile(source: Path, target) -> None:
    import subprocess       # only here: a run that loads a cached build does not pay its import
    command = [*_COMPILE, "-o", str(target), str(source)]
    try:
        subprocess.run(command, check=True, capture_output=True, text=True)
    except OSError as exc:
        reason = str(exc)
    except subprocess.CalledProcessError as exc:
        errors = [line.strip() for line in exc.stderr.splitlines() if "error" in line]
        reason = errors[0] if errors else f"exit code {exc.returncode}"
    else:
        return
    raise OSError(f"cannot build the compiled Lax-Wendroff step: `{' '.join(_COMPILE)}` "
                  f"failed ({reason}); running a scenario needs a C compiler")


def _load_library():
    """The compiled step, built at most once per C source, compile command and
    platform: its name in the package's __pycache__ holds two checksums of
    all three (zlib's, which NumPy has imported already; hashlib would load
    OpenSSL, about 3.6 MB).  A build is written to a temporary file and
    moved into place, so that no process loads a partial library; where
    __pycache__ cannot be written, the library is built in a private
    temporary directory for this process.
    """
    source = Path(__file__).with_name("_lw.c")
    built_from = b"\0".join([source.read_bytes(), " ".join(_COMPILE).encode(),
                             sysconfig.get_platform().encode()])
    cache = source.parent / "__pycache__"
    library = cache / f"_lw.{zlib.crc32(built_from):08x}{zlib.adler32(built_from):08x}.so"
    if not library.exists():
        try:
            cache.mkdir(exist_ok=True)
            fd, partial = tempfile.mkstemp(suffix=".so", dir=cache)
        except OSError:
            with tempfile.TemporaryDirectory() as private:
                library = Path(private) / library.name
                _compile(source, library)
                return _declare(ctypes.CDLL(str(library)))
        os.close(fd)
        try:
            _compile(source, partial)
            os.replace(partial, library)
        finally:
            if os.path.exists(partial):
                os.unlink(partial)
    return _declare(ctypes.CDLL(str(library)))


def _declare(lib):
    lib.lw_step.argtypes = (ctypes.POINTER(_Batch), ctypes.c_long, ctypes.c_long)
    lib.lw_step.restype = None
    return lib


try:
    _LW = _load_library()
except OSError as exc:      # raised when a step runs: the verbs that run none still work
    _LW = exc


def step_library():
    """The compiled step; raises the OSError that kept it from being built or loaded."""
    if isinstance(_LW, OSError):
        raise OSError(str(_LW))
    return _LW


class SolverError(RuntimeError):
    """A numerical failure of one or more members of a step.

    `failed` maps the batch row of each failed member to its own message,
    the message a run of that member alone gives; str(error) is the first.
    """

    def __init__(self, message: str, failed: dict | None = None):
        super().__init__(message)
        self.failed = failed if failed is not None else {0: message}


class BlowUpError(SolverError):
    """Raised when the perturbation leaves the configured amplitude guard, or
    starts with a non-finite value in any field."""


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
        require(isinstance(self.nx, numbers.Integral) and self.nx >= 16, "nx", "an integer >= 16")
        require(0.0 < self.cfl < 1.0, "cfl", "in (0, 1)")
        require(0.0 < self.t_end < math.inf, "t_end", "finite and > 0")
        require(0.0 < self.snapshot_dt < math.inf, "snapshot_dt", "finite and > 0")
        require(self.blowup_guard is None or 0.0 < self.blowup_guard < math.inf,
                "blowup_guard", "finite and > 0")


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
    """Lower-order term of the wave equation for the full velocity,

    F~ = -2 u_t u_x - 2 u u_x^2 - 1.5 theta u |u| u_x - theta |u| u_t.
    """
    abs_u = np.abs(u_val)
    return (-2.0 * ut_val * ux_val
            - 2.0 * u_val * ux_val ** 2
            - 1.5 * theta * u_val * abs_u * ux_val
            - theta * abs_u * ut_val)


def _subsonic(ubar, a):
    """a^2 - ubar^2, which must be positive: the stationary state is subsonic."""
    d_bar = a ** 2 - np.asarray(ubar, dtype=float) ** 2
    if np.any(d_bar <= 0):
        raise ValueError("stationary state must be subsonic: a^2 - ubar^2 > 0")
    return d_bar


def stationary_forcing(ubar, ubar_x, a, theta):
    """The time-independent factors of F: (a^2 - ubar^2, F~(ubar, ubar_x, 0))."""
    return _subsonic(ubar, a), f_tilde(ubar, ubar_x, 0.0, theta)


def lower_order_F(u, ux, ut, ubar, ubar_x, a, theta, forcing=None):
    """Lower-order term of the perturbation equation, definitional form.

    F = F~(u+ubar, u_x+ubar_x, u_t)
        - [(a^2 - (ubar+u)^2)/(a^2 - ubar^2)] * F~(ubar, ubar_x, 0).

    `forcing` is stationary_forcing(ubar, ubar_x, a, theta), computed here
    when not given.  `step` computes F with these operations, in this order.
    """
    d_bar, f_bar = forcing if forcing is not None else stationary_forcing(ubar, ubar_x, a, theta)
    m = ubar + u
    return f_tilde(m, ux + ubar_x, ut, theta) - ((a ** 2 - m ** 2) / d_bar) * f_bar


@dataclass(frozen=True)
class ProfileTerms:
    """The time-independent values `step` reads, built once per batch:
    (B, n) profile arrays, B = 1 included, and per-member values as
    _column gives them."""

    ubar: np.ndarray        # ubar and ubar_x at the nodes
    ubar_x: np.ndarray
    ubar_m: np.ndarray      # ubar and ubar_x averaged onto the midpoints
    ubarx_m: np.ndarray
    forcing_m: tuple        # stationary_forcing on the midpoints
    forcing_i: tuple        # stationary_forcing at the interior nodes
    a: float
    k: float
    # (5, B): each member's a, a ** 2, k, theta and 1.5 * theta, for the
    # compiled step; a ** 2 rounds as lower_order_F's, which may differ from a * a
    coefficients: np.ndarray


def profile_terms(members: list) -> ProfileTerms:
    """The terms of a batch of (profile, params) pairs on one grid."""
    profiles, params = zip(*members)
    ubar = np.stack([p.ubar for p in profiles])
    ubar_x = np.stack([p.ubar_x for p in profiles])
    ubar_m = 0.5 * (ubar[:, :-1] + ubar[:, 1:])
    ubarx_m = 0.5 * (ubar_x[:, :-1] + ubar_x[:, 1:])

    def forcing(ubar, ubar_x):
        # member by member with each float a: a column's a ** 2 rounds like a * a
        pairs = [stationary_forcing(u, ux, p.a, p.theta) for u, ux, p in zip(ubar, ubar_x, params)]
        return tuple(map(np.stack, zip(*pairs)))

    a, k = [p.a for p in params], [p.k for p in params]
    theta = [p.theta for p in params]
    coefficients = np.array([a, [x ** 2 for x in a], k, theta, [1.5 * x for x in theta]])
    return ProfileTerms(ubar, ubar_x, ubar_m, ubarx_m, forcing(ubar_m, ubarx_m),
                        forcing(ubar[:, 1:-1], ubar_x[:, 1:-1]), _column(a), _column(k),
                        coefficients)


def wave_speed(terms: ProfileTerms, state: FieldState):
    """Fastest characteristic speed max|ubar + u| + a of a state, per member,
    as `step` computes it for the state it returns.

    Equal to max(|ubar + u| + a) bit for bit, since x -> fl(x + a) is
    monotone.
    """
    return _row_max(np.abs(terms.ubar + state.u)) + terms.a


class _Fields:
    """(u, v, w) as the rows of one array: a (3, B, n) state, or the states
    of a block, with the step axis after the first."""

    def __init__(self, uvw):
        self.u, self.v, self.w = uvw


# The cells (members x grid nodes) of the states in one block: a block
# holds max(1, BLOCK_CELLS // cells of a state) steps' states, so that it
# and the flush's work take about 6 * 8 * BLOCK_CELLS bytes.
BLOCK_CELLS = 16_384


def _address(x: np.ndarray, shape: tuple) -> int:
    """The address of a float64 C-contiguous array of the given shape, for _lw.c."""
    if x.shape != shape or x.dtype != np.float64 or not x.flags.c_contiguous:
        raise ValueError(f"an array of shape {x.shape} ({x.dtype}) where the compiled "
                         f"step needs a C-contiguous float64 array of shape {shape}")
    return x.ctypes.data


def _value(x):
    """A per-member result of the compiled step: a float for one member, a
    (B, 1) column of its own for a batch."""
    return x.item() if x.size == 1 else x.copy()


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
    and `spare` is the work of the flush.  `half` holds one member's
    (u, v, w) at t + dt/2, and `io` the compiled step's per-member inputs
    (dt, b_t) and results (max|u|, max|ubar + u|), each shaped like t.
    `speed` is wave_speed of the state `step` returned last.
    """

    def __init__(self, state: FieldState):
        shape = state.u.shape
        self.dx = float(state.xs[1] - state.xs[0])
        self.rows = max(1, BLOCK_CELLS // state.u.size)
        self.block = np.empty((3, self.rows + 1, *shape))
        self.slots = [_Fields(self.block[:, j]) for j in range(self.rows + 1)]
        self.newest = self.end = 0          # the slot of the newest state, of the pass's end
        self.pending = []
        self.spare = np.empty((3, self.rows, *shape))
        self.half = np.empty((3, shape[-1] - 1))
        self.io = np.empty((4, *np.shape(state.t)))
        self.speed = None
        self.terms = self.batch = None

    def bind(self, terms: ProfileTerms):
        """lw_step and the lw_batch of this work set and `terms`, built at the
        first step with them."""
        if terms is not self.terms:
            members, n = self.block.shape[2:]
            node, mid, inner = (members, n), (members, n - 1), (members, n - 2)
            arrays = [(terms.coefficients, (5, members)), (terms.ubar, node), (terms.ubar_x, node),
                      (terms.ubar_m, mid), (terms.ubarx_m, mid),
                      *((x, mid) for x in terms.forcing_m), *((x, inner) for x in terms.forcing_i)]
            self.batch = (step_library().lw_step, ctypes.byref(_Batch(
                members, n, self.rows + 1, self.dx, self.block.ctypes.data,
                self.half.ctypes.data, self.io.ctypes.data,
                *(_address(x, shape) for x, shape in arrays))))
            self.terms = terms
        return self.batch

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


def _left_guard(top: float, guard: float, t: float) -> str:
    """The message of a member whose max|u| = top is outside its guard at time t."""
    return (f"max|u| = {top:.4g} left the guard {guard:.4g} at t={t:.6g}; "
            "the run left the regime of validity")


def step(state: FieldState, terms: ProfileTerms, b_now, dt, guard, speed,
         work: StepWork) -> FieldState:
    """Advance the state by one Lax-Wendroff step of size dt.

    `terms` is profile_terms of the batch, b_now = (b, b_t) evaluated at
    the new time t + dt, `guard` the bound on max|u|, `speed` is
    wave_speed(terms, state) and `work` is StepWork for the state's shape;
    the new state lives in the next slot of its block, pending with its
    (t, max|u|, b, b_t), and its wave speed is left in `work.speed`.  The
    state is (B, nx+1), B = 1 included, and dt, b_now, guard and speed are
    per member: floats or 0-d arrays for one member, (B, 1) columns for a
    batch.  lw_step of _lw.c does the arithmetic.  A CFL violation raises
    CFLError before the step, a member outside the guard BlowUpError after
    it; `failed` names every such member, and the input state is left as
    it was.
    """
    cfl = dt * speed / work.dx
    rows = _flagged(cfl > 1.0 + 1e-12)
    if rows:
        t, cfl = _members(state.t), _members(cfl)
        failed = {i: f"CFL violation at t={t[i]:.6g}: dt*speed/dx = {cfl[i]:.4f}" for i in rows}
        raise CFLError(failed[rows[0]], failed)

    src = work.newest
    if state.u is not work.slots[src].u:
        work.take(state)
        src = 0
    if src == work.end:             # the pass is over: turn back
        work.end = work.rows - src
        work.pending.clear()
    j = src + (1 if work.end > src else -1)
    dst = work.slots[j]

    lw_step, batch = work.bind(terms)
    work.io[0], work.io[1] = dt, b_now[1]
    lw_step(batch, src, j)
    new = FieldState(state.t + dt, state.xs, dst.u, dst.v, dst.w, _value(work.io[2]))
    # written so that NaN fails too
    rows = _flagged(np.logical_not(new.max_abs_u <= guard))
    if rows:
        top, t, guard = _members(new.max_abs_u), _members(new.t), _members(guard)
        failed = {i: _left_guard(top[i], guard[i], t[i]) for i in rows}
        raise BlowUpError(failed[rows[0]], failed)
    work.newest = j
    work.pending.append((new.t, new.max_abs_u, *b_now))
    work.speed = _value(work.io[3]) + terms.a
    return new


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
        # a supersonic profile fails here, this member alone, and not the batch's terms
        _subsonic(profile.ubar, params.a)
        self.slot = slot                    # index into the batch and the record buffer
        self.spec = member.disturbance
        self.k, self.a = params.k, params.a
        self.guard = config.blowup_guard if config.blowup_guard is not None else params.a
        top = float(np.max(np.abs(self.initial[0])))
        if not top <= self.guard:           # the guard test of `step`, on the initial state
            raise BlowUpError(_left_guard(top, self.guard, 0.0))
        # the guard reads u alone: a non-finite v or w would reach u one step late
        for name, x in zip(("initial_v", "initial_w"), self.initial[1:]):
            bad = np.flatnonzero(~np.isfinite(x))
            if len(bad):
                raise BlowUpError(f"{name} = {x[bad[0]]} at x={xs[bad[0]]:.6g} is not "
                                  "finite at t=0; the run cannot start")
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
               np.maximum.reduce(np.absolute(block.w, spare[0]), -1, keepdims=True),
               np.maximum.reduce(np.absolute(block.v, spare[0]), -1, keepdims=True))
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
        except (ValueError, BlowUpError) as exc:
            results[slot] = exc
    if not active:
        return results

    def pack(active, state):
        """The terms, guards, record slots and work set of the active members."""
        slots = np.array([run.slot for run in active])
        guard = _column([run.guard for run in active])
        terms = profile_terms([(members[run.slot].profile, members[run.slot].params)
                               for run in active])
        return terms, guard, slots, StepWork(state)

    state = FieldState(_column([0.0] * len(active)), xs,
                       *(np.stack([run.initial[f] for run in active]) for f in range(3)))
    terms, guard, slots, work = pack(active, state)
    speed = wave_speed(terms, state)
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
            # a copy; the old work set goes before the survivors' is built
            state, work = _select(state, rows), None
            terms, guard, slots, work = pack(active, state)
            speed = wave_speed(terms, state)
            ended = {}

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

        speed = work.speed
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
