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
holds one (B, nx+1) array per field, a single run's too, and every
per-member value (time, boundary data, guard, wave speed) is a list of B
floats or a row of B values.  Each member keeps its own time step and
snapshot cadence, and its row of the batch from start to end.

The time loop runs in C (`_lw.c`): one call of `step` takes step after
step, each member's time step, disturbance, CFL test, Lax-Wendroff
arithmetic, guard test, wave speed and the E1 and H1 integrals included,
writes every step's RECORDS into the run's records, and returns only when
the records are full, a running member reaches a snapshot time or its
t_end, or no member runs.  The loop retires a member that ends or fails
where it stands, and the others go on: its status stays in the work set
from call to call, and no later step touches its row.  It performs the
same IEEE operations in the same order as the Python and NumPy forms it
replaced, so its values are theirs bit for bit, and adds each integral in lanes of blocks of nodes, in the order of
`lyapunov._dot`.  The library is built when this module is imported,
with the C compiler Python was built with, and cached in the package's
`__pycache__`.  A StepWork built once per batch holds two states, which
the steps write in turn.  Given two threads, a batch on a grid of at
least SPLIT_NODES nodes splits each step between the calling thread and a
helper thread that each call of the loop starts and joins, with the same
bits.
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

from .disturbance import PARAMETERS, DisturbanceSpec, sample_b
from .lyapunov import BLOCK, Quadrature, energy_E1, energy_classic, grad_norm, h1_integrand
from .stationary import PipeParams, StationaryProfile, require


# How _lw.c is compiled.  -ffp-contract=off, and no fast-math, so that no
# a * b + c becomes a fused multiply-add and nothing is reordered: each
# operation rounds as the NumPy ufunc or Python float operation that it
# replaces does.  -fno-builtin, so that pow, exp, sin and cos are libm's, as
# Python's ** and math functions call them: GCC would fold pow(x, 2.0) into
# x * x, and a sin and cos of one argument into sincos.  -O3 vectorises the
# per-node loops, and no -march: the cache key does not name the CPU, so the
# source picks the vector ISA itself, at load time (CLONES in _lw.c).
# -pthread for the helper thread of a split step.
_COMPILE = [*(sysconfig.get_config_var("CC") or "cc").split(),
            "-O3", "-std=c99", "-ffp-contract=off", "-fno-builtin", "-pthread", "-fPIC",
            "-shared"]

# The fewest grid nodes (solver.nx + 1) at which a batch given two threads
# splits each member's step between them: below it, starting the helper's
# part of each step and waiting for it costs more than half a step saves (see
# README, "Cost of a step", for the measured crossover).
SPLIT_NODES = 1801


class _Batch(ctypes.Structure):
    """lw_batch of _lw.c: the sizes of a batch and the addresses of its arrays."""

    _fields_ = [(name, ctypes.c_long) for name in (
        "members", "n", "capacity", "split")] + [
        ("dx", ctypes.c_double)] + [
        (name, ctypes.c_void_p) for name in (
            "states", "half", "share", "io", "weights", "two_decay", "coefficients", "ubar",
            "ubar_x", "ubar_m", "ubarx_m", "d_bar_m", "f_bar_m", "d_bar_i", "f_bar_i", "records")]


def _compile(source: Path, target) -> None:
    import subprocess       # only here: a run that loads a cached build does not pay its import
    command = [*_COMPILE, "-o", str(target), str(source), "-lm"]
    try:
        subprocess.run(command, check=True, capture_output=True, text=True)
    except OSError as exc:
        reason = str(exc)
    except subprocess.CalledProcessError as exc:
        errors = [line.strip() for line in exc.stderr.splitlines() if "error" in line]
        reason = errors[0] if errors else f"exit code {exc.returncode}"
    else:
        return
    raise OSError(f"cannot build the compiled time loop: `{' '.join(_COMPILE)}` "
                  f"failed ({reason}); running a scenario needs a C compiler")


def _load_library():
    """The compiled time loop, built at most once per C source, compile command and
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
    lib.lw_advance.argtypes = (ctypes.POINTER(_Batch), ctypes.c_long, ctypes.c_long)
    lib.lw_advance.restype = ctypes.c_long
    for layout in (lib.lw_half_row, lib.lw_share):
        layout.argtypes, layout.restype = (ctypes.c_long,), ctypes.c_long
    double = ctypes.POINTER(ctypes.c_double)
    lib.lw_sample_b.argtypes = (double, ctypes.c_double, double)
    lib.lw_sample_b.restype = None
    return lib


try:
    _LW = _load_library()
except OSError as exc:      # raised when a step runs: the verbs that run none still work
    _LW = exc


def step_library():
    """The compiled time loop; raises the OSError that kept it from being built or loaded."""
    if isinstance(_LW, OSError):
        raise OSError(str(_LW))
    return _LW


class SolverError(RuntimeError):
    """A numerical failure of a member's step."""


class BlowUpError(SolverError):
    """Raised when the perturbation leaves the configured amplitude guard, or
    starts with a non-finite value in any field."""


class CFLError(SolverError):
    pass


@dataclass
class FieldState:
    """(u, u_t, u_x) at one time: the (B, nx+1) arrays of a batch, with a
    list of the B members' times, or the 1-D copies of one member's arrays
    and its time that a snapshot holds."""

    t: list | float
    xs: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)   # u_t
    w: np.ndarray = field(repr=False)   # u_x


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


def lower_order_F(u, ux, ut, ubar, ubar_x, a, theta):
    """Lower-order term of the perturbation equation, definitional form.

    F = F~(u+ubar, u_x+ubar_x, u_t)
        - [(a^2 - (ubar+u)^2)/(a^2 - ubar^2)] * F~(ubar, ubar_x, 0).

    `half_step_v` in _lw.c computes F with these operations, in this order.
    """
    d_bar, f_bar = stationary_forcing(ubar, ubar_x, a, theta)
    m = ubar + u
    return f_tilde(m, ux + ubar_x, ut, theta) - ((a ** 2 - m ** 2) / d_bar) * f_bar


@dataclass(frozen=True)
class ProfileTerms:
    """The time-independent values `step` reads, built once per batch as
    (B, n) profile arrays, B = 1 included, and per-member coefficients."""

    ubar: np.ndarray        # ubar and ubar_x at the nodes
    ubar_x: np.ndarray
    ubar_m: np.ndarray      # ubar and ubar_x averaged onto the midpoints
    ubarx_m: np.ndarray
    forcing_m: tuple        # stationary_forcing on the midpoints
    forcing_i: tuple        # stationary_forcing at the interior nodes
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

    a, theta = [p.a for p in params], [p.theta for p in params]
    coefficients = np.array([a, [x ** 2 for x in a], [p.k for p in params], theta,
                             [1.5 * x for x in theta]])
    return ProfileTerms(ubar, ubar_x, ubar_m, ubarx_m, forcing(ubar_m, ubarx_m),
                        forcing(ubar[:, 1:-1], ubar_x[:, 1:-1]), coefficients)


def wave_speed(terms: ProfileTerms, state: FieldState) -> list:
    """Fastest characteristic speed max|ubar + u| + a of each member of a
    state, as `step` computes it for the state it returns.

    Equal to max(|ubar + u| + a) bit for bit, since x -> fl(x + a) is
    monotone.
    """
    return (np.maximum.reduce(np.abs(terms.ubar + state.u), -1) + terms.coefficients[0]).tolist()


def _address(x: np.ndarray, shape: tuple) -> int:
    """The address of a float64 C-contiguous array of the given shape, for _lw.c."""
    if x.shape != shape or x.dtype != np.float64 or not x.flags.c_contiguous:
        raise ValueError(f"an array of shape {x.shape} ({x.dtype}) where the compiled "
                         f"step needs a C-contiguous float64 array of shape {shape}")
    return x.ctypes.data


# The rows of StepWork.io, in the order _lw.c reads them: each member's loop
# state (its time, next snapshot time, t_end, CFL number times dx, guard,
# wave speed, last time step and last max|ubar + u|), its outcome (status,
# and the CFL number or max|u| and the time of a step it failed), then its
# disturbance (DisturbanceSpec.parameters).
IO = ("t", "t_snap", "t_end", "cfl_dx", "guard", "speed", "dt", "top", "status", "value", "at",
      *PARAMETERS)
# The values of io's status row, as _lw.c numbers them: a member runs until
# it reaches its t_end or fails a step
RUNNING, ENDED, CFL_FAILED, GUARD_FAILED = 0.0, 1.0, 2.0, 3.0


class StepWork:
    """The arrays `step` works in, built once for one state shape.

    `states` holds the (u, v, w) of two states, and `views` their (u, v,
    w) arrays: each step writes the state it does not read, so a failed
    step leaves the one it started from.  `half` holds one member's (u, v,
    w) at t + dt/2 on the cells, `share` each member's E1 and H1 sums of
    each block of the sum order (lyapunov.BLOCK nodes) and the maxima of
    each part of its step, in the layouts that _lw.c gives (lw_half_row,
    lw_share).  `io` holds lw_advance's per-member values, one row per
    name of IO, and `values` maps each name to its row; every member
    starts RUNNING.  `taken` is the number of steps the last call of
    `step` took.

    Each member's step is split at node `split`: with `threads` = 2 the
    block edge nearest n / 2 unless set before the first step, else n,
    which is one part; a split is a block edge that leaves the helper 3
    nodes or more.  Split, each call of lw_advance starts a helper thread
    and joins it before it returns: the calling thread takes the nodes
    before `split`, the helper the rest.  Each part computes the cells it
    reads and sums its own blocks, and the caller adds every block's sums
    in block order, so the values are those of one thread bit for bit.
    """

    def __init__(self, state: FieldState, threads: int = 1):
        members, n = state.u.shape
        self.dx = float(state.xs[1] - state.xs[0])
        self.quad = Quadrature(state.xs)
        self.states = np.empty((2, 3, members, n))
        self.views = [tuple(fields) for fields in self.states]
        lib = step_library()
        self.half = np.empty((3, lib.lw_half_row(n)))
        self.share = np.empty((members, lib.lw_share(n)))
        self.split = BLOCK * max(1, round(n / (2 * BLOCK))) if threads == 2 else n
        self.io = np.zeros((len(IO), members))
        self.values = dict(zip(IO, self.io))
        self.taken = 0
        self.terms = self.batch = None

    def load(self, disturbances: list, **values):
        """Set each member's inputs to lw_advance: its DisturbanceSpec, and its
        value of each name of IO given (speed, guard, cfl_dx, t_snap, t_end)."""
        for name, column in values.items():
            self.values[name][:] = column
        self.io[IO.index(PARAMETERS[0]):] = np.transpose([d.parameters for d in disturbances])

    def bind(self, terms: ProfileTerms):
        """lw_advance and the lw_batch of this work set and `terms`, built at
        the first call with them; `step` sets the records' fields."""
        if terms is not self.terms:
            members, n = self.states.shape[2:]
            if self.split != n and not (0 < self.split <= n - 3 and self.split % BLOCK == 0):
                raise ValueError(f"a step of {n} nodes cannot be split at node {self.split}")
            node, mid, inner = (members, n), (members, n - 1), (members, n - 2)
            arrays = [(terms.coefficients, (5, members)), (terms.ubar, node), (terms.ubar_x, node),
                      (terms.ubar_m, mid), (terms.ubarx_m, mid),
                      *((x, mid) for x in terms.forcing_m), *((x, inner) for x in terms.forcing_i)]
            self.batch = (step_library().lw_advance, _Batch(
                members, n, 0, self.split, self.dx, *(x.ctypes.data for x in (
                    self.states, self.half, self.share, self.io, self.quad.weights,
                    self.quad.two_decay)),
                *(_address(x, shape) for x, shape in arrays)))
            self.terms = terms
        return self.batch


def _left_guard(top: float, guard: float, t: float) -> str:
    """The message of a member whose max|u| = top is outside its guard at time t."""
    return (f"max|u| = {top:.4g} left the guard {guard:.4g} at t={t:.6g}; "
            "the run left the regime of validity")


def failure(work: StepWork, row: int) -> SolverError | None:
    """The error of the member at `row` if a step failed it, else None: the
    error that a run of that member alone raises."""
    code, x, t, bound = (float(work.values[name][row]) for name in ("status", "value", "at",
                                                                     "guard"))
    if code == CFL_FAILED:
        return CFLError(f"CFL violation at t={t:.6g}: dt*speed/dx = {x:.4f}")
    if code == GUARD_FAILED:
        return BlowUpError(_left_guard(x, bound, t))
    return None


def step(state: FieldState, terms: ProfileTerms, work: StepWork, records: np.ndarray,
         index: int) -> FieldState:
    """Advance the running members of the state by Lax-Wendroff steps, in
    one call of lw_advance.

    `terms` is profile_terms of the batch and `work` is StepWork for the
    state's shape, whose `load` set each member's disturbance, guard on
    max|u|, CFL number times dx, next snapshot time, t_end and wave speed
    (wave_speed(terms, state) for a state not stepped by it).  Each member
    steps by min(cfl_dx / speed, t_snap - t), so that it lands on its
    snapshot time; its boundary data are sample_b at the new time.  A
    state that is not one of `work`'s is first copied into it.  The steps
    go on until `records` is full, a running member reaches its t_snap (to
    1e-12) or its t_end, or no member runs: the returned state is the
    newest.  The steps are recorded from step `index` on, each member's in
    its batch row of `records`, a C-contiguous float64 array of shape
    (len(RECORDS), B, capacity) with index < capacity; `work.taken` counts
    them.

    A member that reaches its t_end becomes ENDED; a CFL violation fails a
    member before the step, a member outside its guard fails after it
    (`failure` gives its error).  Either way the member stays as it was
    from then on, its rows of the state included, and every other member
    takes that step and goes on.
    """
    capacity = records.shape[-1]
    if not 0 <= index < capacity:
        raise ValueError(f"step {index} lies outside records of shape {records.shape}")
    src = 1 if state.u is work.views[1][0] else 0
    if state.u is not work.views[src][0]:
        work.states[0] = state.u, state.v, state.w
    lw_advance, batch = work.bind(terms)
    batch.records = _address(records, (len(RECORDS), len(work.io[0]), capacity))
    batch.capacity = capacity
    work.values["t"][:] = state.t
    work.taken = lw_advance(batch, src, index)
    return FieldState(work.values["t"].tolist(), state.xs, *work.views[(src + work.taken) % 2])


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


# the per-step records that `step` writes, in the order of the records' first axis
RECORDS = ("t", "max_u", "b", "b_t", "max_ux", "max_ut", "E1", "h1")


def _snapshot_bound(snapshot_dt: float, t_end: float) -> int:
    """The snapshots a member takes at most: at t = 0 and at each next
    snapshot time min(j * snapshot_dt, t_end), j = 1, 2, ..., up to the
    first that is t_end, where it lands on its t_end and ends."""
    j = max(1, math.ceil(t_end / snapshot_dt))
    while j > 1 and (j - 1) * snapshot_dt >= t_end:
        j -= 1
    while j * snapshot_dt < t_end:
        j += 1
    return j + 1


class _Run:
    """What one member of a batch keeps apart from the batch arrays."""

    def __init__(self, member: Member, xs):
        params, profile, config = member.params, member.profile, member.config
        if profile.xs.shape != xs.shape or not np.allclose(profile.xs, xs):
            raise ValueError("profile grid does not match the solver grid")
        self.initial = [np.zeros(len(xs)) if x is None else np.array(x, dtype=float)
                        for x in member[4:]]
        if any(x.shape != xs.shape for x in self.initial):
            raise ValueError("initial data does not match the solver grid")
        # a supersonic profile fails here, this member alone, and not the batch's terms
        _subsonic(profile.ubar, params.a)
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
        self.t_snap = 0.0                   # the next snapshot time
        self.n_snap = 0                     # snapshots taken
        # (snapshot, field, node): u, v and w of each snapshot, with its time and step
        self.xs, self.snaps = xs, np.empty((_snapshot_bound(self.snapshot_dt, self.t_end), 3,
                                            len(xs)))
        self.times, self.snap_index = [], []

    def snapshot(self, state: FieldState, row: int, index: int):
        """Keep the state of the member at `row` of the batch state, taken at step `index`."""
        snap = self.snaps[self.n_snap]
        snap[0], snap[1], snap[2] = state.u[row], state.v[row], state.w[row]
        self.times.append(state.t[row])
        self.snap_index.append(index)
        self.n_snap += 1
        self.t_snap = min(self.n_snap * self.snapshot_dt, self.t_end)

    def trajectory(self, records, quad: Quadrature) -> Trajectory:
        """The member's Trajectory from its rows of the run's records, (len(RECORDS), steps + 1)."""
        rec = dict(zip(RECORDS, records))
        times = rec.pop("t")
        series = {name: rec.pop(name) for name in ("E1", "h1", "max_u", "max_ux", "max_ut")}
        snaps = FieldState(self.times, self.xs, *self.snaps[:self.n_snap].transpose(1, 0, 2))
        series["E_classic"] = energy_classic(snaps, self.k, self.a, quad)
        series["grad"] = grad_norm(snaps, quad)
        states = [FieldState(t, self.xs, *fields) for t, fields in zip(self.times, self.snaps)]
        return Trajectory(states=states, times=times, series=series, boundary=rec,
                          snap_index=np.asarray(self.snap_index))


def _capacity(runs: list, speed: list) -> int:
    """The steps the run's records hold at first: each member's steps at its
    initial wave speed and its snapshots, 5% to spare; then they double."""
    return 2 + max(int(1.05 * run.t_end * (s / run.cfl_dx + 1.0 / run.snapshot_dt))
                   for run, s in zip(runs, speed))


def simulate_batch(members: list, threads: int = 1) -> list:
    """Run scenarios that share one grid (solver.nx and pipe.L) as one batch.

    Returns one result per member: its Trajectory, or the error that ended
    it, which is the error `simulate` raises for that member alone.  Each
    member steps with its own CFL time step, clipped to land exactly on its
    own snapshot cadence, until it reaches its t_end or fails; the others
    carry on, each in its row of one work set.  Deterministic for fixed
    members.  Given `threads` = 2 on a grid of at least SPLIT_NODES nodes,
    each step is split between two threads (StepWork), with the same
    values.
    """
    grids = {(m.config.nx, m.params.L) for m in members}
    if len(grids) != 1:
        raise ValueError(f"batch members must share one grid (solver.nx, pipe.L), got {grids}")
    nx, L = grids.pop()
    xs = np.linspace(0.0, L, nx + 1)
    quad = Quadrature(xs)
    threads = 2 if threads >= 2 and len(xs) >= SPLIT_NODES else 1
    results = [None] * len(members)
    runs, slots = [], []        # the members that start, and their index in `members`
    for slot, member in enumerate(members):
        try:
            runs.append(_Run(member, xs))
            slots.append(slot)
        except (ValueError, BlowUpError) as exc:
            results[slot] = exc
    if not runs:
        return results

    state = FieldState([0.0] * len(runs), xs,
                       *(np.stack([run.initial[f] for run in runs]) for f in range(3)))
    for row, run in enumerate(runs):
        run.snapshot(state, row, 0)
    terms = profile_terms([(members[slot].profile, members[slot].params) for slot in slots])
    speed = wave_speed(terms, state)
    records = np.empty((len(RECORDS), len(runs), _capacity(runs, speed)))
    work = StepWork(state, threads)
    work.load([run.spec for run in runs], speed=speed,
              **{name: [getattr(run, name) for run in runs]
                 for name in ("guard", "cfl_dx", "t_snap", "t_end")})
    b0 = [sample_b(run.spec, 0.0)[:2] for run in runs]
    top_u, top_ux, top_ut = (np.maximum.reduce(np.abs(x), -1) for x in (state.u, state.w, state.v))
    a, k = terms.coefficients[0, :, None], terms.coefficients[2, :, None]
    records[:, :, 0] = (
        state.t, top_u, [b for b, _ in b0], [bt for _, bt in b0], top_ux, top_ut,
        energy_E1(state, terms, k, a, quad), h1_integrand(state, quad))

    status = work.values["status"]
    status[[not 0.0 < run.t_end - 1e-12 for run in runs]] = ENDED
    steps, rows = 0, list(range(len(runs)))     # rows: the members without a result
    while True:
        for row in rows:
            if status[row] == ENDED:
                results[slots[row]] = runs[row].trajectory(records[:, row, :steps + 1], quad)
            elif status[row] != RUNNING:
                results[slots[row]] = failure(work, row)
        rows = [row for row in rows if status[row] == RUNNING]
        if not rows:
            return results
        if steps + 1 == records.shape[2]:
            records = np.concatenate([records, np.empty_like(records)], axis=2)
        state = step(state, terms, work, records, steps + 1)
        steps += work.taken
        t_snap = work.values["t_snap"]
        for row in rows:
            run = runs[row]
            if status[row] in (RUNNING, ENDED) and state.t[row] >= run.t_snap - 1e-12:
                run.snapshot(state, row, steps)
                t_snap[row] = run.t_snap


def simulate(params: PipeParams, profile: StationaryProfile,
             disturbance: DisturbanceSpec, config: SolverConfig,
             initial_u=None, initial_v=None, initial_w=None, threads: int = 1) -> Trajectory:
    """Run the closed-loop system on [0, t_end]: a batch of one member.

    Deterministic for a fixed configuration, whatever `threads`
    (simulate_batch).  The time step is recomputed every step from the CFL
    condition and clipped to land exactly on the snapshot cadence, so
    output times are exact multiples of snapshot_dt.
    """
    (result,) = simulate_batch([Member(params, profile, disturbance, config,
                                       initial_u, initial_v, initial_w)], threads)
    if isinstance(result, Exception):
        raise result
    return result
