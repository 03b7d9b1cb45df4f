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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .disturbance import DisturbanceSpec, sample_b
from .lyapunov import Quadrature, energy_E1, energy_classic, grad_norm, h1_integrand
from .stationary import PipeParams, StationaryProfile


class BlowUpError(RuntimeError):
    """Raised when the perturbation leaves the configured amplitude guard."""


class CFLError(RuntimeError):
    pass


@dataclass
class FieldState:
    """Discrete snapshot of (u, u_t, u_x) at one time."""

    t: float
    xs: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)   # u_t
    w: np.ndarray = field(repr=False)   # u_x
    # max |u|, read by the blow-up guard and by the per-step record
    max_abs_u: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.max_abs_u = float(np.abs(self.u).max())


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
    `states`); `snap_index[i]` is the step index of `states[i]`.
    """

    states: list
    times: np.ndarray
    series: dict
    boundary: dict    # per-step: u0, v0, w0, uL, b, b_t
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


def lower_order_F(u, ux, ut, ubar, ubar_x, a, theta, forcing=None):
    """Lower-order term of the perturbation equation, definitional form.

    F = F~(u+ubar, u_x+ubar_x, u_t)
        - [(a^2 - (ubar+u)^2)/(a^2 - ubar^2)] * F~(ubar, ubar_x, 0).

    `forcing` is stationary_forcing(ubar, ubar_x, a, theta), computed here
    when not given.
    """
    if forcing is None:
        forcing = stationary_forcing(ubar, ubar_x, a, theta)
    d_bar, f_bar = forcing
    m = ubar + u
    ratio = (a ** 2 - m ** 2) / d_bar
    return f_tilde(m, ux + ubar_x, ut, theta) - ratio * f_bar


@dataclass(frozen=True)
class ProfileTerms:
    """The time-independent arrays `step` reads, built once per run."""

    ubar_m: np.ndarray      # ubar and ubar_x averaged onto the midpoints
    ubarx_m: np.ndarray
    forcing_m: tuple        # stationary_forcing on the midpoints
    ubar_i: np.ndarray      # ubar and ubar_x at the interior nodes
    ubarx_i: np.ndarray
    forcing_i: tuple        # stationary_forcing at the interior nodes


def profile_terms(profile: StationaryProfile, params: PipeParams) -> ProfileTerms:
    ubar, ubar_x = profile.ubar, profile.ubar_x
    ubar_m = 0.5 * (ubar[:-1] + ubar[1:])
    ubarx_m = 0.5 * (ubar_x[:-1] + ubar_x[1:])
    ubar_i, ubarx_i = ubar[1:-1], ubar_x[1:-1]
    return ProfileTerms(
        ubar_m, ubarx_m, stationary_forcing(ubar_m, ubarx_m, params.a, params.theta),
        ubar_i, ubarx_i, stationary_forcing(ubar_i, ubarx_i, params.a, params.theta))


def wave_speed(profile: StationaryProfile, state: FieldState, a: float) -> float:
    """Fastest characteristic speed max|ubar + u| + a of a state."""
    return float((np.abs(profile.ubar + state.u) + a).max())


def f_bound_constant(a, theta):
    """Coefficient of the Lipschitz-type upper bound on |F|."""
    return 18.0 + 13.0 * theta + (8.0 + 6.0 * theta) / a ** 2


def step(state: FieldState, profile: StationaryProfile, params: PipeParams,
         b_now, dt: float, blowup_guard: float | None = None,
         terms: ProfileTerms | None = None, speed: float | None = None) -> FieldState:
    """Advance the state by one Lax-Wendroff step of size dt.

    b_now = (b, b_t) evaluated at the new time t + dt.  `terms` is
    profile_terms(profile, params) and `speed` is wave_speed of the state;
    each is computed here when not given.
    """
    a, k, theta = params.a, params.k, params.theta
    xs = state.xs
    dx = xs[1] - xs[0]
    u, v, w = state.u, state.v, state.w
    ubar = profile.ubar
    a2 = a * a
    if terms is None:
        terms = profile_terms(profile, params)
    if speed is None:
        speed = wave_speed(profile, state, a)

    if dt * speed / dx > 1.0 + 1e-12:
        raise CFLError(f"CFL violation at t={state.t:.6g}: dt*speed/dx = {dt * speed / dx:.4f}")

    # predictor: provisional values at (x_{j+1/2}, t + dt/2)
    um = 0.5 * (u[:-1] + u[1:])
    vm = 0.5 * (v[:-1] + v[1:])
    wm = 0.5 * (w[:-1] + w[1:])
    mm = terms.ubar_m + um
    dm = a2 - mm ** 2
    Fm = lower_order_F(um, wm, vm, terms.ubar_m, terms.ubarx_m, a, theta, terms.forcing_m)
    dv = v[1:] - v[:-1]
    dw = w[1:] - w[:-1]
    r = dt / (2.0 * dx)
    v_h = vm - r * (2.0 * mm * dv - dm * dw) + 0.5 * dt * Fm
    w_h = wm + r * dv
    u_h = um + 0.5 * dt * v_h

    # corrector at interior nodes, coefficients at the half-time level
    u_star = 0.5 * (u_h[:-1] + u_h[1:])
    v_star = 0.5 * (v_h[:-1] + v_h[1:])
    w_star = 0.5 * (w_h[:-1] + w_h[1:])
    m_star = terms.ubar_i + u_star
    d_star = a2 - m_star ** 2
    F_star = lower_order_F(u_star, w_star, v_star, terms.ubar_i, terms.ubarx_i, a, theta,
                           terms.forcing_i)
    dv_h = v_h[1:] - v_h[:-1]
    dw_h = w_h[1:] - w_h[:-1]
    v_new = np.empty_like(v)
    w_new = np.empty_like(w)
    v_new[1:-1] = v[1:-1] - (dt / dx) * (2.0 * m_star * dv_h - d_star * dw_h) + dt * F_star
    w_new[1:-1] = w[1:-1] + (dt / dx) * dv_h

    # left boundary: feedback w = k v plus extrapolated outgoing characteristic
    mb = ubar[0] + u[0]
    c_out = a + mb            # - d / lambda_-, frozen at the boundary speed
    r1 = v_new[1] + c_out * w_new[1]
    r2 = v_new[2] + c_out * w_new[2]
    r0 = 2.0 * r1 - r2
    v_new[0] = r0 / (1.0 + k * c_out)
    w_new[0] = k * v_new[0]

    # right boundary: Dirichlet trace drives v = b_t plus outgoing characteristic
    b_val, bt_val = b_now
    mb = ubar[-1] + u[-1]
    c_out = a - mb            # d / lambda_+, frozen at the boundary speed
    r1 = v_new[-2] - c_out * w_new[-2]
    r2 = v_new[-3] - c_out * w_new[-3]
    rL = 2.0 * r1 - r2
    v_new[-1] = bt_val
    w_new[-1] = (v_new[-1] - rL) / c_out

    u_new = u + 0.5 * dt * (v + v_new)

    new = FieldState(t=state.t + dt, xs=xs, u=u_new, v=v_new, w=w_new)
    guard = blowup_guard if blowup_guard is not None else a
    if not new.max_abs_u <= guard:   # written so that NaN fails too
        raise BlowUpError(
            f"max|u| = {new.max_abs_u:.4g} left the guard {guard:.4g} at t={new.t:.6g}; "
            "the run left the regime of validity")
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


def _record(series, boundary, state, profile, params, quad, b_val, bt_val):
    series["E1"].append(energy_E1(state, profile, params.k, params.a, quad))
    series["h1"].append(h1_integrand(state, quad))
    series["max_u"].append(state.max_abs_u)
    series["max_ux"].append(float(np.abs(state.w).max()))
    series["max_ut"].append(float(np.abs(state.v).max()))
    boundary["u0"].append(float(state.u[0]))
    boundary["v0"].append(float(state.v[0]))
    boundary["w0"].append(float(state.w[0]))
    boundary["uL"].append(float(state.u[-1]))
    boundary["b"].append(b_val)
    boundary["b_t"].append(bt_val)


def _record_snapshot(series, state, params, quad):
    series["E_classic"].append(energy_classic(state, params.k, params.a, quad))
    series["grad"].append(grad_norm(state, quad))


def simulate(params: PipeParams, profile: StationaryProfile,
             disturbance: DisturbanceSpec, config: SolverConfig,
             initial_u=None, initial_v=None, initial_w=None) -> Trajectory:
    """Run the closed-loop system on [0, t_end].

    Deterministic for a fixed configuration.  The time step is recomputed
    every step from the CFL condition and clipped to land exactly on the
    snapshot cadence, so output times are exact multiples of snapshot_dt.
    """
    nx = config.nx
    xs = np.linspace(0.0, params.L, nx + 1)
    if profile.xs.shape != xs.shape or not np.allclose(profile.xs, xs):
        raise ValueError("profile grid does not match the solver grid")
    zeros = np.zeros(nx + 1)
    u = np.array(initial_u, dtype=float) if initial_u is not None else zeros.copy()
    v = np.array(initial_v, dtype=float) if initial_v is not None else zeros.copy()
    w = np.array(initial_w, dtype=float) if initial_w is not None else zeros.copy()
    state = FieldState(t=0.0, xs=xs, u=u, v=v, w=w)

    dx = xs[1] - xs[0]
    quad = Quadrature(xs)
    terms = profile_terms(profile, params)
    series = {name: [] for name in ("E1", "E_classic", "grad", "h1",
                                    "max_u", "max_ux", "max_ut")}
    boundary = {name: [] for name in ("u0", "v0", "w0", "uL", "b", "b_t")}
    times = [0.0]
    b0, bt0, _ = sample_b(disturbance, 0.0)
    _record(series, boundary, state, profile, params, quad, b0, bt0)
    _record_snapshot(series, state, params, quad)
    states = [state]
    snap_index = [0]

    n_snap = 1
    t_end = config.t_end
    while state.t < t_end - 1e-12:
        speed = wave_speed(profile, state, params.a)
        dt = config.cfl * dx / speed
        t_snap = min(n_snap * config.snapshot_dt, t_end)
        dt = min(dt, t_snap - state.t)
        b_val, bt_val, _ = sample_b(disturbance, state.t + dt)
        state = step(state, profile, params, (b_val, bt_val), dt,
                     blowup_guard=config.blowup_guard, terms=terms, speed=speed)
        times.append(state.t)
        _record(series, boundary, state, profile, params, quad, b_val, bt_val)
        if state.t >= t_snap - 1e-12:
            states.append(state)
            snap_index.append(len(times) - 1)
            _record_snapshot(series, state, params, quad)
            n_snap += 1

    return Trajectory(states=states,
                      times=np.asarray(times),
                      series={k2: np.asarray(v2) for k2, v2 in series.items()},
                      boundary={k2: np.asarray(v2) for k2, v2 in boundary.items()},
                      snap_index=np.asarray(snap_index))
