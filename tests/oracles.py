"""Independent oracles shared by the test modules."""

import numpy as np

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
