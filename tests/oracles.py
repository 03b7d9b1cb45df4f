"""Independent oracles shared by the test modules."""

import numpy as np


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
