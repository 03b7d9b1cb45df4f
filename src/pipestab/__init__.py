"""Boundary-feedback stabilization of subsonic gas pipe flow.

Simulation of the closed-loop quasilinear wave equation, admissible
boundary disturbances, Lyapunov energy functionals, and a numerical
exponential-decay certificate.
"""

from .certificate import (CertificateReport, TheoremConstants, assemble_report,
                          check_hypotheses, compute_constants, gronwall_bound,
                          linear_rate_mu0, verify_decay_bounds,
                          verify_gronwall_discrete)
from .config import ConfigError, ScenarioConfig
from .disturbance import DisturbanceSpec, sample_b, verify_noise_bound
from .dynamics import (BlowUpError, CFLError, FieldState, SolverConfig,
                       Trajectory, bump_profile, f_tilde, lower_order_F,
                       simulate, step)
from .lyapunov import (check_equivalence, energy_E1, energy_classic,
                       fit_decay_rate, windowed_series)
from .stationary import (PipeParams, StationaryProfile, build_stationary,
                         critical_length, lambert_w_minus1)

__version__ = "0.1.0"
