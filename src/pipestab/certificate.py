"""Theorem constants, hypothesis checks and decay bounds.

Everything the exponential-decay certificate needs: the closed-form
constants, the windowed-energy decay bound, the windowed-H1 bound, the
final-window bound for disturbances that vanish near the end of the
horizon, and the linear-wave comparison.

Hypothesis checking is deliberately separated from bound checking: the
smallness caps mu/(C0*K1) are numerically tiny, so a run frequently
satisfies the decay bounds while violating the strict hypotheses.  The
report distinguishes the two instead of collapsing them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict, field

import numpy as np
from numpy import add, multiply, subtract

from .stationary import PipeParams


@dataclass(frozen=True)
class TheoremConstants:
    lam: float      # split parameter in (1/2, 1)
    nu: float       # claimed disturbance decay rate
    C_nu: float     # claimed disturbance envelope constant
    M1: float
    K1: float
    K2: float
    mu: float       # certified decay rate 1/(4 e L k)
    C0: float
    Cg: float
    delta: float    # nu - mu
    mu0: float      # optimal linear-wave rate (nan if a*k <= 1)
    ubar_cap: float      # pointwise cap on the stationary velocity
    deriv_cap: float     # cap on ubar_x and on max{|u|,|u_x|,|u_t|}
    u_amp_cap: float     # cap on |u| alone (depends on ubar(0) at check time)

    def as_dict(self):
        return asdict(self)


def f_bound_constant(a, theta):
    """Coefficient of the Lipschitz-type upper bound on |F|."""
    return 18.0 + 13.0 * theta + (8.0 + 6.0 * theta) / a ** 2


def compute_constants(params: PipeParams, lam: float, nu: float, C_nu: float) -> TheoremConstants:
    """All closed-form certificate constants for the given configuration.

    Pure arithmetic, no hypothesis checking.  K1 is +inf when M1 <= 0
    (the equivalence constant is undefined there; the M1 > 0 hypothesis
    flag reports that separately).
    """
    if not 0.5 < lam < 1.0:
        raise ValueError("lambda must lie in (1/2, 1)")
    a, k, L, theta = params.a, params.k, params.L, params.theta
    e = math.e
    M1 = min(0.75 * k * a ** 2 - a - 1.0, k - 1.0)
    K1 = (1.0 + 2.0 * L ** 2) / M1 if M1 > 0 else math.inf
    K2 = max(k * a ** 2 + a + 1.0, k + 1.0)
    mu = 1.0 / (4.0 * e * L * k)
    C0 = 12.0 * k + 4.0 * (k + 1.0) * f_bound_constant(a, theta) + 10.0
    Cg = ((4.0 / 3.0) * e * a ** 2 * k ** 2 + 1.0 / (2.0 * e * K1 * k)) * C_nu
    delta = nu - mu
    mu0 = linear_rate_mu0(a, L, k)["mu0"] if a * k > 1.0 else math.nan
    cap = mu / (C0 * K1)
    return TheoremConstants(
        lam=lam, nu=nu, C_nu=C_nu, M1=M1, K1=K1, K2=K2, mu=mu, C0=C0,
        Cg=Cg, delta=delta, mu0=mu0,
        ubar_cap=min(1.0, 1.0 / (4.0 * k * e), (1.0 - lam) * a / 2.0, cap),
        deriv_cap=min(1.0, cap),
        u_amp_cap=min((1.0 - lam) * a / 2.0, 1.0 / (4.0 * k * e)))


def linear_rate_mu0(a: float, L: float, k: float):
    """Optimal linear-wave decay rate and its ratio to the quasilinear rate.

    mu0 = (a/L) ln(1 + 2/(a k - 1)); the ratio mu0/mu equals
    4 e ln((1 + 2/(a k - 1))^{a k}) and tends to 8 e for large a k.
    """
    if a * k <= 1.0:
        raise ValueError("the linear-wave result requires a*k > 1")
    mu0 = (a / L) * math.log1p(2.0 / (a * k - 1.0))
    ratio = 4.0 * math.e * a * k * math.log1p(2.0 / (a * k - 1.0))
    return {"mu0": mu0, "ratio_mu0_over_mu": ratio}


@dataclass
class HypothesisFlags:
    feedback_gain_ok: bool      # k >= max{1, (4/3)(1/a + 1/a^2), 1/(lambda a)}
    stationary_small_ok: bool   # ubar and ubar_x below their caps pointwise
    state_small_ok: bool        # per-step smallness of u, u_x, u_t
    noise_bound_ok: bool        # disturbance verifier passed
    rate_gap_ok: bool           # nu > mu
    m1_positive: bool
    first_violation_time: float | None = None
    per_step_ok: np.ndarray | None = field(default=None, repr=False)

    def all_ok(self) -> bool:
        return (self.feedback_gain_ok and self.stationary_small_ok
                and self.state_small_ok and self.noise_bound_ok
                and self.rate_gap_ok and self.m1_positive)


def check_hypotheses(trajectory, profile, params: PipeParams,
                     constants: TheoremConstants, noise_pass: bool) -> HypothesisFlags:
    """Evaluate every hypothesis of the decay theorem on a concrete run."""
    a, k = params.a, params.k
    k_ok = k >= max(1.0, (4.0 / 3.0) * (1.0 / a + 1.0 / a ** 2),
                    1.0 / (constants.lam * a)) - 1e-12
    ubar_ok = bool(np.max(profile.ubar) <= constants.ubar_cap
                   and np.max(profile.ubar_x) <= constants.deriv_cap)
    u_cap = min(float(profile.ubar[0]), constants.u_amp_cap)
    per_step = ((trajectory.series["max_u"] <= u_cap)
                & (trajectory.series["max_u"] <= constants.deriv_cap)
                & (trajectory.series["max_ux"] <= constants.deriv_cap)
                & (trajectory.series["max_ut"] <= constants.deriv_cap))
    state_ok = bool(np.all(per_step))
    first_bad = None if state_ok else float(trajectory.times[int(np.argmin(per_step))])
    return HypothesisFlags(
        feedback_gain_ok=bool(k_ok),
        stationary_small_ok=ubar_ok,
        state_small_ok=state_ok,
        noise_bound_ok=bool(noise_pass),
        rate_gap_ok=bool(constants.nu > constants.mu),
        m1_positive=bool(constants.M1 > 0),
        first_violation_time=first_bad,
        per_step_ok=per_step)


def verify_decay_bounds(times, E_series, H_series, constants: TheoremConstants,
                        T_period: float, L: float, b_final_zero: bool = False):
    """Pointwise check of the certified decay bounds on the sampled run.

    (i)  E(t) <= exp(-mu (t - T_period)) [E(T_period) + Cg/delta]
    (ii) H(t) <= K1 * (same bracket) + 2 L C_nu exp(-nu t)
    (iii) only when the disturbance vanishes on the final window:
         H(T) <= K1 exp(-mu (T - T_period)) [E(T_period) + Cg/delta]

    times must be strictly increasing and start at (or before) T_period;
    E_series and H_series are the windowed energies sampled on those
    times.  E(T_period) is interpolated, so T_period need not be a sample
    time; the bounds are checked at the samples t >= T_period.  Margins
    are bound minus value; a nonnegative worst margin (up to a tiny
    relative slack) passes.  Works in two arrays of the series' length.
    """
    if constants.delta <= 0:
        raise ValueError(
            f"decay certificate undefined: delta = nu - mu = {constants.delta:.6g} <= 0")
    times = np.asarray(times, dtype=float)
    E_series = np.asarray(E_series, dtype=float)
    H_series = np.asarray(H_series, dtype=float)
    if times[0] > T_period + 1e-9:
        raise ValueError(f"trace must start at T_period = {T_period}, starts at {times[0]}")
    E_Tp = float(np.interp(T_period, times, E_series))
    first = np.searchsorted(times, T_period - 1e-12)
    times, E_series, H_series = times[first:], E_series[first:], H_series[first:]

    bracket = E_Tp + constants.Cg / constants.delta
    bound = np.subtract(times, T_period)
    multiply(-constants.mu, bound, bound)
    np.exp(bound, bound)
    multiply(bound, bracket, bound)         # the bound on E
    other = np.absolute(bound)
    slack_E = 1e-12 * max(float(np.max(other)), 1e-300)
    multiply(constants.K1, bound, other)
    subtract(bound, E_series, bound)        # the margin of E
    worst_E = float(np.min(bound))
    multiply(-constants.nu, times, bound)
    np.exp(bound, bound)
    multiply(2.0 * L * constants.C_nu, bound, bound)
    add(other, bound, other)                # the bound on H
    slack_H = 1e-12 * max(float(np.max(np.absolute(other, bound))), 1e-300)
    subtract(other, H_series, other)        # the margin of H
    worst_H = float(np.min(other))

    # a bound of K1 = +inf (M1 <= 0) holds vacuously: None, not applicable
    k1_finite = math.isfinite(constants.K1)
    result = {
        "E_Tperiod": E_Tp,
        "bracket": bracket,
        # the worst margin is NaN when any margin is, and then fails, as it should
        "energy_bound_ok": worst_E >= -slack_E,
        "h1_bound_ok": worst_H >= -slack_H if k1_finite else None,
        "worst_energy_margin": worst_E,
        "worst_h1_margin": worst_H,
        "final_window_checked": bool(b_final_zero),
        "final_window_ok": True,
        "final_window_margin": math.nan,
    }
    if b_final_zero:
        T = float(times[-1])
        bound_final = constants.K1 * math.exp(-constants.mu * (T - T_period)) * bracket
        margin = bound_final - float(H_series[-1])
        result["final_window_ok"] = (bool(margin >= -1e-12 * max(bound_final, 1e-300))
                                     if k1_finite else None)
        result["final_window_margin"] = margin
    return result


VERDICTS = ("certified", "bound_holds_hypotheses_fail", "bound_violated")


@dataclass
class CertificateReport:
    constants: TheoremConstants
    hypotheses: HypothesisFlags
    bounds: dict
    noise: dict
    observed: dict      # fitted_rate and r_squared of E's decay fit, max_u over every step
    verdict: str
    T_half: float       # informational half-time (1/mu) ln(2 K1 K2) + T_period

    def as_dict(self):
        hyp = {k2: v for k2, v in asdict(self.hypotheses).items() if k2 != "per_step_ok"}
        return {"constants": self.constants.as_dict(),
                "observed": self.observed,
                "hypotheses": hyp,
                "bounds": self.bounds,
                "noise": self.noise,
                "verdict": self.verdict,
                "T_half": self.T_half}

    def to_json(self) -> str:
        """Strict RFC 8259 JSON: undefined (non-finite) values are written as null."""
        return json.dumps(_finite_or_null(self.as_dict()), indent=2, default=float,
                          allow_nan=False)

    def to_text(self) -> str:
        c = self.constants
        lines = ["decay certificate report", "=" * 24, "", "constants:"]
        for name, val in c.as_dict().items():
            lines.append(f"  {name:>10} = {val!r}")
        lines.append(f"  {'T_half':>10} = {self.T_half!r}   (informational)")
        lines.append("")
        lines.append("observed:")
        for name, val in self.observed.items():
            lines.append(f"  {name:>11} = {val!r}")
        lines.append("")
        lines.append("hypotheses:")
        for name, val in asdict(self.hypotheses).items():
            if name == "per_step_ok":
                continue
            lines.append(f"  {name:>22}: {val}")
        lines.append("")
        lines.append("bound checks:")
        for name, val in self.bounds.items():
            lines.append(f"  {name:>22}: {val!r}")
        lines.append("")
        lines.append(f"noise worst_ratio = {self.noise.get('worst_ratio')!r}, "
                     f"minimal C_nu = {self.noise.get('minimal_C_nu')!r}")
        lines.append("")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines) + "\n"


def _finite_or_null(obj):
    if isinstance(obj, dict):
        return {k2: _finite_or_null(v) for k2, v in obj.items()}
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def assemble_report(constants: TheoremConstants, hypotheses: HypothesisFlags,
                    bounds: dict, noise: dict, observed: dict,
                    T_period: float = 0.0) -> CertificateReport:
    # None, a check that does not apply, is not a failure
    if False in (bounds["energy_bound_ok"], bounds["h1_bound_ok"], bounds["final_window_ok"]):
        verdict = "bound_violated"
    elif hypotheses.all_ok():
        verdict = "certified"
    else:
        verdict = "bound_holds_hypotheses_fail"
    if constants.K1 > 0 and math.isfinite(constants.K1):
        t_half = (1.0 / constants.mu) * math.log(2.0 * constants.K1 * constants.K2) + T_period
    else:
        t_half = math.nan
    return CertificateReport(constants=constants, hypotheses=hypotheses,
                             bounds=bounds, noise=noise, observed=observed, verdict=verdict,
                             T_half=t_half)
