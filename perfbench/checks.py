"""Checks of the program's outputs against computations made apart from it.

Every check recomputes what it compares from the scenario config and the
paper's closed forms; none compares against a stored copy of an earlier
output.  A failed check raises CheckFailed with the file and the reason.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

VERDICTS_OK = ("certified", "bound_holds_hypotheses_fail")
CONSTANT_NAMES = ("M1", "K1", "K2", "mu", "C0", "Cg", "delta", "mu0")


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


# -- reading outputs -------------------------------------------------------

def read_report(path: Path) -> dict:
    # Lenient on purpose: reports can carry NaN, which is not RFC 8259 JSON
    # but which Python's json module accepts.
    return json.loads(Path(path).read_text())


def read_csv(path: Path) -> dict:
    """Columns of a CSV file; numeric cells as floats, others as text."""
    header, *rows = Path(path).read_text().splitlines()
    names = header.split(",")
    cols = {name: [] for name in names}
    for row in rows:
        cells = row.split(",")
        require(len(cells) == len(names), f"{path}: row {row!r} has {len(cells)} cells")
        for name, cell in zip(names, cells):
            try:
                cols[name].append(float(cell))
            except ValueError:
                cols[name].append(cell)
    return cols


# -- closed forms -----------------------------------------------------------

def theorem_constants(cfg: dict) -> dict:
    """The certificate constants of the paper, from the scenario values."""
    L, a, theta, k = cfg["pipe.L"], cfg["pipe.a"], cfg["pipe.theta"], cfg["feedback.k"]
    nu, C_nu = cfg["disturbance.nu"], cfg["disturbance.C_nu"]
    e = math.e
    M1 = min(k * a * a * 3.0 / 4.0 - (a + 1.0), k - 1.0)
    K1 = (2.0 * L * L + 1.0) / M1 if M1 > 0 else math.inf
    mu = 1.0 / (4.0 * e * L * k)
    return {
        "M1": M1,
        "K1": K1,
        "K2": max(1.0 + a + k * a * a, 1.0 + k),
        "mu": mu,
        "C0": 10.0 + 12.0 * k + 4.0 * (k + 1.0) * (18.0 + 13.0 * theta
                                                  + (8.0 + 6.0 * theta) / (a * a)),
        "Cg": C_nu * (4.0 * e * (a * k) ** 2 / 3.0 + 1.0 / (2.0 * e * K1 * k)),
        "delta": nu - mu,
        "mu0": (a / L) * math.log((a * k + 1.0) / (a * k - 1.0)) if a * k > 1 else math.nan,
    }


def _smoothstep(p: float) -> tuple[float, float]:
    """C^2 ramp S(p) = 10p^3 - 15p^4 + 6p^5 on [0, 1] and its slope 30 p^2 (1-p)^2."""
    if p <= 0.0:
        return 0.0, 0.0
    if p >= 1.0:
        return 1.0, 0.0
    return p * p * p * (6.0 * p * p - 15.0 * p + 10.0), 30.0 * (p * (1.0 - p)) ** 2


def disturbance(cfg: dict, t: float) -> tuple[float, float]:
    """(b, b_t) of the configured family: A * ramp * cutoff * e^{-gamma t} sin(omega t + phase)."""
    family, A = cfg["disturbance.family"], cfg["disturbance.A"]
    if family == "zero" or A == 0.0:
        return 0.0, 0.0
    ramp = cfg["disturbance.T_period"] / 2.0
    gamma, omega = cfg["disturbance.gamma"], 2.0 * math.pi * cfg["disturbance.f"]
    seed = cfg["disturbance.seed"]
    phase = float(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi)) if seed else 0.0

    s, ds = _smoothstep(t / ramp)
    c, dc = 1.0, 0.0
    if family == "compact_burst":
        t_off = cfg["solver.t_end"] - cfg["disturbance.T_period"]
        if t >= t_off:
            return 0.0, 0.0
        up, dup = _smoothstep((t - t_off + ramp) / ramp)
        c, dc = 1.0 - up, -dup
    envelope = A * math.exp(-gamma * t)
    sin, cos = math.sin(omega * t + phase), math.cos(omega * t + phase)
    carrier = envelope * sin
    carrier_t = envelope * (omega * cos - gamma * sin)
    b = s * c * carrier
    b_t = ((ds * c + s * dc) / ramp) * carrier + s * c * carrier_t
    return b, b_t


# -- checks -----------------------------------------------------------------

def check_verdict(verdict: str, where: str):
    require(verdict in VERDICTS_OK, f"{where}: verdict {verdict!r}")


def check_constants(report: dict, cfg: dict, where: str):
    ref = theorem_constants(cfg)
    got = report["constants"]
    for name in CONSTANT_NAMES:
        require(math.isclose(got[name], ref[name], rel_tol=1e-9)
                or (math.isnan(got[name]) and math.isnan(ref[name])),
                f"{where}: {name} = {got[name]!r}, closed form gives {ref[name]!r}")


def check_decay_bounds(csv: dict, cfg: dict, where: str):
    """E(t) <= e^{-mu(t-T)}(E(T) + Cg/delta) and
    H(t) <= K1 (same) + 2 L C_nu e^{-nu t} at every snapshot t >= T."""
    ref = theorem_constants(cfg)
    T, L = cfg["disturbance.T_period"], cfg["pipe.L"]
    t = np.asarray(csv["t"])
    E = np.asarray(csv["E"])
    H = np.asarray(csv["H"])
    require(bool(np.all(np.isfinite(E)) and np.all(np.isfinite(H))),
            f"{where}: non-finite E or H")
    at_T = np.flatnonzero(np.abs(t - T) <= 1e-9)
    require(len(at_T) == 1, f"{where}: no snapshot at t = T_period = {T}")
    after = t >= T - 1e-9
    bracket = E[at_T[0]] + ref["Cg"] / ref["delta"]
    bound_E = np.exp(-ref["mu"] * (t[after] - T)) * bracket
    bound_H = ref["K1"] * bound_E + 2.0 * L * cfg["disturbance.C_nu"] * np.exp(
        -cfg["disturbance.nu"] * t[after])
    require(bool(np.all(E[after] <= bound_E * (1.0 + 1e-9))),
            f"{where}: E exceeds the energy decay bound")
    require(bool(np.all(H[after] <= bound_H * (1.0 + 1e-9))),
            f"{where}: H exceeds the H1 decay bound")


def check_final_window(csv: dict, report: dict, cfg: dict, where: str):
    """When the disturbance vanishes on the final window (compact_burst), the
    report says bound (iii) was checked, and the last snapshot satisfies it:
    H(T_end) <= K1 e^{-mu(T_end-T)}(E(T) + Cg/delta)."""
    if cfg["disturbance.family"] != "compact_burst":
        return
    bounds = report["bounds"]
    require(bounds["final_window_checked"] is True,
            f"{where}: the final-window bound was not checked")
    ref = theorem_constants(cfg)
    T, t_end = cfg["disturbance.T_period"], cfg["solver.t_end"]
    t, E, H = csv["t"], csv["E"], csv["H"]
    require(math.isclose(t[-1], t_end, rel_tol=1e-12),
            f"{where}: last snapshot at t = {t[-1]!r}, not at t_end = {t_end!r}")
    at_T = [i for i, ti in enumerate(t) if abs(ti - T) <= 1e-9]
    require(len(at_T) == 1, f"{where}: no snapshot at t = T_period = {T}")
    bound = ref["K1"] * math.exp(-ref["mu"] * (t_end - T)) * (E[at_T[0]]
                                                            + ref["Cg"] / ref["delta"])
    require(H[-1] <= bound * (1.0 + 1e-9),
            f"{where}: H(t_end) = {H[-1]!r} exceeds the final-window bound {bound!r}")
    require(bounds["final_window_ok"] is True
            and math.isclose(bounds["final_window_margin"], bound - H[-1], rel_tol=1e-9),
            f"{where}: final_window_margin = {bounds['final_window_margin']!r}, "
            f"closed form gives {bound - H[-1]!r}")


def check_boundary_disturbance(csv: dict, cfg: dict, where: str):
    scale = cfg["disturbance.A"] * (1.0 + 2.0 * math.pi * cfg["disturbance.f"]
                                    + cfg["disturbance.gamma"]
                                    + 4.0 / cfg["disturbance.T_period"])
    for t, b, b_t in zip(csv["t"], csv["b"], csv["b_t"]):
        ref_b, ref_bt = disturbance(cfg, t)
        require(math.isclose(b, ref_b, rel_tol=1e-9, abs_tol=1e-12 * scale)
                and math.isclose(b_t, ref_bt, rel_tol=1e-9, abs_tol=1e-12 * scale),
                f"{where}: at t = {t!r} (b, b_t) = ({b!r}, {b_t!r}), "
                f"closed form gives ({ref_b!r}, {ref_bt!r})")


def check_feedback_law(csv: dict, cfg: dict, where: str):
    k = cfg["feedback.k"]
    for t, ux, ut in zip(csv["t"], csv["ux_0"], csv["ut_0"]):
        require(math.isclose(ux, k * ut, rel_tol=1e-12),
                f"{where}: at t = {t!r} u_x(t,0) = {ux!r} but k u_t(t,0) = {k * ut!r}")


def check_stationary(text: str, cfg: dict, where: str):
    """The printed profile satisfies ln r - r = theta x + c1 with r = a^2/ubar^2."""
    a, theta, L = cfg["pipe.a"], cfg["pipe.theta"], cfg["pipe.L"]
    u0, nx = cfg["stationary.u0"], cfg["solver.nx"]
    lines = text.splitlines()
    r0 = a * a / (u0 * u0)
    c1 = math.log(r0) - r0
    head = dict(part.strip().split(" = ") for part in lines[0].lstrip("# ").split(","))
    require(math.isclose(float(head["c1"]), c1, rel_tol=1e-12),
            f"{where}: c1 = {head['c1']}, closed form gives {c1!r}")
    require(lines[1] == "x,ubar,ubar_x" and len(lines) == nx + 3,
            f"{where}: expected a header and {nx + 1} profile rows")
    for i, line in enumerate(lines[2:]):
        x, ubar, ubar_x = map(float, line.split(","))
        r = a * a / (ubar * ubar)
        require(math.isclose(x, i * L / nx, rel_tol=1e-12, abs_tol=1e-15),
                f"{where}: grid point {i} at x = {x!r}")
        require(abs(math.log(r) - r - theta * x - c1) <= 1e-9 * max(1.0, abs(c1)),
                f"{where}: ln r - r != theta x + c1 at x = {x!r}")
        require(math.isclose(ubar_x, 0.5 * theta * ubar ** 3 / (a * a - ubar * ubar),
                             rel_tol=1e-9, abs_tol=1e-300),
                f"{where}: ubar_x at x = {x!r} does not solve the stationary ODE")
    require(math.isclose(float(lines[2].split(",")[1]), u0, rel_tol=1e-12),
            f"{where}: ubar(0) != stationary.u0")


def check_scenario(csv_path: Path, report_path: Path, cfg: dict):
    """Every per-run check on one scenario's CSV and JSON report."""
    report = read_report(report_path)
    check_verdict(report["verdict"], str(report_path))
    check_constants(report, cfg, str(report_path))
    csv = read_csv(csv_path)
    check_decay_bounds(csv, cfg, str(csv_path))
    check_final_window(csv, report, cfg, str(csv_path))
    check_boundary_disturbance(csv, cfg, str(csv_path))
    check_feedback_law(csv, cfg, str(csv_path))


def check_sweep_summary(path: Path, scenarios: list, keys: list) -> set:
    """One row per scenario, in order, with mu = 1/(4 e L k) and an accepted
    verdict; returns the indices of error rows, which carry no verdict."""
    cols = read_csv(path)
    require(len(cols["run_id"]) == len(scenarios),
            f"{path}: {len(cols['run_id'])} rows for {len(scenarios)} scenarios")
    errors = set()
    for i, cfg in enumerate(scenarios):
        verdict = cols["verdict"][i]
        if str(verdict).startswith("error:"):
            errors.add(i)
            continue
        check_verdict(verdict, f"{path} row {i}")
        for key in keys:
            require(cols[key][i] == cfg[key], f"{path}: row {i} has {key} = {cols[key][i]!r}")
        mu = 1.0 / (4.0 * math.e * cfg["pipe.L"] * cfg["feedback.k"])
        require(math.isclose(cols["mu"][i], mu, rel_tol=1e-12),
                f"{path}: row {i} mu = {cols['mu'][i]!r}, closed form gives {mu!r}")
    return errors
