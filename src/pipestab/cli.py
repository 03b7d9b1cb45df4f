"""Configuration-driven entry point.

Verbs:
    pipestab run <config>                  simulate, evaluate, certify
    pipestab sweep <config> --set k=v1,v2  grid of runs, one summary row each
    pipestab constants <config>            print the theorem constants
    pipestab stationary <config>           print the stationary profile table

Exit codes for `run`: 0 when the verdict is certified or
bound_holds_hypotheses_fail, 2 when a decay bound is violated, 1 on
configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

from . import certificate as cert
from . import lyapunov
from .config import ConfigError, ScenarioConfig, _parse_value
from .disturbance import verify_noise_bound
from .dynamics import BlowUpError, CFLError, Member, simulate, simulate_batch
from .stationary import build_stationary

CSV_HEADER = "t,E1,E,H,E_classic,grad_norm,max_u,u_0,ut_0,ux_0,u_L,b,b_t,hyp_ok"

# what ends one scenario with exit code 1 (run) or an error row (sweep)
RUN_ERRORS = (ConfigError, ValueError, OSError, BlowUpError, CFLError)

# Cells (members x grid points) of one solver batch in `execute_runs`: the
# records a batch keeps in memory grow with it, see README.
BATCH_CELLS = 808


def _fmt(x) -> str:
    return repr(float(x))


def _member(cfg: ScenarioConfig) -> Member:
    """The simulation inputs of one scenario."""
    params = cfg.pipe_params()
    solver = cfg.solver_config()
    xs = np.linspace(0.0, params.L, solver.nx + 1)
    profile = build_stationary(params, cfg["stationary.u0"], xs)
    return Member(params, profile, cfg.disturbance_spec(), solver, *cfg.initial_arrays(xs))


def _evaluate(cfg: ScenarioConfig, member: Member, traj):
    """Certify one simulated scenario and write its CSV and reports.

    Returns (report, run_summary) where run_summary carries the fitted
    decay rate and everything the sweep summary needs.
    """
    params, profile, spec = member.params, member.profile, member.disturbance
    T_period = spec.T_period
    times = traj.times
    noise = verify_noise_bound(times, traj.boundary["b"], traj.boundary["b_t"],
                               T_period, spec.nu, spec.C_nu)
    constants = cert.compute_constants(params, cfg["certificate.lambda"],
                                       spec.nu, spec.C_nu)
    hyp = cert.check_hypotheses(traj, profile, params, constants, noise["pass"])

    E_series = lyapunov.windowed_series(traj.series["E1"], times, T_period)
    H_series = lyapunov.windowed_series(traj.series["h1"], times, T_period)
    b_final_zero = bool(np.all(np.asarray(traj.boundary["b"])[times >= times[-1] - T_period] == 0.0))
    bounds = cert.verify_decay_bounds(times, E_series, H_series, constants,
                                      T_period, params.L, b_final_zero=b_final_zero)
    report = cert.assemble_report(constants, hyp, bounds, noise, T_period=T_period)

    # decay-rate fit on E, transients (window ramp) excluded
    fit_start = T_period + 0.5 * T_period
    try:
        fit = lyapunov.fit_decay_rate(E_series, times, window=(fit_start, times[-1]))
    except ValueError:
        fit = {"rate": float("nan"), "intercept": float("nan"),
               "r_squared": float("nan"), "n_excluded": len(E_series)}

    _write_csv(cfg, traj, E_series, H_series, hyp)
    _write_reports(cfg, report)
    summary = {"fitted_rate": fit["rate"], "r_squared": fit["r_squared"],
               "mu": constants.mu, "verdict": report.verdict,
               "max_u": float(np.max(traj.series["max_u"]))}
    return report, summary


def execute_run(cfg: ScenarioConfig):
    """Run one scenario end to end.

    Returns (report, run_summary), see _evaluate, and writes the CSV and
    the text/JSON certificate reports to the configured paths.
    """
    member = _member(cfg)
    return _evaluate(cfg, member, simulate(*member))


def execute_runs(cfgs: list) -> list:
    """Run scenarios end to end, batching those that share a grid.

    Scenarios with equal (solver.nx, pipe.L) are simulated together, in
    batches of at most BATCH_CELLS // (nx + 1) members, in input order.
    Returns, per config, what execute_run returns or the error (one of
    RUN_ERRORS) that ended that scenario; the others are not affected.
    """
    results = [None] * len(cfgs)
    groups = {}
    for i, cfg in enumerate(cfgs):
        groups.setdefault((cfg["solver.nx"], cfg["pipe.L"]), []).append(i)
    for (nx, _), ids in groups.items():
        size = max(1, BATCH_CELLS // (nx + 1))
        for start in range(0, len(ids), size):
            _run_batch(cfgs, ids[start:start + size], results)
    return results


def _run_batch(cfgs: list, ids: list, results: list):
    """Simulate cfgs[i] for i in ids as one batch; store each result at i.

    A function of its own, so that one batch's trajectories are freed
    before the next batch runs.
    """
    members = {}
    for i in ids:
        try:
            members[i] = _member(cfgs[i])
        except RUN_ERRORS as exc:
            results[i] = exc
    if not members:
        return
    for (i, member), traj in zip(members.items(), simulate_batch(list(members.values()))):
        if isinstance(traj, Exception):
            results[i] = traj
            continue
        try:
            results[i] = _evaluate(cfgs[i], member, traj)
        except RUN_ERRORS as exc:
            results[i] = exc


def _write_csv(cfg, traj, E_series, H_series, hyp):
    """One row per snapshot; E and H are the trailing-window energies, the
    boundary values of u, u_t and u_x are the ends of the snapshot state."""
    times = traj.times
    rows = [CSV_HEADER]
    for i, (j, state) in enumerate(zip(traj.snap_index, traj.states)):
        rows.append(",".join([
            _fmt(times[j]),
            _fmt(traj.series["E1"][j]),
            _fmt(E_series[j]),
            _fmt(H_series[j]),
            _fmt(traj.series["E_classic"][i]),
            _fmt(traj.series["grad"][i]),
            _fmt(traj.series["max_u"][j]),
            _fmt(state.u[0]),
            _fmt(state.v[0]),
            _fmt(state.w[0]),
            _fmt(state.u[-1]),
            _fmt(traj.boundary["b"][j]),
            _fmt(traj.boundary["b_t"][j]),
            str(int(hyp.per_step_ok[j])),
        ]))
    Path(cfg["output.csv_path"]).write_text("\n".join(rows) + "\n")


def _write_reports(cfg, report):
    path = Path(cfg["output.report_path"])
    path.write_text(report.to_text())
    path.with_suffix(path.suffix + ".json").write_text(report.to_json() + "\n")


def cmd_run(args) -> int:
    try:
        cfg = ScenarioConfig.from_file(args.config)
        report, _ = execute_run(cfg)
    except RUN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"verdict: {report.verdict}")
    return 0 if report.verdict in ("certified", "bound_holds_hypotheses_fail") else 2


def _parse_sets(set_args):
    grid = {}
    for item in set_args or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=v1,v2,..., got {item!r}")
        key, _, vals = item.partition("=")
        key = key.strip()
        grid[key] = [_parse_value(key, v.strip()) for v in vals.split(",")]
    return grid


def cmd_sweep(args) -> int:
    try:
        base = ScenarioConfig.from_file(args.config)
        grid = _parse_sets(args.set)
        if not grid:
            raise ConfigError("sweep requires at least one --set key=v1,v2,... override")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    keys = sorted(grid)
    out_path = Path(args.out) if args.out else Path(args.config).with_suffix(".sweep.csv")
    try:   # fail before the grid runs, not after
        out_path.open("a").close()
    except OSError as exc:
        print(f"error: cannot write the sweep summary: {exc}", file=sys.stderr)
        return 1
    combos = list(itertools.product(*(grid[k] for k in keys)))
    results = [None] * len(combos)
    cfgs = {}
    for run_id, combo in enumerate(combos):
        tag = f"_{run_id:03d}"
        try:
            cfg = base.replace(**dict(zip(keys, combo)))
            csv_p = Path(cfg["output.csv_path"])
            rep_p = Path(cfg["output.report_path"])
            cfgs[run_id] = cfg.replace(**{
                "output.csv_path": str(csv_p.with_name(csv_p.stem + tag + csv_p.suffix)),
                "output.report_path": str(rep_p.with_name(rep_p.stem + tag + rep_p.suffix))})
        except RUN_ERRORS as exc:
            results[run_id] = exc
    for run_id, result in zip(cfgs, execute_runs(list(cfgs.values()))):
        results[run_id] = result
    rows = ["run_id," + ",".join(keys) + ",fitted_rate,mu,verdict"]
    for run_id, (combo, result) in enumerate(zip(combos, results)):
        if isinstance(result, Exception):
            fitted, mu, verdict = float("nan"), float("nan"), f"error: {result}"
        else:
            summary = result[1]
            fitted, mu, verdict = summary["fitted_rate"], summary["mu"], summary["verdict"]
        cells = [str(run_id)] + [
            _fmt(v) if isinstance(v, float) else str(v) for v in combo]
        rows.append(",".join(cells + [_fmt(fitted), _fmt(mu), verdict.replace(",", ";")]))
    out_path.write_text("\n".join(rows) + "\n")
    print(f"wrote {out_path}")
    return 0


def cmd_constants(args) -> int:
    try:
        cfg = ScenarioConfig.from_file(args.config)
        constants = cert.compute_constants(
            cfg.pipe_params(), cfg["certificate.lambda"],
            cfg["disturbance.nu"], cfg["disturbance.C_nu"])
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, val in constants.as_dict().items():
        print(f"{name:>10} = {val!r}")
    return 0


def cmd_stationary(args) -> int:
    try:
        cfg = ScenarioConfig.from_file(args.config)
        params = cfg.pipe_params()
        xs = np.linspace(0.0, params.L, cfg["solver.nx"] + 1)
        profile = build_stationary(params, cfg["stationary.u0"], xs)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"# c1 = {profile.c1!r}, L_crit = {profile.L_crit!r}")
    print("x,ubar,ubar_x")
    for x, ub, ubx in zip(profile.xs, profile.ubar, profile.ubar_x):
        print(f"{_fmt(x)},{_fmt(ub)},{_fmt(ubx)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pipestab",
        description="Boundary-feedback stabilization of subsonic pipe flow: "
                    "simulation and decay certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate one scenario and certify it")
    p.add_argument("config")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="grid of runs over --set overrides")
    p.add_argument("config")
    p.add_argument("--set", action="append", metavar="key=v1,v2,...",
                   help="override a config key with a list of values")
    p.add_argument("--out", default=None, help="summary CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("constants", help="print the theorem constants")
    p.add_argument("config")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("stationary", help="print the stationary profile table")
    p.add_argument("config")
    p.set_defaults(func=cmd_stationary)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
