"""Configuration-driven entry point.

Verbs:
    pipestab run <config>                  simulate, evaluate, certify
    pipestab sweep <config> --set k=v1,v2  grid of runs, one summary row each
    pipestab constants <config>            print the theorem constants
    pipestab stationary <config>           print the stationary profile table

Exit codes for `run`: 0 when the verdict is certified or
bound_holds_hypotheses_fail, 2 when a decay bound is violated.  Every verb
prints `error: <message>` and exits 1 on a configuration or runtime error.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from pathlib import Path

import numpy as np

from . import certificate as cert
from . import lyapunov
from .config import ConfigError, ScenarioConfig, _parse_value
from .disturbance import verify_noise_bound
from .dynamics import BlowUpError, CFLError, Member, simulate, simulate_batch, step_library
from .stationary import build_stationary

CSV_HEADER = "t,E1,E,H,E_classic,grad_norm,max_u,u_0,ut_0,ux_0,u_L,b,b_t,hyp_ok"

# what ends a verb with exit code 1, or one scenario of a sweep with an error row
RUN_ERRORS = (ValueError, OSError, BlowUpError, CFLError)

# Cells (members x grid points) of one solver batch in `execute_runs`: the
# records a batch keeps in memory grow with it, see README.
BATCH_CELLS = 1616


class WorkerError(RuntimeError):
    """A worker process of `execute_runs` ended without sending its results.

    `ids` are the indices, into the configs, of the scenarios of its share.
    """

    def __init__(self, exitcode: int, ids: list):
        super().__init__(f"a sweep worker process exited with code {exitcode} "
                         "without sending its results")
        self.exitcode, self.ids = exitcode, ids


def _fmt(x) -> str:
    return repr(float(x))


def _member(cfg: ScenarioConfig) -> Member:
    """The simulation inputs of one scenario."""
    params = cfg.pipe_params()
    solver = cfg.solver_config()
    xs = np.linspace(0.0, params.L, solver.nx + 1)
    profile = build_stationary(params, cfg["stationary.u0"], xs)
    return Member(params, profile, cfg.disturbance_spec(), solver, *cfg.initial_arrays(xs))


def _check_writable(path, name: str):
    """Fail before anything is simulated, not after, when `path` cannot be
    written, with a message that calls it `name`; leaves no file that was
    not there."""
    existed = os.path.exists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise OSError(f"cannot write {name}: {exc.strerror}") from None
    if not existed:
        os.unlink(path)


def _check_outputs(cfg: ScenarioConfig):
    """_check_writable of each output path of a scenario."""
    for key in ("output.csv_path", "output.report_path"):
        _check_writable(cfg[key], f"`{key}` = {cfg[key]!r}")


def _evaluate(cfg: ScenarioConfig, member: Member, traj):
    """Certify one simulated scenario, write its CSV and reports, return the report."""
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
    final = np.searchsorted(times, times[-1] - T_period)   # the final window's first sample
    b_final_zero = bool(np.all(traj.boundary["b"][final:] == 0.0))
    bounds = cert.verify_decay_bounds(times, E_series, H_series, constants,
                                      T_period, params.L, b_final_zero=b_final_zero)

    # decay-rate fit on E, transients (window ramp) excluded
    try:
        fit = lyapunov.fit_decay_rate(E_series, times, window=(1.5 * T_period, times[-1]))
        rate, r_squared = fit["rate"], fit["r_squared"]
    except ValueError:
        rate = r_squared = float("nan")
    observed = {"fitted_rate": rate, "r_squared": r_squared,
                "max_u": float(np.max(traj.series["max_u"]))}
    report = cert.assemble_report(constants, hyp, bounds, noise, observed, T_period=T_period)

    _write_csv(cfg, traj, E_series, H_series, hyp)
    _write_reports(cfg, report)
    return report


def execute_run(cfg: ScenarioConfig):
    """Run one scenario end to end and return its certificate report.

    Writes the CSV and the text/JSON certificate reports to the
    configured paths, which it checks first.  The simulation may use two
    threads where this process may run on two CPUs (dynamics.simulate_batch).
    """
    _check_outputs(cfg)
    member = _member(cfg)
    return _evaluate(cfg, member, simulate(*member, threads=min(2, _usable_cpus())))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no CPU affinity on this platform
        return os.cpu_count() or 1


def _shares(cfgs: list, cpus: int) -> list:
    """The batches of `execute_runs`, dealt into P = min(cpus, batches) shares."""
    groups = {}
    for i, cfg in enumerate(cfgs):
        groups.setdefault((cfg["solver.nx"], cfg["pipe.L"]), []).append(i)
    grids = []
    for (nx, _), ids in groups.items():
        size = max(1, BATCH_CELLS // (nx + 1))
        grids.append([ids[start:start + size] for start in range(0, len(ids), size)])
    procs = max(1, min(cpus, sum(map(len, grids))))
    batches = []
    for parts in grids:
        if procs > 1 and len(parts) > 1:
            ids, count = sum(parts, []), -(-len(parts) // procs) * procs
            parts = [ids[len(ids) * j // count:len(ids) * (j + 1) // count] for j in range(count)]
        batches += parts
    return [batches[j::procs] for j in range(procs)]


def _thread_budget(cpus: int, procs: int) -> int:
    """The threads a batch may use in each of `procs` processes on `cpus` CPUs."""
    return min(2, max(1, cpus // procs))


def execute_runs(cfgs: list) -> list:
    """Run scenarios end to end, batching those that share a grid, on every CPU.

    Scenarios with equal (solver.nx, pipe.L) are simulated together, in
    batches of at most BATCH_CELLS // (nx + 1) members, in input order.
    With P = min(usable CPUs, batches) above 1, a grid that needs more than
    one batch is cut into the smallest multiple of P near-equal batches,
    and the batches are dealt round-robin into P shares: this process runs
    the first share, and one forked process per other share runs that
    share, sends its results through a pipe and exits.  Each batch may use
    _thread_budget(CPUs, P) threads (dynamics.simulate_batch); no thread
    outlives a batch's step, so each fork copies a single-threaded process.

    Returns, per config, its report or the error (one of RUN_ERRORS)
    that ended that scenario; the others are not affected.  Raises
    WorkerError when a worker process ends without sending its results;
    no worker outlives the call.
    """
    step_library()      # without it no batch can run: fail before any worker starts
    cpus = _usable_cpus()
    shares = _shares(cfgs, cpus if hasattr(os, "fork") else 1)
    threads = _thread_budget(cpus, len(shares))
    if len(shares) > 1:
        # imported only here: the import alone adds about 0.75 MB to the
        # peak RSS of a run that never forks
        import multiprocessing
        context = multiprocessing.get_context("fork")
    results = [None] * len(cfgs)
    workers = []
    try:
        for share in shares[1:]:
            receiver, sender = context.Pipe(duplex=False)
            worker = context.Process(target=_run_share, args=(cfgs, share, threads, sender))
            worker.start()
            sender.close()
            workers.append((worker, receiver, share))
        for ids in shares[0]:
            _run_batch(cfgs, ids, threads, results)
        for worker, receiver, share in workers:
            try:
                for i, result in receiver.recv().items():
                    results[i] = result
            except (EOFError, OSError):    # it ended before or while sending
                worker.join()
                raise WorkerError(worker.exitcode, [i for ids in share for i in ids]) from None
    except BaseException:
        for worker, _, _ in workers:
            worker.kill()
        raise
    finally:
        for worker, receiver, _ in workers:
            receiver.close()
            worker.join()
    return results


def _run_share(cfgs: list, share: list, threads: int, sender):
    """The body of a worker process: run the batches of `share` and send
    {index: report or error} through `sender`."""
    results = [None] * len(cfgs)
    for ids in share:
        _run_batch(cfgs, ids, threads, results)
    sender.send({i: results[i] for ids in share for i in ids})
    sender.close()


def _run_batch(cfgs: list, ids: list, threads: int, results: list):
    """Simulate cfgs[i] for i in ids as one batch on at most `threads`
    threads; store each result at i.

    A function of its own, so that one batch's trajectories are freed
    before the next batch runs.  `execute_runs` calls it in this process
    for its own share, and `_run_share` in each worker process.
    """
    members = {}
    for i in ids:
        try:
            _check_outputs(cfgs[i])
            members[i] = _member(cfgs[i])
        except RUN_ERRORS as exc:
            results[i] = exc
    if not members:
        return
    for (i, member), traj in zip(members.items(), simulate_batch(list(members.values()), threads)):
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
    report = execute_run(ScenarioConfig.from_file(args.config))
    print(f"verdict: {report.verdict}")
    return 0 if report.verdict in ("certified", "bound_holds_hypotheses_fail") else 2


def _parse_sets(set_args):
    grid = {}
    for item in set_args or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=v1,v2,..., got {item!r}")
        key, _, vals = item.partition("=")
        key = key.strip()
        if key in grid:
            raise ConfigError(f"--set gives `{key}` twice; list all its values in one --set")
        grid[key] = [_parse_value(key, v.strip()) for v in vals.split(",")]
    return grid


def cmd_sweep(args) -> int:
    base = ScenarioConfig.from_file(args.config)
    grid = _parse_sets(args.set)
    if not grid:
        raise ConfigError("sweep requires at least one --set key=v1,v2,... override")

    keys = sorted(grid)
    out_path = Path(args.out) if args.out else Path(args.config).with_suffix(".sweep.csv")
    _check_writable(out_path, f"the sweep summary {str(out_path)!r}")
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
    try:
        outcome = execute_runs(list(cfgs.values()))
    except WorkerError as exc:
        run_ids = list(cfgs)
        print(f"error: {exc}; no result for runs "
              + ", ".join(str(run_ids[i]) for i in exc.ids), file=sys.stderr)
        return 1
    for run_id, result in zip(cfgs, outcome):
        results[run_id] = result
    rows = ["run_id," + ",".join(keys) + ",fitted_rate,mu,verdict"]
    for run_id, (combo, report) in enumerate(zip(combos, results)):
        if isinstance(report, Exception):
            fitted, mu, verdict = float("nan"), float("nan"), f"error: {report}"
        else:
            fitted, mu, verdict = (report.observed["fitted_rate"], report.constants.mu,
                                   report.verdict)
        cells = [str(run_id)] + [
            _fmt(v) if isinstance(v, float) else str(v) for v in combo]
        rows.append(",".join(cells + [_fmt(fitted), _fmt(mu), verdict.replace(",", ";")]))
    out_path.write_text("\n".join(rows) + "\n")
    print(f"wrote {out_path}")
    return 0


def cmd_constants(args) -> int:
    cfg = ScenarioConfig.from_file(args.config)
    constants = cert.compute_constants(cfg.pipe_params(), cfg["certificate.lambda"],
                                       cfg["disturbance.nu"], cfg["disturbance.C_nu"])
    for name, val in constants.as_dict().items():
        print(f"{name:>10} = {val!r}")
    return 0


def cmd_stationary(args) -> int:
    profile = _member(ScenarioConfig.from_file(args.config)).profile
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
    try:
        return args.func(args)
    except RUN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
