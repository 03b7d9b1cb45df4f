"""pipestab benchmark: time to a verdict, sweep throughput and memory.

Usage (from the repository root):

    python3 perfbench/run.py --workload demo|fine_grid|gain_sweep \
        --seed N --seconds S --trace 0|1

Generates the workload's config files from the seed, then runs a closed
loop with one client: each operation is one `pipestab.cli.main`
invocation in a fresh single-threaded interpreter, started only after
the previous one finished and its outputs were checked (see checks.py).
Operations are started while the next one is expected to end within
--seconds.  Set-up time is sampled in further fresh interpreters.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced operations and reports the per-layer metrics of the traced
ones (spans.py).  The last line of standard output is the result JSON.
An output check that fails, or a child that crashes or overruns the
deadline, makes the result `correct: false`; a crashed operation counts
its scenarios as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PER_ROUND = 6
DEADLINE_S = 170.0       # every process of a run ends within this


def provenance(root: Path) -> dict:
    commit = None
    if (root / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {"commit": commit or "not a git checkout",
            "src_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "python": sys.version.split()[0]}


class Bench:
    """Inputs, scratch directories and child processes of one benchmark run."""

    def __init__(self, root: Path, workload: workloads.Workload, tmp: Path):
        self.root = root
        self.workload = workload
        self.started = time.monotonic()
        self.inputs = tmp / "inputs"
        self.out = tmp / "out"       # only the program writes here
        self.aux = tmp / "aux"       # captured stdout, stationary tables, spans
        self.inputs.mkdir()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(tmp),
                        PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", VECLIB_MAXIMUM_THREADS="1",
                        NUMEXPR_NUM_THREADS="1")
        # Import from cached bytecode, as an installed package does; the
        # untimed warm-up child writes it, whatever the caller's setting.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        cfg = dict(workload.config, **{"output.csv_path": str(self.out / "run.csv"),
                                       "output.report_path": str(self.out / "report.txt")})
        self.config = self.inputs / f"{workload.name}.cfg"
        self.config.write_text(workloads.render(cfg))
        self.scenarios = workload.scenario_configs()
        # one stationary table per distinct inflow velocity
        self.profiles = []
        for u0 in sorted({c["stationary.u0"] for c in self.scenarios}):
            path = self.inputs / f"stationary_{len(self.profiles)}.cfg"
            path.write_text(workloads.render(dict(cfg, **{"stationary.u0": u0})))
            self.profiles.append((path, dict(cfg, **{"stationary.u0": u0})))
        if workload.verb == "run":
            self.argv = ["run", str(self.config)]
        else:
            self.argv = ["sweep", str(self.config), "--out", str(self.out / "sweep.csv")]
            for key in sorted(workload.grid):
                values = workload.grid[key]
                self.argv += ["--set", f"{key}=" + ",".join(
                    repr(v) if isinstance(v, float) else str(v) for v in values)]

    def child(self, mode: str) -> dict:
        for d in (self.out, self.aux):
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir()
        spec = {"mode": mode, "src": str(self.root / "src"), "config": str(self.config),
                "argv": self.argv, "aux": str(self.aux), "spans": str(self.aux / "spans.bin"),
                "stationary": [str(p) for p, _ in self.profiles]}
        timeout = DEADLINE_S - (time.monotonic() - self.started)
        proc = subprocess.run([sys.executable, str(HERE / "op.py"), json.dumps(spec)],
                              cwd=self.aux, env=self.env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"benchmark child failed ({proc.returncode}):\n{proc.stderr}")
        return json.loads(proc.stdout.splitlines()[-1])

    def operation(self, traced: bool) -> dict:
        """One invocation of the workload; returns its record after checking outputs."""
        rec = self.child("trace" if traced else "run")
        rec["traced"] = traced
        rec["scenarios"] = len(self.scenarios)
        rec["failed"] = self.check(rec)
        if traced:
            output_bytes = sum(p.stat().st_size for p in self.out.iterdir())
            rec["layers"] = spans.layer_metrics(self.aux / "spans.bin", output_bytes)
        return rec

    def check(self, rec: dict) -> int:
        """Check every output of the last operation; returns the number of
        scenarios that ended in an error instead of a verdict."""
        for i, (path, cfg) in enumerate(self.profiles):
            checks.require(rec["stationary_codes"][i] == 0, f"stationary {path} failed")
            checks.check_stationary((self.aux / f"stationary_{i}.txt").read_text(), cfg,
                                    f"stationary table of {path.name}")
        if self.workload.verb == "run":
            if rec["exit_code"] == 1:
                return 1
            checks.require(rec["exit_code"] == 0, f"run exited {rec['exit_code']}")
            checks.check_scenario(self.out / "run.csv", self.out / "report.txt.json",
                                  self.scenarios[0])
            return 0
        checks.require(rec["exit_code"] == 0, f"sweep exited {rec['exit_code']}")
        errors = checks.check_sweep_summary(self.out / "sweep.csv", self.scenarios,
                                            sorted(self.workload.grid))
        for i, cfg in enumerate(self.scenarios):
            if i not in errors:
                checks.check_scenario(self.out / f"run_{i:03d}.csv",
                                      self.out / f"report_{i:03d}.txt.json", cfg)
        return len(errors)


def measure(bench: Bench, seconds: float, trace: bool, setups: list, ops: list):
    """Closed loop of whole rounds.  A round samples set-up time in
    SETUP_PER_ROUND fresh interpreters, then runs one operation (or an
    untraced/traced pair).  A round starts only while it is expected to end
    within `seconds` (the first always runs), so a run lasts about `seconds`
    on any machine, and set-up samples spread over the whole run.  Appends
    to `setups` and `ops` as it goes.
    """
    bench.child("setup")        # compiles the package's bytecode; not timed
    start = time.monotonic()
    while True:
        t = time.monotonic()
        setups += [bench.child("setup")["setup_s"] for _ in range(SETUP_PER_ROUND)]
        ops.append(bench.operation(traced=False))
        if trace:
            ops.append(bench.operation(traced=True))
        now = time.monotonic()
        if (now - start) + (now - t) > seconds:
            return


def summarise(setups, ops, trace: bool) -> dict:
    """Wall time is the mean over the run's untraced operations and the
    throughput their scenarios with a verdict over their summed wall time.
    Tried on the same runs, the mean spread less between runs than the
    fastest operation did: the minimum rests on one sample and falls with
    the number of operations, which itself falls when the host is slow.
    Set-up time, sampled many times per run, is the median."""
    plain = [op for op in ops if not op["traced"]]
    wall = sum(op["wall_s"] for op in plain)
    if not trace:
        return {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall / len(plain), "s"),
            "scenarios_per_s": (sum(op["scenarios"] - op["failed"] for op in plain) / wall,
                                "1/s"),
            "peak_rss_mb": (statistics.median([op["peak_rss_mb"] for op in plain]), "MB"),
        }
    traced = [op for op in ops if op["traced"]]
    layers = {name: (statistics.median([op["layers"][name] for op in traced]), unit)
              for name, unit in spans.UNITS.items()}
    layers["trace.overhead_s"] = (statistics.mean(op["wall_s"] for op in traced)
                                  - wall / len(plain), "s")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pipestab" / "__init__.py").is_file():
        print(f"error: {root} holds no src/pipestab; run from the repository root",
              file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed, root)
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix=f"{workload.name}-", dir=scratch) as tmp:
            bench = Bench(root, workload, Path(tmp))
            setups, ops = [], []
            try:
                measure(bench, args.seconds, bool(args.trace), setups, ops)
                correct, metrics = True, summarise(setups, ops, bool(args.trace))
            except checks.CheckFailed as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                correct, metrics = False, {}
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                # the program crashed or overran: its operation failed whole
                print(f"operation failed: {exc}", file=sys.stderr)
                n = len(bench.scenarios)
                ops.append({"traced": False, "scenarios": n, "failed": n, "crashed": True})
                correct, metrics = False, {}
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass
    info = provenance(root)
    if ops and "numpy" in ops[0]:
        info["numpy"] = ops[0]["numpy"]
    print("# " + json.dumps(info))
    if setups:
        print("# setup_s samples " + json.dumps(setups))
    for op in ops:
        print("# op " + json.dumps({k: v for k, v in op.items() if k != "layers"}))
    attempted = sum(op["scenarios"] for op in ops) or 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": sum(op["failed"] for op in ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
