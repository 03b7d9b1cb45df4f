"""Tests of the benchmark itself: each output check rejects a corrupted
output, traced counts repeat exactly, and the benchmark refuses to run
without the program.

Run from the repository root:  python3 -m pytest perfbench
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pipestab  # noqa: E402
import pipestab.cli  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SCENARIO = dict(workloads.PIPE, **{
    "disturbance.family": "compact_burst", "disturbance.A": 1e-4,
    "disturbance.f": 1.0, "disturbance.gamma": 0.6, "disturbance.nu": 1.0,
    "disturbance.C_nu": 1e-5, "disturbance.T_period": 1.0, "disturbance.seed": 7,
    "initial.family": "bump", "initial.amplitude": 1e-3, "initial.center": 0.5,
    "initial.width": 0.2,
    "solver.nx": 32, "solver.t_end": 2.0, "solver.snapshot_dt": 0.25,
})


def _main(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pipestab.cli.main(argv)
    return code, buf.getvalue()


def _write_config(tmp: Path, cfg: dict) -> Path:
    path = tmp / "scenario.cfg"
    path.write_text(workloads.render(dict(cfg, **{
        "output.csv_path": str(tmp / "run.csv"),
        "output.report_path": str(tmp / "report.txt")})))
    return path


@pytest.fixture(scope="module")
def run_output(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    cfg_path = _write_config(tmp, SCENARIO)
    assert _main(["run", str(cfg_path)])[0] == 0
    code, table = _main(["stationary", str(cfg_path)])
    assert code == 0
    return {"csv": checks.read_csv(tmp / "run.csv"),
            "report": checks.read_report(tmp / "report.txt.json"),
            "table": table}


@pytest.fixture(scope="module")
def sweep_output(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = dict(SCENARIO, **{"disturbance.family": "decaying_burst"})
    cfg_path = _write_config(tmp, cfg)
    grid = {"feedback.k": [2.5, 6.0]}
    wl = workloads.Workload("sweep", cfg, grid)
    assert _main(["sweep", str(cfg_path), "--out", str(tmp / "sweep.csv"),
                  "--set", "feedback.k=2.5,6.0"])[0] == 0
    return {"path": tmp / "sweep.csv", "scenarios": wl.scenario_configs(),
            "keys": sorted(grid)}


def test_clean_outputs_pass(run_output, sweep_output):
    checks.check_verdict(run_output["report"]["verdict"], "report")
    checks.check_constants(run_output["report"], SCENARIO, "report")
    for check in (checks.check_decay_bounds, checks.check_boundary_disturbance,
                  checks.check_feedback_law):
        check(run_output["csv"], SCENARIO, "csv")
    checks.check_final_window(run_output["csv"], run_output["report"], SCENARIO, "csv")
    checks.check_stationary(run_output["table"], SCENARIO, "table")
    assert checks.check_sweep_summary(**sweep_output) == set()


@pytest.mark.parametrize("name", checks.CONSTANT_NAMES)
def test_constants_reject_corruption(run_output, name):
    report = json.loads(json.dumps(run_output["report"]))
    report["constants"][name] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckFailed, match=name):
        checks.check_constants(report, SCENARIO, "report")


def _corrupt(csv, column, row, value):
    bad = {k: list(v) for k, v in csv.items()}
    bad[column][row] = value(bad[column][row])
    return bad


@pytest.mark.parametrize("column", ["E", "H"])
def test_decay_bounds_reject_corruption(run_output, column):
    csv = run_output["csv"]
    ref = checks.theorem_constants(SCENARIO)
    T, t = SCENARIO["disturbance.T_period"], csv["t"][-1]
    bound = math.exp(-ref["mu"] * (t - T)) * (csv["E"][csv["t"].index(T)]
                                             + ref["Cg"] / ref["delta"])
    if column == "H":
        bound = ref["K1"] * bound + 2.0 * SCENARIO["pipe.L"] * SCENARIO["disturbance.C_nu"] \
            * math.exp(-SCENARIO["disturbance.nu"] * t)
    bad = _corrupt(csv, column, -1, lambda v: bound * 1.001)
    with pytest.raises(checks.CheckFailed, match="decay bound"):
        checks.check_decay_bounds(bad, SCENARIO, "csv")


def test_final_window_rejects_corruption(run_output):
    csv, report = run_output["csv"], run_output["report"]
    ref = checks.theorem_constants(SCENARIO)
    T, t = SCENARIO["disturbance.T_period"], csv["t"][-1]
    # above bound (iii) but below bound (ii), which adds 2 L C_nu e^{-nu t}
    bound = ref["K1"] * math.exp(-ref["mu"] * (t - T)) * (csv["E"][csv["t"].index(T)]
                                                         + ref["Cg"] / ref["delta"])
    bad = _corrupt(csv, "H", -1, lambda v: bound * 1.001)
    checks.check_decay_bounds(bad, SCENARIO, "csv")
    with pytest.raises(checks.CheckFailed, match="final-window bound"):
        checks.check_final_window(bad, report, SCENARIO, "csv")

    unchecked = json.loads(json.dumps(report))
    unchecked["bounds"]["final_window_checked"] = False
    with pytest.raises(checks.CheckFailed, match="not checked"):
        checks.check_final_window(csv, unchecked, SCENARIO, "csv")


@pytest.mark.parametrize("column", ["b", "b_t"])
def test_disturbance_rejects_corruption(run_output, column):
    csv = run_output["csv"]
    row = max(range(len(csv[column])), key=lambda i: abs(csv[column][i]))
    bad = _corrupt(csv, column, row, lambda v: v * (1.0 + 1e-6))
    with pytest.raises(checks.CheckFailed, match="closed form"):
        checks.check_boundary_disturbance(bad, SCENARIO, "csv")


def test_feedback_law_rejects_corruption(run_output):
    csv = run_output["csv"]
    row = max(range(len(csv["ut_0"])), key=lambda i: abs(csv["ut_0"][i]))
    assert csv["ut_0"][row] != 0.0
    bad = _corrupt(csv, "ux_0", row, lambda v: v * (1.0 + 1e-9))
    with pytest.raises(checks.CheckFailed, match="k u_t"):
        checks.check_feedback_law(bad, SCENARIO, "csv")


def test_stationary_rejects_corruption(run_output):
    lines = run_output["table"].splitlines()
    x, ubar, ubar_x = lines[10].split(",")
    lines[10] = ",".join([x, repr(float(ubar) * (1.0 + 1e-7)), ubar_x])
    with pytest.raises(checks.CheckFailed, match="theta x"):
        checks.check_stationary("\n".join(lines), SCENARIO, "table")


def test_verdict_rejects_violation():
    with pytest.raises(checks.CheckFailed):
        checks.check_verdict("bound_violated", "report")


@pytest.mark.parametrize("cell, value, error", [
    ("mu", lambda v: repr(float(v) * (1.0 + 1e-9)), "closed form"),
    ("verdict", lambda v: "bound_violated", "verdict"),
    ("feedback.k", lambda v: "3.0", "feedback.k"),
])
def test_sweep_summary_rejects_corruption(sweep_output, tmp_path, cell, value, error):
    header, first, *rest = sweep_output["path"].read_text().splitlines()
    cells = first.split(",")
    i = header.split(",").index(cell)
    cells[i] = value(cells[i])
    bad = tmp_path / "sweep.csv"
    bad.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    with pytest.raises(checks.CheckFailed, match=error):
        checks.check_sweep_summary(bad, sweep_output["scenarios"], sweep_output["keys"])


def test_sweep_summary_counts_error_rows(sweep_output, tmp_path):
    header, first, *rest = sweep_output["path"].read_text().splitlines()
    cells = first.split(",")
    cells[-3:] = ["nan", "nan", "error: IndexError"]
    bad = tmp_path / "sweep.csv"
    bad.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    assert checks.check_sweep_summary(bad, sweep_output["scenarios"],
                                      sweep_output["keys"]) == {0}


def _traced_run(tmp: Path) -> dict:
    cfg_path = _write_config(tmp, SCENARIO)
    tracer = spans.Tracer()
    tracer.install(pipestab)
    try:
        assert _main(["run", str(cfg_path)])[0] == 0
    finally:
        tracer.uninstall()
    tracer.write(tmp / "spans.bin")
    return spans.layer_metrics(tmp / "spans.bin", output_bytes=1)


def test_traced_counts_repeat_and_cover_every_layer(tmp_path):
    originals = {attr: getattr(pipestab.dynamics, attr) for attr in ("step", "f_tilde")}
    first = _traced_run(tmp_path)
    second = _traced_run(tmp_path)
    assert {a: getattr(pipestab.dynamics, a) for a in originals} == originals
    steps = first["dynamics.steps"]
    assert steps > 0
    for name, unit in spans.UNITS.items():
        if unit == "count":
            assert first[name] == second[name], name
    assert first["dynamics.f_tilde_calls"] == 4 * steps
    assert first["disturbance.sample_b_calls"] == steps + 1
    assert first["lyapunov.record_energy_calls"] == 4 * (steps + 1)
    assert first["dynamics.cell_updates_per_s"] > 0 and math.isfinite(
        first["dynamics.cell_updates_per_s"])

    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared == set(spans.UNITS) | {"trace.overhead_s"}


@pytest.mark.parametrize("exc", [RuntimeError("benchmark child failed (1)"),
                                 subprocess.TimeoutExpired("op.py", 1.0)])
def test_crash_is_reported_as_failed(monkeypatch, capsys, exc):
    import run

    def crash(self, mode):
        raise exc

    monkeypatch.setattr(run.Bench, "child", crash)
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "gain_sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result == {"correct": False, "attempted": 24, "failed": 24, "metrics": {}}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "demo",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
