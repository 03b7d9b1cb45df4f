"""The traced benchmark rebinds the module attributes listed in
perfbench/spans.py; each must still exist as a binding of its owner, or
every traced benchmark run fails."""

import importlib.util
from pathlib import Path

import pytest

import pipestab
import pipestab.cli  # noqa: F401  (the cli module is not imported by the package)

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("owner_path,attr,name", load_spans())
def test_span_binding_resolves(owner_path, attr, name):
    owner = pipestab
    for part in owner_path.split("."):
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{owner_path}.{attr} (span {name}) is not bound"
    assert callable(getattr(owner, attr))


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_traced_batch_counts_only_live_members(tmp_path):
    # Members of one batch finish at different steps (u0 sets the wave speed);
    # a finished member is not stepped, so the cells the traced step updates
    # are exactly each member's own steps times its grid size.
    import numpy as np

    from pipestab import cli, dynamics
    from pipestab.config import ScenarioConfig

    text = "\n".join([
        "pipe.L = 1.0", "pipe.a = 2.0", "pipe.theta = 0.1", "feedback.k = 4.0",
        "stationary.u0 = 0.2", "disturbance.family = decaying_burst",
        "disturbance.A = 1e-4", "disturbance.seed = 3", "disturbance.nu = 1.0",
        "disturbance.C_nu = 1e-6", "disturbance.T_period = 0.5", "solver.nx = 40",
        "solver.t_end = 1.0", "solver.snapshot_dt = 0.25", "certificate.lambda = 0.6",
        f"output.csv_path = {tmp_path / 'run.csv'}",
        f"output.report_path = {tmp_path / 'report.txt'}", ""])
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    base = ScenarioConfig.from_file(path)
    steps = [len(dynamics.simulate(*cli._member(base.replace(**{"stationary.u0": u0}))).times) - 1
             for u0 in (0.2, 0.4)]
    assert steps[0] != steps[1]

    for argv, runs in ((["sweep", str(path), "--set", "stationary.u0=0.2,0.4",
                         "--out", str(tmp_path / "sweep.csv")], steps),
                       (["run", str(path)], steps[:1])):
        tracer = load_tracer()()
        tracer.install(pipestab)
        try:
            code = cli.main(argv)
        finally:
            tracer.uninstall()
        assert code == 0
        assert tracer.counters["cell_updates"] == sum(runs) * (40 + 1)
        sample_b = tracer.names.index("disturbance.sample_b")
        assert int(np.count_nonzero(np.asarray(tracer.name_ix) == sample_b)) == sum(
            n + 1 for n in runs)
    assert "error" not in (tmp_path / "sweep.csv").read_text()
