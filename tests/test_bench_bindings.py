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


def test_traced_batch_counts_calls_and_rows(tmp_path):
    # Members of one batch finish at different steps (u0 sets the wave speed).
    # The traced `step` is one call of the compiled loop, which returns at
    # every step where a running member reaches a snapshot time or its t_end
    # (the records, sized from the wave speed at t = 0, hold these runs
    # whole).  A finished member keeps its row of the batch, which the loop
    # no longer steps: each call returns the state of every row, and counts
    # their cells.  `sample_b` is called once per member, at t = 0.
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
    alone = [dynamics.simulate(*cli._member(base.replace(**{"stationary.u0": u0})))
             for u0 in (0.2, 0.4)]
    steps = [len(traj.times) - 1 for traj in alone]
    assert steps[0] != steps[1]

    for argv, runs in ((["sweep", str(path), "--set", "stationary.u0=0.2,0.4",
                         "--out", str(tmp_path / "sweep.csv")], alone),
                       (["run", str(path)], alone[:1])):
        tracer = load_tracer()()
        tracer.install(pipestab)
        try:
            code = cli.main(argv)
        finally:
            tracer.uninstall()
        assert code == 0
        # the steps at which the loop returns, each with the rows of the batch
        returns = sorted({int(j) for traj in runs for j in traj.snap_index[1:]})
        assert len(returns) > 4 * (len(runs) - 1)
        spans = np.asarray(tracer.name_ix)
        for name, count in (("dynamics.step", len(returns)),
                            ("disturbance.sample_b", len(runs))):
            assert int(np.count_nonzero(spans == tracer.names.index(name))) == count, name
        assert tracer.counters["cell_updates"] == len(returns) * len(runs) * (40 + 1)
    assert "error" not in (tmp_path / "sweep.csv").read_text()
