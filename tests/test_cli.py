import csv
import json
import math
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pipestab import cli, dynamics
from pipestab.certificate import compute_constants
from pipestab.cli import CSV_HEADER, _member, main
from pipestab.config import ScenarioConfig
from pipestab.dynamics import simulate
from pipestab.stationary import PipeParams


def write_cfg(tmp_path, name="scenario.cfg", **overrides):
    base = {
        "pipe.L": 1.0, "pipe.a": 2.0, "pipe.theta": 0.1, "feedback.k": 4.0,
        "stationary.u0": 0.3,
        "disturbance.family": "zero", "disturbance.nu": 1.0,
        "disturbance.C_nu": 1e-6, "disturbance.T_period": 1.0,
        "solver.nx": 32, "solver.cfl": 0.45, "solver.t_end": 2.0,
        "solver.snapshot_dt": 0.5,
        "certificate.lambda": 0.6,
        "output.csv_path": str(tmp_path / "run.csv"),
        "output.report_path": str(tmp_path / "report.txt"),
    }
    base.update(overrides)
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return path


class TestRun:
    def test_zero_scenario_exit_zero(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "verdict:" in out
        csv = (tmp_path / "run.csv").read_text().splitlines()
        assert csv[0] == CSV_HEADER
        assert len(csv) == 1 + 5      # t = 0, 0.5, 1.0, 1.5, 2.0
        for line in csv[1:]:
            fields = line.split(",")
            # all energies identically zero for the zero scenario
            assert all(float(x) == 0.0 for x in fields[1:7])
        report = (tmp_path / "report.txt").read_text()
        assert "verdict:" in report
        assert (tmp_path / "report.txt.json").exists()

    def test_zero_disturbance_observed_section(self, tmp_path):
        # E is 0 at every step, so the decay fit has no positive sample
        cfg = (Path(__file__).parent.parent / "configs" / "zero.cfg").read_text()
        cfg = cfg.replace("output.csv_path = zero.csv", f"output.csv_path = {tmp_path / 'z.csv'}")
        cfg = cfg.replace("output.report_path = zero_report.txt",
                          f"output.report_path = {tmp_path / 'z.txt'}")
        (tmp_path / "zero.cfg").write_text(cfg)
        assert main(["run", str(tmp_path / "zero.cfg")]) == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")
        report = json.loads((tmp_path / "z.txt.json").read_text(), parse_constant=reject)
        assert report["observed"]["fitted_rate"] is None
        assert report["observed"]["max_u"] == 0.0
        assert "  fitted_rate = nan\n" in (tmp_path / "z.txt").read_text()

    def test_deterministic_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, **{"disturbance.family": "decaying_burst",
                                     "disturbance.A": 1e-4,
                                     "disturbance.gamma": 0.5,
                                     "disturbance.seed": 7})
        assert main(["run", str(cfg)]) == 0
        first = (tmp_path / "run.csv").read_bytes()
        first_rep = (tmp_path / "report.txt").read_bytes()
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "run.csv").read_bytes() == first
        assert (tmp_path / "report.txt").read_bytes() == first_rep

    def test_invalid_config_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, **{"feedback.k": 0.0})
        assert main(["run", str(cfg)]) == 1
        assert "feedback.k" in capsys.readouterr().err

    def test_missing_file_exit_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["output.csv_path", "output.report_path"])
    @pytest.mark.parametrize("where", ["absent_dir", "empty"])
    def test_unwritable_output_fails_before_running(self, tmp_path, capsys, monkeypatch,
                                                    key, where):
        # a path in a directory that does not exist, or an empty path, which
        # names the current directory: exit 1 naming the key, with nothing
        # simulated and no file left behind
        def refuse(*args):
            raise AssertionError("simulated")

        monkeypatch.setattr(cli, "simulate", refuse)
        monkeypatch.chdir(tmp_path)
        path = str(tmp_path / "absent_dir" / "out") if where == "absent_dir" else ""
        cfg = write_cfg(tmp_path, **{key: path})
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write `{key}` = {path!r}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.cfg"]

    def test_boundary_columns_are_the_snapshot_ends(self, tmp_path):
        # the feedback law u_x(t, 0) = k u_t(t, 0) holds exactly at every row,
        # and u_0, ut_0, ux_0, u_L are the ends of the simulated snapshots
        cfg_path = write_cfg(tmp_path, **{
            "disturbance.family": "decaying_burst", "disturbance.A": 1e-4,
            "disturbance.gamma": 0.5, "disturbance.seed": 5, "initial.family": "bump",
            "initial.amplitude": 1e-3, "initial.center": 0.5, "initial.width": 0.2})
        assert main(["run", str(cfg_path)]) == 0
        lines = (tmp_path / "run.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
        cfg = ScenarioConfig.from_file(cfg_path)
        traj = simulate(*_member(cfg))
        assert len(rows) == len(traj.states)
        for row, state in zip(rows, traj.states):
            assert row["ux_0"] == cfg["feedback.k"] * row["ut_0"]
            assert (row["u_0"], row["ut_0"], row["ux_0"], row["u_L"]) == (
                state.u[0], state.v[0], state.w[0], state.u[-1])
        assert any(row["ut_0"] != 0.0 for row in rows)

    def test_window_off_the_step_grid(self, tmp_path, capsys):
        # T_period = 0.7 is no step time; E(T_period) is interpolated and
        # the CSV windows before t = 0.7 are truncated at t = 0
        cfg = write_cfg(tmp_path, **{"disturbance.family": "decaying_burst",
                                     "disturbance.A": 1e-4,
                                     "disturbance.T_period": 0.7,
                                     "solver.snapshot_dt": 0.3})
        assert main(["run", str(cfg)]) == 0
        assert "verdict: bound_holds_hypotheses_fail" in capsys.readouterr().out
        rows = [list(map(float, r.split(",")))
                for r in (tmp_path / "run.csv").read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.2, 1.5, 1.8, 2.0])
        assert rows[0][2] == 0.0 and rows[0][3] == 0.0

    def test_snapshot_count_bounded_exit_one(self, tmp_path, capsys):
        # t_end / snapshot_dt = 10,526 > 10,000: rejected before anything runs.  Barely
        # over the limit, so that a missing rule fails this test in seconds instead of
        # hanging it, as solver.snapshot_dt = 1e-7 (2e7 steps) would.
        cfg = write_cfg(tmp_path, **{"solver.snapshot_dt": 1.9e-4})
        assert main(["run", str(cfg)]) == 1
        assert "invalid value for `solver.snapshot_dt`" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    def test_unbounded_step_count_exit_one(self, tmp_path, capsys):
        # about 4e16 steps: their records could not be held, so the config is rejected
        cfg = write_cfg(tmp_path, **{"solver.t_end": 1e14, "solver.snapshot_dt": 1e10})
        assert main(["run", str(cfg)]) == 1
        assert "invalid value for `solver.t_end`" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    def test_reflection_free_gain_leaves_h1_bounds_not_applicable(self, tmp_path):
        # a·k = 1: M1 < 0 and K1 = +inf, so the H1 bound and the final-window bound
        # hold vacuously; they are null (not applicable), never `true`
        cfg = write_cfg(tmp_path, **{"feedback.k": 0.5, "initial.family": "bump",
                                     "initial.amplitude": 0.01})
        assert main(["run", str(cfg)]) == 0
        report = json.loads((tmp_path / "report.txt.json").read_text())
        assert report["constants"]["K1"] is None
        bounds = report["bounds"]
        assert bounds["energy_bound_ok"] is True
        assert bounds["h1_bound_ok"] is None and bounds["worst_h1_margin"] is None
        assert bounds["final_window_checked"] is True and bounds["final_window_ok"] is None
        assert report["verdict"] == "bound_holds_hypotheses_fail"

    def test_supercritical_pipe_exit_one(self, tmp_path, capsys):
        # u0 close to sonic makes L exceed the critical length
        cfg = write_cfg(tmp_path, **{"stationary.u0": 1.99, "pipe.theta": 5.0})
        assert main(["run", str(cfg)]) == 1
        assert "critical length" in capsys.readouterr().err


class TestSweep:
    def test_gain_sweep_halves_mu(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(cfg), "--set", "feedback.k=2,4,8",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "run_id,feedback.k,fitted_rate,mu,verdict"
        assert len(rows) == 4
        mus = [float(r.split(",")[3]) for r in rows[1:]]
        assert mus[0] == pytest.approx(1.0 / (8.0 * math.e), rel=1e-12)
        assert mus[0] / mus[1] == pytest.approx(2.0, rel=1e-12)
        assert mus[1] / mus[2] == pytest.approx(2.0, rel=1e-12)
        # per-run outputs exist with the _NNN tags
        assert (tmp_path / "run_000.csv").exists()
        assert (tmp_path / "run_002.csv").exists()
        assert (tmp_path / "report_001.txt").exists()

    def test_seed_sweep(self, tmp_path):
        cfg = write_cfg(tmp_path, **{"disturbance.family": "decaying_burst",
                                     "disturbance.A": 1e-4,
                                     "disturbance.gamma": 0.5})
        out = tmp_path / "seeds.csv"
        assert main(["sweep", str(cfg), "--set", "disturbance.seed=1,2,3,4",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 5
        assert rows[0].startswith("run_id,disturbance.seed,")

    def test_empty_grid_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["sweep", str(cfg)]) == 1
        assert "--set" in capsys.readouterr().err

    def test_unknown_sweep_key_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["sweep", str(cfg), "--set", "pipe.bogus=1,2"]) == 1
        assert "pipe.bogus" in capsys.readouterr().err

    def test_repeated_set_key_exit_one(self, tmp_path, capsys):
        # the second --set of a key would silently replace the first
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(cfg), "--set", "feedback.k=2", "--set", "feedback.k=4,8",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "`feedback.k`" in err
        assert not out.exists()

    @pytest.mark.parametrize("failure", ["no_loop", "worker"])
    def test_failed_sweep_leaves_no_summary(self, tmp_path, capsys, monkeypatch, failure):
        # a sweep that exits 1 before it writes its summary, because the
        # compiled loop cannot be built or a worker died, leaves no empty
        # summary behind; one that was there is kept as it was
        if failure == "no_loop":
            monkeypatch.setattr(dynamics, "_LW", OSError("cannot build the compiled time loop"))
        else:
            def died(cfgs):
                raise cli.WorkerError(-9, list(range(len(cfgs))))

            monkeypatch.setattr(cli, "execute_runs", died)
        cfg = write_cfg(tmp_path)
        out, kept = tmp_path / "sweep.csv", tmp_path / "kept.csv"
        kept.write_text("run_id\n")
        for path in (out, kept):
            assert main(["sweep", str(cfg), "--set", "feedback.k=2,4", "--out", str(path)]) == 1
            assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists() and kept.read_text() == "run_id\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv", "scenario.cfg"]

    def test_int_beyond_the_float_range_recorded_not_fatal(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(cfg), "--set", "solver.nx=32,1" + "0" * 400,
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 3
        assert "error" not in rows[1]
        assert "error: invalid value for `solver.nx`" in rows[2]

    def test_bad_value_recorded_not_fatal(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sweep.csv"
        # k = 0 violates validation for that run only; the sweep continues
        assert main(["sweep", str(cfg), "--set", "feedback.k=0,4",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert "error" in rows[1]
        assert "error" not in rows[2]

    def test_overflowing_gain_recorded_not_fatal(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(cfg), "--set", "feedback.k=4,1e308",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 3
        assert "error" not in rows[1]
        assert "error: invalid value for `feedback.k`" in rows[2]

    def test_overflowing_envelope_recorded_not_fatal(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(cfg), "--set", "disturbance.C_nu=1e-6,1e307",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 3
        assert "error" not in rows[1]
        assert "error: invalid value for `disturbance.C_nu`" in rows[2]

    def test_vacuous_certificate_recorded_not_fatal(self, tmp_path):
        cfg = write_cfg(tmp_path, **{"disturbance.C_nu": 1e298})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(cfg), "--set", f"disturbance.nu=1.0,{VACUOUS_NU}",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 3
        assert "error" not in rows[1]
        assert "error: decay certificate vacuous" in rows[2] and "`disturbance.nu`" in rows[2]

    def test_non_finite_value_recorded_not_fatal(self, tmp_path):
        cfg = write_cfg(tmp_path, **{"disturbance.family": "decaying_burst"})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(cfg), "--set", "disturbance.A=1e-4,nan",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 3
        assert rows[1].endswith("bound_holds_hypotheses_fail")
        assert "error: invalid value for `disturbance.A`" in rows[2]


    def test_snapshot_count_recorded_not_fatal(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(cfg), "--set", "solver.snapshot_dt=0.5,1.9e-4",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 3
        assert "error" not in rows[1]
        assert "error: invalid value for `solver.snapshot_dt`" in rows[2]

    def test_snapshot_memory_recorded_not_fatal(self, tmp_path):
        cfg = write_cfg(tmp_path, **{**SNAPSHOTS_BEYOND_MEMORY, "solver.nx": 32})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(cfg), "--set", "solver.nx=32,10000000000000",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 3
        assert "error" not in rows[1]
        assert "error: invalid value for `solver.nx`" in rows[2]

    def test_failed_member_isolated_from_its_batch(self, tmp_path, capsys):
        # A = 10 leaves the guard partway through; the runs of one grid share
        # a batch, and each finishes at its own step
        sweep_dir, solo_dir = tmp_path / "sweep", tmp_path / "solo"
        sweep_dir.mkdir()
        solo_dir.mkdir()
        burst = {"disturbance.family": "decaying_burst", "disturbance.seed": 5}
        cfg = write_cfg(sweep_dir, **burst)
        out = sweep_dir / "sweep.csv"
        assert main(["sweep", str(cfg), "--set", "disturbance.A=1e-4,10.0",
                     "--set", "stationary.u0=0.2,0.4", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 4
        for run_id, (amp, u0) in enumerate([(1e-4, 0.2), (1e-4, 0.4), (10.0, 0.2), (10.0, 0.4)]):
            solo = write_cfg(solo_dir, **burst, **{
                "disturbance.A": amp, "stationary.u0": u0,
                "output.csv_path": str(solo_dir / f"run_{run_id:03d}.csv"),
                "output.report_path": str(solo_dir / f"report_{run_id:03d}.txt")})
            capsys.readouterr()
            code = main(["run", str(solo)])
            cells = rows[run_id].split(",")
            assert cells[0] == str(run_id)
            if amp == 10.0:
                assert code == 1
                message = capsys.readouterr().err.strip()
                assert message.startswith("error: max|u| = ") and " at t=" in message
                assert cells[-1] == message
                assert not (sweep_dir / f"run_{run_id:03d}.csv").exists()
                continue
            assert code == 0
            assert cells[-1] == capsys.readouterr().out.strip().removeprefix("verdict: ")
            report = json.loads((solo_dir / f"report_{run_id:03d}.txt.json").read_text())
            assert cells[-2] == repr(report["constants"]["mu"])
            assert cells[-3] == repr(report["observed"]["fitted_rate"])
            for name in (f"run_{run_id:03d}.csv", f"report_{run_id:03d}.txt",
                         f"report_{run_id:03d}.txt.json"):
                assert (sweep_dir / name).read_bytes() == (solo_dir / name).read_bytes(), name

    def test_unbounded_step_count_recorded_not_fatal(self, tmp_path, capsys):
        sweep_dir, solo_dir = tmp_path / "sweep", tmp_path / "solo"
        sweep_dir.mkdir()
        solo_dir.mkdir()
        cfg = write_cfg(sweep_dir, **{"solver.snapshot_dt": 1e10})
        out = sweep_dir / "sweep.csv"
        assert main(["sweep", str(cfg), "--set", "solver.t_end=2.0,1e14",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 3
        assert "error: invalid value for `solver.t_end`" in rows[2]
        solo = write_cfg(solo_dir, **{"solver.snapshot_dt": 1e10,
                                      "output.csv_path": str(solo_dir / "run_000.csv"),
                                      "output.report_path": str(solo_dir / "report_000.txt")})
        capsys.readouterr()
        assert main(["run", str(solo)]) == 0
        assert rows[1].split(",")[-1] == capsys.readouterr().out.strip().removeprefix("verdict: ")
        for name in ("run_000.csv", "report_000.txt", "report_000.txt.json"):
            assert (sweep_dir / name).read_bytes() == (solo_dir / name).read_bytes(), name

    def test_unwritable_output_row_not_simulated(self, tmp_path, monkeypatch):
        # a scenario whose CSV cannot be written gets its error row, and the
        # batch simulates the others alone
        simulated = []
        batch = cli.simulate_batch

        def counted(members, *args):
            simulated.append(len(members))
            return batch(members, *args)

        monkeypatch.setattr(cli, "simulate_batch", counted)
        cfg = write_cfg(tmp_path)
        bad = tmp_path / "absent_dir" / "run.csv"
        assert main(["sweep", str(cfg), "--set", f"output.csv_path={tmp_path / 'run.csv'},{bad}",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert "error" not in rows[1]
        assert rows[2].endswith(f"error: cannot write `output.csv_path` = "
                                f"'{tmp_path / 'absent_dir' / 'run_001.csv'}': "
                                "No such file or directory")
        assert simulated == [1]

    def test_unwritable_summary_fails_before_running(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "absent_dir" / "sweep.csv"
        assert main(["sweep", str(cfg), "--set", "feedback.k=4.0",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "run_000.csv").exists()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="sweeps run on one CPU without os.fork")
class TestSweepProcesses:
    """A sweep on two CPUs writes what the same sweep writes on one."""

    BURST = {"disturbance.family": "decaying_burst", "disturbance.A": 1e-4,
             "disturbance.seed": 5}
    # 6 scenarios on one grid need 3 batches of 2 at nx = 32; on two CPUs
    # they run as 4 batches, [0] [3] here and [1, 2] [4, 5] in a worker
    SETS = ["--set", "disturbance.A=1e-4,10.0", "--set", "stationary.u0=0.2,1e-160,0.4"]

    @pytest.fixture(autouse=True)
    def two_batches_of_two(self, monkeypatch):
        monkeypatch.setattr(cli, "BATCH_CELLS", 2 * 33)
        yield
        assert multiprocessing.active_children() == []

    def sweep(self, tmp_path, capsys, monkeypatch, cpus, sets, name):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        folder = tmp_path / name
        folder.mkdir()
        cfg = write_cfg(folder, **self.BURST)
        capsys.readouterr()
        code = main(["sweep", str(cfg), *sets, "--out", str(folder / "sweep.csv")])
        out, err = capsys.readouterr()
        files = {path.name: path.read_bytes() for path in folder.iterdir() if path != cfg}
        return code, out.replace(str(folder), "<dir>"), err, files

    def test_two_cpus_write_what_one_writes(self, tmp_path, capsys, monkeypatch):
        parent, pids = os.getpid(), tmp_path / "pids"
        run_share = cli._run_share

        def noted(*args):
            pids.write_text(str(os.getpid()))
            run_share(*args)

        monkeypatch.setattr(cli, "_run_share", noted)
        sets = ["--set", "feedback.k=2.0,4.0,8.0", "--set", "disturbance.seed=1,2"]
        one = self.sweep(tmp_path, capsys, monkeypatch, 1, sets, "one")
        assert not pids.exists()
        two = self.sweep(tmp_path, capsys, monkeypatch, 2, sets, "two")
        assert int(pids.read_text()) != parent
        assert one == two
        code, out, err, files = two
        assert (code, out, err) == (0, "wrote <dir>/sweep.csv\n", "")
        assert len(files) == 1 + 3 * 6
        assert "error" not in files["sweep.csv"].decode()

    def test_failures_in_a_worker_match_one_cpu(self, tmp_path, capsys, monkeypatch):
        one = self.sweep(tmp_path, capsys, monkeypatch, 1, self.SETS, "one")
        two = self.sweep(tmp_path, capsys, monkeypatch, 2, self.SETS, "two")
        assert one == two
        rows = two[3]["sweep.csv"].decode().splitlines()[1:]
        for run_id in (1, 4):       # the worker's invalid values
            assert "error: " in rows[run_id] and "u0 = 1e-160" in rows[run_id]
        for run_id in (3, 5):       # a blow-up here and one in the worker
            assert rows[run_id].split(",")[-1].startswith("error: max|u| = ")
        assert "error" not in rows[0] + rows[2]

    def test_killed_worker_exit_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_run_share", lambda *args: os.kill(os.getpid(), signal.SIGKILL))
        code, out, err, files = self.sweep(tmp_path, capsys, monkeypatch, 2, self.SETS, "two")
        assert (code, out) == (1, "")
        assert err == ("error: a sweep worker process exited with code -9 without sending "
                       "its results; no result for runs 1, 2, 4, 5\n")
        assert "sweep.csv" not in files         # checked before the grid runs, never written

    def test_failing_share_here_stops_the_worker(self, tmp_path, monkeypatch):
        parent, run_batch = os.getpid(), cli._run_batch

        def failing(*args):
            if os.getpid() == parent:
                raise RuntimeError("failed here")
            run_batch(*args)

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "_run_batch", failing)
        cfg = write_cfg(tmp_path, **self.BURST)
        with pytest.raises(RuntimeError, match="failed here"):
            main(["sweep", str(cfg), *self.SETS, "--out", str(tmp_path / "sweep.csv")])

    def test_batches_and_shares(self):
        cfgs = [{"solver.nx": 32, "pipe.L": 1.0}] * 6 + [{"solver.nx": 32, "pipe.L": 2.0}] * 2
        # a grid that fits one batch is never cut
        assert cli._shares(cfgs[6:], 2) == [[[0, 1]]]
        assert cli._shares(cfgs, 1) == [[[0, 1], [2, 3], [4, 5], [6, 7]]]
        assert cli._shares(cfgs, 2) == [[[0], [3], [6, 7]], [[1, 2], [4, 5]]]
        assert cli._shares(cfgs, 3) == [[[0, 1], [6, 7]], [[2, 3]], [[4, 5]]]
        assert cli._shares([], 2) == [[]]


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_seeded_run_leaves_numpy_random_unimported(tmp_path, verb):
    # numpy.random imports `secrets` and OpenSSL's hashlib: about 6 MiB of
    # resident memory in every process that drew a phase from it
    cfg = write_cfg(tmp_path, **{"disturbance.family": "decaying_burst", "disturbance.A": 1e-4,
                                 "disturbance.seed": 7, "solver.t_end": 1.5})
    args = ["run", str(cfg)] if verb == "run" else \
        ["sweep", str(cfg), "--set", "disturbance.seed=1,2", "--out", str(tmp_path / "s.csv")]
    child = ("import sys; from pipestab.cli import main; code = main(sys.argv[1:]); "
             "print(code, 'numpy.random' in sys.modules, 'secrets' in sys.modules, "
             "'multiprocessing' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", child, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.returncode == 0, done.stderr
    code, numpy_random, secrets, forks = done.stdout.splitlines()[-1].split()
    assert (code, numpy_random, secrets) == ("0", "False", "False")
    if verb == "run":
        # only a sweep of several batches forks; importing multiprocessing alone
        # adds about 0.75 MB to the peak RSS of a single run
        assert forks == "False"


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    # OpenBLAS picks its kernel for the CPU, and np.dot sums in that
    # kernel's order; the program takes every sum in its own order, so that
    # the oldest x86-64 kernel (Prescott) writes what the default one writes
    config = Path(__file__).resolve().parent.parent / "configs" / "certified.cfg"
    src = str(Path(cli.__file__).resolve().parent.parent)
    outputs = []
    for kernel in ("", "Prescott"):
        folder = tmp_path / (kernel or "default")
        folder.mkdir()
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_CORETYPE=kernel)
        if not kernel:
            del env["OPENBLAS_CORETYPE"]
        done = subprocess.run([sys.executable, "-m", "pipestab.cli", "run", str(config)],
                              cwd=folder, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append([done.stdout] + [(folder / name).read_bytes() for name in (
            "certified.csv", "certified_report.txt", "certified_report.txt.json")])
    assert outputs[0] == outputs[1]


# Settings that make this machine run the code another CPU would: NumPy's
# SIMD dispatch without its AVX-512 targets (NumPy's sin, cos and exp), and
# glibc's without AVX2 and FMA (libm's exp, sin, cos and pow, which the
# compiled b(t) calls); each with the CPU features, as NumPy names them,
# without which it changes nothing
CPU_SETTINGS = {
    "numpy-simd": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
                   {"X86_V4", "AVX512_ICL", "AVX512_SPR"}),
    "glibc-hwcaps": ({"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F,-AVX_Usable,"
                                        "-AVX2_Usable,-FMA_Usable,-FMA4_Usable"},
                     {"AVX2", "FMA3"}),
}
# Across CPUs a number may move by this much of the largest magnitude in its
# CSV column or JSON key; pointwise, a near-zero boundary value moves by far
# more (README, "What is bit for bit the same on another CPU")
CROSS_CPU_RTOL = 1e-12


def numpy_cpu_features(env: dict):
    """The CPU features NumPy turns on in a fresh interpreter under `env`, or
    None where NumPy refuses to start with it."""
    code = ("from numpy._core._multiarray_umath import __cpu_features__ as f; "
            "print(*(name for name, on in f.items() if on))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    return set(done.stdout.split()) if done.returncode == 0 else None


def json_columns(value, path: str = "", out=None) -> dict:
    """The values of a JSON document by key path, a list's items under path + "[]"."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for key, item in value.items():
            json_columns(item, f"{path}.{key}", out)
    elif isinstance(value, list):
        for item in value:
            json_columns(item, path + "[]", out)
    else:
        out.setdefault(path, []).append(value)
    return out


def run_outputs(config: Path, folder: Path, env: dict) -> tuple:
    """`pipestab run config` in a new `folder`, which the config's outputs are
    relative to: its stdout, and the columns of its CSV and of its JSON report."""
    folder.mkdir()
    done = subprocess.run([sys.executable, "-m", "pipestab.cli", "run", str(config)], cwd=folder,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    with open(folder / f"{config.stem}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    report = json.loads((folder / f"{config.stem}_report.txt.json").read_text())
    return (done.stdout, {name: [float(row[name]) for row in rows] for name in rows[0]},
            json_columns(report))


def assert_columns_agree(want: dict, got: dict):
    """hyp_ok, and every value that is not a number, equal; each number
    within CROSS_CPU_RTOL of the largest magnitude in its column."""
    assert got.keys() == want.keys()
    for name, values in want.items():
        if name == "hyp_ok" or not all(type(x) in (int, float) for x in values + got[name]):
            assert got[name] == values, name
            continue
        a, b = np.array(values, dtype=float), np.array(got[name], dtype=float)
        finite = np.isfinite(a)
        assert np.array_equal(np.isfinite(b), finite), name
        assert np.array_equal(a[~finite], b[~finite], equal_nan=True), name
        scale = np.abs(a[finite]).max(initial=0.0)
        assert np.abs(a - b)[finite].max(initial=0.0) <= CROSS_CPU_RTOL * scale, name


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the settings name x86-64 features")
@pytest.mark.parametrize("setting", sorted(CPU_SETTINGS))
def test_outputs_agree_across_cpu_dispatch(tmp_path, setting):
    # certified.cfg and a bump with a disturbance, under this CPU's code and
    # another's: the same exit code, verdict and hypothesis flags, and every
    # other number within CROSS_CPU_RTOL
    variables, features = CPU_SETTINGS[setting]
    env = {name: value for name, value in os.environ.items()
           if name not in ("NPY_DISABLE_CPU_FEATURES", "GLIBC_TUNABLES")}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parent.parent)
    if "GLIBC_TUNABLES" in variables and platform.libc_ver()[0] != "glibc":
        pytest.skip("GLIBC_TUNABLES acts on glibc alone")
    if not (numpy_cpu_features(env) or set()) & features:
        pytest.skip(f"this CPU has none of {sorted(features)}")
    if numpy_cpu_features(dict(env, **variables)) is None:
        pytest.skip(f"NumPy refuses {variables}")
    bump = write_cfg(tmp_path, "bump.cfg", **{
        "initial.family": "bump", "initial.amplitude": 1e-3, "initial.center": 0.4,
        "initial.width": 0.2, "disturbance.family": "decaying_burst", "disturbance.A": 1e-4,
        "disturbance.seed": 3, "solver.nx": 200, "output.csv_path": "bump.csv",
        "output.report_path": "bump_report.txt"})
    for config in (Path(__file__).resolve().parent.parent / "configs" / "certified.cfg", bump):
        want = run_outputs(config, tmp_path / f"{config.stem}-default", env)
        got = run_outputs(config, tmp_path / f"{config.stem}-{setting}", dict(env, **variables))
        assert got[0] == want[0]        # the verdict
        for columns, reference in zip(got[1:], want[1:]):
            assert_columns_agree(reference, columns)


class TestUnreadableConfig:
    """Every verb turns a config file it cannot read into exit 1 and a message."""

    @pytest.mark.parametrize("verb", ["run", "sweep", "constants", "stationary"])
    @pytest.mark.parametrize("kind", ["absent", "directory", "not_utf8"])
    def test_exit_one_with_message(self, tmp_path, capsys, verb, kind):
        path = tmp_path / "scenario.cfg"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b"pipe.L = 1.0\n\xff\xfe = 2\n")
        argv = [verb, str(path)] + (["--set", "feedback.k=4.0"] if verb == "sweep" else [])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(path) in err
        assert "Traceback" not in err


# nu one ulp above mu = 1 / (4 e L k) of write_cfg's pipe: with C_nu = 1e298,
# Cg / (nu - mu) overflows, and a bracket of inf would certify any run
VACUOUS_NU = repr(math.nextafter(compute_constants(
    PipeParams(L=1.0, a=2.0, theta=0.1, k=4.0), 0.6, 1.0, 1.0).mu, 1.0))


def test_vacuous_certificate_exit_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, **{"disturbance.nu": VACUOUS_NU, "disturbance.C_nu": 1e298})
    assert main(["run", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: decay certificate vacuous") and "`disturbance.nu`" in err
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("verb", ["run", "stationary"])
@pytest.mark.parametrize("u0", ["1e-160", "1e-200"])
def test_overflowing_inflow_exit_one(tmp_path, capsys, verb, u0):
    # a valid config value whose (a / u0)^2 overflows
    cfg = write_cfg(tmp_path, **{"stationary.u0": u0})
    assert main([verb, str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"u0 = {u0}" in err
    assert "Traceback" not in err


# a pipe one ulp shorter than its critical length, whose ubar rounds to a at the outflow
SONIC_OUTFLOW = {"pipe.L": 2.0241363287421584, "pipe.a": 2, "pipe.theta": 0.1,
                 "stationary.u0": 1.5, "solver.nx": 32}


@pytest.mark.parametrize("verb", ["run", "stationary"])
def test_sonic_outflow_exit_one(tmp_path, capsys, verb):
    cfg = write_cfg(tmp_path, **SONIC_OUTFLOW)
    assert main([verb, str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "critical length" in err
    assert "Traceback" not in err


def test_sonic_outflow_recorded_not_fatal(tmp_path):
    cfg = write_cfg(tmp_path, **SONIC_OUTFLOW)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(cfg), "--set", "stationary.u0=1.5,0.3", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 3
    assert "error: " in rows[1] and "critical length" in rows[1]
    assert "error" not in rows[2]


# a config whose grid alone takes 72.8 TiB, and its three snapshots nine times that
SNAPSHOTS_BEYOND_MEMORY = {"disturbance.T_period": 1e-8, "solver.t_end": 2e-8,
                           "solver.snapshot_dt": 1e-8, "solver.nx": 10_000_000_000_000}


@pytest.mark.parametrize("verb", ["run", "sweep", "constants", "stationary"])
@pytest.mark.parametrize("key,text", [
    pytest.param("solver.nx", "1" + "0" * 400, id="solver.nx-beyond-float-range"),
    ("solver.nx", "64.5"), ("pipe.L", "nan"), ("feedback.k", "-1"), ("disturbance.C_nu", "0"),
    # finite, but the certificate's k ** 2 would overflow
    pytest.param("feedback.k", "1e200", id="feedback.k-certificate-overflow"),
    # finite, but the certificate's Cg = ... * C_nu would overflow to +inf
    pytest.param("disturbance.C_nu", "1e307", id="disturbance.C_nu-certificate-overflow"),
    # snapshots of 72.8 TiB: rejected before anything is allocated
    pytest.param("solver.nx", SNAPSHOTS_BEYOND_MEMORY, id="solver.nx-snapshots-beyond-memory"),
])
def test_invalid_value_exit_one_naming_key(tmp_path, capsys, verb, key, text):
    cfg = write_cfg(tmp_path, **(text if isinstance(text, dict) else {key: text}))
    argv = [verb, str(cfg)] + (["--set", "certificate.lambda=0.6"] if verb == "sweep" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"`{key}`" in err
    assert "Traceback" not in err


class TestConstantsVerb:
    def test_prints_constants(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["constants", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "mu = " in out.replace("  ", " ")
        # a = 2, k = 4, L = 1: M1 = 3, K1 = 1, K2 = 19
        assert "M1 = 3.0" in out.replace("  ", " ")
        assert "K2 = 19.0" in out.replace("  ", " ")

    def test_invalid_lambda_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, **{"certificate.lambda": 0.9})
        assert main(["constants", str(cfg)]) == 0
        cfg2 = write_cfg(tmp_path, name="bad.cfg", **{"certificate.lambda": 0.4})
        assert main(["constants", str(cfg2)]) == 1


class TestStationaryVerb:
    def test_prints_profile_table(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["stationary", str(cfg)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("# c1 = ")
        assert out[1] == "x,ubar,ubar_x"
        assert len(out) == 2 + 32 + 1     # header lines + nx+1 rows
        first = out[2].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(0.3)
