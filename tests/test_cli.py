import json
import math

import numpy as np
import pytest

from pipestab.cli import CSV_HEADER, _member, main
from pipestab.config import ScenarioConfig
from pipestab.dynamics import simulate


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

    def test_bad_value_recorded_not_fatal(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sweep.csv"
        # k = 0 violates validation for that run only; the sweep continues
        assert main(["sweep", str(cfg), "--set", "feedback.k=0,4",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert "error" in rows[1]
        assert "error" not in rows[2]

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
            for name in (f"run_{run_id:03d}.csv", f"report_{run_id:03d}.txt",
                         f"report_{run_id:03d}.txt.json"):
                assert (sweep_dir / name).read_bytes() == (solo_dir / name).read_bytes(), name

    def test_unwritable_summary_fails_before_running(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "absent_dir" / "sweep.csv"
        assert main(["sweep", str(cfg), "--set", "feedback.k=4.0",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "run_000.csv").exists()


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
