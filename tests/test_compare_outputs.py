"""scripts/compare_outputs.py on small synthetic source trees: a stand-in
`pipestab.cli` that writes outputs of the right names and shapes."""

import importlib.util
import shutil
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"

# the stand-in command line: `run` and `sweep` write a CSV and the reports
# at the configured paths, or the summary; every verb prints one line
FAKE_CLI = '''
import json, sys
from pathlib import Path

SCALE, VERDICT = {scale!r}, "certified"


def main(argv):
    verb, config = argv[0], argv[1]
    lines = [line.split("=", 1) for line in Path(config).read_text().splitlines()
             if "=" in line and not line.startswith("#")]
    cfg = {{key.strip(): value.strip() for key, value in lines}}
    if verb == "run":
        Path(cfg["output.csv_path"]).write_text(f"t,E1,hyp_ok\\n0.0,{{0.25 * SCALE!r}},1\\n")
        report = Path(cfg["output.report_path"])
        report.write_text(f"verdict: {{VERDICT}}\\n  fitted_rate = {{0.5 * SCALE!r}}\\n")
        Path(str(report) + ".json").write_text(json.dumps(
            {{"verdict": VERDICT, "observed": {{"fitted_rate": 0.5 * SCALE, "n": [1, 2]}}}}))
        print(f"verdict: {{VERDICT}}")
    elif verb == "sweep":
        out = argv[argv.index("--out") + 1]
        Path(out).write_text(f"run_id,fitted_rate,verdict\\n0,{{0.5 * SCALE!r}},{{VERDICT}}\\n")
        print(f"wrote {{out}}")
    else:
        print(f"h1 = {{2.0 * SCALE!r}}, mu = 0.3")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
'''


def load():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tree(root: Path, scale: float) -> Path:
    package = root / "pipestab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(FAKE_CLI.format(scale=scale))
    return root


@pytest.fixture(scope="module")
def sets(tmp_path_factory):
    """The output sets of a tree and of one whose numbers are 1e-14 off."""
    script, base = load(), tmp_path_factory.mktemp("trees")
    for name, scale in (("old", 1.0), ("new", 1.0 + 1e-14)):
        assert script.main(["write", str(tree(base / f"src_{name}", scale)),
                            str(base / name)]) == 0
    return script, base / "old", base / "new"


def test_writes_every_case(sets):
    _, old, _ = sets
    cases = sorted(p.name for p in old.iterdir())
    assert cases == sorted([f"{verb}_{name}" for verb in ("run", "constants", "stationary")
                            for name in ("demo", "zero", "certified")]
                           + ["run_fine_grid", "sweep_gain_sweep"])
    assert (old / "run_demo" / "demo.csv").is_file()
    assert (old / "run_fine_grid" / "report.txt.json").is_file()
    assert (old / "sweep_gain_sweep" / "sweep.csv").is_file()
    assert (old / "constants_zero" / "exit_code.txt").read_text() == "0\n"


def test_identical_sets_pass(sets, capsys):
    script, old, _ = sets
    assert script.compare(old, old, 1e-12) == 0
    assert " 0 not byte-identical" in capsys.readouterr().out


def test_numbers_within_rtol_pass_and_are_reported(sets, capsys):
    script, old, new = sets
    assert script.compare(old, new, 1e-12) == 0
    out = capsys.readouterr().out
    for line in ("run_demo/demo.csv\n  E1 ", "run_demo/demo_report.txt\n  fitted_rate ",
                 "run_demo/demo_report.txt.json\n  observed.fitted_rate ",
                 "constants_zero/stdout.txt\n  h1 ", "sweep_gain_sweep/sweep.csv\n  fitted_rate "):
        assert line in out
    assert "mu" not in out and "observed.n" not in out and "above --rtol" not in out
    assert script.compare(old, new, 1e-15) == 1
    assert "above --rtol" in capsys.readouterr().out


@pytest.mark.parametrize("change", ["verdict", "hyp_ok", "exit code", "text", "missing"])
def test_other_differences_fail(sets, tmp_path, capsys, change):
    script, old, _ = sets
    new = tmp_path / "new"
    shutil.copytree(old, new)
    folder = new / "run_demo"
    if change == "verdict":
        report = folder / "demo_report.txt.json"
        report.write_text(report.read_text().replace("certified", "bound_violated"))
    elif change == "hyp_ok":
        csv = folder / "demo.csv"
        csv.write_text(csv.read_text().replace(",1\n", ",0\n"))
    elif change == "exit code":
        (folder / "exit_code.txt").write_text("2\n")
    elif change == "text":
        (folder / "stdout.txt").write_text("verdict: certified, nearly\n")
    else:
        (folder / "demo.csv").unlink()
    assert script.compare(old, new, 1e-12) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert ("only in" if change == "missing" else "differs: ") in out
