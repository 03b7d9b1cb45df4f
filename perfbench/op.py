"""One benchmark operation in a fresh interpreter.

Usage: python3 op.py '<json spec>'

The spec names the package source directory, the config file, the mode
("setup", "run" or "trace") and, for run and trace, the `pipestab`
argument list and an output directory.  The process prints one JSON
line: its set-up time and parts, and for run/trace the wall time of the
`pipestab.cli.main` call, its exit code and the process's peak RSS.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def setup(spec) -> dict:
    """Time from a fresh interpreter to the first solver step, by public function."""
    parts = {}
    t = time.perf_counter()
    import numpy as np
    import pipestab
    from pipestab.config import ScenarioConfig
    from pipestab.stationary import build_stationary
    parts["import_s"] = time.perf_counter() - t
    src = Path(spec["src"]).resolve()
    if Path(pipestab.__file__).resolve().parent.parent != src:
        raise SystemExit(f"pipestab imported from {pipestab.__file__}, not from {src}")

    t = time.perf_counter()
    cfg = ScenarioConfig.from_file(spec["config"])
    parts["parse_s"] = time.perf_counter() - t

    t = time.perf_counter()
    params = cfg.pipe_params()
    xs = np.linspace(0.0, params.L, cfg["solver.nx"] + 1)
    build_stationary(params, cfg["stationary.u0"], xs)
    parts["stationary_s"] = time.perf_counter() - t

    t = time.perf_counter()
    cfg.initial_arrays(xs)
    parts["initial_s"] = time.perf_counter() - t
    return {"setup_s": time.perf_counter() - T0, "setup_parts": parts,
            "numpy": np.__version__}


def invoke(spec) -> dict:
    """Run the `pipestab` command once, traced or not, and describe the run."""
    import pipestab
    import pipestab.cli

    aux = Path(spec["aux"])
    tracer = None
    if spec["mode"] == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install(pipestab)
    with open(aux / "stdout.txt", "w") as fh, contextlib.redirect_stdout(fh):
        t = time.perf_counter()
        code = pipestab.cli.main(spec["argv"])
        wall = time.perf_counter() - t
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result = {"wall_s": wall, "exit_code": code, "peak_rss_mb": rss_mb}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(Path(spec["spans"]))

    # Outside the timed call: the stationary tables the output checks read.
    codes = []
    for i, cfg_path in enumerate(spec["stationary"]):
        with open(aux / f"stationary_{i}.txt", "w") as fh, contextlib.redirect_stdout(fh):
            codes.append(pipestab.cli.main(["stationary", cfg_path]))
    result["stationary_codes"] = codes
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = setup(spec)
    if spec["mode"] != "setup":
        result.update(invoke(spec))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
