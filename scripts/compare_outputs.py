#!/usr/bin/env python3
"""Write the output set of a pipestab source tree, or compare two such sets.

Usage:
    python scripts/compare_outputs.py write SRC OUT
    python scripts/compare_outputs.py compare OLD NEW [--rtol 1e-12]

`write` runs the command line of the source tree SRC (the directory that
holds the package `pipestab`) on each case below, in a directory of its
own under OUT, which keeps the files the case writes, its stdout, its
stderr and its exit code:

  - `run`, `constants` and `stationary` on configs/demo.cfg, zero.cfg and
    certified.cfg;
  - `run` on the seed-1 fine_grid workload of perfbench/workloads.py;
  - `sweep` on its seed-1 gain_sweep workload, with its summary.

The configs and workloads are those of this script's checkout, so that
two source trees run the same inputs.

`compare` goes through two such sets file by file.  For each file that is
not byte-identical it prints the largest relative difference of each CSV
column, each JSON key and each labelled number of a text file that
differ.  It exits 1 when an exit code, a verdict or a hyp_ok flag
differs, when a file differs in anything but its numbers (a missing file,
other text, another number of rows), or when a number differs by more
than --rtol relative; else 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("demo", "zero", "certified")
# the fields whose values are verdicts: any difference in them fails
VERDICT_FIELDS = ("verdict", "hyp_ok")
# a number of a text file: not the digits of a name such as h1 or run_000
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan\b|inf\b)")


def cases() -> dict:
    """Case name -> (config file name, its text, argv after `pipestab`)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    out = {}
    for name in CONFIGS:
        text = (ROOT / "configs" / f"{name}.cfg").read_text()
        for verb in ("run", "constants", "stationary"):
            out[f"{verb}_{name}"] = (f"{name}.cfg", text, [verb, f"{name}.cfg"])
    outputs = {"output.csv_path": "run.csv", "output.report_path": "report.txt"}
    for name in ("fine_grid", "gain_sweep"):
        workload = workloads.make(name, 1, ROOT)
        text = workloads.render(dict(workload.config, **outputs))
        argv = [workload.verb, f"{name}.cfg"]
        if workload.grid:
            argv += ["--out", "sweep.csv"]
            for key in sorted(workload.grid):
                argv += ["--set", f"{key}=" + ",".join(
                    repr(v) if isinstance(v, float) else str(v) for v in workload.grid[key])]
        out[f"{workload.verb}_{name}"] = (f"{name}.cfg", text, argv)
    return out


def write(src: Path, out: Path):
    """Run every case with the package of `src`, each in out/<case>."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    for case, (config, text, argv) in cases().items():
        folder = out / case
        folder.mkdir(parents=True)
        (folder / config).write_text(text)
        done = subprocess.run([sys.executable, "-m", "pipestab.cli", *argv], cwd=folder,
                              env=env, capture_output=True, text=True)
        (folder / "stdout.txt").write_text(done.stdout)
        (folder / "stderr.txt").write_text(done.stderr)
        (folder / "exit_code.txt").write_text(f"{done.returncode}\n")
        print(f"{case}: exit code {done.returncode}")


def relative(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude; 0 for equal values, NaNs included."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


class Differences:
    """The largest relative difference per field of one file, and the
    differences that fail whatever the tolerance."""

    def __init__(self):
        self.worst, self.problems = {}, []

    def number(self, field: str, a: float, b: float):
        self.worst[field] = max(self.worst.get(field, 0.0), relative(a, b))

    def value(self, field: str, a, b):
        """Two values of `field`: numbers are compared by relative
        difference, unless the field is a verdict; anything else must match."""
        verdict = any(name in field for name in VERDICT_FIELDS)
        if isinstance(a, float) and isinstance(b, float) and not verdict:
            self.number(field, a, b)
        elif a != b:
            self.problems.append(f"{field}: {a!r} != {b!r}")


def _float(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def compare_csv(a: str, b: str, diff: Differences):
    rows_a, rows_b = (list(csv.reader(io.StringIO(text))) for text in (a, b))
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        diff.problems.append(f"{len(rows_a)} rows != {len(rows_b)} rows, or other columns")
        return
    header = rows_a[0]
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        if len(row_a) != len(header) or len(row_b) != len(header):
            diff.problems.append(f"a row of other length than its header: {row_a} {row_b}")
            continue
        for field, x, y in zip(header, row_a, row_b):
            diff.value(field, _float(x), _float(y))


def compare_json(a, b, diff: Differences, path: str = ""):
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            compare_json(a[key], b[key], diff, f"{path}.{key}" if path else key)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            compare_json(x, y, diff, path + "[]")
    elif all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
        diff.value(path, float(a), float(b))
    else:
        diff.value(path, a, b)


def compare_text(a: str, b: str, diff: Differences):
    """Line by line: the text around the numbers must match, and each number
    is labelled by the text between it and the number before it."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if len(lines_a) != len(lines_b):
        diff.problems.append(f"{len(lines_a)} lines != {len(lines_b)} lines")
        return
    for x, y in zip(lines_a, lines_b):
        labels = NUMBER.split(x)
        if labels != NUMBER.split(y):
            diff.problems.append(f"{x!r} != {y!r}")
            continue
        for label, u, v in zip(labels, NUMBER.findall(x), NUMBER.findall(y)):
            diff.value(label.strip(" =:,#") or "(number)", float(u), float(v))


def compare(old: Path, new: Path, rtol: float) -> int:
    failed = False
    names = sorted({p.relative_to(root).as_posix() for root in (old, new)
                    for p in root.rglob("*") if p.is_file()})
    differing = 0
    for name in names:
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {old if a.is_file() else new}")
            failed = True
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        differing += 1
        diff = Differences()
        text_a, text_b = a.read_text(), b.read_text()
        if name.endswith("exit_code.txt"):
            diff.problems.append(f"exit code {text_a.strip()} != {text_b.strip()}")
        elif name.endswith(".csv"):
            compare_csv(text_a, text_b, diff)
        elif name.endswith(".json"):
            compare_json(json.loads(text_a), json.loads(text_b), diff)
        else:
            compare_text(text_a, text_b, diff)
        print(name)
        for field, worst in diff.worst.items():
            if worst > 0.0:
                print(f"  {field:<24} {worst:.3g}" + ("  above --rtol" if worst > rtol else ""))
        for problem in diff.problems:
            print(f"  differs: {problem}")
        failed = failed or bool(diff.problems) or any(w > rtol for w in diff.worst.values())
    print(f"{len(names)} files, {differing} not byte-identical: "
          + ("FAIL" if failed else f"every difference within rtol {rtol:g}"))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    verbs = parser.add_subparsers(dest="verb", required=True)
    p = verbs.add_parser("write", help="write the output set of a source tree")
    p.add_argument("src", type=Path, help="directory that holds the package pipestab")
    p.add_argument("out", type=Path, help="new directory for the output set")
    p = verbs.add_parser("compare", help="compare two output sets")
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("--rtol", type=float, default=1e-12)
    args = parser.parse_args(argv)
    if args.verb == "write":
        if not (args.src / "pipestab" / "__init__.py").is_file():
            parser.error(f"{args.src} holds no package pipestab")
        if args.out.exists():
            parser.error(f"{args.out} exists; give a new directory")
        write(args.src, args.out)
        return 0
    return compare(args.old, args.new, args.rtol)


if __name__ == "__main__":
    sys.exit(main())
