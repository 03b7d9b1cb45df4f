#!/usr/bin/env python3
"""Feedback-gain sweep: observed decay rate versus the certified rate.

For each gain k the certified rate is mu = 1/(4 e L k) while the
observed rate (fitted from the windowed energy) is typically far
faster -- the certificate is conservative by design, cf. the factor
~8e against the optimal linear-wave rate.

Usage: python scripts/gain_sweep.py [configs/demo.cfg] --gains 2,4,8
"""

import argparse
import sys

from pipestab.cli import execute_runs
from pipestab.config import ScenarioConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("config", nargs="?", default="configs/demo.cfg")
    parser.add_argument("--gains", default="2,4,8",
                        help="comma-separated feedback gains")
    args = parser.parse_args()

    base = ScenarioConfig.from_file(args.config)
    gains = [float(g) for g in args.gains.split(",")]
    cfgs = [base.replace(**{
        "feedback.k": k,
        "output.csv_path": f"gain_sweep_{i:02d}.csv",
        "output.report_path": f"gain_sweep_{i:02d}.txt"}) for i, k in enumerate(gains)]

    print(f"{'k':>6} {'mu':>12} {'fitted rate':>12} {'ratio':>8}  verdict")
    for k, result in zip(gains, execute_runs(cfgs)):
        if isinstance(result, Exception):
            raise result
        report, summary = result
        mu = report.constants.mu
        rate = summary["fitted_rate"]
        ratio = rate / mu if mu > 0 else float("nan")
        print(f"{k:>6.2f} {mu:>12.6f} {rate:>12.6f} {ratio:>8.1f}  {report.verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
