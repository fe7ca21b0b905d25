"""Compare two sets of benchmark reports (written by perfbench/run.py).

    python3 perfbench/compare.py --base .perfbench/reports/A*.json --new .perfbench/reports/B*.json

For every workload and end-to-end metric it prints both medians, the change,
and a verdict against the metric's bound in BENCHMARK.json: ``unresolved``
when the base reports' own spread (interquartile range over median) is wider
than the bound and not every new run reads better than every base run,
``regression`` when the new median is worse by more than the bound, else
``ok``.  It warns when the reports differ in Python
version, numpy version, CPU count or code fingerprint, and when two reports
of one workload and seed carry different result digests (the simulated
statistics changed).  Exits 1 if any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    reports = [json.loads(Path(p).read_text()) for p in paths]
    return [r for r in reports if r["trace"] == 0]


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def environment_warnings(base, new) -> list[str]:
    warnings = []
    for key in ("python", "numpy", "nproc", "code_fingerprint"):
        seen = {str(r["environment"][key]) for r in base + new}
        if len(seen) > 1:
            warnings.append(f"warning: reports differ in {key}: {sorted(seen)}")
    digests = {}
    for r in base + new:
        digests.setdefault((r["workload"], r["seed"]), set()).add(r["digest"])
    for (workload, seed), found in sorted(digests.items()):
        if len(found) > 1:
            warnings.append(f"warning: {workload} seed {seed}: result digests differ "
                            "(simulated statistics changed)")
    return warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare benchmark reports")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]

    for warning in environment_warnings(base, new):
        print(warning)
    regressed = False
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        print(f"{workload}: {sum(r['workload'] == workload for r in base)} base, "
              f"{sum(r['workload'] == workload for r in new)} new reports")
        for metric in metrics:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in base if r["workload"] == workload]
            b = [r["metrics"][name]["value"] for r in new if r["workload"] == workload]
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / abs(ma) if ma else 0.0
            lower = metric["better"] == "lower"
            worse = change if lower else -change
            if spread(a) > metric["bound"]:
                every_run_better = max(b) < min(a) if lower else min(b) > max(a)
                verdict = "ok" if every_run_better else "unresolved"
            elif worse > metric["bound"]:
                verdict = "regression"
                regressed = True
            else:
                verdict = "ok"
            print(f"  {name:14s} {ma:12.6g} -> {mb:12.6g} {metric['unit']:5s} "
                  f"{change:+8.2%}  spread {spread(a):6.2%}  bound {metric['bound']:.0%}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
