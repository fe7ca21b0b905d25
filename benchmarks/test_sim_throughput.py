"""Simulator-throughput benchmark: guest MIPS per host second.

Not part of the default test run (pyproject pins ``testpaths = ["tests"]``);
invoke explicitly, either as a script or through pytest:

    PYTHONPATH=src python benchmarks/test_sim_throughput.py
    PYTHONPATH=src python -m pytest benchmarks/test_sim_throughput.py -q

The script form measures the full default matrix and writes
``BENCH_sim_throughput.json`` (the file CI uploads and the committed
baseline is refreshed from).  The pytest form runs a reduced matrix — it
guards the *machinery*, not exact numbers, which are host-dependent.
"""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # script invocation convenience
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.systems.bench import run_bench  # noqa: E402

OUTPUT = REPO_ROOT / "BENCH_sim_throughput.json"


def test_throughput_is_measurable():
    report = run_bench(workloads=["rgb_gray"], systems=["arm_original"], repeats=1)
    assert report.aggregate_mips > 0
    assert all(r.host_seconds > 0 for r in report.runs)


def main() -> int:
    print("measuring simulator throughput (default matrix)...", file=sys.stderr)
    report = run_bench(repeats=3,
                       progress=lambda label: print(f"  {label}", file=sys.stderr))
    print(report.table())
    OUTPUT.write_text(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUTPUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
