"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, each through the benchmark's own command line:

* at the default seed, ``paper_bench`` regenerates the Fig. 8/9 AVERAGE rows
  printed in EXPERIMENTS.md (run.py fails its correctness check otherwise)
  and reports the ``paper_gap_pp`` computed from those rows;
* at a non-default seed every workload completes with zero failures and
  reports every end-to-end metric of BENCHMARK.json with its unit;
* traced runs report every per-layer metric, their result digests equal
  those of the untraced passes, and ``vector.ops`` is positive on
  ``paper_bench`` and zero on ``streaming_dsa``;
* in a directory holding only BENCHMARK.json and the benchmark's files the
  benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OTHER_SEED = 7

sys.path.insert(0, str(HERE))


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload: str, seed: int, trace: int) -> dict:
    out = bench(workload, seed, trace)
    if out.returncode != 0:
        raise AssertionError(f"{workload} seed={seed} trace={trace} exited {out.returncode}:\n{out.stderr}")
    last = json.loads(out.stdout.strip().splitlines()[-1])
    label = f"{workload} seed={seed} trace={trace}"
    check(last["correct"], f"{label}: not correct:\n{out.stderr}")
    check(last["failed"] == 0, f"{label}: {last['failed']} failed runs")
    check(last["attempted"] > 0, f"{label}: no runs attempted")
    expected = SPEC["per_layer" if trace else "end_to_end"]
    for metric in expected:
        got = last["metrics"].get(metric["name"])
        check(got is not None, f"{label}: metric {metric['name']} missing")
        check(got["unit"] == metric["unit"], f"{label}: {metric['name']} unit {got['unit']}")
    check(len(last["metrics"]) == len(expected), f"{label}: unexpected metrics")
    return last["metrics"]


FAILURES = []


def check(ok: bool, message: str) -> None:
    if not ok:
        FAILURES.append(message)
        print(f"FAIL {message}", flush=True)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import passes

    metrics = result("paper_bench", passes.DEFAULT_SEED, 0)
    want = passes.paper_gap(passes.FIG9_AVERAGE[2], passes.FIG8_AVERAGE)
    got = metrics["paper_gap_pp"]["value"]
    check(abs(got - want) < 1e-9, f"paper_gap_pp {got} != {want} from EXPERIMENTS.md")

    for workload in SPEC["workloads"]:
        result(workload["name"], OTHER_SEED, 0)

    layers = {w["name"]: result(w["name"], OTHER_SEED, 1) for w in SPEC["workloads"]}
    check(layers["paper_bench"]["vector.ops"]["value"] > 0, "vector.ops is 0 on paper_bench")
    check(layers["streaming_dsa"]["vector.ops"]["value"] == 0, "vector.ops is not 0 on streaming_dsa")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        out = bench("paper_bench", OTHER_SEED, 0, cwd=bare)
        check(out.returncode != 0, "bare directory: exit code 0")
        check(not out.stdout.strip(), f"bare directory: printed {out.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("selftest:", "FAILED" if FAILURES else "ok")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
