"""Layered benchmark of the DSA simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_bench --seed 0 --seconds 30 --trace 0

``--trace 0`` repeats untraced passes of the workload for about
``--seconds`` seconds and reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
(see perfbench/README.md).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A report with
the environment, the result digest and every metric is also written under
``.perfbench/reports/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calib
import layers

ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent

#: fresh interpreters timed for ``setup_s``; the median is reported
SETUP_PROBES = 9

#: the systems ``sim.cycles.*`` / ``sim.ipc.*`` are reported for
SYSTEMS = ("arm_original", "neon_autovec", "neon_handvec", "neon_dsa")

TIERS = ("legacy", "fast", "traced", "compiled", "bulk", "covered")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup(args):
    """Everything before the first timed operation: imports and the
    workload's inputs and runners."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"error: no src/repro under {ROOT}; run from the root of a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import passes

    if args.workload not in passes.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; pick one of {sorted(passes.WORKLOADS)}")
    work = WORK / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # the program's own temporary files (worker stderr) stay in the checkout
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    workload = passes.WORKLOADS[args.workload]
    workload.setup(args.seed, work)
    return workload, work


def pin_to_one_cpu() -> None:
    """Keep this process, and the set-up probes it starts, on one CPU.

    The CPUs of the shared host run at different speeds at the same
    moment, so a host-speed probe only describes the work around it when
    both ran on the same CPU.  Forked children (the isolated runs' workers)
    get every CPU back."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    os.register_at_fork(after_in_child=lambda: os.sched_setaffinity(0, cpus))


def time_setup(args, speed) -> tuple[list[float], list[float]]:
    """Seconds from process start to the end of :func:`setup`, each in a
    fresh interpreter: as measured, and scaled to the reference host
    speed by host-speed probes taken between them."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples, probes = [], []
    for _ in range(SETUP_PROBES):
        probe = speed.tick()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
        if child.returncode != 0 or ready.strip() != "ready":
            raise SystemExit(f"error: setup probe failed with exit code {child.returncode}")
        probes.append(probe)
    speed.tick()
    return samples, [seconds * speed.factor(i) for seconds, i in zip(samples, probes)]


def percentile(values, pct: int) -> float:
    """Harrell-Davis estimate of the ``pct``-th percentile: an average of
    every order statistic, weighted by the Beta(p(n+1), (1-p)(n+1))
    density.  Run times form clusters with gaps between them; a plain
    percentile that sits at a gap jumps from one cluster to the other
    when one run crosses over, while this estimate moves by that run's
    weight only."""
    xs = sorted(values)
    n = len(xs)
    if n < 2:
        return xs[0] if xs else 0.0
    p = pct / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 200 * n
    weights = [0.0] * n
    for k in range(steps):
        x = (k + 0.5) / steps
        weights[k * n // steps] += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    return sum(w * v for w, v in zip(weights, xs)) / sum(weights)


def peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def repeat(seconds: float, body, minimum: int, after_minimum=None):
    """Call ``body()`` until ``seconds`` would be exceeded by one more call
    of the last call's length, and at least ``minimum`` times; then
    ``after_minimum()`` is called once the minimum is done."""
    results = []
    start = time.perf_counter()
    last = 0.0
    while len(results) < minimum or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        results.append(body())
        last = time.perf_counter() - t
        if len(results) == minimum and after_minimum is not None:
            after_minimum()
    return results


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def gap_pp(p) -> float:
    """``paper_gap_pp``: the gap to whichever paper headlines the
    workload's own runs determine (all three from Fig. 8/9 where the
    workload regenerates them; otherwise DSA energy savings alone)."""
    import passes

    fig8 = p.tables.get("art3_fig8")
    fig9 = p.tables.get("art3_fig9")
    if fig8 is not None and fig9 is not None:
        return passes.paper_gap(fig9.row_dict()["AVERAGE"][2], fig8.row_dict()["AVERAGE"])
    return passes.paper_gap(dsa_energy_savings_pct(p))


def dsa_energy_savings_pct(p) -> float:
    """Mean energy savings (%) of the full-stage DSA at VL=128 over the
    scalar run of the same workload."""
    results = p.results()
    base = {r.workload: r for r in results if r.system == "arm_original"}
    savings = [
        r.energy_savings_over(base[r.workload]) * 100 for r in results
        if r.system == "neon_dsa" and r.dsa_stage == "full" and r.vl == 128
        and r.workload in base
    ]
    return sum(savings) / len(savings) if savings else 0.0


def end_to_end(passes_run, setup_samples, rss_mb) -> dict:
    """The end-to-end metrics; every host time is scaled to the reference
    host speed (see calib.py)."""
    instructions = sum(m.instructions for p in passes_run for m in p.computed)
    host_s = sum(s * p.scale[label] for p in passes_run for label, s in p.run_s.items())
    # each run's median over the passes first: run times span two orders
    # of magnitude with gaps between them, and a percentile of the pooled
    # samples that falls in a gap is an average of two extreme samples
    per_run = {}
    for p in passes_run:
        for label, seconds in p.run_s.items():
            per_run.setdefault(label, []).append(seconds * p.scale[label])
    run_s = [statistics.median(v) for v in per_run.values()]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median([p.scaled_wall_s() for p in passes_run]), "s"),
        "guest_mips": (instructions / host_s / 1e6 if host_s else 0.0, "MIPS"),
        "run_s_p50": (percentile(run_s, 50), "s"),
        "run_s_p90": (percentile(run_s, 90), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "paper_gap_pp": (gap_pp(passes_run[-1]), "pp"),
    }


def simulated(p) -> dict:
    """Modelled-hardware statistics of one pass: exact, host-independent."""
    results = p.results()
    out = {}
    for system in SYSTEMS:
        mine = [r for r in results if r.system == system]
        cycles = sum(r.cycles for r in mine)
        out[f"sim.cycles.{system}"] = (cycles, "cycles")
        out[f"sim.ipc.{system}"] = (sum(r.instructions for r in mine) / cycles if cycles else 0.0, "1/cycle")
    accesses = sum(r.hierarchy_stats.get("l1_accesses", 0) for r in results)
    hits = sum(r.hierarchy_stats.get("l1_hit_rate", 0) * r.hierarchy_stats.get("l1_accesses", 0)
               for r in results)
    out["sim.l1d_hit_rate"] = (hits / accesses if accesses else 0.0, "ratio")
    out["sim.energy_savings_pct"] = (dsa_energy_savings_pct(p), "%")
    return out


def run_stats(p) -> dict:
    """DSA and tier statistics carried on the pass's run records."""
    results = p.results()
    dsa = [r for r in results if r.dsa_stats is not None]
    stat = {name: sum(getattr(r.dsa_stats, name) for r in dsa) for name in (
        "loops_detected", "analyses_started", "analyses_aborted", "bursts_charged",
        "iterations_covered")}
    tiers = {t: 0 for t in TIERS}
    dsa_total = dsa_covered = 0
    for m in p.computed:
        counts = m.tier_counts or {}
        for t in TIERS:
            tiers[t] += counts.get(t, 0)
        if m.spec["system"] == "neon_dsa":
            dsa_total += m.instructions
            dsa_covered += counts.get("covered", 0)
    out = {f"dsa.{name}": (value, "count") for name, value in stat.items()}
    # an abort can also cancel an execution started from the DSA cache, so
    # the attempts are all detected loop invocations, not analyses_started
    detected = stat["loops_detected"]
    out["dsa.useful_analysis_ratio"] = (
        (detected - stat["analyses_aborted"]) / detected if detected else 0.0, "ratio")
    out["dsa.covered_ratio"] = (dsa_covered / dsa_total if dsa_total else 0.0, "ratio")
    out["cpu.guest_instructions"] = (sum(m.instructions for m in p.computed), "count")
    out.update({f"cpu.tier.{t}": (n, "count") for t, n in tiers.items()})
    return out


def span_metrics(rec, inprocess_instructions: int) -> dict:
    s = rec.self_s
    n = rec.calls
    vector_ops = n["vector.execute"]
    return {
        "vector.execute_s": (s["vector.execute"], "s"),
        "vector.ops": (vector_ops, "count"),
        "vector.us_per_op": (s["vector.execute"] / vector_ops * 1e6 if vector_ops else 0.0, "us"),
        "dsa.on_record_s": (s["dsa.on_record"], "s"),
        "dsa.records": (n["dsa.on_record"], "count"),
        "cpu.run_s": (s["cpu.run"], "s"),
        "cpu.ns_per_instr": (
            s["cpu.run"] / inprocess_instructions * 1e9 if inprocess_instructions else 0.0, "ns"),
        "timing.charge_vector_s": (s["timing.charge_vector"], "s"),
        "timing.charge_vector_calls": (n["timing.charge_vector"], "count"),
        "memory.access_s": (s["memory.access"], "s"),
        "memory.accesses": (n["memory.access"], "count"),
        "workloads.build_s": (s["workloads.build"], "s"),
        "workloads.golden_s": (s["workloads.golden"], "s"),
        "compiler.lower_s": (s["compiler.lower"], "s"),
        "energy.report_s": (s["energy.report"], "s"),
        "metrics.summarize_s": (s["metrics.summarize"], "s"),
        "experiments.tables_s": (s["experiments.tables"], "s"),
        "campaign.cache_key_s": (s["campaign.cache_key"], "s"),
        "result_cache.store_s": (s["result_cache.store"], "s"),
        "result_cache.load_s": (s["result_cache.load"], "s"),
    }


def isolation_metrics(p, jobs: int, warm: dict | None) -> dict:
    """Worker-side costs of the isolated cold pass, from the compute
    seconds each worker reports."""
    worker = p.run_s if jobs > 1 else {}
    compute = sum(worker.values())
    capacity = p.extra.get("prefetch_wall_s", 0.0) * jobs
    cold = [worker[label] - warm[label] for label in worker if warm and label in warm]
    return {
        "isolation.worker_compute_s": (compute, "s"),
        "isolation.busy_ratio": (compute / capacity if capacity else 0.0, "ratio"),
        "isolation.dispatch_s": (capacity - compute if capacity else 0.0, "s"),
        "isolation.cold_start_s": (sum(cold) / len(cold) if cold else 0.0, "s"),
        "result_cache.hit_ratio": (p.extra.get("hit_ratio", 0.0), "ratio"),
        "result_cache.bytes": (p.extra.get("cache_bytes", 0), "bytes"),
    }


def traced(args, workload) -> tuple[dict, list, list]:
    """Untraced/traced pass pairs: per-layer metrics (medians over the
    traced passes), every pass run, and the pairs whose digests differ."""
    pairs = []

    def pair():
        plain = workload.run_pass()
        rec = layers.SpanRecorder()
        restore = layers.install(rec)
        try:
            with_spans = workload.run_pass(rec)
        finally:
            restore()
        pairs.append((plain, with_spans, rec))

    repeat(args.seconds, pair, minimum=1)
    isolated = workload.jobs > 1
    warm = workload.warm_inline_seconds() if isolated else None
    per_pass = []
    for plain, with_spans, rec in pairs:
        inprocess = 0 if isolated else sum(m.instructions for m in with_spans.computed)
        metrics = span_metrics(rec, inprocess)
        metrics.update(run_stats(with_spans))
        metrics.update(simulated(plain))
        metrics.update(isolation_metrics(plain, workload.jobs, warm))
        metrics["trace.overhead_s"] = (with_spans.wall_s - plain.wall_s, "s")
        per_pass.append(metrics)
    for i, (_, _, rec) in enumerate(pairs):
        rec.dump(str(WORK / "spans" / f"{args.workload}-seed{args.seed}-pass{i}.jsonl"))
    metrics = {
        name: (statistics.median([m[name][0] for m in per_pass]), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    runs = [p for plain, with_spans, _ in pairs for p in (plain, with_spans)]
    mismatched = [i for i, (a, b, _) in enumerate(pairs) if a.digest() != b.digest()]
    return metrics, runs, mismatched


def environment() -> dict:
    import numpy

    from repro.systems.result_cache import code_fingerprint

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "code_fingerprint": code_fingerprint(),
    }


def check_reference(workload, p) -> list[str]:
    """At the default seed, paper_bench must regenerate the Fig. 8/9
    AVERAGE rows EXPERIMENTS.md prints."""
    import passes

    if workload.name != "paper_bench" or workload.seed is not None:
        return []
    problems = []
    for exp_id, expected in (("art3_fig8", passes.FIG8_AVERAGE), ("art3_fig9", passes.FIG9_AVERAGE)):
        table = p.tables.get(exp_id)
        got = tuple(table.row_dict()["AVERAGE"]) if table is not None else None
        if got != expected:
            problems.append(f"{exp_id} AVERAGE {got} != EXPERIMENTS.md {expected}")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.setup_probe:
        pin_to_one_cpu()
    workload, work = setup(args)
    try:
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        speed, setup_raw = None, []
        if args.trace:
            metrics, runs, mismatched = traced(args, workload)
            problems = [f"traced pass {i} digest differs from its untraced pass" for i in mismatched]
        else:
            # peak memory is read after a fixed amount of work (the first
            # two passes), so it does not depend on how many passes fit
            rss = []
            speed = calib.HostSpeed()
            runs = repeat(args.seconds, lambda: workload.run_pass(speed=speed), minimum=2,
                          after_minimum=lambda: rss.append(peak_rss_mb(workload.jobs > 1)))
            setup_raw, setup_scaled = time_setup(args, speed)
            metrics = end_to_end(runs, setup_scaled, rss[0])
            problems = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = runs[0]
    failed = set()
    for i, p in enumerate(runs):
        failed |= {(i, label) for label in p.failed}
        failed |= {(i, label) for label, enc in p.records.items() if first.records.get(label, enc) != enc}
    problems += [f"run {label} failed in pass {i}" for i, label in sorted(failed)]
    problems += check_reference(workload, first)
    attempted = sum(p.attempted for p in runs)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(runs),
        "environment": environment(),
        "digest": first.digest(),
        "pass_wall_s": [p.wall_s for p in runs],
        "pass_scaled_wall_s": [p.scaled_wall_s() for p in runs if p.scale],
        "setup_s": setup_raw,
        "host_speed_probe_s": speed.samples if speed is not None else [],
        "run_s": {label: [p.run_s.get(label) for p in runs] for label in first.run_s},
        "problems": problems,
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    reports = WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    path = reports / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True))

    env = report["environment"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={len(runs)}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"digest {args.workload} sha256:{report['digest']}")
    for name, m in report["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"report {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": attempted,
        "failed": len(failed),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
