"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``campaign``     run the (workload × system × DSA-stage) matrix, parallel + cached
``experiments``  regenerate every paper table/figure (or a chosen one)
``run``          run one workload on one or all systems
``bench``        measure simulator throughput (guest MIPS per host second)
``report``       render a saved campaign/bench JSON record as tables
``workloads``    list the available benchmarks
``asm``          print the lowered assembly of a workload per system
``area``         print the DSA area table (Article 1, Table 3)
``trace``        run one spec instrumented; export Chrome tracing / JSONL / Prometheus
``stats``        per-loop-type DSA coverage table (paper loop taxonomy)

Configuration mistakes (unknown workload, experiment, system, ...) print a
one-line error naming the valid choices and exit with status 2 — never a
raw traceback.  A campaign that runs to completion but could not finish
every spec reports each failure by label and exits with status 3; a bench
throughput regression against ``--check-baseline`` exits with status 4; a
loop-class coverage deficit under ``stats --gate`` exits with status 5.
"""

from __future__ import annotations

import argparse
import json
import sys

from .energy.area import AreaModel
from .errors import ConfigError
from .experiments import ALL_EXPERIMENTS, ResultCache
from .faults import FaultPlan
from .systems.campaign import CampaignRunner, RunSpec, default_matrix
from .systems.metrics import RunMetrics
from .systems.report import ComparisonReport, DSACoverageReport
from .systems.result_cache import ResultDiskCache
from .systems.setups import DSA_STAGES, SYSTEM_NAMES, lower_for
from .vector import BACKEND_NAMES, VALID_VECTOR_LENGTHS
from .workloads import ALL_WORKLOADS, PAPER_WORKLOADS, load


def _progress(done: int, total: int, metrics: RunMetrics) -> None:
    spec = metrics.spec
    stage = f"[{spec['dsa_stage']}]" if spec["system"] == "neon_dsa" else ""
    backend = spec.get("backend", "neon")
    if backend != "neon":
        stage += f"@{backend}{spec.get('vl', 128)}"
    print(
        f"[{done:>3}/{total}] {spec['workload']}/{spec['system']}{stage} "
        f"{metrics.source} ({metrics.wall_time_s:.2f}s)",
        file=sys.stderr,
    )


def _runner_from(args: argparse.Namespace, progress=None) -> CampaignRunner:
    plan_path = getattr(args, "inject", None)
    return CampaignRunner(
        jobs=getattr(args, "jobs", 1),
        use_cache=not getattr(args, "no_cache", False),
        cache_dir=getattr(args, "cache_dir", None),
        progress=progress,
        guard=getattr(args, "guard", False),
        fault_plan=FaultPlan.load(plan_path) if plan_path else None,
        timeout=getattr(args, "timeout", None),
        retries=getattr(args, "retries", 0),
        backoff=getattr(args, "backoff", 0.5),
        resume=getattr(args, "resume", False),
        observe=getattr(args, "observe", False),
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.clear_cache:
        removed = ResultDiskCache(args.cache_dir).clear()
        print(f"cleared {removed} cached result(s)", file=sys.stderr)
    specs = default_matrix(
        scale=args.scale,
        workloads=args.workloads,
        systems=args.systems,
        dsa_stages=tuple(args.dsa_stages),
        seed=args.seed,
        backend=args.backend,
        vl=args.vl,
    )
    runner = _runner_from(args, progress=None if args.json else _progress)
    result = runner.run(specs)
    if args.json:
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    else:
        print(result.summary_table())
    for f in result.failures:
        print(
            f"failed: {f.label}: {f.kind}: {f.cause} (after {f.attempts} attempt(s))",
            file=sys.stderr,
        )
    # 3 = the campaign ran to completion but some specs failed; 2 stays
    # reserved for configuration mistakes
    return 3 if result.failures else 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    names = args.only or list(ALL_EXPERIMENTS)
    for name in names:
        if name not in ALL_EXPERIMENTS:
            print(f"unknown experiment {name!r}; available: {sorted(ALL_EXPERIMENTS)}")
            return 2
    cache = ResultCache(args.scale, runner=_runner_from(args))
    for name in names:
        exp = ALL_EXPERIMENTS[name](scale=args.scale, cache=cache)
        print(exp.table())
        if args.paper and exp.paper_reference:
            print(f"paper reference: {exp.paper_reference}")
        print()
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.workload not in ALL_WORKLOADS:
        raise ConfigError(
            f"unknown workload {args.workload!r}; valid choices: {sorted(ALL_WORKLOADS)}"
        )
    systems = [args.system] if args.system else list(SYSTEM_NAMES)
    if "arm_original" not in systems:
        systems.append("arm_original")
    runner = _runner_from(args)
    results = {
        system: runner.run_one(
            RunSpec(args.workload, system, dsa_stage=args.dsa_stage, scale=args.scale)
        )
        for system in systems
    }
    report = ComparisonReport(args.workload, results)
    print(report.table())
    dsa_result = results.get("neon_dsa")
    if dsa_result is not None and args.verbose:
        print("\nDSA coverage:")
        print(DSACoverageReport(dsa_result).table())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .systems.bench import (
        DEFAULT_WORKLOADS,
        check_baseline,
        load_baseline,
        run_bench,
    )

    def progress(label: str) -> None:
        print(f"bench: {label}", file=sys.stderr)

    report = run_bench(
        scale=args.scale,
        repeats=args.repeats,
        workloads=args.workloads or DEFAULT_WORKLOADS,
        systems=args.systems,
        quick=args.quick,
        progress=None if args.json else progress,
    )
    payload = report.to_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.table())
    if args.check_baseline:
        problems = check_baseline(
            report, load_baseline(args.check_baseline), tolerance=args.tolerance
        )
        for problem in problems:
            print(f"regression: {problem}", file=sys.stderr)
        if problems:
            return 4  # throughput regression, distinct from config (2) / campaign (3)
        print(
            f"throughput within {args.tolerance:.0%} of baseline "
            f"({report.aggregate_mips:.2f} MIPS)",
            file=sys.stderr,
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        with open(args.record, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"no such record: {args.record}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.record} is not valid JSON: {exc}") from None

    if "bench_version" in payload:  # a repro bench record
        header = ["workload", "system", "instructions", "host_s", "mips"]
        rows = [
            [r["workload"], r["system"], str(r["instructions"]),
             f"{r['host_seconds']:.3f}", f"{r['guest_mips']:.2f}"]
            for r in payload.get("runs", [])
        ]
        aggregate = payload.get("aggregate", {})
        tail = (
            f"aggregate: {aggregate.get('instructions', 0)} guest instructions = "
            f"{aggregate.get('guest_mips', 0.0):.2f} MIPS"
        )
    elif "campaign" in payload:  # a repro campaign --json record
        header = ["workload", "system", "stage", "cycles", "source", "wall_s", "host_s", "mips"]
        rows = []
        for m in payload.get("runs", []):
            spec = m["spec"]
            live = not m.get("cache_hit", False)
            rows.append([
                spec["workload"], spec["system"], spec["dsa_stage"], str(m["cycles"]),
                m["source"], f"{m['wall_time_s']:.3f}",
                f"{m.get('host_seconds', 0.0):.3f}" if live else "-",
                f"{m.get('guest_mips', 0.0):.2f}" if live else "-",
            ])
        c = payload["campaign"]
        tail = (
            f"{c.get('total_runs', 0)} runs: {c.get('cache_hits', 0)} from cache, "
            f"{c.get('computed', 0)} computed in {c.get('wall_time_s', 0.0):.2f}s"
        )
        worn = {k: v for k, v in (c.get("degradation") or {}).items() if v}
        if worn:
            tail += "\ndegradation: " + ", ".join(
                f"{k.replace('_', ' ')}={v}" for k, v in sorted(worn.items())
            )
    else:
        raise ConfigError(
            f"{args.record} is neither a campaign record nor a bench record"
        )
    widths = [
        max(len(header[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(header))
    ]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    print(tail)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .observe import (
        Observer,
        write_chrome_trace,
        write_jsonl,
        write_prometheus,
    )
    from .systems.campaign import execute_spec

    spec = RunSpec(
        args.workload, args.system,
        dsa_stage=args.dsa_stage, scale=args.scale, seed=args.seed,
    )
    observer = Observer()
    result = execute_spec(spec, guard=args.guard, observer=observer)
    safe = args.workload.replace(":", "_")
    out = args.output or f"{safe}_{args.system}.trace.json"
    write_chrome_trace(observer, out, process_name=spec.label)
    print(f"wrote {out} ({len(observer.events)} events, "
          f"{len(observer.spans)} span(s)) — load it in chrome://tracing",
          file=sys.stderr)
    if args.jsonl:
        write_jsonl(observer, args.jsonl)
        print(f"wrote {args.jsonl}", file=sys.stderr)
    if args.prom:
        write_prometheus(
            observer, args.prom,
            labels={"workload": spec.workload, "system": spec.system},
        )
        print(f"wrote {args.prom}", file=sys.stderr)
    profile = observer.profile()
    print(f"{spec.label}: {result.cycles} cycles, {result.instructions} instructions")
    for kind, count in sorted(profile.events.items()):
        print(f"  {kind:18s} {count}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .observe import LoopCoverageReport, PAPER_LOOP_CLASSES
    from .systems.campaign import MICRO_PREFIX
    from .workloads.coverage import evaluate_gate

    # the gate is static (classifier over the registered kernels' IR): it
    # needs no simulation, so --gate alone is a milliseconds-fast CI step
    gate = evaluate_gate(required=args.required)
    if args.gate:
        if args.json:
            print(json.dumps(gate.to_dict(), indent=2, sort_keys=True))
        else:
            print(gate.table())
        return 0 if gate.passed else 5

    runner = _runner_from(args, progress=None if args.json else _progress)
    # the NEON backend is fixed at VL=128; --vl only widens the scalable one
    specs_by_backend = {
        backend: [
            RunSpec(
                f"{MICRO_PREFIX}{kind}", "neon_dsa", args.dsa_stage, args.scale,
                backend=backend, vl=128 if backend == "neon" else args.vl,
            )
            for kind in PAPER_LOOP_CLASSES
        ]
        for backend in dict.fromkeys(args.backends)
    }
    outcome = runner.run([s for specs in specs_by_backend.values() for s in specs])
    if outcome.failures:
        for f in outcome.failures:
            print(f"failed: {f.label}: {f.kind}: {f.cause}", file=sys.stderr)
        return 3
    report = LoopCoverageReport.merged([
        LoopCoverageReport.from_results({
            spec.workload[len(MICRO_PREFIX):]: outcome.result_for(spec)
            for spec in specs
        })
        for specs in specs_by_backend.values()
    ])
    degradation = {k: v for k, v in outcome.degradation.items() if v}
    # where the host simulator actually spent its retirements, summed over
    # the live runs of this invocation (cache hits did no simulation and
    # therefore contribute nothing)
    tier_residency: dict[str, int] = {}
    for m in outcome.metrics:
        for tier, count in (m.tier_counts or {}).items():
            tier_residency[tier] = tier_residency.get(tier, 0) + count
    if args.json:
        record = report.to_dict()
        record["degradation"] = outcome.degradation
        record["tier_residency"] = tier_residency
        record["coverage_gate"] = gate.to_dict()
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(report.table())
        print(
            "coverage gate: " + ("PASS" if gate.passed else "FAIL")
            + " (details: repro stats --gate)"
        )
        total = sum(tier_residency.values())
        if total:
            print("tier residency: " + ", ".join(
                f"{tier}={count} ({count / total:.1%})"
                for tier, count in sorted(tier_residency.items(), key=lambda kv: -kv[1])
            ))
        if degradation:
            print("degradation: " + ", ".join(
                f"{k.replace('_', ' ')}={v}" for k, v in sorted(degradation.items())
            ))
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    # paper benchmarks first (registry order), then the streaming family
    for name in ALL_WORKLOADS:
        workload = load(name, args.scale)
        family = "paper" if name in PAPER_WORKLOADS else "streaming"
        print(f"{name:16s} [{workload.dlp_level:6s}|{family:9s}] {workload.description}")
        print(f"{'':16s} loops: {workload.loop_note}")
        if workload.loop_classes:
            print(f"{'':16s} classes: {', '.join(workload.loop_classes)}")
    return 0


def _cmd_asm(args: argparse.Namespace) -> int:
    if args.workload not in ALL_WORKLOADS:
        raise ConfigError(
            f"unknown workload {args.workload!r}; valid choices: {sorted(ALL_WORKLOADS)}"
        )
    workload = load(args.workload, args.scale)
    lowered = lower_for(args.system, workload)
    print(f"; {args.workload} lowered for {args.system}")
    if lowered.vectorized_loops:
        print(f"; statically vectorized loops: {lowered.vectorized_loops}")
    if lowered.guarded_loops:
        print(f"; runtime-versioned (guarded) loops: {lowered.guarded_loops}")
    print(lowered.asm)
    return 0


def _cmd_area(args: argparse.Namespace) -> int:
    print(AreaModel().table())
    return 0


def _add_cache_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for uncached runs (default: 1)")
    p.add_argument("--no-cache", action="store_true",
                   help="skip the on-disk result cache entirely")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="result cache location (default: $REPRO_CACHE_DIR or .repro-cache/results)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dynamic SIMD Assembler reproduction (DATE 2019)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("campaign", help="run the workload × system matrix, parallel + cached")
    p.add_argument("--scale", default="test", choices=("test", "bench", "full"))
    p.add_argument("--workloads", nargs="*", default=None,
                   help="workload ids (default: all seven; micro:<kind> also allowed)")
    p.add_argument("--systems", nargs="*", default=None, choices=SYSTEM_NAMES,
                   help="systems to run (default: all four)")
    p.add_argument("--dsa-stages", nargs="*", default=["full"], choices=tuple(DSA_STAGES),
                   help="DSA feature stages to run for neon_dsa (default: full)")
    p.add_argument("--seed", type=int, default=None, help="input RNG seed override")
    p.add_argument("--backend", default="neon", choices=BACKEND_NAMES,
                   help="vector backend for every run (default: neon)")
    p.add_argument("--vl", type=int, default=128, choices=VALID_VECTOR_LENGTHS,
                   help="vector length in bits for the scalable backend; a VL wider "
                        "than 128 restricts the matrix to arm_original + neon_dsa "
                        "(default: 128)")
    p.add_argument("--json", action="store_true", help="emit the metrics/results JSON record")
    p.add_argument("--clear-cache", action="store_true", help="drop cached results first")
    p.add_argument("--guard", action="store_true",
                   help="guarded DSA execution: verify vector outcomes, fall back to scalar on mismatch")
    p.add_argument("--inject", default=None, metavar="PLAN.json",
                   help="fault plan to inject (see repro.faults; EXPERIMENTS.md has an example)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-run wall-clock budget; timed-out runs are killed and retried/reported")
    p.add_argument("--retries", type=int, default=0, metavar="N",
                   help="extra attempts per failed run (default: 0)")
    p.add_argument("--backoff", type=float, default=0.5, metavar="SECONDS",
                   help="base delay between retries, doubled each attempt (default: 0.5)")
    p.add_argument("--resume", action="store_true",
                   help="serve plan-targeted specs from the disk cache instead of re-faulting them")
    p.add_argument("--observe", action="store_true",
                   help="attach a per-run observer; computed runs carry a profile in the JSON record")
    _add_cache_flags(p)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("experiments", help="regenerate paper tables/figures")
    p.add_argument("--scale", default="test", choices=("test", "bench", "full"))
    p.add_argument("--only", nargs="*", help="experiment ids (default: all)")
    p.add_argument("--paper", action="store_true", help="print paper reference values")
    _add_cache_flags(p)
    p.set_defaults(func=_cmd_experiments)

    p = sub.add_parser("run", help="run one workload")
    p.add_argument("workload", help=f"one of {sorted(PAPER_WORKLOADS)}")
    p.add_argument("--system", choices=SYSTEM_NAMES)
    p.add_argument("--scale", default="test", choices=("test", "bench", "full"))
    p.add_argument("--dsa-stage", default="full", choices=tuple(DSA_STAGES))
    p.add_argument("--guard", action="store_true",
                   help="guarded DSA execution: verify vector outcomes, fall back to scalar on mismatch")
    p.add_argument("-v", "--verbose", action="store_true")
    _add_cache_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bench", help="measure simulator throughput (guest MIPS)")
    p.add_argument("--scale", default="test", choices=("test", "bench", "full"))
    p.add_argument("--workloads", nargs="*", default=None,
                   help="workload ids to time (default: matmul rgb_gray bitcount)")
    p.add_argument("--systems", nargs="*", default=None, choices=SYSTEM_NAMES,
                   help="systems to time (default: all four)")
    p.add_argument("--repeats", type=int, default=3, metavar="N",
                   help="timing repeats per spec, best-of-N (default: 3)")
    p.add_argument("--quick", action="store_true",
                   help="small fixed matrix, one repeat (CI smoke configuration)")
    p.add_argument("-o", "--output", default=None, metavar="FILE.json",
                   help="write the JSON report (e.g. BENCH_sim_throughput.json)")
    p.add_argument("--json", action="store_true", help="print the JSON report to stdout")
    p.add_argument("--check-baseline", default=None, metavar="BASELINE.json",
                   help="compare against a saved report; exit 4 on throughput regression")
    p.add_argument("--tolerance", type=float, default=0.25, metavar="FRACTION",
                   help="allowed aggregate slowdown vs baseline (default: 0.25)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("report", help="render a saved campaign/bench JSON record")
    p.add_argument("record", help="path to a 'repro campaign --json' or 'repro bench' record")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("workloads", help="list benchmarks")
    p.add_argument("--scale", default="test", choices=("test", "bench", "full"))
    p.set_defaults(func=_cmd_workloads)

    p = sub.add_parser("asm", help="print lowered assembly")
    p.add_argument("workload", help=f"one of {sorted(PAPER_WORKLOADS)}")
    p.add_argument("--system", default="arm_original", choices=SYSTEM_NAMES)
    p.add_argument("--scale", default="test", choices=("test", "bench", "full"))
    p.set_defaults(func=_cmd_asm)

    p = sub.add_parser(
        "trace",
        help="run one spec with the observer attached and export its trace",
    )
    p.add_argument("workload",
                   help=f"one of {sorted(PAPER_WORKLOADS)} or micro:<kind>")
    p.add_argument("system", choices=SYSTEM_NAMES)
    p.add_argument("--scale", default="test", choices=("test", "bench", "full"))
    p.add_argument("--dsa-stage", default="full", choices=tuple(DSA_STAGES))
    p.add_argument("--seed", type=int, default=None, help="input RNG seed override")
    p.add_argument("--guard", action="store_true",
                   help="guarded DSA execution (guard fallbacks show up as events)")
    p.add_argument("-o", "--output", default=None, metavar="TRACE.json",
                   help="Chrome tracing output path (default: <workload>_<system>.trace.json)")
    p.add_argument("--jsonl", default=None, metavar="FILE.jsonl",
                   help="also write the raw event log as JSON lines")
    p.add_argument("--prom", default=None, metavar="FILE.prom",
                   help="also write Prometheus textfile counters")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "stats",
        help="per-loop-type DSA coverage table over the paper's loop taxonomy",
    )
    p.add_argument("--scale", default="test", choices=("test", "bench", "full"))
    p.add_argument("--dsa-stage", default="full", choices=tuple(DSA_STAGES))
    p.add_argument("--backends", nargs="*", default=["neon"], choices=BACKEND_NAMES,
                   help="vector backends to cover, one table block each (default: neon)")
    p.add_argument("--vl", type=int, default=128, choices=VALID_VECTOR_LENGTHS,
                   help="vector length in bits for the scalable backend (default: 128)")
    p.add_argument("--json", action="store_true", help="emit the coverage record as JSON")
    p.add_argument("--gate", action="store_true",
                   help="evaluate only the static loop-class coverage gate; "
                        "exit 5 unless every paper loop class is exercised by "
                        "enough registered workloads")
    p.add_argument("--required", type=int, default=2, metavar="N",
                   help="workloads required per loop class for the gate (default: 2)")
    _add_cache_flags(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("area", help="DSA area table")
    p.set_defaults(func=_cmd_area)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, KeyError) as exc:
        # configuration mistakes get a one-line error, not a traceback
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
