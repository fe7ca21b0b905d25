"""Simulator-throughput benchmark harness (``repro bench``).

Measures how fast the *host* simulates — guest instructions retired per
host second — which is the quantity the execution tiers exist to
improve.  This is observability for the simulator itself, deliberately
separate from the architectural results: nothing here participates in
result identity or the on-disk cache (every bench run simulates live).

The report is written as ``BENCH_sim_throughput.json``; a committed copy
at the repo root serves as the regression baseline CI checks (non-gating)
with ``repro bench --check-baseline``.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field

from ..cpu.config import DEFAULT_CPU_CONFIG, CPUConfig
from ..errors import ConfigError
from .campaign import RunSpec, execute_spec
from .result_cache import code_fingerprint

#: schema version of the JSON report
BENCH_VERSION = 1

#: the default bench matrix: one high-DLP, one medium, one low workload on
#: every system keeps the run under a minute while touching both run loops
#: (record-free fast path and the traced DSA path); the streaming cells
#: add the sentinel-heavy and gather/scatter simulation shapes
DEFAULT_WORKLOADS = ("matmul", "rgb_gray", "bitcount", "delim_scan", "stride_histogram")
QUICK_WORKLOADS = ("matmul", "rgb_gray", "delim_scan")
QUICK_SYSTEMS = ("arm_original", "neon_dsa")


@dataclass
class BenchRun:
    """Throughput of one (workload, system) simulation."""

    label: str
    workload: str
    system: str
    instructions: int
    cycles: int
    host_seconds: float          # best of ``repeats`` (least-noise estimate)
    guest_mips: float
    #: execution-tier residency (instructions retired per tier); names the
    #: ladder rung a cell actually ran on, so a regression can be blamed
    #: on "matmul/neon_dsa fell off the covered tier" instead of guesswork
    tier_counts: dict[str, int] = field(default_factory=dict)

    @property
    def dominant_tier(self) -> str:
        """The tier that retired the most instructions ("-" when unknown)."""
        if not self.tier_counts:
            return "-"
        return max(self.tier_counts.items(), key=lambda kv: kv[1])[0]

    def to_dict(self) -> dict:
        d = {
            "label": self.label,
            "workload": self.workload,
            "system": self.system,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "host_seconds": round(self.host_seconds, 6),
            "guest_mips": round(self.guest_mips, 4),
        }
        if self.tier_counts:
            d["tier_counts"] = {k: self.tier_counts[k] for k in sorted(self.tier_counts)}
        return d


@dataclass
class BenchReport:
    """Everything one ``repro bench`` invocation measured."""

    scale: str
    repeats: int
    runs: list[BenchRun] = field(default_factory=list)

    @property
    def total_instructions(self) -> int:
        return sum(r.instructions for r in self.runs)

    @property
    def total_host_seconds(self) -> float:
        return sum(r.host_seconds for r in self.runs)

    @property
    def aggregate_mips(self) -> float:
        secs = self.total_host_seconds
        return self.total_instructions / secs / 1e6 if secs > 0 else 0.0

    def to_json(self) -> dict:
        return {
            "bench_version": BENCH_VERSION,
            "code_fingerprint": code_fingerprint(),
            "python": platform.python_version(),
            "scale": self.scale,
            "repeats": self.repeats,
            "aggregate": {
                "instructions": self.total_instructions,
                "host_seconds": round(self.total_host_seconds, 6),
                "guest_mips": round(self.aggregate_mips, 4),
            },
            "runs": [r.to_dict() for r in self.runs],
        }

    def table(self) -> str:
        header = ["workload", "system", "instructions", "host_s", "mips"]
        rows = [
            [
                r.workload,
                r.system,
                str(r.instructions),
                f"{r.host_seconds:.3f}",
                f"{r.guest_mips:.2f}",
            ]
            for r in self.runs
        ]
        widths = [
            max(len(header[i]), max((len(r[i]) for r in rows), default=0))
            for i in range(len(header))
        ]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        lines += ["  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in rows]
        lines.append(
            f"aggregate: {self.total_instructions} guest instructions in "
            f"{self.total_host_seconds:.2f}s host = {self.aggregate_mips:.2f} MIPS"
        )
        return "\n".join(lines)


def _time_spec(
    spec: RunSpec, config: CPUConfig, repeats: int
) -> tuple[float, int, int, dict[str, int]]:
    """Best-of-N wall time of one live (uncached) simulation."""
    best = float("inf")
    instructions = cycles = 0
    tiers: dict[str, int] = {}
    if repeats == 1:
        # a lone timed run would charge one-time process warmup (imports,
        # codegen exec, bytecode specialization) to the measurement and
        # read systematically slower than the best-of-N baseline numbers
        execute_spec(spec, cpu_config=config)
    for _ in range(repeats):
        start = time.perf_counter()
        result = execute_spec(spec, cpu_config=config)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        instructions, cycles = result.instructions, result.cycles
        tiers = dict(result.tier_counts)  # deterministic: same every repeat
    return best, instructions, cycles, tiers


def run_bench(
    scale: str = "test",
    repeats: int = 3,
    workloads: tuple[str, ...] | list[str] = DEFAULT_WORKLOADS,
    systems: tuple[str, ...] | list[str] | None = None,
    quick: bool = False,
    progress=None,
) -> BenchReport:
    """Measure simulator throughput over a (workload × system) matrix.

    Every simulation runs live and inline — no disk cache, no worker
    processes — so the numbers measure the interpreter, not the campaign
    plumbing.
    """
    from .setups import SYSTEM_NAMES

    if repeats < 1:
        raise ConfigError("bench repeats must be at least 1")
    if quick:
        workloads = QUICK_WORKLOADS
        systems = QUICK_SYSTEMS
        repeats = min(repeats, 1)
    if systems is None:
        systems = SYSTEM_NAMES
    for system in systems:
        if system not in SYSTEM_NAMES:
            raise ConfigError(f"unknown system {system!r}; pick one of {SYSTEM_NAMES}")

    report = BenchReport(scale=scale, repeats=repeats)
    for workload in workloads:
        for system in systems:
            spec = RunSpec(workload=workload, system=system, scale=scale)
            if progress is not None:
                progress(spec.label)
            host, instructions, cycles, tiers = _time_spec(spec, DEFAULT_CPU_CONFIG, repeats)
            report.runs.append(BenchRun(
                label=spec.label,
                workload=workload,
                system=system,
                instructions=instructions,
                cycles=cycles,
                host_seconds=host,
                guest_mips=instructions / host / 1e6 if host > 0 else 0.0,
                tier_counts=tiers,
            ))
    return report


def check_baseline(report: BenchReport, baseline: dict, tolerance: float = 0.25) -> list[str]:
    """Compare a fresh report against a committed baseline record.

    Returns a list of regression messages (empty = within tolerance).  Only
    slowdowns count: being faster than the baseline is never a failure.
    The aggregate is the gating number; individual (workload, system) cells
    gate at twice the tolerance, since small kernels are noisy — except
    DSA-system cells, which gate at the plain tolerance: they are exactly
    the cells covered execution accelerates, so a regression there means a
    characterized region stopped releasing to the fast tiers and must not
    hide inside an otherwise-healthy aggregate.  Every gating DSA message
    names the (workload, system, tier) triple — the dominant execution
    tier pinpoints *which* ladder rung the cell fell off.  An aggregate
    failure always additionally names every cell that slowed beyond the
    plain tolerance, worst first — "the aggregate regressed" alone is not
    actionable; "matmul/neon_dsa is 40% slower" is.
    """
    if not 0 < tolerance < 1:
        raise ConfigError("tolerance must be in (0, 1)")
    problems: list[str] = []
    base_aggregate = float(baseline.get("aggregate", {}).get("guest_mips", 0.0))
    aggregate_regressed = (
        base_aggregate > 0 and report.aggregate_mips < base_aggregate * (1 - tolerance)
    )

    base_runs = {r.get("label"): r for r in baseline.get("runs", [])}
    gating: list[str] = []
    suspects: list[tuple[float, str]] = []  # (mips ratio, message), for sorting
    for run in report.runs:
        base = base_runs.get(run.label)
        if base is None:
            continue
        base_mips = float(base.get("guest_mips", 0.0))
        if base_mips <= 0:
            continue
        ratio = run.guest_mips / base_mips
        dsa_cell = run.system.endswith("_dsa")
        cell = (
            f"({run.workload}, {run.system}, tier={run.dominant_tier})"
            if dsa_cell
            else f"{run.workload}/{run.system}"
        )
        message = (
            f"{cell}: {run.guest_mips:.2f} MIPS vs "
            f"baseline {base_mips:.2f} MIPS ({1 - ratio:.0%} slower)"
        )
        if ratio < 1 - (tolerance if dsa_cell else 2 * tolerance):
            gating.append(message)
        elif ratio < 1 - tolerance:
            suspects.append((ratio, message))

    if aggregate_regressed:
        problems.append(
            f"aggregate throughput regressed: {report.aggregate_mips:.2f} MIPS vs "
            f"baseline {base_aggregate:.2f} MIPS (tolerance {tolerance:.0%})"
        )
        # name the cells responsible, worst first, even sub-gating ones
        problems += [message for _, message in sorted(suspects)]
    problems += gating
    return problems


def load_baseline(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"baseline file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"baseline file {path} is not valid JSON: {exc}") from None
    if not isinstance(baseline, dict) or "aggregate" not in baseline:
        raise ConfigError(f"baseline file {path} is not a bench report")
    return baseline
