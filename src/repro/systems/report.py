"""Comparison reports across systems and workloads.

Turns a set of run records into the text tables the examples and the CLI
print: cycles, improvement over the ARM original, energy savings, and the
DSA's coverage summary.  Works on live :class:`SystemResult` objects and
on the campaign layer's serializable :class:`~repro.systems.metrics.RunResult`
records alike — both expose ``cycles``, ``improvement_over``,
``energy_savings_over`` and ``dsa_stats``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import RunResult
from .setups import SystemResult


@dataclass
class ComparisonReport:
    """Results of one workload on several systems."""

    workload: str
    results: dict[str, SystemResult | RunResult]
    baseline: str = "arm_original"

    def __post_init__(self) -> None:
        if self.baseline not in self.results:
            raise KeyError(f"baseline system {self.baseline!r} missing from results")

    @property
    def base(self) -> SystemResult | RunResult:
        return self.results[self.baseline]

    def improvement(self, system: str) -> float:
        """Improvement (%) over the baseline, as the paper reports it."""
        return self.results[system].improvement_over(self.base) * 100.0

    def energy_savings(self, system: str) -> float:
        return self.results[system].energy_savings_over(self.base) * 100.0

    def rows(self) -> list[list]:
        out = []
        for name, result in self.results.items():
            row = [
                name,
                result.cycles,
                round(self.improvement(name), 1),
                round(self.energy_savings(name), 1),
            ]
            if result.dsa_stats is not None:
                row.append(dict(result.dsa_stats.vectorized_invocations))
            else:
                row.append("")
            out.append(row)
        return out

    def table(self) -> str:
        header = ["system", "cycles", "perf_%", "energy_%", "dsa_coverage"]
        rows = self.rows()
        widths = [
            max(len(str(header[i])), max(len(str(r[i])) for r in rows))
            for i in range(len(header))
        ]
        lines = [f"== {self.workload} =="]
        lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            lines.append("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)


@dataclass
class DSACoverageReport:
    """Human-readable summary of one DSA run's internal behaviour."""

    result: SystemResult | RunResult

    def lines(self) -> list[str]:
        stats = self.result.dsa_stats
        if stats is None:
            return ["(no DSA attached to this run)"]
        total_cycles = self.result.cycles
        out = [
            f"loops detected:          {stats.loops_detected}",
            f"loop verdicts:           {dict(stats.verdicts)}",
            f"vectorized invocations:  {dict(stats.vectorized_invocations)}",
            f"iterations covered:      {stats.iterations_covered}",
            f"NEON instructions built: {stats.vector_instructions} in {stats.bursts_charged} bursts",
            f"leftover techniques:     {dict(stats.leftover_used)}",
            f"hand-off stalls charged: {stats.stall_cycles} cycles",
            f"parallel detection work: {stats.detection_cycles} cycles "
            f"({100 * stats.detection_cycles / total_cycles if total_cycles else 0:.1f}% of runtime, hidden)",
            f"abandoned analyses:      {stats.analyses_aborted}",
            f"functional verifications: {stats.verifications} (all must pass or the run raises)",
        ]
        return out

    def table(self) -> str:
        return "\n".join(self.lines())
