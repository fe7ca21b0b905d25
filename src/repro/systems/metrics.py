"""Serializable run records: what the campaign layer caches and reports.

:class:`RunResult` is the deterministic, dataclass → dict round-trippable
summary of one (workload, system) simulation — everything the experiment
tables and figures consume, none of the live simulator state.  It is the
unit that crosses the process boundary and lives in the on-disk result
cache, so it must serialize identically no matter which process produced
it.

:class:`RunMetrics` wraps one campaign run with the observability fields
that must *not* participate in result identity (cache hit/miss, wall
time): two campaigns that produce byte-identical RunResults may still
differ in how long they took and where the results came from.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field, fields

from ..dsa.engine import DSAStats
from ..energy.model import EnergyReport
from .setups import SystemResult

#: DSAStats fields that are Counters (plain dicts on the wire)
_COUNTER_FIELDS = (
    "verdicts",
    "vectorized_invocations",
    "stage_activations",
    "leftover_used",
    "fallback_causes",
)


@dataclass
class RunResult:
    """Deterministically serializable summary of one simulation run."""

    workload: str
    system: str
    dsa_stage: str              # "-" when the system has no DSA attached
    scale: str
    seed: int | None
    cycles: int
    instructions: int
    seconds: float
    icounts: dict[str, int] = field(default_factory=dict)
    hierarchy_stats: dict[str, float] = field(default_factory=dict)
    timing_stats: dict[str, int] = field(default_factory=dict)
    energy: EnergyReport = field(default_factory=EnergyReport)
    dsa_stats: DSAStats | None = None
    backend: str = "neon"       # vector backend the run executed on
    vl: int = 128               # vector length in bits
    #: host-side execution-tier residency (traced/fast/compiled/
    #: covered → instructions retired there).  Pure observability:
    #: two byte-identical runs may retire the same work in different
    #: tiers (e.g. covered_execution on/off), so this never serializes
    #: with the result, is excluded from equality, and rides live objects
    #: only — it is re-homed onto :class:`RunMetrics` for reporting.
    tier_counts: dict[str, int] = field(default_factory=dict, compare=False, repr=False)

    # -- the quantities the experiments derive -------------------------
    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def improvement_over(self, baseline: "RunResult") -> float:
        """Performance improvement as the paper reports it:
        ``baseline_time / this_time - 1`` (0.31 = 31% faster)."""
        return baseline.cycles / self.cycles - 1.0

    def energy_savings_over(self, baseline: "RunResult") -> float:
        return self.energy.savings_over(baseline.energy)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["icounts"] = dict(self.icounts)
        d["hierarchy_stats"] = dict(self.hierarchy_stats)
        d["timing_stats"] = dict(self.timing_stats)
        d["energy"] = asdict(self.energy)
        if self.dsa_stats is not None:
            # not dataclasses.asdict: it would rebuild each Counter from an
            # items-iterable and count the (key, value) pairs themselves
            stats = {f.name: getattr(self.dsa_stats, f.name) for f in fields(self.dsa_stats)}
            for name in _COUNTER_FIELDS:
                stats[name] = dict(stats[name])
            d["dsa_stats"] = stats
        # the default backend (neon, 128) is omitted so pre-backend result
        # records and cache payloads stay byte-identical
        if self.backend == "neon" and self.vl == 128:
            del d["backend"], d["vl"]
        del d["tier_counts"]  # observability, never result identity
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunResult":
        d = dict(d)
        d.pop("tier_counts", None)  # never stored, tolerate hand-built dicts
        d["energy"] = EnergyReport(**d["energy"])
        if d.get("dsa_stats") is not None:
            stats = dict(d["dsa_stats"])
            for name in _COUNTER_FIELDS:
                stats[name] = Counter(stats[name])
            d["dsa_stats"] = DSAStats(**stats)
        return cls(**d)


def summarize_run(
    result: SystemResult,
    scale: str,
    seed: int | None,
    dsa_stage: str,
    backend: str = "neon",
    vl: int = 128,
) -> RunResult:
    """Collapse a live :class:`SystemResult` into its serializable record."""
    core_result = result.run.result
    timing = result.run.core.timing.stats
    return RunResult(
        workload=result.workload,
        system=result.system,
        dsa_stage=dsa_stage,
        scale=scale,
        seed=seed,
        cycles=core_result.cycles,
        instructions=core_result.instructions,
        seconds=core_result.seconds,
        icounts=dict(core_result.icounts),
        hierarchy_stats=dict(core_result.hierarchy_stats),
        timing_stats=asdict(timing),
        energy=result.energy,
        dsa_stats=result.dsa_stats,
        backend=backend,
        vl=vl,
        tier_counts=dict(core_result.tier_counts),
    )


@dataclass
class RunMetrics:
    """One campaign run plus the observability that is not part of result
    identity: where the result came from and what it cost to obtain."""

    spec: dict                       # RunSpec.to_dict()
    source: str                      # "computed" | "disk-cache" | "memory"
    wall_time_s: float
    cycles: int
    instructions: int
    stall_breakdown: dict[str, int]  # TimingStats counters
    dsa_counters: dict | None        # DSA stage activations, if a DSA ran
    fallbacks: int = 0               # guarded-execution scalar rollbacks
    host_seconds: float = 0.0        # host compute time; 0.0 for cache hits
    guest_mips: float = 0.0          # guest MIPS of a live run; 0.0 for hits
    fallback_causes: dict | None = None  # guard-rollback causes, if a DSA ran
    profile: dict | None = None      # RunProfile.to_dict() when observed live
    #: execution-tier residency of a live run (instructions retired per
    #: tier: traced/fast/compiled/covered); None for cache hits,
    #: which did no simulation
    tier_counts: dict | None = None

    @property
    def cache_hit(self) -> bool:
        return self.source != "computed"

    @classmethod
    def for_run(
        cls,
        spec_dict: dict,
        result: RunResult,
        source: str,
        wall_time_s: float,
        profile: dict | None = None,
        tier_counts: dict | None = None,
    ) -> "RunMetrics":
        # Host-side throughput is observability, never result identity: a
        # cache hit did no simulation, so it reports 0.0 — which is also
        # what makes hits distinguishable from live runs in reports.
        host_seconds = wall_time_s if source == "computed" else 0.0
        guest_mips = (
            result.instructions / host_seconds / 1e6 if host_seconds > 0 else 0.0
        )
        return cls(
            spec=spec_dict,
            source=source,
            wall_time_s=wall_time_s,
            cycles=result.cycles,
            instructions=result.instructions,
            stall_breakdown=dict(result.timing_stats),
            dsa_counters=dict(result.dsa_stats.stage_activations) if result.dsa_stats else None,
            fallbacks=result.dsa_stats.fallbacks if result.dsa_stats else 0,
            host_seconds=host_seconds,
            guest_mips=guest_mips,
            fallback_causes=dict(result.dsa_stats.fallback_causes) if result.dsa_stats else None,
            profile=profile,
            tier_counts=tier_counts if tier_counts else (
                dict(result.tier_counts) if result.tier_counts else None
            ),
        )

    def to_dict(self) -> dict:
        return {
            "spec": self.spec,
            "source": self.source,
            "cache_hit": self.cache_hit,
            "wall_time_s": round(self.wall_time_s, 6),
            "cycles": self.cycles,
            "instructions": self.instructions,
            "stall_breakdown": self.stall_breakdown,
            "dsa_counters": self.dsa_counters,
            "fallbacks": self.fallbacks,
            "host_seconds": round(self.host_seconds, 6),
            "guest_mips": round(self.guest_mips, 4),
            "fallback_causes": self.fallback_causes,
            "profile": self.profile,
            "tier_counts": self.tier_counts,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunMetrics":
        d = dict(d)
        d.pop("cache_hit", None)  # derived from source, never stored state
        return cls(**d)


@dataclass
class RunFailure:
    """A spec the campaign could not complete, after all retries.

    Failures are first-class campaign output: the campaign finishes the
    rest of the matrix, reports every failure by label, and exits nonzero —
    it never dies on the first broken run.
    """

    spec: dict                # RunSpec.to_dict()
    label: str                # RunSpec.label, the human-facing handle
    kind: str                 # "error" | "crash" | "timeout"
    cause: str                # one-line diagnosis (exception / exit code)
    attempts: int             # how many times the run was tried
    wall_time_s: float = 0.0  # wall time of the final attempt

    def to_dict(self) -> dict:
        return {
            "spec": self.spec,
            "label": self.label,
            "kind": self.kind,
            "cause": self.cause,
            "attempts": self.attempts,
            "wall_time_s": round(self.wall_time_s, 6),
        }
