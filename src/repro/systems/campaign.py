"""Campaign runner: the (workload × system × DSA-stage) matrix, fanned out
across crash-isolated worker processes and backed by the content-addressed
result cache.

Every paper artefact re-simulates the same handful of (workload, system)
pairs; this layer is where those runs are dispatched, deduplicated, cached
and observed.  The contract that makes it work is :class:`RunResult`'s
deterministic serialization: a run computed in a worker process, loaded
from the disk cache, or computed inline must produce byte-identical
records, so ``--jobs N`` can never change an experiment's numbers.

Robustness contract (see ``repro.faults``): a worker that raises, hard-
exits, or hangs costs the campaign exactly that one run.  Each run gets a
wall-clock deadline and bounded retries with exponential backoff; whatever
still fails becomes a :class:`RunFailure` record reported at the end —
the campaign always completes the rest of the matrix.  Results hit the
disk cache as each run finishes (not when the batch does), so an
interrupted campaign resumes from what it already computed.

Workload ids are either one of the seven paper benchmarks (``matmul``,
``rgb_gray``, ...) or a loop-type microkernel addressed as
``micro:<kind>`` (``micro:count``, ``micro:sentinel``, ...).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field, replace as dc_replace
from typing import Callable, Sequence

from ..cpu.config import DEFAULT_CPU_CONFIG, CPUConfig
from ..energy.params import DEFAULT_ENERGY_PARAMS
from ..errors import ConfigError, InjectedFaultError, ReproError, RunTimeoutError
from ..faults import WORKER_FAULT_KINDS, FaultPlan, build_injector
from ..workloads import ALL_WORKLOADS, PAPER_WORKLOADS, load
from ..workloads.base import Workload, check_scale
from ..observe import Observer
from ..observe.events import EventKind
from ..workloads.synthetic import LOOP_TYPE_MICROKERNELS
from .isolation import IsolatedExecutor, IsolatedOutcome
from .metrics import RunFailure, RunMetrics, RunResult, summarize_run
from .result_cache import ResultDiskCache, code_fingerprint, content_key
from .setups import DSA_STAGES, SYSTEM_NAMES, lower_for, run_system

#: prefix selecting a loop-type microkernel instead of a paper benchmark
MICRO_PREFIX = "micro:"

ProgressHook = Callable[[int, int, RunMetrics], None]


@dataclass(frozen=True)
class RunSpec:
    """Identity of one simulation in the campaign matrix."""

    workload: str
    system: str
    dsa_stage: str = "full"
    scale: str = "test"
    seed: int | None = None
    #: vector backend + vector length (bits) the core runs with; the
    #: default (neon, 128) is the paper's configuration
    backend: str = "neon"
    vl: int = 128

    def __post_init__(self) -> None:
        if self.system not in SYSTEM_NAMES:
            raise ConfigError(f"unknown system {self.system!r}; pick one of {SYSTEM_NAMES}")
        if self.system == "neon_dsa":
            if self.dsa_stage not in DSA_STAGES:
                raise ConfigError(
                    f"unknown DSA stage {self.dsa_stage!r}; pick one of {sorted(DSA_STAGES)}"
                )
        else:
            # the stage is meaningless without a DSA: normalize it away so
            # (matmul, arm_original, full) and (matmul, arm_original,
            # original) are one run, one cache entry
            object.__setattr__(self, "dsa_stage", "-")
        check_scale(self.scale)
        if self.seed is not None and int(self.seed) < 0:
            raise ConfigError(f"workload seed must be non-negative, got {self.seed}")
        from ..vector import BACKEND_NAMES, VALID_VECTOR_LENGTHS

        if self.backend not in BACKEND_NAMES:
            raise ConfigError(
                f"unknown vector backend {self.backend!r}; pick one of {BACKEND_NAMES}"
            )
        if self.vl not in VALID_VECTOR_LENGTHS:
            raise ConfigError(
                f"vector length must be one of {VALID_VECTOR_LENGTHS}, got {self.vl}"
            )
        if self.backend == "neon" and self.vl != 128:
            raise ConfigError(
                "the neon backend is fixed at VL=128; use backend='scalable' "
                "for wider vectors"
            )
        if self.vl != 128 and self.system in ("neon_autovec", "neon_handvec"):
            raise ConfigError(
                f"system {self.system!r} executes a static 128-bit NEON binary "
                f"and cannot run at VL={self.vl}"
            )

    @property
    def label(self) -> str:
        stage = f"[{self.dsa_stage}]" if self.system == "neon_dsa" else ""
        tail = "" if self.backend == "neon" else f"@{self.backend}{self.vl}"
        return f"{self.workload}/{self.system}{stage}{tail}"

    def to_dict(self) -> dict:
        d = asdict(self)
        # the default (neon, 128) is omitted so pre-backend spec records
        # and cache payloads stay byte-identical
        if self.backend == "neon" and self.vl == 128:
            del d["backend"], d["vl"]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunSpec":
        return cls(**d)


def build_workload(spec: RunSpec) -> Workload:
    """Materialize the workload a spec names (paper, streaming or micro)."""
    if spec.workload.startswith(MICRO_PREFIX):
        kind = spec.workload[len(MICRO_PREFIX):]
        try:
            builder = LOOP_TYPE_MICROKERNELS[kind]
        except KeyError:
            raise ConfigError(
                f"unknown microkernel {kind!r}; available: {sorted(LOOP_TYPE_MICROKERNELS)}"
            ) from None
        return builder(seed=spec.seed)
    if spec.workload not in ALL_WORKLOADS:
        raise ConfigError(
            f"unknown workload {spec.workload!r}; available: {sorted(ALL_WORKLOADS)} "
            f"or micro:<{('|'.join(sorted(LOOP_TYPE_MICROKERNELS)))}>"
        )
    return load(spec.workload, spec.scale, seed=spec.seed)


def execute_spec(
    spec: RunSpec,
    cpu_config: CPUConfig | None = None,
    guard: bool = False,
    plan: FaultPlan | None = None,
    max_seconds: float | None = None,
    observer=None,
) -> RunResult:
    """Run one spec to completion (golden-checked) and summarize it.

    ``guard`` enables the DSA's guarded execution (mis-speculation falls
    back to scalar instead of raising); ``plan`` attaches the fault
    injector for any DSA/NEON faults targeting this spec's label;
    ``max_seconds`` bounds the simulation's wall clock cooperatively;
    ``observer`` instruments the run (see :mod:`repro.observe`) without
    perturbing the result.
    """
    workload = build_workload(spec)
    stage = spec.dsa_stage if spec.system == "neon_dsa" else "full"
    injector = build_injector(plan, spec.label)
    result = run_system(
        spec.system,
        workload,
        cpu_config=cpu_config,
        dsa_stage=stage,
        guard=guard,
        injector=injector,
        max_seconds=max_seconds,
        observer=observer,
        backend=spec.backend,
        vl=spec.vl,
    )
    return summarize_run(
        result, scale=spec.scale, seed=spec.seed, dsa_stage=spec.dsa_stage,
        backend=spec.backend, vl=spec.vl,
    )


def _worker_run(task: tuple, attempt: int) -> tuple[str, float, str | None, str | None]:
    """Isolated-worker entry point: returns (canonical JSON, compute secs,
    profile JSON or ``None``, tier-residency JSON or ``None``).

    Worker-level faults from the plan are applied *here*, inside the
    sacrificial process, before any simulation work starts — a crash,
    hard exit or hang therefore exercises exactly the failure path a
    genuinely broken worker would take.  An :class:`~repro.observe.Observer`
    is not picklable, so when the campaign asks for profiles the worker
    builds its own observer and ships back the aggregated profile dict.
    """
    spec, cpu_config, guard, plan, max_seconds, observe = task
    if plan is not None:
        fault = plan.worker_fault_for(spec.label, attempt)
        if fault is not None:
            if fault.kind == "worker_crash":
                raise InjectedFaultError(f"injected worker crash (attempt {attempt})")
            if fault.kind == "worker_exit":
                os._exit(fault.exit_code)
            if fault.kind == "worker_hang":
                time.sleep(fault.seconds)
    observer = Observer() if observe else None
    start = time.perf_counter()
    result = execute_spec(
        spec, cpu_config=cpu_config, guard=guard, plan=plan,
        max_seconds=max_seconds, observer=observer,
    )
    profile = (
        json.dumps(observer.profile().to_dict(), sort_keys=True)
        if observer is not None
        else None
    )
    # tier residency is not part of result identity, so it crosses the
    # process boundary beside the result rather than inside it
    tiers = json.dumps(result.tier_counts, sort_keys=True) if result.tier_counts else None
    return (
        json.dumps(result.to_dict(), sort_keys=True),
        time.perf_counter() - start,
        profile,
        tiers,
    )


def _canonical(result: RunResult) -> RunResult:
    """Round-trip through JSON so inline runs construct the exact same
    object a pooled or cache-served run would."""
    return RunResult.from_dict(json.loads(json.dumps(result.to_dict(), sort_keys=True)))


@dataclass
class CampaignResult:
    """Everything one campaign invocation produced."""

    metrics: list[RunMetrics]
    results: dict[RunSpec, RunResult]
    wall_time_s: float
    jobs: int = 1
    cache_dir: str | None = None
    failures: list[RunFailure] = field(default_factory=list)
    #: graceful-degradation counters (cache quarantines, stale drops) —
    #: zero on a healthy campaign, surfaced so operators *see* recoveries
    #: instead of inferring them
    degradation: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def cache_hits(self) -> int:
        return sum(1 for m in self.metrics if m.cache_hit)

    @property
    def computed(self) -> int:
        return sum(1 for m in self.metrics if not m.cache_hit)

    @property
    def fallbacks(self) -> int:
        """Total guarded-execution scalar rollbacks across the campaign."""
        return sum(m.fallbacks for m in self.metrics)

    def result_for(self, spec: RunSpec) -> RunResult:
        return self.results[spec]

    def to_json(self) -> dict:
        """The ``repro campaign --json`` schema (see EXPERIMENTS.md)."""
        return {
            "campaign": {
                "total_runs": len(self.metrics),
                "cache_hits": self.cache_hits,
                "computed": self.computed,
                "failed": len(self.failures),
                "fallbacks": self.fallbacks,
                "wall_time_s": round(self.wall_time_s, 6),
                "jobs": self.jobs,
                "cache_dir": self.cache_dir,
                "code_fingerprint": code_fingerprint(),
                "degradation": dict(self.degradation),
            },
            "runs": [m.to_dict() for m in self.metrics],
            "results": [self.results[RunSpec.from_dict(m.spec)].to_dict() for m in self.metrics],
            "failures": [f.to_dict() for f in self.failures],
        }

    def summary_table(self) -> str:
        header = ["workload", "system", "stage", "cycles", "source", "fallbacks", "wall_s", "mips"]
        rows = [
            [
                m.spec["workload"],
                m.spec["system"],
                m.spec["dsa_stage"],
                str(m.cycles),
                m.source,
                str(m.fallbacks),
                f"{m.wall_time_s:.3f}",
                f"{m.guest_mips:.2f}" if m.guest_mips else "-",
            ]
            for m in self.metrics
        ]
        widths = [max(len(header[i]), max((len(r[i]) for r in rows), default=0)) for i in range(len(header))]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        lines += ["  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in rows]
        tail = (
            f"{len(self.metrics)} runs: {self.cache_hits} from cache, "
            f"{self.computed} computed in {self.wall_time_s:.2f}s with {self.jobs} job(s)"
        )
        if self.fallbacks:
            tail += f"; {self.fallbacks} guarded fallback(s)"
        if self.failures:
            tail += f"; {len(self.failures)} FAILED"
        lines.append(tail)
        worn = {k: v for k, v in self.degradation.items() if v}
        if worn:
            lines.append(
                "degradation: "
                + ", ".join(f"{k.replace('_', ' ')}={v}" for k, v in sorted(worn.items()))
            )
        for f in self.failures:
            lines.append(f"FAILED {f.label}: {f.kind}: {f.cause} (after {f.attempts} attempt(s))")
        return "\n".join(lines)


class CampaignRunner:
    """Dispatches run specs: in-memory memo → disk cache → isolated compute.

    Robustness knobs (all default off):

    * ``guard``      — run the DSA in guarded mode (mis-speculation rolls
      back to scalar and is counted instead of raising);
    * ``fault_plan`` — inject the plan's faults (see ``repro.faults``);
    * ``timeout``    — per-run wall-clock budget in seconds;
    * ``retries``    — extra attempts per failed run (exponential
      ``backoff`` between attempts);
    * ``resume``     — reuse disk-cached results for specs a fault plan
      targets; without it a faulted campaign recomputes those specs so
      the faults actually fire instead of being served from cache.

    Observability knobs (see :mod:`repro.observe`):

    * ``observe``  — attach a per-run observer to every *computed* run and
      carry its aggregated :class:`~repro.observe.RunProfile` on the run's
      :class:`RunMetrics` (cache hits did no simulation: their profile is
      ``None``);
    * ``observer`` — a campaign-level observer receiving the dispatch-layer
      events (memory/disk cache hits and misses, worker retries/timeouts).
    """

    def __init__(
        self,
        jobs: int = 1,
        use_cache: bool = True,
        cache_dir=None,
        cpu_config: CPUConfig | None = None,
        progress: ProgressHook | None = None,
        guard: bool = False,
        fault_plan: FaultPlan | None = None,
        timeout: float | None = None,
        retries: int = 0,
        backoff: float = 0.5,
        resume: bool = False,
        observe: bool = False,
        observer: Observer | None = None,
    ):
        if jobs < 1:
            raise ConfigError("jobs must be at least 1")
        if retries < 0:
            raise ConfigError("retries cannot be negative")
        if timeout is not None and timeout <= 0:
            raise ConfigError("timeout must be positive")
        self.jobs = jobs
        self.cpu_config = cpu_config
        self.progress = progress
        self.guard = guard
        self.fault_plan = fault_plan
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.resume = resume
        self.observe = observe
        self.observer = observer
        self.disk = ResultDiskCache(cache_dir, enabled=use_cache)
        self._memory: dict[RunSpec, RunResult] = {}

    # ------------------------------------------------------------------
    def cache_key(self, spec: RunSpec) -> str:
        """Content address of a run: lowered kernel + inputs + configs + code."""
        workload = build_workload(spec)
        lowered = lower_for(spec.system, workload)
        dsa_config = DSA_STAGES[spec.dsa_stage] if spec.system == "neon_dsa" else None
        # the spec's backend/vl override the runner-level cpu_config at
        # execution time (see execute_spec), so the key must hash the
        # *effective* config — plus the pair explicitly, so NEON results
        # can never be shadowed or overwritten by a scalable sweep
        cpu_config = dc_replace(
            self.cpu_config or DEFAULT_CPU_CONFIG,
            vector_backend=spec.backend,
            vector_length=spec.vl,
        )
        parts = {
            "code": code_fingerprint(),
            "kernel_asm": lowered.asm,
            "workload": spec.workload,
            "scale": spec.scale,
            "seed": workload.seed,
            "system": spec.system,
            "dsa_stage": spec.dsa_stage,
            "backend": spec.backend,
            "vl": spec.vl,
            "cpu_config": asdict(cpu_config),
            "dsa_config": asdict(dsa_config) if dsa_config else None,
            "energy_params": asdict(DEFAULT_ENERGY_PARAMS),
        }
        # Guarded runs and fault-altered runs record different counters, so
        # they live under their own keys — the clean cache stays pristine
        # and a faulted campaign can never poison a fault-free one.
        if self.guard:
            parts["guard"] = True
        if self.fault_plan is not None and self.fault_plan.alters_result(spec.label):
            parts["fault_plan"] = self.fault_plan.digest()
        return content_key(parts)

    # ------------------------------------------------------------------
    def run_one(self, spec: RunSpec) -> RunResult:
        outcome = self.run([spec])
        if outcome.failures:
            f = outcome.failures[0]
            raise ReproError(
                f"run {f.label} failed after {f.attempts} attempt(s): {f.kind}: {f.cause}"
            )
        return outcome.result_for(spec)

    def run(self, specs: Sequence[RunSpec]) -> CampaignResult:
        """Run the matrix; duplicate specs are computed once."""
        start = time.perf_counter()
        plan = self.fault_plan
        ordered = list(specs)
        sources: dict[RunSpec, str] = {}
        walls: dict[RunSpec, float] = {}
        results: dict[RunSpec, RunResult] = {}
        failures: dict[RunSpec, RunFailure] = {}
        profiles: dict[RunSpec, dict] = {}
        tiers: dict[RunSpec, dict] = {}
        keys: dict[RunSpec, str] = {}
        pending: list[RunSpec] = []
        seen: set[RunSpec] = set()

        lookups: dict[RunSpec, float] = {}
        for spec in ordered:
            if spec in seen:
                continue
            seen.add(spec)
            if spec in self._memory:
                continue
            lookup_start = time.perf_counter()
            keys[spec] = self.cache_key(spec)
            lookups[spec] = time.perf_counter() - lookup_start

        if plan is not None and not self.resume:
            self._apply_cache_faults(plan, keys)
        self.disk.prune_tmp()

        obs = self.observer
        for spec in dict.fromkeys(ordered):
            if spec in self._memory:
                sources[spec] = "memory"
                walls[spec] = 0.0
                results[spec] = self._memory[spec]
                if obs is not None:
                    obs.emit(EventKind.CACHE_HIT, cache="memory", key=spec.label)
                continue
            lookup_start = time.perf_counter()
            # a freshly-faulted campaign must not serve plan-targeted specs
            # from cache — the injected faults would never fire
            skip_read = plan is not None and not self.resume and plan.for_label(spec.label)
            cached = None if skip_read else self._load_cached(keys[spec])
            if cached is not None:
                sources[spec] = "disk-cache"
                walls[spec] = lookups[spec] + time.perf_counter() - lookup_start
                results[spec] = cached
                if obs is not None:
                    obs.emit(EventKind.CACHE_HIT, cache="disk", key=keys[spec][:16])
            else:
                pending.append(spec)
                if obs is not None:
                    obs.emit(EventKind.CACHE_MISS, cache="disk", key=keys[spec][:16])

        if pending:
            self._compute(pending, keys, results, walls, failures, profiles, tiers)
            for spec in pending:
                if spec in results:
                    sources[spec] = "computed"

        self._memory.update(results)

        unique = [s for s in dict.fromkeys(ordered)]
        metrics: list[RunMetrics] = []
        done = 0
        for spec in unique:
            if spec not in results:
                continue
            done += 1
            m = RunMetrics.for_run(
                spec.to_dict(), results[spec], sources[spec], walls[spec],
                profile=profiles.get(spec),
                tier_counts=tiers.get(spec),
            )
            metrics.append(m)
            if self.progress is not None:
                self.progress(done, len(unique), m)
        return CampaignResult(
            metrics=metrics,
            results=results,
            wall_time_s=time.perf_counter() - start,
            jobs=self.jobs,
            cache_dir=str(self.disk.root) if self.disk.enabled else None,
            failures=[failures[s] for s in unique if s in failures],
            degradation=self.disk.stats.degradation(),
        )

    # ------------------------------------------------------------------
    def _load_cached(self, key: str) -> RunResult | None:
        payload = self.disk.load(key)
        if payload is None:
            return None
        try:
            return RunResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError):
            # schema drift or a damaged record: recover by re-running
            self.disk.path_for(key).unlink(missing_ok=True)
            return None

    def _store(self, spec: RunSpec, keys: dict[RunSpec, str], result: RunResult) -> None:
        key = keys.get(spec)
        if key is not None:
            self.disk.store(key, {"spec": spec.to_dict(), "result": result.to_dict()})

    def _apply_cache_faults(self, plan: FaultPlan, keys: dict[RunSpec, str]) -> None:
        """Damage disk-cache entries the plan targets, the way a crashed or
        bit-rotted writer would (the loader must recover by re-running)."""
        if not self.disk.enabled:
            return
        for spec, key in keys.items():
            for fault in plan.cache_faults_for(spec.label):
                path = self.disk.path_for(key)
                path.parent.mkdir(parents=True, exist_ok=True)
                if fault.mode == "garbage":
                    path.write_bytes(b"\x00\xffnot json at all\xfe")
                elif fault.mode == "version":
                    payload = {"cache_version": -1, "spec": spec.to_dict(), "result": {}}
                    path.write_text(json.dumps(payload))
                elif fault.mode == "truncate":
                    if path.exists():
                        data = path.read_bytes()
                        path.write_bytes(data[: max(1, len(data) // 2)])
                    else:
                        path.write_text('{"cache_version": 1, "spec": {"worklo')
                elif fault.mode == "tmp":
                    (path.parent / f"{key[:12]}-orphan.tmp").write_text("{half-written")

    def _compute(
        self,
        pending: list[RunSpec],
        keys: dict[RunSpec, str],
        results: dict[RunSpec, RunResult],
        walls: dict[RunSpec, float],
        failures: dict[RunSpec, RunFailure],
        profiles: dict[RunSpec, dict],
        tiers: dict[RunSpec, dict],
    ) -> None:
        plan = self.fault_plan
        # Worker faults hard-exit or hang: they must only ever run inside a
        # sacrificial process, never in the campaign's own interpreter.
        needs_isolation = (
            self.jobs > 1
            or self.timeout is not None
            or (plan is not None and any(
                f.kind in WORKER_FAULT_KINDS
                for spec in pending
                for f in plan.for_label(spec.label)
            ))
        )
        if not needs_isolation:
            self._compute_inline(pending, keys, results, walls, failures, profiles, tiers)
        else:
            self._compute_isolated(pending, keys, results, walls, failures, profiles, tiers)

    def _compute_inline(self, pending, keys, results, walls, failures, profiles, tiers) -> None:
        for spec in pending:
            attempt = 0
            while True:
                attempt += 1
                observer = Observer() if self.observe else None
                run_start = time.perf_counter()
                try:
                    live = execute_spec(
                        spec,
                        cpu_config=self.cpu_config,
                        guard=self.guard,
                        plan=self.fault_plan,
                        max_seconds=self.timeout,
                        observer=observer,
                    )
                    # captured before _canonical: the round-trip drops
                    # everything that is not result identity
                    if live.tier_counts:
                        tiers[spec] = dict(live.tier_counts)
                    result = _canonical(live)
                except Exception as exc:  # noqa: BLE001 - captured as RunFailure
                    wall = time.perf_counter() - run_start
                    if attempt <= self.retries:
                        time.sleep(self.backoff * (2 ** (attempt - 1)))
                        continue
                    kind = "timeout" if isinstance(exc, RunTimeoutError) else "error"
                    failures[spec] = RunFailure(
                        spec=spec.to_dict(),
                        label=spec.label,
                        kind=kind,
                        cause=f"{type(exc).__name__}: {exc}",
                        attempts=attempt,
                        wall_time_s=wall,
                    )
                    break
                walls[spec] = time.perf_counter() - run_start
                results[spec] = result
                if observer is not None:
                    profiles[spec] = observer.profile().to_dict()
                self._store(spec, keys, result)
                break

    def _compute_isolated(self, pending, keys, results, walls, failures, profiles, tiers) -> None:
        def on_complete(index: int, outcome: IsolatedOutcome) -> None:
            spec = pending[index]
            if outcome.ok:
                encoded, secs, profile, tier_enc = outcome.value
                results[spec] = RunResult.from_dict(json.loads(encoded))
                walls[spec] = secs
                if profile is not None:
                    profiles[spec] = json.loads(profile)
                if tier_enc is not None:
                    tiers[spec] = json.loads(tier_enc)
                # incremental: each result is durable the moment it exists,
                # so a later crash/interrupt can never lose it
                self._store(spec, keys, results[spec])
                return
            kind = outcome.status
            if kind == "error" and outcome.detail.startswith("RunTimeoutError"):
                kind = "timeout"  # the in-worker cooperative deadline fired
            failures[spec] = RunFailure(
                spec=spec.to_dict(),
                label=spec.label,
                kind=kind,
                cause=outcome.detail,
                attempts=outcome.attempts,
                wall_time_s=outcome.wall_time_s,
            )

        executor = IsolatedExecutor(
            _worker_run,
            jobs=min(self.jobs, len(pending)),
            timeout=self.timeout,
            retries=self.retries,
            backoff=self.backoff,
            on_complete=on_complete,
            observer=self.observer,
        )
        tasks = [
            (spec, self.cpu_config, self.guard, self.fault_plan, self.timeout, self.observe)
            for spec in pending
        ]
        executor.run(tasks)


# ----------------------------------------------------------------------
# matrix builders
# ----------------------------------------------------------------------
def default_matrix(
    scale: str = "test",
    workloads: Sequence[str] | None = None,
    systems: Sequence[str] | None = None,
    dsa_stages: Sequence[str] = ("full",),
    seed: int | None = None,
    backend: str = "neon",
    vl: int = 128,
) -> list[RunSpec]:
    """The campaign matrix: every workload on every system, the DSA once
    per requested feature stage.

    A non-128 ``vl`` restricts the system list to the ones that can run
    wider vectors (``arm_original`` scalar baseline + ``neon_dsa``, whose
    bursts are timing-only) unless ``systems`` was given explicitly.
    """
    if systems is None and vl != 128:
        systems = tuple(s for s in SYSTEM_NAMES if s in ("arm_original", "neon_dsa"))
    specs: list[RunSpec] = []
    for workload in workloads or list(PAPER_WORKLOADS):
        for system in systems or SYSTEM_NAMES:
            stages = dsa_stages if system == "neon_dsa" else ("full",)
            for stage in stages:
                specs.append(
                    RunSpec(workload, system, stage, scale, seed, backend, vl)
                )
    return specs


def experiment_matrix(scale: str = "test") -> list[RunSpec]:
    """Every run the full experiment suite (art1..art3) consumes."""
    specs = default_matrix(scale, dsa_stages=tuple(DSA_STAGES))
    specs += [
        RunSpec(f"{MICRO_PREFIX}{kind}", "neon_dsa", "full", scale)
        for kind in LOOP_TYPE_MICROKERNELS
    ]
    return specs
