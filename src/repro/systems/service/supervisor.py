"""The supervisor: feeds queued jobs through crash-isolated workers.

One asyncio task per in-flight job (bounded by a semaphore), each attempt
executed in its own sacrificial process via
:class:`~repro.systems.isolation.IsolatedExecutor` — a worker that raises,
hard-exits, or hangs past its heartbeat deadline costs exactly one attempt.
Failed attempts retry with exponential backoff plus jitter (so a thundering
herd of retries cannot synchronize); a cell — one (workload, system) pair —
that keeps killing workers trips a circuit breaker and is *quarantined*:
its remaining jobs are given up immediately with a structured reason
instead of burning worker processes forever.

Every state transition goes through the journal-backed
:class:`~repro.systems.service.jobs.JobStore` *before* the in-memory
update, so a SIGKILL at any instant leaves a journal that replays to a
consistent table.  Graceful drain (SIGTERM) stops dispatch, lets in-flight
jobs finish within a grace period, and leaves the stragglers journaled as
``running`` — which replay re-queues on the next boot: interrupted, never
lost.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass

from ...faults import FaultPlan
from ...observe.events import EventKind
from ..campaign import CampaignRunner, RunSpec, _worker_run
from ..isolation import IsolatedExecutor
from ..metrics import RunResult
from .jobs import JobStore
from .journal import JobRecord


def _service_worker(task: tuple, _executor_attempt: int):
    """Isolated-worker shim: the service owns the attempt counter (it spans
    restarts), so each executor call is a single attempt whose real number
    rides along in the task tuple."""
    inner, attempt = task
    return _worker_run(inner, attempt)


@dataclass
class SupervisorConfig:
    """Execution policy for the service's worker fleet."""

    jobs: int = 2                    # concurrent worker processes
    timeout: float | None = 120.0    # per-attempt heartbeat deadline (seconds)
    retries: int = 2                 # extra attempts per job
    backoff: float = 0.5             # base retry delay, doubled each attempt
    jitter: float = 0.25             # random extra delay fraction on top
    quarantine_threshold: int = 3    # consecutive worker deaths before a cell is quarantined
    drain_grace: float = 10.0        # seconds to let in-flight jobs finish on drain


class Supervisor:
    """Owns the dispatch loop, the worker processes, and the breaker."""

    def __init__(
        self,
        store: JobStore,
        config: SupervisorConfig | None = None,
        cache_dir=None,
        use_cache: bool = True,
        cache_max_bytes: int | None = None,
        guard: bool = False,
        fault_plan: FaultPlan | None = None,
        cpu_config=None,
        observe: bool = False,
        observer=None,
        rng: random.Random | None = None,
    ):
        self.store = store
        self.config = config or SupervisorConfig()
        self.observer = observer
        self.observe = observe
        self.fault_plan = fault_plan
        self._rng = rng or random.Random()
        # the campaign runner is the single source of truth for cache keys
        # and the disk cache, so a service result and a CLI campaign result
        # for the same spec share one content-addressed entry
        self.runner = CampaignRunner(
            jobs=1,
            use_cache=use_cache,
            cache_dir=cache_dir,
            cpu_config=cpu_config,
            guard=guard,
            fault_plan=fault_plan,
        )
        if cache_max_bytes is not None:
            self.runner.disk.max_bytes = cache_max_bytes
        #: parent fds worker children must close at birth (the HTTP server's
        #: listening sockets — an orphaned worker must never hold the port)
        self.worker_close_fds: list[int] = []
        self._quarantined: dict[tuple[str, str], int] = {}   # cell → deaths at trip
        self._deaths: dict[tuple[str, str], int] = {}        # cell → consecutive deaths
        self._in_flight: set[asyncio.Task] = set()
        self._kick = asyncio.Event()
        self._draining = False
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def kick(self) -> None:
        """Wake the dispatch loop (new jobs were queued)."""
        self._kick.set()

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def quarantined_cells(self) -> dict[str, int]:
        return {f"{w}/{s}": n for (w, s), n in sorted(self._quarantined.items())}

    async def run(self) -> None:
        """The dispatch loop; returns once drained."""
        self.runner.disk.prune_tmp()
        self.runner.disk.warm_index()
        if self.observer is not None:
            self.observer.emit(EventKind.SERVICE_START, jobs=self.config.jobs)
        semaphore = asyncio.Semaphore(self.config.jobs)
        try:
            while not self._draining:
                job = self.store.next_queued()
                if job is None:
                    self._kick.clear()
                    try:
                        await asyncio.wait_for(self._kick.wait(), timeout=0.5)
                    except asyncio.TimeoutError:
                        pass
                    continue
                await semaphore.acquire()
                if self._draining:
                    semaphore.release()
                    self.store.requeue(job)
                    break
                task = asyncio.create_task(self._run_job(job))
                self._in_flight.add(task)
                task.add_done_callback(lambda t, s=semaphore: (s.release(), self._in_flight.discard(t)))
        finally:
            self._stopped.set()

    async def drain(self) -> int:
        """Graceful shutdown: finish in-flight within the grace period.

        Returns how many jobs were still in flight when drain began.
        Jobs that do not finish in time stay journaled as ``running``;
        replay re-queues them on the next boot.
        """
        in_flight = len(self._in_flight)
        self._draining = True
        self._kick.set()
        if self.observer is not None:
            self.observer.emit(EventKind.SERVICE_DRAIN, in_flight=in_flight)
        if self._in_flight:
            _, pending = await asyncio.wait(
                self._in_flight, timeout=self.config.drain_grace
            )
            for task in pending:
                task.cancel()
        await self._stopped.wait()
        return in_flight

    # ------------------------------------------------------------------
    # one job
    # ------------------------------------------------------------------
    async def _run_job(self, job: JobRecord) -> None:
        try:
            spec = RunSpec.from_dict(job.spec)
        except Exception as exc:  # noqa: BLE001 - admission should catch this
            self.store.mark_failed(job, "error", f"invalid spec: {exc}", job.attempts)
            self._emit_failed(job)
            return

        if job.cell in self._quarantined:
            self._give_up_quarantined(job)
            return

        # dedup against the content-addressed cache first — the memcache
        # story: an overlapping matrix costs one simulation, ever.  Specs a
        # fresh fault plan targets skip the read so the faults actually
        # fire (mirrors CampaignRunner's rule).
        try:
            key = await asyncio.to_thread(self.runner.cache_key, spec)
        except Exception as exc:  # noqa: BLE001 - unknown workload etc.
            self.store.mark_failed(job, "error", f"{type(exc).__name__}: {exc}", job.attempts)
            self._emit_failed(job)
            return
        skip_read = (
            self.fault_plan is not None
            and bool(self.fault_plan.for_label(spec.label))
            and job.recovered == 0
        )
        cached = None if skip_read else self.runner._load_cached(key)
        if cached is not None:
            result = json.loads(json.dumps(cached.to_dict(), sort_keys=True))
            self.store.mark_done(job, result, source="cache")
            self._emit_done(job)
            return

        cfg = self.config
        task = (spec, self.runner.cpu_config, self.runner.guard,
                self.fault_plan, cfg.timeout, self.observe)
        first_attempt = job.attempts + 1  # recovered jobs resume their count
        outcome = None
        for attempt in range(first_attempt, first_attempt + cfg.retries + 1):
            if job.cell in self._quarantined:
                self._give_up_quarantined(job)
                return
            self.store.mark_running(job, attempt)
            executor = IsolatedExecutor(
                _service_worker, jobs=1, timeout=cfg.timeout, retries=0,
                close_fds=tuple(self.worker_close_fds),
            )
            outcomes = await asyncio.to_thread(executor.run, [(task, attempt)])
            outcome = outcomes[0]
            if outcome.ok:
                encoded, _secs, _profile, _tiers = outcome.value
                result = json.loads(encoded)
                self.runner.disk.store(key, {"spec": spec.to_dict(), "result": result})
                self._deaths.pop(job.cell, None)
                self.store.mark_done(job, result, source="computed")
                self._emit_done(job)
                return
            if self._record_death(job):
                self._give_up_quarantined(job)
                return
            if attempt < first_attempt + cfg.retries:
                delay = cfg.backoff * (2 ** (attempt - first_attempt))
                delay *= 1.0 + self._rng.random() * cfg.jitter
                if self.observer is not None:
                    self.observer.emit(
                        EventKind.WORKER_RETRY,
                        task=job.job_id, attempt=attempt,
                        status=outcome.status, delay_s=round(delay, 3),
                    )
                await asyncio.sleep(delay)
        self.store.mark_failed(
            job, outcome.status, outcome.detail,
            attempts=first_attempt + cfg.retries,
        )
        self._emit_failed(job)

    # ------------------------------------------------------------------
    # circuit breaker
    # ------------------------------------------------------------------
    def _record_death(self, job: JobRecord) -> bool:
        """Count a failed attempt; True when the cell just got quarantined."""
        deaths = self._deaths.get(job.cell, 0) + 1
        self._deaths[job.cell] = deaths
        if deaths >= self.config.quarantine_threshold and job.cell not in self._quarantined:
            self._quarantined[job.cell] = deaths
            self.store.counters["cells_quarantined"] += 1
            if self.observer is not None:
                self.observer.emit(
                    EventKind.CELL_QUARANTINED,
                    cell="/".join(job.cell), deaths=deaths,
                )
            return True
        return False

    def _give_up_quarantined(self, job: JobRecord) -> None:
        deaths = self._quarantined.get(job.cell, self.config.quarantine_threshold)
        self.store.mark_given_up(
            job,
            f"cell {'/'.join(job.cell)} quarantined after "
            f"{deaths} consecutive worker death(s)",
        )
        self._emit_failed(job)

    # ------------------------------------------------------------------
    # run-record translation + events
    # ------------------------------------------------------------------
    def _emit_done(self, job: JobRecord) -> None:
        if self.observer is not None:
            self.observer.emit(EventKind.JOB_DONE, job=job.job_id, source=job.source)

    def _emit_failed(self, job: JobRecord) -> None:
        if self.observer is not None:
            self.observer.emit(
                EventKind.JOB_FAILED, job=job.job_id,
                kind=(job.error or {}).get("kind", "error"),
            )

    def result_for(self, job: JobRecord) -> RunResult | None:
        if job.result is None:
            return None
        return RunResult.from_dict(job.result)

    def degradation(self) -> dict:
        """The graceful-degradation counters operators should see."""
        cache = self.runner.disk.stats
        return {
            "quarantined_cells": len(self._quarantined),
            "cache_corrupt_quarantined": cache.corrupt_quarantined,
            "cache_evicted": cache.evicted,
            "cache_stale_dropped": cache.stale_dropped,
            "jobs_recovered": self.store.counters.get("jobs_recovered", 0),
            "journal_torn_lines": self.store.counters.get("journal_torn_lines", 0),
        }
