"""The benchmark's three workloads, one pass each.

A pass is the unit the benchmark repeats and times.  Each workload has a
``setup`` (everything before the first timed operation) and a ``run_pass``
that returns a :class:`Pass`: its wall time, per-run host seconds, the
canonical ``RunResult`` JSON of every run, and the failures it saw.

Runs always go through the program's public entry points
(``CampaignRunner.run_one``, ``run_all``, the experiment functions), with
the numpy golden check of ``run_system`` left on.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from repro.errors import ReproError
from repro.experiments import ALL_EXPERIMENTS, run_all
from repro.experiments.common import ResultCache
from repro.systems.campaign import CampaignRunner, RunSpec, default_matrix, experiment_matrix

#: ``--seed`` value that keeps every workload's baked-in input seed, so the
#: runs reproduce the tables printed in EXPERIMENTS.md
DEFAULT_SEED = 0

#: Fig. 8 / Fig. 9 AVERAGE rows (autovec, handvec, DSA) as printed in
#: EXPERIMENTS.md for the bench scale at the default seed
FIG8_AVERAGE = (154.3, 193.8, 195.9)
FIG9_AVERAGE = (36.2, 42.6, 49.6)

#: the paper's headlines: DSA over autovec (%), over hand code (%), and
#: DSA energy savings (%)
PAPER_HEADLINES = (32.0, 26.0, 45.0)

STREAMING_WORKLOADS = (
    "delim_scan", "utf8_validate", "base64_decode", "stride_histogram", "dijkstra", "qsort",
)


def workload_seed(seed: int) -> int | None:
    return None if seed == DEFAULT_SEED else seed


def canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def paper_gap(dsa_savings: float, fig8_average=None) -> float:
    """Mean absolute gap (pp) to the paper's headlines: DSA energy savings
    (%), and, given the Fig. 8 AVERAGE row, DSA over autovec and over hand
    code."""
    gaps = [abs(dsa_savings - PAPER_HEADLINES[2])]
    if fig8_average is not None:
        auto, hand, dsa = fig8_average
        gaps.append(abs(((100 + dsa) / (100 + auto) - 1) * 100 - PAPER_HEADLINES[0]))
        gaps.append(abs(((100 + dsa) / (100 + hand) - 1) * 100 - PAPER_HEADLINES[1]))
    return sum(gaps) / len(gaps)


class RecordingRunner(CampaignRunner):
    """A campaign runner that keeps every :class:`CampaignResult` it made."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.campaigns = []

    def run(self, specs):
        result = super().run(specs)
        self.campaigns.append(result)
        return result


class SeededResultCache(ResultCache):
    """The experiments' result cache, with the benchmark's workload seed on
    every spec it dispatches."""

    def __init__(self, scale: str, runner: CampaignRunner, seed: int | None):
        super().__init__(scale, runner)
        self.seed = seed

    def run(self, workload_name, system, dsa_stage="full"):
        return self.runner.run_one(RunSpec(workload_name, system, dsa_stage, self.scale, self.seed))

    def prefetch(self):
        return self.runner.run([replace(s, seed=self.seed) for s in experiment_matrix(self.scale)])


@dataclass
class Pass:
    wall_s: float = 0.0
    #: spec label -> host seconds of its run: around the inline run_one,
    #: or the worker-reported compute of an isolated run
    run_s: dict = field(default_factory=dict)
    #: spec label -> canonical RunResult JSON
    records: dict = field(default_factory=dict)
    #: RunMetrics of every run this pass computed (not served from a cache)
    computed: list = field(default_factory=list)
    attempted: int = 0
    failed: set = field(default_factory=set)
    tables: dict = field(default_factory=dict)
    #: workload-specific extras (cache traffic, isolation timings)
    extra: dict = field(default_factory=dict)
    #: step (a run's label, "tables", or the whole "sweep") -> (host seconds,
    #: index of the host-speed probe taken right before it); the steps
    #: cover the pass's wall time except the probes
    steps: dict = field(default_factory=dict)
    #: step -> host-speed factor (calib.HostSpeed.factor), set after the pass
    scale: dict = field(default_factory=dict)

    def scaled_wall_s(self) -> float:
        """Wall time of the pass without the probes, each step scaled to
        the reference host speed."""
        return sum(seconds * self.scale[step] for step, (seconds, _) in self.steps.items())

    def absorb(self, runner: RecordingRunner) -> None:
        """Collect every run the runner dispatched: its record, its
        failures, and whether two records of one spec disagree."""
        seen = set()
        for campaign in runner.campaigns:
            for failure in campaign.failures:
                seen.add(failure.label)
                self.failed.add(failure.label)
            for m in campaign.metrics:
                spec = RunSpec.from_dict(m.spec)
                seen.add(spec.label)
                self.record(spec.label, canonical(campaign.results[spec]))
                if m.source == "computed":
                    self.computed.append(m)
        self.attempted += len(seen)

    def record(self, label: str, encoded: str) -> None:
        known = self.records.setdefault(label, encoded)
        if known != encoded:
            self.failed.add(label)

    def digest(self) -> str:
        body = "\n".join(f"{label}\t{self.records[label]}" for label in sorted(self.records))
        return hashlib.sha256(body.encode()).hexdigest()

    def results(self):
        from repro.systems.metrics import RunResult

        return [RunResult.from_dict(json.loads(v)) for v in self.records.values()]


class InlineWorkload:
    """Specs run one by one through ``CampaignRunner.run_one`` in this
    process, each timed from outside, then the workload's tables on the
    same runner."""

    jobs = 1
    tables: tuple = ()

    def run_pass(self, recorder=None, speed=None) -> Pass:
        p = Pass()
        runner = RecordingRunner(jobs=1, use_cache=False)
        tick = speed.tick if speed is not None else lambda: None
        start = perf_counter()
        for spec in self.specs:
            probe = tick()
            t = perf_counter()
            try:
                if recorder is None:
                    runner.run_one(spec)
                else:
                    recorder.call("run", runner.run_one, spec, run_id=spec.label)
            except ReproError:
                continue  # a RunFailure: counted from the campaign by absorb()
            finally:
                p.steps[spec.label] = (perf_counter() - t, probe)
            p.run_s[spec.label] = p.steps[spec.label][0]
        cache = SeededResultCache(self.scale, runner, self.seed)
        probe = tick()
        t = perf_counter()
        try:
            for name in self.tables:
                p.tables[name] = ALL_EXPERIMENTS[name](self.scale, cache)
        except ReproError:
            p.failed.add("tables")
        p.steps["tables"] = (perf_counter() - t, probe)
        tick()
        p.wall_s = perf_counter() - start
        p.absorb(runner)
        if speed is not None:
            p.scale = {step: speed.factor(i) for step, (_, i) in p.steps.items()}
        return p


class PaperBench(InlineWorkload):
    """The DATE headline: 7 paper workloads x 4 systems at bench scale,
    then Fig. 8 and Fig. 9."""

    name = "paper_bench"
    scale = "bench"
    tables = ("art3_fig8", "art3_fig9")

    def setup(self, seed: int, work: Path) -> None:
        self.seed = workload_seed(seed)
        self.specs = default_matrix(self.scale, seed=self.seed)


class StreamingDSA(InlineWorkload):
    """Sentinel, conditional and gather loops the DSA analyses and often
    rejects, on scalar, DSA@neon128 and DSA@scalable512."""

    name = "streaming_dsa"
    scale = "bench"

    def setup(self, seed: int, work: Path) -> None:
        self.seed = workload_seed(seed)
        self.specs = []
        for workload in STREAMING_WORKLOADS:
            self.specs += [
                RunSpec(workload, "arm_original", "full", self.scale, self.seed),
                RunSpec(workload, "neon_dsa", "full", self.scale, self.seed),
                RunSpec(workload, "neon_dsa", "full", self.scale, self.seed, "scalable", 512),
            ]


class ExperimentsSweep:
    """``repro experiments --scale test --jobs 2`` on a fresh cache
    directory (cold: every run computed in a worker), then again with a
    fresh runner on the same directory (warm: every run read back)."""

    name = "experiments_sweep"
    scale = "test"
    jobs = 2

    def setup(self, seed: int, work: Path) -> None:
        self.seed = workload_seed(seed)
        self.cache_dir = work / "cache"

    def run_pass(self, recorder=None, speed=None) -> Pass:
        p = Pass()
        cache_dir = self.cache_dir
        shutil.rmtree(cache_dir, ignore_errors=True)
        cold = RecordingRunner(jobs=self.jobs, cache_dir=cache_dir)
        warm = RecordingRunner(jobs=self.jobs, cache_dir=cache_dir)
        try:
            start = perf_counter()
            try:
                run_all(self.scale, SeededResultCache(self.scale, cold, self.seed))
                p.tables = run_all(self.scale, SeededResultCache(self.scale, warm, self.seed))
            except ReproError:
                p.failed.add("tables")
            p.wall_s = perf_counter() - start
            p.extra["cache_bytes"] = sum(f.stat().st_size for f in cache_dir.rglob("*.json"))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        p.absorb(cold)
        p.absorb(warm)
        p.run_s = {RunSpec.from_dict(m.spec).label: m.host_seconds for m in p.computed}
        p.extra["prefetch_wall_s"] = cold.campaigns[0].wall_time_s
        hits = cold.disk.stats.hits + warm.disk.stats.hits
        lookups = hits + cold.disk.stats.misses + warm.disk.stats.misses
        p.extra["hit_ratio"] = hits / lookups if lookups else 0.0
        # not scaled to the reference host speed: the workers run on every
        # CPU, between forks, pipe traffic and fsyncs, and a probe in this
        # process does not track them (scaling widened the spread across
        # runs, see README.md)
        p.steps = {"sweep": (p.wall_s, None)}
        p.scale = dict.fromkeys([*p.steps, *p.run_s], 1.0)
        return p

    def warm_inline_seconds(self) -> dict:
        """Host seconds of each run of the sweep computed in this process,
        after one untimed warm-up execution of the same spec."""
        from repro.systems.campaign import execute_spec

        seconds = {}
        for spec in [replace(s, seed=self.seed) for s in experiment_matrix(self.scale)]:
            execute_spec(spec)
            start = perf_counter()
            execute_spec(spec)
            seconds[spec.label] = perf_counter() - start
        return seconds


WORKLOADS = {w.name: w for w in (PaperBench(), StreamingDSA(), ExperimentsSweep())}
