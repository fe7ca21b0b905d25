"""Outside-in layer tracing for the traced benchmark run.

Every layer is timed by wrapping a public entry point the program already
calls (a method on a class, or a function bound into a module namespace),
so the program itself is never edited.  :func:`install` swaps the wrappers
in and returns a callable that restores the originals.

Each wrapped call records a span: name, start, end, parent span and run id.
Calls of the hot leaf entry points (vector execute, DSA ``on_record``,
timing charges, cache-hierarchy accesses) happen hundreds of thousands of
times per pass, so instead of one record each they are folded into one
aggregate per (parent span, name) holding the call count and summed
duration.  Self time is exact either way: every call, leaf or not,
subtracts its duration from its caller's self time.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from time import perf_counter


class SpanRecorder:
    """In-memory span store; written out once, when the benchmark ends."""

    def __init__(self) -> None:
        #: full spans: [name, start, end, parent index or None, run id]
        self.spans: list[list] = []
        #: (parent index, name) -> [calls, summed seconds] for leaf calls
        self.leaves: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.run_id: str | None = None
        #: one frame per active call: [child seconds]
        self._frames: list[list] = []
        #: indices of the active full spans (the parents of new spans)
        self._open: list[int] = []

    def wrap(self, name: str, fn, leaf: bool):
        frames = self._frames
        opened = self._open
        self_s = self.self_s
        calls = self.calls
        spans = self.spans
        leaves = self.leaves

        if leaf:
            def wrapper(*args, **kwargs):
                frame = [0.0]
                frames.append(frame)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = perf_counter() - start
                    frames.pop()
                    if frames:
                        frames[-1][0] += duration
                    self_s[name] += duration - frame[0]
                    calls[name] += 1
                    agg = leaves[(opened[-1] if opened else None, name)]
                    agg[0] += 1
                    agg[1] += duration
        else:
            def wrapper(*args, **kwargs):
                index = len(spans)
                span = [name, 0.0, 0.0, opened[-1] if opened else None, self.run_id]
                spans.append(span)
                opened.append(index)
                frame = [0.0]
                frames.append(frame)
                start = span[1] = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = span[2] = perf_counter()
                    duration = end - start
                    frames.pop()
                    opened.pop()
                    if frames:
                        frames[-1][0] += duration
                    self_s[name] += duration - frame[0]
                    calls[name] += 1

        return wrapper

    def call(self, name: str, fn, *args, run_id: str | None = None):
        """Call ``fn(*args)`` inside a span the benchmark opens itself (one
        run, one pass, the table generation); ``run_id`` tags it and every
        span below it."""
        saved = self.run_id
        if run_id is not None:
            self.run_id = run_id
        try:
            return self.wrap(name, fn, leaf=False)(*args)
        finally:
            self.run_id = saved

    def dump(self, path: str) -> None:
        """Write every span and leaf aggregate as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "run": run,
                }) + "\n")
            for (parent, name), (count, total) in self.leaves.items():
                out.write(json.dumps({
                    "name": name, "parent": parent, "calls": count, "total_s": total,
                }) + "\n")


def _targets():
    """(span name, owner, attribute, leaf) for every traced entry point.

    A function imported by name into another module is bound there too, so
    each binding the program calls through is listed.
    """
    from repro.cpu.core import Core
    from repro.cpu.timing import TimingModel
    from repro.dsa.engine import DynamicSIMDAssembler
    from repro.energy.model import EnergyModel
    from repro.experiments import ALL_EXPERIMENTS
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.neon.engine import NeonEngine
    from repro.systems import campaign, metrics, setups
    from repro.systems.result_cache import ResultDiskCache
    from repro.vector.scalable import ScalableEngine
    from repro.workloads.base import Workload
    import repro.workloads as workloads

    targets = [
        ("vector.execute", NeonEngine, "execute", True),
        ("vector.execute", ScalableEngine, "execute", True),
        ("dsa.on_record", DynamicSIMDAssembler, "on_record", True),
        ("timing.charge_vector", TimingModel, "charge_vector", True),
        ("timing.charge_vector", TimingModel, "charge_vector_decoded", True),
        ("memory.access", MemoryHierarchy, "access", True),
        ("cpu.run", Core, "run", False),
        ("workloads.build", workloads, "load", False),
        ("workloads.build", campaign, "load", False),
        ("workloads.golden", Workload, "expected", False),
        ("compiler.lower", setups, "lower_for", False),
        ("compiler.lower", campaign, "lower_for", False),
        ("energy.report", EnergyModel, "report", False),
        ("metrics.summarize", metrics, "summarize_run", False),
        ("metrics.summarize", campaign, "summarize_run", False),
        ("campaign.cache_key", campaign.CampaignRunner, "cache_key", False),
        ("result_cache.store", ResultDiskCache, "store", False),
        ("result_cache.load", ResultDiskCache, "load", False),
    ]
    targets += [("experiments.tables", ALL_EXPERIMENTS, key, False) for key in ALL_EXPERIMENTS]
    return targets


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def install(recorder: SpanRecorder):
    """Wrap every traced entry point; returns the function that restores
    them.  A forked worker restores the originals at once, so isolated
    runs execute unwrapped code and record nothing."""
    saved = []
    for name, owner, attr, leaf in _targets():
        original = _get(owner, attr)
        saved.append((owner, attr, original))
        _set(owner, attr, recorder.wrap(name, original, leaf))

    def restore() -> None:
        while saved:
            owner, attr, original = saved.pop()
            _set(owner, attr, original)

    os.register_at_fork(after_in_child=restore)
    return restore
