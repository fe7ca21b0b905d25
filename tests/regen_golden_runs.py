"""The golden run matrix: what it covers, how a digest is taken, and how to
regenerate ``tests/golden_runs.json``.

The matrix is every registered workload (paper, streaming and
``micro:<kind>``) on every system, with ``neon_dsa`` at each DSA stage, at
``seed=3`` and test scale.  Each entry is keyed by its ``RunSpec`` label
and holds the sha256 of the canonical ``RunResult`` JSON.  The file also
pins the ``TraceRecord`` stream one traced run delivers to its retire
hooks, and the full observer event stream of a few ``neon_dsa`` runs
(:func:`event_specs`), so a DSA engine change that reorders, drops or
re-stamps a decision event shows up even when the RunResult does not move.
``tests/test_golden_runs.py`` checks every execution tier and the
scalable backend at VL=128 against these digests.

Regenerate ONLY after an intentional change to the simulated machine
(latencies, cache geometry, DSA policy, energy inputs...), never to paper
over a mismatch you cannot explain:

    PYTHONPATH=src python tests/regen_golden_runs.py
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

from repro.faults import FaultPlan, FaultSpec
from repro.observe import Observer
from repro.systems.campaign import RunSpec, execute_spec
from repro.systems.metrics import RunResult
from repro.systems.runner import execute_kernel
from repro.systems.setups import DSA_STAGES, SYSTEM_NAMES, lower_for
from repro.workloads import ALL_WORKLOADS, load
from repro.workloads.synthetic import LOOP_TYPE_MICROKERNELS

GOLDEN_PATH = Path(__file__).with_name("golden_runs.json")

SEED = 3

WORKLOADS = tuple(sorted(ALL_WORKLOADS)) + tuple(
    f"micro:{kind}" for kind in sorted(LOOP_TYPE_MICROKERNELS)
)

#: the traced run whose record stream is pinned (workload, system)
TRACE_RUN = ("rgb_gray", "arm_original")

#: the execution tiers a retirement can be credited to
TIERS = frozenset({"fast", "traced", "compiled", "covered"})

#: workloads whose ``neon_dsa[full]`` event stream is pinned, beside the
#: ``micro:<kind>`` kernels: one per remaining DSA verdict shape
EVENT_WORKLOADS = ("delim_scan", "matmul", "dijkstra", "utf8_validate")


def golden_specs(backend: str = "neon", vl: int = 128) -> list[RunSpec]:
    """Every spec of the matrix, ``neon_dsa`` once per DSA stage."""
    specs = []
    for workload in WORKLOADS:
        for system in SYSTEM_NAMES:
            stages = DSA_STAGES if system == "neon_dsa" else ("full",)
            for stage in stages:
                specs.append(RunSpec(workload, system, dsa_stage=stage, seed=SEED,
                                     backend=backend, vl=vl))
    return specs


def canonical(d: dict) -> str:
    return json.dumps(d, sort_keys=True)


def result_digest(spec: RunSpec, cpu_config=None, **run_kwargs) -> tuple[RunResult, str]:
    """Run ``spec`` and return its RunResult and the sha256 of its dict.

    The backend identity keys are left out of the digest, so a scalable
    run at VL=128 must reproduce its NEON entry exactly.  ``run_kwargs``
    go to :func:`execute_spec` (``guard``, ``observer``, ...).
    """
    result = execute_spec(spec, cpu_config=cpu_config, **run_kwargs)
    d = result.to_dict()
    d.pop("backend", None)
    d.pop("vl", None)
    return result, hashlib.sha256(canonical(d).encode()).hexdigest()


@lru_cache(maxsize=1)
def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def assert_golden(spec: RunSpec, cpu_config=None, **run_kwargs) -> None:
    """Fail unless ``spec`` reproduces its committed entry; a scalable
    spec is checked against the NEON entry of the same label.

    Every retired instruction must also be credited to exactly one
    execution tier.
    """
    want = load_golden()["runs"][spec.label.split("@")[0]]
    result, digest = result_digest(spec, cpu_config, **run_kwargs)
    assert (result.cycles, result.instructions) == (want["cycles"], want["instructions"])
    tiers = result.tier_counts
    assert set(tiers) <= TIERS, f"{spec.label}: unknown tier in {tiers}"
    assert sum(tiers.values()) == result.instructions, (
        f"{spec.label}: tier residency {tiers} does not sum to "
        f"{result.instructions} instructions"
    )
    assert digest == want["digest"], (
        f"{spec.label} drifted from tests/golden_runs.json; regenerate ONLY "
        f"on an intentional change to the simulated machine: "
        f"PYTHONPATH=src python tests/regen_golden_runs.py"
    )


def trace_stream_digest(cpu_config=None) -> tuple[int, str]:
    """Record count and sha256 of the :data:`TRACE_RUN` record stream.

    Each record contributes its seq, pc, next_pc, branch outcome, memory
    accesses and register reads/writes.
    """
    workload_name, system = TRACE_RUN
    workload = load(workload_name, "test")
    h = hashlib.sha256()
    count = 0

    def sink(r) -> None:
        nonlocal count
        count += 1
        h.update(json.dumps([
            r.seq, r.pc, r.next_pc, r.branch_taken,
            [[a.addr, a.nbytes, a.is_write] for a in r.accesses],
            [list(p) for p in r.reg_reads],
            [list(p) for p in r.reg_writes],
        ]).encode())
        h.update(b"\n")

    execute_kernel(
        lower_for(system, workload),
        workload.fresh_args(),
        config=cpu_config,
        attach=lambda core: core.retire_hooks.append(sink),
    )
    return count, h.hexdigest()


def event_specs() -> dict[str, tuple[RunSpec, dict]]:
    """The observed runs whose event stream is pinned, keyed by name.

    Each value is the spec and the extra :func:`execute_spec` keywords:
    every ``micro:<kind>`` kernel and :data:`EVENT_WORKLOADS` on
    ``neon_dsa[full]``, ``micro:count`` at the earlier DSA stages, and
    ``micro:count`` guarded under a lane-corruption fault plan.
    """
    runs: dict[str, tuple[RunSpec, dict]] = {}
    micro = tuple(w for w in WORKLOADS if w.startswith("micro:"))
    for workload in micro + EVENT_WORKLOADS:
        spec = RunSpec(workload, "neon_dsa", seed=SEED)
        runs[spec.label] = (spec, {})
    for stage in ("original", "extended"):
        spec = RunSpec("micro:count", "neon_dsa", dsa_stage=stage, seed=SEED)
        runs[spec.label] = (spec, {})
    spec = RunSpec("micro:count", "neon_dsa", seed=SEED)
    plan = FaultPlan(faults=[FaultSpec(kind="lane", match="micro:count/*")])
    runs[f"{spec.label}+guard+lane"] = (spec, {"guard": True, "plan": plan})
    return runs


def event_stream_digest(spec: RunSpec, cpu_config=None, **run_kwargs) -> tuple[int, str]:
    """Event count and sha256 of one observed run's event stream.

    Each event contributes its seq, kind, cycle and payload; the host
    timestamp ``ts_us`` is left out, so the digest is deterministic.
    """
    obs = Observer()
    execute_spec(spec, cpu_config=cpu_config, observer=obs, **run_kwargs)
    h = hashlib.sha256()
    for e in obs.events:
        h.update(json.dumps([e.seq, e.kind.value, e.cycle, e.args], sort_keys=True).encode())
        h.update(b"\n")
    return len(obs.events), h.hexdigest()


def main() -> None:
    runs = {}
    for spec in golden_specs():
        result, digest = result_digest(spec)
        runs[spec.label] = {
            "cycles": result.cycles,
            "instructions": result.instructions,
            "digest": digest,
        }
    records, digest = trace_stream_digest()
    events = {}
    for name, (spec, kwargs) in event_specs().items():
        count, stream_digest = event_stream_digest(spec, **kwargs)
        events[name] = {"events": count, "digest": stream_digest}
    golden = {
        "_note": (
            f"sha256 of the canonical RunResult of every registered workload x "
            f"system (neon_dsa at every DSA stage), seed={SEED}, scale=test, "
            f"keyed by RunSpec label; plus the TraceRecord stream of "
            f"{'/'.join(TRACE_RUN)}; plus the observer event streams (seq, kind, "
            f"cycle, args) of {len(events)} neon_dsa runs. Regenerate ONLY on an "
            f"intentional change to the simulated machine: "
            f"PYTHONPATH=src python tests/regen_golden_runs.py"
        ),
        "runs": runs,
        "event_streams": events,
        "trace_streams": {
            "/".join(TRACE_RUN): {"records": records, "digest": digest},
        },
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(runs)} runs)")


if __name__ == "__main__":
    main()
