"""Covered-execution identity: record-free released regions vs full tracing.

``CPUConfig.covered_execution`` lets an attached DSA release a fully
characterized loop region to the record-free runners in
:mod:`repro.cpu.covered`, bulk-folding its own per-record bookkeeping
afterwards.  That is a pure host-side optimization: every observable —
cycles, instruction counts, cache stats, DSA statistics, energy inputs,
the architected state at a ``max_instructions`` cut — must be identical
bit for bit with covering disabled, across guard mode, fault plans,
attached observers and vector backends.  The golden run matrix
(``tests/golden_runs.json``) pins both settings absolutely so they cannot
drift together; ``tests/test_golden_runs.py`` checks covering off as its
``uncovered`` variant.
"""

import json

import pytest

from repro.cpu import Core
from repro.cpu.config import CPUConfig
from repro.dsa.engine import DynamicSIMDAssembler
from repro.errors import ExecutionError
from repro.faults import FaultPlan
from repro.faults.plan import FaultSpec
from repro.isa import assemble
from repro.memory import MainMemory
from repro.observe import Observer
from repro.observe.events import EventKind
from repro.systems.campaign import RunSpec, execute_spec
from repro.systems.setups import DSA_STAGES, run_system
from repro.workloads import load
from repro.workloads.synthetic import LOOP_TYPE_MICROKERNELS

COVERED = CPUConfig(covered_execution=True)
UNCOVERED = CPUConfig(covered_execution=False)

MICRO_KINDS = sorted(LOOP_TYPE_MICROKERNELS)


def canonical(spec: RunSpec, config: CPUConfig, **kwargs) -> str:
    return json.dumps(
        execute_spec(spec, cpu_config=config, **kwargs).to_dict(), sort_keys=True
    )


class TestMicrokernelIdentity:
    """Covered on/off across every loop-class microkernel, with and
    without guarded execution and an injected-fault plan."""

    @pytest.mark.parametrize("guard", [False, True], ids=["clean", "guard"])
    @pytest.mark.parametrize("kind", MICRO_KINDS)
    def test_dsa_microkernel(self, kind, guard):
        spec = RunSpec(f"micro:{kind}", "neon_dsa", seed=3)
        assert canonical(spec, COVERED, guard=guard) == canonical(
            spec, UNCOVERED, guard=guard
        )

    @pytest.mark.parametrize("kind", MICRO_KINDS)
    def test_dsa_microkernel_faulted(self, kind):
        # an active fault plan corrupts speculative DSA state: covering
        # must stand down (an injector is a re-arm condition) and the
        # guarded run must produce the identical fallback accounting
        plan = FaultPlan(faults=[FaultSpec(kind="lane", match="*")], seed=11)
        spec = RunSpec(f"micro:{kind}", "neon_dsa", seed=3)
        assert canonical(spec, COVERED, guard=True, plan=plan) == canonical(
            spec, UNCOVERED, guard=True, plan=plan
        )

    @pytest.mark.parametrize("kind", MICRO_KINDS)
    def test_dsa_microkernel_scalable_backend(self, kind):
        spec = RunSpec(f"micro:{kind}", "neon_dsa", seed=3, backend="scalable", vl=256)
        assert canonical(spec, COVERED) == canonical(spec, UNCOVERED)


class TestObserverIdentity:
    """An attached observer needs the record stream, so it is a standing
    re-arm condition: covering stands down, results stay identical, and
    the would-cover/re-arm decision points surface as events."""

    @pytest.mark.parametrize("kind", MICRO_KINDS)
    def test_observed_run_is_identical(self, kind):
        spec = RunSpec(f"micro:{kind}", "neon_dsa", seed=3)
        baseline = canonical(spec, UNCOVERED)
        assert canonical(spec, COVERED, observer=Observer()) == baseline

    def test_cover_and_rearm_events_emitted(self):
        observer = Observer()
        run_system(
            "neon_dsa", load("matmul", "test"), cpu_config=COVERED, observer=observer
        )
        kinds = [e.kind for e in observer.events]
        covered = [e for e in observer.events if e.kind is EventKind.LOOP_COVERED]
        # matmul re-enters its inner loop once per output row/column pair:
        # each exit re-arms tracing, each re-entry would cover again
        assert len(covered) > 1
        assert EventKind.COVER_REARM in kinds
        for event in covered:
            assert event.args["mode"] in ("suppressed", "scalar", "postlimit")


class TestMidLoopRearm:
    """matmul's inner loop is entered and left hundreds of times: every
    exit is a phase change that re-arms tracing mid-workload, and the
    suppression limit flips suppressed cover to post-limit cover inside
    a single entry.  The run must be identical and actually use the
    covered tier for the bulk of its retirements."""

    def test_matmul_identity_and_residency(self):
        workload = load("matmul", "test")
        covered = run_system("neon_dsa", workload, cpu_config=COVERED)
        uncovered = run_system("neon_dsa", load("matmul", "test"), cpu_config=UNCOVERED)
        a = covered.run.result
        b = uncovered.run.result
        assert (a.cycles, a.instructions, a.seconds) == (b.cycles, b.instructions, b.seconds)
        assert dict(a.icounts) == dict(b.icounts)
        assert covered.dsa_stats == uncovered.dsa_stats
        tiers = dict(a.tier_counts)
        assert tiers.get("covered", 0) > a.instructions // 2, tiers
        # detection + the fast-resume collection window keep the first
        # iterations of every re-armed entry on the traced tier
        assert tiers.get("traced", 0) > 0, tiers
        assert "covered" not in uncovered.run.result.tier_counts


class TestMaxInstructionBoundaries:
    """A ``max_instructions`` limit landing *inside* a covered region must
    stop the run at the identical instruction with identical architected
    state — covered runners retire whole stretches per host dispatch, so
    the budget math is where an off-by-one would hide."""

    # counted store loop the DSA vectorizes and covers: 2 setup ops,
    # 200 iterations x 5 ops, halt => 1003 retirements total
    SOURCE = """
            mov r0, #0
            mov r1, #32768
        loop:
            add r2, r0, #7
            str r2, [r1, r0, lsl #2]
            add r0, r0, #1
            cmp r0, #200
            blt loop
            halt
    """
    TOTAL = 2 + 200 * 5 + 1

    @staticmethod
    def _run_one(config: CPUConfig, limit: int):
        core = Core(assemble(TestMaxInstructionBoundaries.SOURCE),
                    MainMemory(1 << 16), config=config)
        dsa = DynamicSIMDAssembler(DSA_STAGES["full"])
        dsa.attach(core)
        try:
            result = core.run(max_instructions=limit)
            state = ("ok", result.cycles, result.instructions)
        except ExecutionError as exc:
            state = ("error", str(exc), core.seq)
        return state + (
            core.pc, tuple(core.regs), dict(core.icounts),
            core.memory.snapshot(), dsa.stats,
        )

    def test_cut_inside_covered_region(self):
        # entry-aligned, mid-body, deep inside the covered stretch, and
        # around completion
        for limit in (7, 11, 13, 101, 102, 250, 251, 500, 503,
                      self.TOTAL - 1, self.TOTAL, self.TOTAL + 1):
            want = self._run_one(UNCOVERED, limit)
            got = self._run_one(COVERED, limit)
            assert got == want, f"diverged at max_instructions={limit}"
