"""Tier identity: every rung of the execution ladder against the golden matrix.

The predecoded interpreter and the compiled hot-loop tier are host-side
choices only; everything observable — cycles, instruction counts, cache
stats, timing stats, energy inputs, DSA behaviour, the TraceRecord
stream, error messages — must be identical bit for bit.
``tests/golden_runs.json`` pins the results absolutely (see
``tests/regen_golden_runs.py``).  ``tests/test_golden_runs.py`` checks the
default config, which compiles hot loops; this file adds the interpreter
tier (``compile_hot=False``), guarded runs, the pinned TraceRecord stream,
the error paths and the ``max_instructions`` cuts, which no golden covers.
"""

import pytest

from repro.cpu import Core
from repro.cpu.config import CPUConfig
from repro.errors import ExecutionError
from repro.isa import assemble
from repro.memory import MainMemory
from repro.systems.campaign import RunSpec
from repro.systems.setups import SYSTEM_NAMES
from repro.workloads.synthetic import LOOP_TYPE_MICROKERNELS

from ..regen_golden_runs import TRACE_RUN, assert_golden, load_golden, trace_stream_digest

#: one config per execution tier; every tier must produce bit-identical
#: RunResults
TIER_CONFIGS = {
    "interp": CPUConfig(compile_hot=False),
    "compiled": CPUConfig(compile_hot=True),
}

MICRO_KINDS = sorted(LOOP_TYPE_MICROKERNELS)


class TestRunResultIdentity:
    @pytest.mark.parametrize("guard", [False, True], ids=["clean", "guard"])
    @pytest.mark.parametrize("kind", MICRO_KINDS)
    def test_microkernel_dsa(self, kind, guard):
        """Guarded execution with nothing to catch changes no result."""
        assert_golden(RunSpec(f"micro:{kind}", "neon_dsa", seed=3), guard=guard)

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_paper_workload_all_systems(self, system):
        assert_golden(RunSpec("rgb_gray", system, seed=3), TIER_CONFIGS["interp"])


class TestInterpTierIdentity:
    """The interpreter tier must reproduce the golden matrix that the
    default, compiled config is checked against."""

    @pytest.mark.parametrize("kind", MICRO_KINDS)
    def test_microkernel_dsa(self, kind):
        assert_golden(RunSpec(f"micro:{kind}", "neon_dsa", seed=3), TIER_CONFIGS["interp"])

    @pytest.mark.parametrize("workload", ["rgb_gray", "matmul"])
    def test_paper_workloads(self, workload):
        for system in ("arm_original", "neon_dsa"):
            assert_golden(RunSpec(workload, system, seed=3), TIER_CONFIGS["interp"])


class TestTraceStreamIdentity:
    """Retire hooks must observe the exact pinned TraceRecord stream."""

    def test_streams_equal(self):
        want = load_golden()["trace_streams"]["/".join(TRACE_RUN)]
        records, digest = trace_stream_digest()
        assert (records, digest) == (want["records"], want["digest"])


BASE = 0x1000
FRESH_MEMORY = MainMemory(1 << 16).snapshot()


def _run_one(source: str, config: CPUConfig, max_instructions: int):
    core = Core(assemble(source), MainMemory(1 << 16), config=config)
    try:
        result = core.run(max_instructions=max_instructions)
        return ("ok", result.cycles, result.instructions,
                tuple(core.regs), core.pc, dict(core.icounts),
                core.memory.snapshot())
    except ExecutionError as exc:
        return ("error", str(exc), core.seq, core.pc,
                tuple(core.regs), dict(core.icounts),
                core.memory.snapshot())


def _run_tiers(source: str, max_instructions: int = 100_000_000):
    """Run every tier; all must agree.  Returns the common outcome."""
    outcomes = [_run_one(source, config, max_instructions)
                for config in TIER_CONFIGS.values()]
    assert all(o == outcomes[0] for o in outcomes[1:])
    return outcomes[0]


def _regs(**values) -> tuple:
    regs = [0] * 16
    for name, value in values.items():
        regs[int(name[1:])] = value
    return tuple(regs)


class TestErrorPathIdentity:
    """Failure modes leave the exact error message and architected state:
    the faulting fetch is not retired."""

    def test_fall_off_end_of_text(self):
        got = _run_tiers("mov r0, #1\nadd r0, r0, #2\n")
        assert got == (
            "error", "address 0x1008 is not inside the text segment", 2,
            BASE + 8, _regs(r0=3), {"Mov": 1, "Alu": 1}, FRESH_MEMORY,
        )

    def test_branch_outside_text(self):
        got = _run_tiers("mov r0, #0\nbx r0\nhalt")
        assert got == (
            "error", "address 0x0 is not inside the text segment", 2,
            0, _regs(), {"Mov": 1, "BranchReg": 1}, FRESH_MEMORY,
        )

    def test_misaligned_branch_target(self):
        got = _run_tiers("mov r0, #4098\nbx r0\nhalt")
        assert got == (
            "error", "address 0x1002 is not inside the text segment", 2,
            0x1002, _regs(r0=4098), {"Mov": 1, "BranchReg": 1}, FRESH_MEMORY,
        )

    def test_did_not_halt_within_limit(self):
        source = """
            loop:
                add r0, r0, #1
                b loop
        """
        got = _run_tiers(source, max_instructions=10)
        assert got == (
            "error", "program did not halt within 10 instructions", 10,
            BASE, _regs(r0=5), {"Alu": 5, "Branch": 5}, FRESH_MEMORY,
        )

    def test_architected_state_after_success(self):
        source = """
                mov r0, #0
                mov r1, #10
            loop:
                add r0, r0, #3
                subs r1, r1, #1
                bne loop
                halt
        """
        got = _run_tiers(source)
        assert got == (
            "ok", 30, 33, _regs(r0=30), BASE + 20,
            {"Mov": 2, "Alu": 20, "Branch": 10, "Halt": 1}, FRESH_MEMORY,
        )


class TestMaxInstructionBoundaries:
    """``max_instructions`` must cut every tier at the identical point.

    The compiled tier retires whole loop bodies per host dispatch, so the
    limit can land at a block entry or mid-body; the architected state
    and the error message must still match the interpreter tier stopped
    at the same seq.
    """

    # 5-op counted store loop: 2 setup ops, 200 iterations, halt => 1003
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

    # entry-aligned, every mid-body offset, deep in the loop, around completion
    LIMITS = [7, 10, 11, 12, 13, 14, 251, 252, 497,
              TOTAL - 3, TOTAL - 1, TOTAL, TOTAL + 1]

    #: the tier counter each config must actually exercise on this loop
    ENGAGED = {"interp": "fast", "compiled": "compiled"}

    @pytest.mark.parametrize("tier", sorted(TIER_CONFIGS))
    def test_boundary_parity(self, tier):
        config = TIER_CONFIGS[tier]
        for limit in self.LIMITS:
            want = _run_one(self.SOURCE, TIER_CONFIGS["interp"], limit)
            got = _run_one(self.SOURCE, config, limit)
            assert got == want, f"tier {tier!r} diverged at limit {limit}"
            if limit < self.TOTAL:
                assert got[:3] == (
                    "error", f"program did not halt within {limit} instructions", limit)
        core = Core(assemble(self.SOURCE), MainMemory(1 << 16), config=config)
        full = core.run(max_instructions=self.TOTAL)
        assert full.instructions == self.TOTAL
        assert full.tier_counts.get(self.ENGAGED[tier], 0) > 0, full.tier_counts

    @pytest.mark.parametrize("tier", sorted(TIER_CONFIGS))
    def test_every_offset_within_one_iteration(self, tier):
        """Sweep a full loop body's worth of consecutive limits."""
        config = TIER_CONFIGS[tier]
        for limit in range(500, 506):
            want = _run_one(self.SOURCE, TIER_CONFIGS["interp"], limit)
            got = _run_one(self.SOURCE, config, limit)
            assert got == want, f"tier {tier!r} diverged at limit {limit}"
            assert got[2] == limit

    @pytest.mark.parametrize("tier", sorted(TIER_CONFIGS))
    def test_already_halted_core_rerun(self, tier):
        """Re-running a halted core must be a no-op on every tier."""
        config = TIER_CONFIGS[tier]
        core = Core(assemble(self.SOURCE), MainMemory(1 << 16), config=config)
        first = core.run(max_instructions=self.TOTAL)
        state = (core.seq, core.pc, tuple(core.regs), dict(core.icounts))
        again = core.run(max_instructions=self.TOTAL)
        assert (again.cycles, again.instructions) == (
            first.cycles, first.instructions)
        assert (core.seq, core.pc, tuple(core.regs), dict(core.icounts)) == state
