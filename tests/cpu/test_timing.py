"""Direct unit tests for the cycle-accounting model."""

import pytest

from repro.isa import assemble
from repro.cpu.config import CPUConfig, ScalarLatencies, VectorLatencies
from repro.cpu.predecode import predecode
from repro.cpu.timing import TimingModel


def instrs(src: str):
    return list(assemble(src).instructions)


def decoded(src: str):
    """Predecoded scalar ops, as the simulator's run loops charge them."""
    return predecode(assemble(src), CPUConfig()).ops[:-1]  # drop the sentinel


def model(**kwargs) -> TimingModel:
    return TimingModel(CPUConfig(**kwargs))


class TestScalarIssue:
    def test_single_instruction(self):
        m = model()
        (i,) = decoded("mov r0, #1")
        m.charge_scalar_decoded(i)
        assert m.drain() == 1.0

    def test_dual_issue_two_independent(self):
        m = model()
        a, b = decoded("mov r0, #1\nmov r1, #2")
        m.charge_scalar_decoded(a)
        m.charge_scalar_decoded(b)
        # both issue in cycle 0, complete in cycle 1
        assert m.drain() == 1.0

    def test_third_instruction_next_cycle(self):
        m = model()
        a, b, c = decoded("mov r0, #1\nmov r1, #2\nmov r2, #3")
        for i in (a, b, c):
            m.charge_scalar_decoded(i)
        assert m.drain() == 2.0

    def test_raw_dependency_serializes(self):
        m = model()
        a, b = decoded("mov r0, #1\nadd r1, r0, #1")
        m.charge_scalar_decoded(a)
        m.charge_scalar_decoded(b)
        # b waits for a's completion (cycle 1), finishes cycle 2
        assert m.drain() == 2.0

    def test_issue_width_one(self):
        m = model(issue_width=1)
        a, b = decoded("mov r0, #1\nmov r1, #2")
        m.charge_scalar_decoded(a)
        m.charge_scalar_decoded(b)
        assert m.drain() == 2.0

    def test_long_latency_op(self):
        m = model()
        (i,) = decoded("sdiv r0, r1, r2")
        m.charge_scalar_decoded(i)
        assert m.drain() == m.config.scalar.div

    def test_memory_latency_added(self):
        m = model()
        (i,) = decoded("ldr r0, [r1]")
        m.charge_scalar_decoded(i, mem_latency=10)
        assert m.drain() == 1 + m.config.scalar.load + 10 - 1  # issue 0, lat 1+10

    def test_mispredict_penalty(self):
        m = model()
        a, branch = decoded("cmp r0, #1\nbeq 0x1000")
        assert a.sets_flags and branch.reads_flags
        m.charge_scalar_decoded(a)
        before = m.cycles
        m.charge_scalar_decoded(branch, mispredicted=True)
        assert m.cycles >= before + m.config.mispredict_penalty
        assert m.stats.branch_mispredicts == 1

    def test_flags_dependency(self):
        # reads_flags is static on the op: an unconditional b ignores the
        # flags cmp sets, a conditional bne waits for them
        cmp_i, branch = decoded("cmp r0, #1\nb 0x1000")
        assert not branch.reads_flags
        m = model()
        m.charge_scalar_decoded(cmp_i)
        m.charge_scalar_decoded(branch)
        no_dep = m.drain()
        cmp_i, cond_branch = decoded("cmp r0, #1\nbne 0x1000")
        assert cond_branch.reads_flags
        m2 = model()
        m2.charge_scalar_decoded(cmp_i)
        m2.charge_scalar_decoded(cond_branch)
        with_dep = m2.drain()
        assert with_dep >= no_dep


class TestVectorPath:
    def test_burst_pays_pipeline_fill_once(self):
        m = model()
        ops = instrs("vadd.i32 q0, q1, q2\nvadd.i32 q3, q4, q5\nvadd.i32 q6, q7, q0")
        for op in ops:
            m.charge_vector(op)
        total = m.drain()
        depth = m.config.vector.pipeline_depth
        # fill once + ~1/cycle throughput + op latency, not 3x the fill
        assert depth < total < 2 * depth + 10

    def test_end_burst_refills(self):
        m = model()
        (op,) = instrs("vadd.i32 q0, q1, q2")
        m.charge_vector(op)
        first = m.cycles
        m.end_vector_burst()
        m.charge_vector(op)
        assert m.cycles >= first + m.config.vector.pipeline_depth

    def test_vector_raw_on_q_registers(self):
        m = model()
        a, b = instrs("vadd.i32 q0, q1, q2\nvadd.i32 q3, q0, q2")
        m.charge_vector(a)
        m.charge_vector(b)
        dependent = m.drain()
        m2 = model()
        a2, c2 = instrs("vadd.i32 q0, q1, q2\nvadd.i32 q3, q4, q5")
        m2.charge_vector(a2)
        m2.charge_vector(c2)
        independent = m2.drain()
        assert dependent > independent

    def test_vector_loads_overlap_misses(self):
        """Memory latency must pipeline: 4 loads with big misses cost far
        less than 4x the miss latency."""
        m = model()
        loads = instrs("\n".join(f"vld1.i32 q{i}, [r5]!" for i in range(4)))
        for ld in loads:
            m.charge_vector(ld, mem_latency=90)
        assert m.drain() < 4 * 90

    def test_stats_accumulate(self):
        m = model()
        sc, ve = decoded("mov r0, #1\nvadd.i32 q0, q1, q2")
        m.charge_scalar_decoded(sc)
        m.charge_vector(ve.instr)
        assert m.stats.scalar_instructions == 1
        assert m.stats.vector_instructions == 1


class TestDSAHooks:
    def test_suppressed_instructions_cost_nothing(self):
        m = model()
        (i,) = decoded("add r0, r0, #1")
        m.charge_scalar_decoded(i)
        before = m.cycles
        m.note_suppressed()
        assert m.cycles == before
        assert m.stats.suppressed_instructions == 1

    def test_add_stall_advances_time(self):
        m = model()
        m.add_stall(14)
        assert m.cycles == 14
        assert m.stats.dsa_stall_cycles == 14

    def test_negative_stall_rejected(self):
        with pytest.raises(ValueError):
            model().add_stall(-1)

    def test_stall_resets_issue_group(self):
        m = model()
        a, b = decoded("mov r0, #1\nmov r1, #2")
        m.charge_scalar_decoded(a)
        m.add_stall(5)
        m.charge_scalar_decoded(b)
        assert m.cycles > 5
