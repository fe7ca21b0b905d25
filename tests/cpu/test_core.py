"""Integration tests: assemble small programs and run them on the core."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.isa import assemble, DType
from repro.isa.dtypes import float_to_bits, to_s32
from repro.memory import Allocator, MainMemory
from repro.cpu import Core, TraceBuffer, run_program


def make_core(source: str, mem_size: int = 1 << 20, **regs) -> Core:
    program = assemble(source)
    memory = MainMemory(mem_size)
    core = Core(program, memory)
    for name, value in regs.items():
        core.set_reg(int(name[1:]), value)
    return core


class TestBasicExecution:
    def test_mov_add_halt(self):
        core = make_core("mov r0, #5\nadd r1, r0, #7\nhalt")
        result = core.run()
        assert core.regs[1] == 12
        assert result.halted
        assert result.instructions == 3

    def test_loop_counts(self):
        core = make_core(
            """
                mov r0, #0
            loop:
                add r0, r0, #1
                cmp r0, #10
                blt loop
                halt
            """
        )
        core.run()
        assert core.regs[0] == 10

    def test_memory_roundtrip(self):
        core = make_core(
            """
                mov r1, #0x100
                mov r0, #42
                str r0, [r1]
                ldr r2, [r1]
                halt
            """
        )
        core.run()
        assert core.regs[2] == 42
        assert core.memory.read_value(0x100, DType.I32) == 42

    def test_post_index_walks_array(self):
        core = make_core(
            """
                mov r1, #0x100
                mov r0, #7
                str r0, [r1], #4
                str r0, [r1], #4
                halt
            """
        )
        core.run()
        assert core.regs[1] == 0x108
        assert core.memory.read_value(0x104, DType.I32) == 7

    def test_function_call_and_return(self):
        core = make_core(
            """
                mov r0, #3
                bl double
                add r1, r0, #0
                halt
            double:
                add r0, r0, r0
                bx lr
            """
        )
        core.run()
        assert core.regs[1] == 6

    def test_byte_access_sign_extension(self):
        core = make_core(
            """
                mov r0, #0xFF
                mov r1, #0x200
                strb r0, [r1]
                ldrsb r2, [r1]
                ldrb r3, [r1]
                halt
            """
        )
        core.run()
        assert to_s32(core.regs[2]) == -1
        assert core.regs[3] == 0xFF

    def test_float_pipeline(self):
        core = make_core(
            """
                fadd r2, r0, r1
                fmul r3, r2, r1
                halt
            """
        )
        core.set_reg(0, float_to_bits(1.5))
        core.set_reg(1, float_to_bits(2.0))
        core.run()
        from repro.isa.dtypes import bits_to_float

        assert bits_to_float(core.regs[2]) == 3.5
        assert bits_to_float(core.regs[3]) == 7.0

    def test_runaway_program_detected(self):
        core = make_core("spin:\n b spin")
        with pytest.raises(ExecutionError):
            core.run(max_instructions=100)


class TestVectorSum:
    """A full NEON kernel executed directly by the core (autovec-style)."""

    SOURCE = """
        ; r5 = a, r6 = b, r7 = out, r4 = quads
    loop:
        vld1.i32 q0, [r5]!
        vld1.i32 q1, [r6]!
        vadd.i32 q2, q0, q1
        vst1.i32 q2, [r7]!
        subs r4, r4, #1
        bgt loop
        halt
    """

    def test_vector_sum_matches_numpy(self):
        program = assemble(self.SOURCE)
        memory = MainMemory(1 << 20)
        alloc = Allocator(memory)
        rng = np.random.default_rng(0)
        a = rng.integers(-1000, 1000, 64, dtype=np.int32)
        b = rng.integers(-1000, 1000, 64, dtype=np.int32)
        pa, pb = alloc.alloc_array(a), alloc.alloc_array(b)
        pout = alloc.alloc_zeros(DType.I32, 64)
        result = run_program(program, memory, regs={5: pa, 6: pb, 7: pout, 4: 16})
        np.testing.assert_array_equal(memory.read_array(pout, DType.I32, 64), a + b)
        assert result.halted

    def test_vector_faster_than_scalar(self):
        """The NEON path must beat the equivalent scalar loop (4 lanes)."""
        scalar_src = """
        loop:
            ldr r0, [r5], #4
            ldr r1, [r6], #4
            add r0, r0, r1
            str r0, [r7], #4
            subs r4, r4, #1
            bgt loop
            halt
        """

        def run(src, count):
            program = assemble(src)
            memory = MainMemory(1 << 20)
            alloc = Allocator(memory)
            a = np.arange(256, dtype=np.int32)
            pa, pb = alloc.alloc_array(a), alloc.alloc_array(a)
            pout = alloc.alloc_zeros(DType.I32, 256)
            return run_program(program, memory, regs={5: pa, 6: pb, 7: pout, 4: count})

        vec = run(self.SOURCE, 64)       # 64 quads
        scalar = run(scalar_src, 256)    # 256 elements
        assert vec.cycles < scalar.cycles


class TestTraceRecords:
    def test_records_carry_memory_accesses(self):
        core = make_core(
            """
                mov r1, #0x300
                ldr r0, [r1]
                halt
            """
        )
        buf = TraceBuffer()
        core.retire_hooks.append(buf)
        core.run()
        loads = [r for r in buf.records if r.instr.is_load]
        assert len(loads) == 1
        assert loads[0].accesses[0].addr == 0x300
        assert not loads[0].accesses[0].is_write

    def test_backward_branch_flag(self):
        core = make_core(
            """
                mov r0, #0
            loop:
                add r0, r0, #1
                cmp r0, #3
                blt loop
                halt
            """
        )
        buf = TraceBuffer()
        core.retire_hooks.append(buf)
        core.run()
        backwards = [r for r in buf.records if r.is_backward_branch]
        assert len(backwards) == 2  # taken twice, falls through the third time

    def test_reg_reads_snapshot_values(self):
        core = make_core("mov r0, #9\nadd r1, r0, r0\nhalt")
        buf = TraceBuffer()
        core.retire_hooks.append(buf)
        core.run()
        add_rec = buf.records[1]
        assert add_rec.read_value(0) == 9
        assert add_rec.written_value(1) == 18


class TestTimingSuppression:
    def test_suppressor_removes_cycles(self):
        src = """
            mov r4, #0
        loop:
            add r4, r4, #1
            cmp r4, #100
            blt loop
            halt
        """
        plain = make_core(src)
        plain_result = plain.run()

        suppressed = make_core(src)
        loop_pc = suppressed.program.addr_of("loop")
        suppressed.timing_suppressor = lambda rec: rec.pc >= loop_pc and rec.pc < loop_pc + 12
        sup_result = suppressed.run()
        assert sup_result.cycles < plain_result.cycles
        assert suppressed.timing.stats.suppressed_instructions == 300
        # functional result identical
        assert suppressed.regs[4] == plain.regs[4] == 100


class TestTimingModel:
    def test_dual_issue_pairs_independent_ops(self):
        dep = make_core("mov r0, #1\nadd r1, r0, #1\nadd r2, r1, #1\nadd r3, r2, #1\nhalt")
        indep = make_core("mov r0, #1\nmov r1, #1\nmov r2, #1\nmov r3, #1\nhalt")
        dep_cycles = dep.run().cycles
        indep_cycles = indep.run().cycles
        assert indep_cycles < dep_cycles

    def test_cache_misses_cost_cycles(self):
        # strided accesses that miss L1 vs repeated hits
        hit_src = """
            mov r1, #0x100
            mov r4, #0
        loop:
            ldr r0, [r1]
            add r4, r4, #1
            cmp r4, #64
            blt loop
            halt
        """
        miss_src = """
            mov r1, #0x100
            mov r4, #0
        loop:
            ldr r0, [r1], #128
            add r4, r4, #1
            cmp r4, #64
            blt loop
            halt
        """
        hits = make_core(hit_src).run()
        misses = make_core(miss_src).run()
        assert misses.cycles > hits.cycles

    def test_mispredict_penalty_applies_to_exits(self):
        # a loop exit is a mispredicted backward branch under BTFN
        core = make_core(
            """
            mov r0, #0
        loop:
            add r0, r0, #1
            cmp r0, #4
            blt loop
            halt
        """
        )
        core.run()
        assert core.timing.stats.branch_mispredicts == 1

    def test_ipc_reported(self):
        result = make_core("mov r0, #1\nmov r1, #2\nhalt").run()
        assert 0 < result.ipc <= 2
