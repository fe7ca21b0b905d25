"""Conditional branch-link retirement semantics.

ARM semantics (DDI 0406, A4.1.1): a conditional instruction whose condition
fails retires as a NOP.  An untaken ``BL<cond>`` therefore must not write
LR, and its TraceRecord must not report a (stale) LR write — the DSA
samples the retire stream and a phantom write would poison its dataflow.

Every execution tier (the predecoded fast loop, the predecoded traced
loop, and the compiled tier) must agree.
"""

import pytest

from repro.cpu import Core
from repro.cpu.config import CPUConfig
from repro.cpu.trace import TraceBuffer
from repro.isa import assemble
from repro.isa.instructions import Branch
from repro.isa.operands import LR
from repro.memory import MainMemory

CONFIGS = {
    "predecoded": CPUConfig(compile_hot=False),
    "compiled": CPUConfig(compile_hot=True),
}

LR_SEED = 0xDEAD

# r0 = 1 < 5, so BLGE is untaken and BLLT is taken
UNTAKEN = """
        mov r0, #1
        mov lr, #0xDEAD
        cmp r0, #5
        blge sub
        mov r1, #7
        halt
    sub:
        mov r2, #9
        bx lr
"""

TAKEN = """
        mov r0, #1
        mov lr, #0xDEAD
        cmp r0, #5
        bllt sub
        mov r1, #7
        halt
    sub:
        mov r2, #9
        bx lr
"""


def _run(source: str, config: CPUConfig, traced: bool = False):
    core = Core(assemble(source), MainMemory(1 << 16), config=config)
    buffer = TraceBuffer()
    if traced:
        core.retire_hooks.append(buffer)
    result = core.run()
    return core, result, buffer


class TestUntakenConditionalBranchLink:
    @pytest.mark.parametrize("name", CONFIGS)
    def test_lr_not_written(self, name):
        core, result, _ = _run(UNTAKEN, CONFIGS[name])
        assert core.get_reg(LR) == LR_SEED, "untaken BL<cond> must not write LR"
        assert core.get_reg(1) == 7       # fell through to the next instruction
        assert core.get_reg(2) == 0       # the callee never ran
        assert result.halted

    @pytest.mark.parametrize("name", CONFIGS)
    def test_taken_still_links(self, name):
        core, result, _ = _run(TAKEN, CONFIGS[name])
        assert core.get_reg(2) == 9       # the callee ran
        assert core.get_reg(1) == 7       # and returned to the fall-through
        assert core.get_reg(LR) != LR_SEED
        assert result.halted

    @pytest.mark.parametrize("name", CONFIGS)
    def test_record_reports_no_lr_write(self, name):
        _, _, buffer = _run(UNTAKEN, CONFIGS[name], traced=True)
        records = [
            r for r in buffer.records
            if isinstance(r.instr, Branch) and r.instr.link
        ]
        assert len(records) == 1
        record = records[0]
        assert record.branch_taken is False
        assert record.reg_writes == (), (
            "untaken BL<cond> retired as a NOP: the record must not report "
            "a phantom LR write"
        )

    @pytest.mark.parametrize("name", CONFIGS)
    def test_record_reports_lr_write_when_taken(self, name):
        _, _, buffer = _run(TAKEN, CONFIGS[name], traced=True)
        records = [
            r for r in buffer.records
            if isinstance(r.instr, Branch) and r.instr.link
        ]
        assert len(records) == 1
        record = records[0]
        assert record.branch_taken is True
        assert record.written_value(LR) not in (None, LR_SEED)

    @pytest.mark.parametrize("name", CONFIGS)
    def test_all_tiers_agree(self, name):
        """Architected state and timing are pinned on every tier."""
        core, result, _ = _run(UNTAKEN, CONFIGS[name])
        assert core.regs == [1, 7] + [0] * 12 + [LR_SEED, 0]
        assert (result.cycles, result.instructions) == (4, 6)


class TestAssemblerConditionalLink:
    def test_bleq_is_branch_link(self):
        program = assemble("bleq 0x1000\nhalt")
        instr = program.instructions[0]
        assert isinstance(instr, Branch) and instr.link
        assert instr.cond.name == "EQ"

    def test_ble_stays_plain_conditional(self):
        program = assemble("ble 0x1000\nhalt")
        instr = program.instructions[0]
        assert isinstance(instr, Branch) and not instr.link
        assert instr.cond.name == "LE"
