"""Predecode layer: decode once, execute many.

Every paper table and fault campaign funnels tens of millions of
instructions through the interpreter; re-deciding *what an instruction is*
on every retirement (the ``isinstance`` ladder), re-deriving its register
sets (frozenset construction + sort), and re-looking-up its latency were
the dominant host-side costs.  This module lowers an assembled
:class:`~repro.isa.program.Program` into a flat array of
:class:`DecodedOp` records at :class:`~repro.cpu.core.Core` construction:

* a direct-dispatch ``execute`` closure, specialised per instruction class
  *and* per operand shape (immediate vs register vs shifted-register second
  operand, load vs store, index mode, flag-setting or not), bound once;
* precomputed, pre-sorted read/write register index tuples and static
  flags (``reads_flags``, ``sets_flags``, branch target, BTFN prediction),
  so the timing model charges cycles without touching the instruction
  object again (see ``TimingModel.charge_scalar_decoded``).

The :class:`DecodedOp` array is also the substrate every higher execution
tier compiles or scans from — compiled blocks
(:mod:`repro.cpu.blockcompile`) and covered-execution regions
(:mod:`repro.cpu.covered`) both consume the static metadata here rather
than re-deriving it from instruction objects.

The closures build on the pure functions of :mod:`repro.cpu.executor`.
Their results are pinned by the golden run matrix
(``tests/golden_runs.json``): every registered workload on every system
must reproduce its committed RunResult digest bit for bit.

Execute-closure protocol: a closure receives the live ``Core`` and returns

* ``None`` — a simple sequential scalar op (no memory access, no branch,
  not a halt); the run loop advances one slot and charges scalar timing;
* ``(next_pc, accesses, branch_taken, mispredicted)`` — everything else.
  ``accesses`` is a (possibly shared, possibly empty) tuple of
  :class:`~repro.cpu.trace.MemAccess`.
"""

from __future__ import annotations

from typing import Callable

from ..errors import ExecutionError
from ..isa.dtypes import WORD_MASK, float_to_bits, to_u32
from ..isa.instructions import (
    Alu,
    AluKind,
    Branch,
    BranchReg,
    Cmp,
    CmpKind,
    FloatOp,
    Halt,
    Instruction,
    Mem,
    Mov,
    Mul,
    Nop,
)
from ..isa.neon import VInstr
from ..isa.operands import Cond, Imm, IndexMode, LR, Reg, ShiftedReg
from ..isa.program import INSTRUCTION_BYTES, Program
from .config import CPUConfig
from .executor import (
    apply_shift,
    alu_compute,
    cond_holds,
    flags_for_add,
    flags_for_logical,
    flags_for_sub,
    float_compute,
    mul_compute,
)
from .timing import TimingModel
from .trace import MemAccess

#: shared empty accesses tuple (identical to what records carry today)
_NO_ACCESS: tuple = ()


class DecodedOp:
    """One predecoded instruction: dispatch closure + static metadata."""

    __slots__ = (
        "instr",         # the original Instruction (records still carry it)
        "pc",            # text address of this op
        "kind_name",     # type(instr).__name__, for icounts/energy
        "execute",       # the bound execute closure (see module docstring)
        "read_idx",      # sorted tuple of scalar register indices read
        "write_idx",     # sorted tuple of scalar register indices written
        "reads_flags",   # static: conditional branch
        "sets_flags",    # static: Cmp, or Alu with the S suffix
        "cond_link",     # static: conditional branch-link (BL<cond>)
        "branch_target", # static target of an assembled Branch, else None
        "latency",       # scalar or vector execution latency (cycles)
        "wb_index",      # Mem writeback base register index, or None
        "is_vector",     # dispatched to the NEON pipeline
        "q_read_idx",    # sorted tuple of Q register indices read (vector)
        "q_write_idx",   # sorted tuple of Q register indices written
        "v_is_mem",      # vector load/store (early base writeback)
    )

    def __init__(self, instr: Instruction, pc: int):
        self.instr = instr
        self.pc = pc
        self.kind_name = type(instr).__name__
        self.read_idx = instr.read_indices()
        self.write_idx = instr.write_indices()
        self.reads_flags = isinstance(instr, Branch) and instr.cond is not Cond.AL
        self.sets_flags = isinstance(instr, Cmp) or (
            isinstance(instr, Alu) and instr.sets_flags
        )
        self.cond_link = (
            isinstance(instr, Branch) and instr.link and instr.cond is not Cond.AL
        )
        self.branch_target = (
            instr.target
            if isinstance(instr, Branch) and isinstance(instr.target, int)
            else None
        )
        self.wb_index = (
            instr.addr.base.index
            if isinstance(instr, Mem) and instr.addr.writes_back
            else None
        )
        self.is_vector = isinstance(instr, VInstr)
        if self.is_vector:
            self.q_read_idx = instr.qread_indices()
            self.q_write_idx = instr.qwrite_indices()
            self.v_is_mem = instr.is_load or instr.is_store
        else:
            self.q_read_idx = ()
            self.q_write_idx = ()
            self.v_is_mem = False
        self.latency = 1       # filled in by predecode()
        self.execute = None    # filled in by predecode()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DecodedOp 0x{self.pc:x} {self.instr}>"


class DecodedProgram:
    """The predecoded image: ``ops[i]`` executes the instruction at
    ``base + i*4``.  ``ops[n]`` is a sentinel that raises the
    out-of-text fetch error, so a run loop's sequential advance needs no
    per-step bounds check."""

    __slots__ = ("ops", "base", "n")

    def __init__(self, ops: list[DecodedOp], base: int):
        self.ops = ops
        self.base = base
        self.n = len(ops) - 1  # real instruction count (last op is sentinel)


# ----------------------------------------------------------------------
# operand specialisation
# ----------------------------------------------------------------------
def _operand2_evaluator(op2) -> Callable[[list[int]], int]:
    """Bind a flexible second operand to a ``regs -> value`` closure."""
    if isinstance(op2, Imm):
        v = to_u32(op2.value)
        return lambda regs: v
    if isinstance(op2, Reg):
        i = op2.index
        return lambda regs: regs[i]
    if isinstance(op2, ShiftedReg):
        i, kind, amount = op2.reg.index, op2.kind, op2.amount
        return lambda regs: apply_shift(regs[i], kind, amount)
    raise ExecutionError(f"bad operand2: {op2!r}")


# ----------------------------------------------------------------------
# per-class closure builders
# ----------------------------------------------------------------------
def _build_alu(instr: Alu, pc: int):
    kind, rd, rn = instr.kind, instr.rd.index, instr.rn.index
    ev = _operand2_evaluator(instr.op2)
    if not instr.sets_flags:
        def execute(core):
            regs = core.regs
            regs[rd] = alu_compute(kind, regs[rn], ev(regs))
            return None
    elif kind is AluKind.ADD:
        def execute(core):
            regs = core.regs
            a, b = regs[rn], ev(regs)
            regs[rd] = alu_compute(kind, a, b)
            core.flags = flags_for_add(a, b)
            return None
    elif kind is AluKind.SUB:
        def execute(core):
            regs = core.regs
            a, b = regs[rn], ev(regs)
            regs[rd] = alu_compute(kind, a, b)
            core.flags = flags_for_sub(a, b)
            return None
    elif kind is AluKind.RSB:
        def execute(core):
            regs = core.regs
            a, b = regs[rn], ev(regs)
            regs[rd] = alu_compute(kind, a, b)
            core.flags = flags_for_sub(b, a)
            return None
    else:
        def execute(core):
            regs = core.regs
            result = alu_compute(kind, regs[rn], ev(regs))
            regs[rd] = result
            core.flags = flags_for_logical(result, core.flags)
            return None
    return execute


def _build_mov(instr: Mov, pc: int):
    rd = instr.rd.index
    ev = _operand2_evaluator(instr.op2)
    if instr.negate:
        def execute(core):
            regs = core.regs
            regs[rd] = ~ev(regs) & WORD_MASK
            return None
    else:
        def execute(core):
            regs = core.regs
            regs[rd] = ev(regs)
            return None
    return execute


def _build_mul(instr: Mul, pc: int):
    kind, rd, rn, rm = instr.kind, instr.rd.index, instr.rn.index, instr.rm.index
    if instr.ra is None:
        def execute(core):
            regs = core.regs
            regs[rd] = mul_compute(kind, regs[rn], regs[rm], 0)
            return None
    else:
        ra = instr.ra.index
        def execute(core):
            regs = core.regs
            regs[rd] = mul_compute(kind, regs[rn], regs[rm], regs[ra])
            return None
    return execute


def _build_float(instr: FloatOp, pc: int):
    kind, rd, rn, rm = instr.kind, instr.rd.index, instr.rn.index, instr.rm.index

    def execute(core):
        regs = core.regs
        regs[rd] = float_compute(kind, regs[rn], regs[rm])
        return None

    return execute


def _build_cmp(instr: Cmp, pc: int):
    kind, rn = instr.kind, instr.rn.index
    ev = _operand2_evaluator(instr.op2)
    if kind is CmpKind.CMP:
        def execute(core):
            regs = core.regs
            core.flags = flags_for_sub(regs[rn], ev(regs))
            return None
    elif kind is CmpKind.CMN:
        def execute(core):
            regs = core.regs
            core.flags = flags_for_add(regs[rn], ev(regs))
            return None
    else:  # TST
        def execute(core):
            regs = core.regs
            core.flags = flags_for_logical(regs[rn] & ev(regs), core.flags)
            return None
    return execute


def _build_mem(instr: Mem, pc: int):
    # compute ea/new_base from the *old* base, do the access, then write
    # the base back — so with rd == base a store reads the
    # pre-writeback value and a load result is overwritten by the writeback
    seq_pc = pc + INSTRUCTION_BYTES
    bidx = instr.addr.base.index
    ev = _operand2_evaluator(instr.addr.offset)
    mode = instr.addr.mode
    dtype = instr.dtype
    size = dtype.size
    if instr.is_store:
        rd = instr.rd.index
        mask = (1 << (size * 8)) - 1

        def execute(core):
            regs = core.regs
            base = regs[bidx]
            if mode is IndexMode.OFFSET:
                ea, new_base = (base + ev(regs)) & WORD_MASK, None
            elif mode is IndexMode.PRE:
                ea = (base + ev(regs)) & WORD_MASK
                new_base = ea
            else:  # POST
                ea, new_base = base, (base + ev(regs)) & WORD_MASK
            core.memory.write(ea, (regs[rd] & mask).to_bytes(size, "little"))
            if new_base is not None:
                regs[bidx] = new_base
            return (seq_pc, (MemAccess(ea, size, True),), None, False)
    else:
        rd = instr.rd.index
        if dtype.is_float:
            def _to_reg(value):
                return float_to_bits(float(value))
        else:
            def _to_reg(value):
                return value & WORD_MASK

        def execute(core):
            regs = core.regs
            base = regs[bidx]
            if mode is IndexMode.OFFSET:
                ea, new_base = (base + ev(regs)) & WORD_MASK, None
            elif mode is IndexMode.PRE:
                ea = (base + ev(regs)) & WORD_MASK
                new_base = ea
            else:  # POST
                ea, new_base = base, (base + ev(regs)) & WORD_MASK
            regs[rd] = _to_reg(core.memory.read_value(ea, dtype))
            if new_base is not None:
                regs[bidx] = new_base
            return (seq_pc, (MemAccess(ea, size, False),), None, False)
    return execute


def _build_branch(instr: Branch, pc: int):
    if not isinstance(instr.target, int):
        def execute(core):
            raise AssertionError("program must be assembled")
        return execute
    target = instr.target
    seq_pc = pc + INSTRUCTION_BYTES
    cond, link = instr.cond, instr.link
    # static BTFN predictor: backward predicted taken, forward not
    predicted_taken = target < pc
    taken_result = (target, _NO_ACCESS, True, not predicted_taken)
    not_taken_result = (seq_pc, _NO_ACCESS, False, predicted_taken)
    link_value = to_u32(seq_pc)
    if cond is Cond.AL:
        if link:
            def execute(core):
                core.regs[LR] = link_value
                return taken_result
        else:
            def execute(core):
                return taken_result
    elif link:
        # ARM semantics: a conditional instruction whose condition fails
        # retires as a NOP — an untaken BL<cond> must NOT write LR
        def execute(core):
            if cond_holds(cond, core.flags):
                core.regs[LR] = link_value
                return taken_result
            return not_taken_result
    else:
        def execute(core):
            return taken_result if cond_holds(cond, core.flags) else not_taken_result
    return execute


def _build_branch_reg(instr: BranchReg, pc: int):
    rm = instr.rm.index

    def execute(core):
        # return-address stack assumed perfect: never mispredicted
        return (core.regs[rm], _NO_ACCESS, True, False)

    return execute


def _build_halt(instr: Halt, pc: int):
    result = (pc, _NO_ACCESS, None, False)

    def execute(core):
        core.halted = True
        return result

    return execute


def _build_nop(instr: Nop, pc: int):
    def execute(core):
        return None

    return execute


def _build_vinstr(instr: VInstr, pc: int):
    no_events = (pc + INSTRUCTION_BYTES, _NO_ACCESS, None, False)
    seq_pc = pc + INSTRUCTION_BYTES

    def execute(core):
        events = core.vector.execute(instr, core.regs, core.memory)
        if not events:
            return no_events
        return (
            seq_pc,
            tuple(MemAccess(e.addr, e.nbytes, e.is_write) for e in events),
            None,
            False,
        )

    return execute


def _build_unknown(instr: Instruction, pc: int):
    """Unknown instruction class: fail at execution, never at decode —
    dead code must stay decodable."""

    def execute(core):
        raise ExecutionError(f"cannot execute {instr!r}")

    return execute


_BUILDERS: dict[type, Callable] = {
    Alu: _build_alu,
    Mov: _build_mov,
    Mul: _build_mul,
    FloatOp: _build_float,
    Cmp: _build_cmp,
    Mem: _build_mem,
    Branch: _build_branch,
    BranchReg: _build_branch_reg,
    Halt: _build_halt,
    Nop: _build_nop,
}


def _builder_for(cls: type) -> Callable:
    builder = _BUILDERS.get(cls)
    if builder is None:
        builder = _build_vinstr if issubclass(cls, VInstr) else _build_unknown
        _BUILDERS[cls] = builder  # memoise subclasses
    return builder


def _sentinel(end_pc: int) -> DecodedOp:
    """The op one past the end of text: falling into it raises the
    out-of-text fetch error."""
    op = DecodedOp(Nop(), end_pc)
    op.kind_name = "<end-of-text>"

    def execute(core):
        raise ExecutionError(f"address 0x{end_pc:x} is not inside the text segment")

    op.execute = execute
    return op


# ----------------------------------------------------------------------
def predecode(program: Program, config: CPUConfig) -> DecodedProgram:
    """Lower an assembled program into its direct-dispatch form."""
    probe = TimingModel(config)  # latency tables only; no cycle state is kept
    ops: list[DecodedOp] = []
    pc = program.base
    for instr in program.instructions:
        op = DecodedOp(instr, pc)
        builder = _builder_for(type(instr))
        op.execute = builder(instr, pc)
        if builder is not _build_unknown:
            op.latency = (
                probe.vector_latency(instr) if op.is_vector else probe.scalar_latency(instr)
            )
        ops.append(op)
        pc += INSTRUCTION_BYTES
    ops.append(_sentinel(pc))
    return DecodedProgram(ops, program.base)
