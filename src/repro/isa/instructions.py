"""Scalar (core) instruction set.

A deliberately ARMv7-flavoured subset: data processing with a flexible second
operand, multiply / multiply-accumulate, compares that set NZCV, typed loads
and stores with the three ARM index modes, branches (conditional, with-link,
and register-indirect), and scalar float32 arithmetic.

Each instruction knows which registers it reads and writes — the dual-issue
timing model and the DSA's data-collection stage both rely on that metadata
rather than re-decoding text.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .dtypes import DType
from .operands import Address, Cond, Operand2, Reg, ShiftedReg


@dataclass(frozen=True)
class Instruction:
    """Base class for every scalar and vector instruction."""

    # -- classification helpers (overridden by subclasses) -------------
    @property
    def is_load(self) -> bool:
        return False

    @property
    def is_store(self) -> bool:
        return False

    @property
    def is_branch(self) -> bool:
        return False

    @property
    def is_vector(self) -> bool:
        return False

    def regs_read(self) -> frozenset[Reg]:
        return frozenset()

    def regs_written(self) -> frozenset[Reg]:
        return frozenset()

    # -- decode metadata (consumed by the predecode layer) --------------
    def read_indices(self) -> tuple[int, ...]:
        """Indices of the core registers read, sorted ascending."""
        return tuple(sorted(r.index for r in self.regs_read()))

    def write_indices(self) -> tuple[int, ...]:
        """Indices of the core registers written, sorted ascending."""
        return tuple(sorted(r.index for r in self.regs_written()))


def _operand2_reads(op2: Operand2) -> frozenset[Reg]:
    if isinstance(op2, Reg):
        return frozenset({op2})
    if isinstance(op2, ShiftedReg):
        return frozenset({op2.reg})
    return frozenset()


class AluKind(Enum):
    ADD = "add"
    SUB = "sub"
    RSB = "rsb"
    AND = "and"
    ORR = "orr"
    EOR = "eor"
    BIC = "bic"
    LSL = "lsl"
    LSR = "lsr"
    ASR = "asr"
    MIN = "min"   # pseudo-op (cmp+mov pair in real ARM); keeps kernels compact
    MAX = "max"


@dataclass(frozen=True)
class Alu(Instruction):
    """Three-operand data processing: ``<op> rd, rn, <op2>``."""

    kind: AluKind
    rd: Reg
    rn: Reg
    op2: Operand2
    sets_flags: bool = False

    def regs_read(self) -> frozenset[Reg]:
        return frozenset({self.rn}) | _operand2_reads(self.op2)

    def regs_written(self) -> frozenset[Reg]:
        return frozenset({self.rd})

    def __str__(self) -> str:
        s = "s" if self.sets_flags else ""
        return f"{self.kind.value}{s} {self.rd}, {self.rn}, {self.op2}"


@dataclass(frozen=True)
class Mov(Instruction):
    """``mov rd, <op2>`` (or ``mvn`` when ``negate`` is set)."""

    rd: Reg
    op2: Operand2
    negate: bool = False

    def regs_read(self) -> frozenset[Reg]:
        return _operand2_reads(self.op2)

    def regs_written(self) -> frozenset[Reg]:
        return frozenset({self.rd})

    def __str__(self) -> str:
        return f"{'mvn' if self.negate else 'mov'} {self.rd}, {self.op2}"


class MulKind(Enum):
    MUL = "mul"
    MLA = "mla"
    SDIV = "sdiv"
    UDIV = "udiv"


@dataclass(frozen=True)
class Mul(Instruction):
    """Multiply family: ``mul rd, rn, rm`` / ``mla rd, rn, rm, ra`` / divides."""

    kind: MulKind
    rd: Reg
    rn: Reg
    rm: Reg
    ra: Reg | None = None  # accumulator, MLA only

    def __post_init__(self) -> None:
        if self.kind is MulKind.MLA and self.ra is None:
            raise ValueError("mla needs an accumulator register")
        if self.kind is not MulKind.MLA and self.ra is not None:
            raise ValueError(f"{self.kind.value} takes no accumulator")

    def regs_read(self) -> frozenset[Reg]:
        regs = {self.rn, self.rm}
        if self.ra is not None:
            regs.add(self.ra)
        return frozenset(regs)

    def regs_written(self) -> frozenset[Reg]:
        return frozenset({self.rd})

    def __str__(self) -> str:
        if self.kind is MulKind.MLA:
            return f"mla {self.rd}, {self.rn}, {self.rm}, {self.ra}"
        return f"{self.kind.value} {self.rd}, {self.rn}, {self.rm}"


class FloatKind(Enum):
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"


@dataclass(frozen=True)
class FloatOp(Instruction):
    """Scalar float32 arithmetic on core registers (VFP substitute)."""

    kind: FloatKind
    rd: Reg
    rn: Reg
    rm: Reg

    def regs_read(self) -> frozenset[Reg]:
        return frozenset({self.rn, self.rm})

    def regs_written(self) -> frozenset[Reg]:
        return frozenset({self.rd})

    def __str__(self) -> str:
        return f"{self.kind.value} {self.rd}, {self.rn}, {self.rm}"


class CmpKind(Enum):
    CMP = "cmp"
    CMN = "cmn"
    TST = "tst"


@dataclass(frozen=True)
class Cmp(Instruction):
    """Flag-setting compare: ``cmp rn, <op2>`` (also cmn / tst)."""

    kind: CmpKind
    rn: Reg
    op2: Operand2

    def regs_read(self) -> frozenset[Reg]:
        return frozenset({self.rn}) | _operand2_reads(self.op2)

    def __str__(self) -> str:
        return f"{self.kind.value} {self.rn}, {self.op2}"


@dataclass(frozen=True)
class Mem(Instruction):
    """Typed load/store with ARM addressing modes.

    ``dtype`` selects the access width and sign extension:
    U8 -> ldrb/strb, I8 -> ldrsb, U16 -> ldrh/strh, I16 -> ldrsh,
    I32/U32/F32 -> ldr/str (word).
    """

    store: bool
    rd: Reg
    addr: Address
    dtype: DType = DType.I32

    @property
    def is_load(self) -> bool:
        return not self.store

    @property
    def is_store(self) -> bool:
        return self.store

    @property
    def mnemonic(self) -> str:
        base = "str" if self.store else "ldr"
        if self.dtype in (DType.I32, DType.U32, DType.F32):
            return base
        if self.dtype is DType.U8:
            return base + "b"
        if self.dtype is DType.U16:
            return base + "h"
        if self.dtype is DType.I8:
            return "strb" if self.store else "ldrsb"
        if self.dtype is DType.I16:
            return "strh" if self.store else "ldrsh"
        raise ValueError(f"unsupported scalar access type {self.dtype}")

    def regs_read(self) -> frozenset[Reg]:
        regs = {self.addr.base} | _operand2_reads(self.addr.offset)
        if self.store:
            regs.add(self.rd)
        return frozenset(regs)

    def regs_written(self) -> frozenset[Reg]:
        regs: set[Reg] = set()
        if not self.store:
            regs.add(self.rd)
        if self.addr.writes_back:
            regs.add(self.addr.base)
        return frozenset(regs)

    def __str__(self) -> str:
        return f"{self.mnemonic} {self.rd}, {self.addr}"


@dataclass(frozen=True)
class Branch(Instruction):
    """``b<cond> label`` or ``bl label``; targets are resolved to addresses."""

    target: int | str  # address once assembled, label before that
    cond: Cond = Cond.AL
    link: bool = False

    @property
    def is_branch(self) -> bool:
        return True

    def regs_written(self) -> frozenset[Reg]:
        from .operands import LR
        return frozenset({Reg(LR)}) if self.link else frozenset()

    def __str__(self) -> str:
        mnem = "bl" if self.link else "b" + self.cond.suffix
        target = f"0x{self.target:x}" if isinstance(self.target, int) else self.target
        return f"{mnem} {target}"


@dataclass(frozen=True)
class BranchReg(Instruction):
    """``bx rm`` — indirect branch, used for function returns (``bx lr``)."""

    rm: Reg

    @property
    def is_branch(self) -> bool:
        return True

    def regs_read(self) -> frozenset[Reg]:
        return frozenset({self.rm})

    def __str__(self) -> str:
        return f"bx {self.rm}"


@dataclass(frozen=True)
class Nop(Instruction):
    def __str__(self) -> str:
        return "nop"


@dataclass(frozen=True)
class Halt(Instruction):
    """Stops simulation; stands in for the program's exit syscall."""

    def __str__(self) -> str:
        return "halt"
