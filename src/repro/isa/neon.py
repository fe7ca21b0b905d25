"""NEON (vector) instruction set.

Models the subset of ARM NEON the paper's DSA generates (Section 4.7): 128-bit
structure loads/stores with optional post-increment, per-lane loads/stores for
the "single elements" leftover technique, lane-wise arithmetic/logic, compares
producing all-ones/all-zeros masks, bitwise select for conditional code, and
scalar<->vector moves.

All vector instructions are tagged ``is_vector`` so the core can dispatch them
to the NEON engine's instruction queue instead of the scalar pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .dtypes import DType
from .instructions import Instruction
from .operands import QReg, Reg


@dataclass(frozen=True)
class VInstr(Instruction):
    """Base class for NEON instructions."""

    @property
    def is_vector(self) -> bool:
        return True

    def qregs_read(self) -> frozenset[QReg]:
        return frozenset()

    def qregs_written(self) -> frozenset[QReg]:
        return frozenset()

    # -- decode metadata (consumed by the predecode layer) --------------
    def qread_indices(self) -> tuple[int, ...]:
        """Indices of the Q registers read, sorted ascending."""
        return tuple(sorted(q.index for q in self.qregs_read()))

    def qwrite_indices(self) -> tuple[int, ...]:
        """Indices of the Q registers written, sorted ascending."""
        return tuple(sorted(q.index for q in self.qregs_written()))


@dataclass(frozen=True)
class VLoad(VInstr):
    """``vld1.<dt> qd, [rn]`` with optional post-increment writeback ``!``.

    Loads one full 128-bit register from consecutive memory.  The writeback
    form advances the base register by 16 bytes, matching the pointer-bump
    loops the DSA builds.
    """

    qd: QReg
    base: Reg
    dtype: DType
    writeback: bool = False

    @property
    def is_load(self) -> bool:
        return True

    def regs_read(self) -> frozenset[Reg]:
        return frozenset({self.base})

    def regs_written(self) -> frozenset[Reg]:
        return frozenset({self.base}) if self.writeback else frozenset()

    def qregs_written(self) -> frozenset[QReg]:
        return frozenset({self.qd})

    def __str__(self) -> str:
        return f"vld1.{self.dtype} {self.qd}, [{self.base}]" + ("!" if self.writeback else "")


@dataclass(frozen=True)
class VStore(VInstr):
    """``vst1.<dt> qs, [rn]`` with optional post-increment writeback ``!``."""

    qs: QReg
    base: Reg
    dtype: DType
    writeback: bool = False

    @property
    def is_store(self) -> bool:
        return True

    def regs_read(self) -> frozenset[Reg]:
        return frozenset({self.base})

    def regs_written(self) -> frozenset[Reg]:
        return frozenset({self.base}) if self.writeback else frozenset()

    def qregs_read(self) -> frozenset[QReg]:
        return frozenset({self.qs})

    def __str__(self) -> str:
        return f"vst1.{self.dtype} {self.qs}, [{self.base}]" + ("!" if self.writeback else "")


@dataclass(frozen=True)
class VLoadLane(VInstr):
    """``vldlane.<dt> qd[lane], [rn]`` — single-element load (leftovers)."""

    qd: QReg
    lane: int
    base: Reg
    dtype: DType
    writeback: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.lane < self.dtype.lanes:
            raise ValueError(f"lane {self.lane} out of range for {self.dtype}")

    @property
    def is_load(self) -> bool:
        return True

    def regs_read(self) -> frozenset[Reg]:
        return frozenset({self.base})

    def regs_written(self) -> frozenset[Reg]:
        return frozenset({self.base}) if self.writeback else frozenset()

    def qregs_read(self) -> frozenset[QReg]:
        # merging into a lane preserves the other lanes
        return frozenset({self.qd})

    def qregs_written(self) -> frozenset[QReg]:
        return frozenset({self.qd})

    def __str__(self) -> str:
        wb = "!" if self.writeback else ""
        return f"vldlane.{self.dtype} {self.qd}[{self.lane}], [{self.base}]{wb}"


@dataclass(frozen=True)
class VStoreLane(VInstr):
    """``vstlane.<dt> qs[lane], [rn]`` — single-element store (leftovers)."""

    qs: QReg
    lane: int
    base: Reg
    dtype: DType
    writeback: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.lane < self.dtype.lanes:
            raise ValueError(f"lane {self.lane} out of range for {self.dtype}")

    @property
    def is_store(self) -> bool:
        return True

    def regs_read(self) -> frozenset[Reg]:
        return frozenset({self.base})

    def regs_written(self) -> frozenset[Reg]:
        return frozenset({self.base}) if self.writeback else frozenset()

    def qregs_read(self) -> frozenset[QReg]:
        return frozenset({self.qs})

    def __str__(self) -> str:
        wb = "!" if self.writeback else ""
        return f"vstlane.{self.dtype} {self.qs}[{self.lane}], [{self.base}]{wb}"


class VBinKind(Enum):
    VADD = "vadd"
    VSUB = "vsub"
    VMUL = "vmul"
    VAND = "vand"
    VORR = "vorr"
    VEOR = "veor"
    VMIN = "vmin"
    VMAX = "vmax"


@dataclass(frozen=True)
class VBinOp(VInstr):
    """Lane-wise binary op: ``vadd.<dt> qd, qn, qm`` etc."""

    kind: VBinKind
    qd: QReg
    qn: QReg
    qm: QReg
    dtype: DType

    def qregs_read(self) -> frozenset[QReg]:
        return frozenset({self.qn, self.qm})

    def qregs_written(self) -> frozenset[QReg]:
        return frozenset({self.qd})

    def __str__(self) -> str:
        return f"{self.kind.value}.{self.dtype} {self.qd}, {self.qn}, {self.qm}"


@dataclass(frozen=True)
class VMla(VInstr):
    """``vmla.<dt> qd, qn, qm`` — qd += qn * qm, lane-wise."""

    qd: QReg
    qn: QReg
    qm: QReg
    dtype: DType

    def qregs_read(self) -> frozenset[QReg]:
        return frozenset({self.qd, self.qn, self.qm})

    def qregs_written(self) -> frozenset[QReg]:
        return frozenset({self.qd})

    def __str__(self) -> str:
        return f"vmla.{self.dtype} {self.qd}, {self.qn}, {self.qm}"


class VShiftKind(Enum):
    VSHL = "vshl"
    VSHR = "vshr"


@dataclass(frozen=True)
class VShiftImm(VInstr):
    """Lane-wise shift by immediate: ``vshl.<dt> qd, qn, #imm``."""

    kind: VShiftKind
    qd: QReg
    qn: QReg
    amount: int
    dtype: DType

    def __post_init__(self) -> None:
        if not 0 <= self.amount < self.dtype.bits:
            raise ValueError(f"shift amount {self.amount} out of range for {self.dtype}")

    def qregs_read(self) -> frozenset[QReg]:
        return frozenset({self.qn})

    def qregs_written(self) -> frozenset[QReg]:
        return frozenset({self.qd})

    def __str__(self) -> str:
        return f"{self.kind.value}.{self.dtype} {self.qd}, {self.qn}, #{self.amount}"


class VUnaryKind(Enum):
    VABS = "vabs"
    VNEG = "vneg"
    VMVN = "vmvn"


@dataclass(frozen=True)
class VUnary(VInstr):
    """Lane-wise unary op: ``vabs.<dt> qd, qn`` etc."""

    kind: VUnaryKind
    qd: QReg
    qn: QReg
    dtype: DType

    def qregs_read(self) -> frozenset[QReg]:
        return frozenset({self.qn})

    def qregs_written(self) -> frozenset[QReg]:
        return frozenset({self.qd})

    def __str__(self) -> str:
        return f"{self.kind.value}.{self.dtype} {self.qd}, {self.qn}"


@dataclass(frozen=True)
class VDup(VInstr):
    """``vdup.<dt> qd, rn`` — broadcast a scalar register into all lanes."""

    qd: QReg
    rn: Reg
    dtype: DType

    def regs_read(self) -> frozenset[Reg]:
        return frozenset({self.rn})

    def qregs_written(self) -> frozenset[QReg]:
        return frozenset({self.qd})

    def __str__(self) -> str:
        return f"vdup.{self.dtype} {self.qd}, {self.rn}"


@dataclass(frozen=True)
class VDupImm(VInstr):
    """``vmovi.<dt> qd, #imm`` — broadcast an immediate into all lanes."""

    qd: QReg
    value: int
    dtype: DType

    def qregs_written(self) -> frozenset[QReg]:
        return frozenset({self.qd})

    def __str__(self) -> str:
        return f"vmovi.{self.dtype} {self.qd}, #{self.value}"


class VCmpKind(Enum):
    VCEQ = "vceq"
    VCGT = "vcgt"
    VCGE = "vcge"
    VCLT = "vclt"
    VCLE = "vcle"


@dataclass(frozen=True)
class VCmp(VInstr):
    """Lane-wise compare producing an all-ones/all-zeros mask per lane."""

    kind: VCmpKind
    qd: QReg
    qn: QReg
    qm: QReg
    dtype: DType

    def qregs_read(self) -> frozenset[QReg]:
        return frozenset({self.qn, self.qm})

    def qregs_written(self) -> frozenset[QReg]:
        return frozenset({self.qd})

    def __str__(self) -> str:
        return f"{self.kind.value}.{self.dtype} {self.qd}, {self.qn}, {self.qm}"


@dataclass(frozen=True)
class VBsl(VInstr):
    """``vbsl qd, qn, qm`` — bitwise select: qd = (qd & qn) | (~qd & qm).

    ``qd`` holds the selection mask on input (normally a VCmp result); after
    execution it holds, per bit, qn where the mask was 1 and qm where it was 0.
    """

    qd: QReg
    qn: QReg
    qm: QReg

    def qregs_read(self) -> frozenset[QReg]:
        return frozenset({self.qd, self.qn, self.qm})

    def qregs_written(self) -> frozenset[QReg]:
        return frozenset({self.qd})

    def __str__(self) -> str:
        return f"vbsl {self.qd}, {self.qn}, {self.qm}"


@dataclass(frozen=True)
class VMovQ(VInstr):
    """``vmovq qd, qm`` — full 128-bit register copy."""

    qd: QReg
    qm: QReg

    def qregs_read(self) -> frozenset[QReg]:
        return frozenset({self.qm})

    def qregs_written(self) -> frozenset[QReg]:
        return frozenset({self.qd})

    def __str__(self) -> str:
        return f"vmovq {self.qd}, {self.qm}"


@dataclass(frozen=True)
class VMovToCore(VInstr):
    """``vmov.<dt> rd, qn[lane]`` — extract one lane to a core register."""

    rd: Reg
    qn: QReg
    lane: int
    dtype: DType

    def __post_init__(self) -> None:
        if not 0 <= self.lane < self.dtype.lanes:
            raise ValueError(f"lane {self.lane} out of range for {self.dtype}")

    def regs_written(self) -> frozenset[Reg]:
        return frozenset({self.rd})

    def qregs_read(self) -> frozenset[QReg]:
        return frozenset({self.qn})

    def __str__(self) -> str:
        return f"vmov.{self.dtype} {self.rd}, {self.qn}[{self.lane}]"


@dataclass(frozen=True)
class VMovFromCore(VInstr):
    """``vmov.<dt> qd[lane], rn`` — insert a core register into one lane."""

    qd: QReg
    lane: int
    rn: Reg
    dtype: DType

    def __post_init__(self) -> None:
        if not 0 <= self.lane < self.dtype.lanes:
            raise ValueError(f"lane {self.lane} out of range for {self.dtype}")

    def regs_read(self) -> frozenset[Reg]:
        return frozenset({self.rn})

    def qregs_read(self) -> frozenset[QReg]:
        return frozenset({self.qd})

    def qregs_written(self) -> frozenset[QReg]:
        return frozenset({self.qd})

    def __str__(self) -> str:
        return f"vmov.{self.dtype} {self.qd}[{self.lane}], {self.rn}"


#: instructions that touch memory, for quick isinstance checks
V_MEMORY_OPS = (VLoad, VStore, VLoadLane, VStoreLane)
