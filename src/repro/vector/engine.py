"""The vector engine: one functional model at any vector length.

The engine owns sixteen registers of ``vl_bits`` each and executes every
vector instruction against a :class:`MainMemory`.  Following the
vector-length-agnostic design of ARM SVE, the same vector program runs at
any width: full-width loads and stores move ``width_bytes`` per
instruction and post-increment the base register by ``width_bytes``, so
a DSA loop template built against an engine covers ``lanes_for(dtype)``
iterations per burst.  The paper's NEON unit is this engine at VL=128
(:class:`repro.neon.engine.NeonEngine`); the scalable backend is the same
engine at VL ∈ :data:`VALID_VECTOR_LENGTHS`
(:class:`repro.vector.scalable.ScalableEngine`).

Timing lives in :class:`repro.cpu.timing.TimingModel`; the engine is
purely functional so the DSA can also run generated bursts against memory
*snapshots* for equivalence checking without touching timing state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ExecutionError
from ..isa.dtypes import DType, bits_to_float, float_to_bits, to_u32
from ..isa.neon import (
    VBinOp,
    VBsl,
    VCmp,
    VDup,
    VDupImm,
    VInstr,
    VLoad,
    VLoadLane,
    VMla,
    VMovFromCore,
    VMovQ,
    VMovToCore,
    VShiftImm,
    VShiftKind,
    VStore,
    VStoreLane,
    VUnary,
)
from ..memory.backing import MainMemory
from ..neon import lanes
from ..observe.events import EventKind

#: vector lengths (bits) the scalable backend may be configured with
VALID_VECTOR_LENGTHS = (128, 256, 512, 1024)


@dataclass
class VectorStats:
    """Operation counters for the energy model."""

    arith_ops: int = 0
    mem_ops: int = 0
    lane_ops: int = 0
    bytes_loaded: int = 0
    bytes_stored: int = 0

    def reset(self) -> None:
        self.arith_ops = self.mem_ops = self.lane_ops = 0
        self.bytes_loaded = self.bytes_stored = 0


@dataclass(frozen=True, slots=True)
class VMemEvent:
    """A data-memory access performed by a vector instruction."""

    addr: int
    nbytes: int
    is_write: bool


class VectorEngine:
    """Functional model of a vector unit with sixteen ``vl_bits`` registers.

    ``name`` identifies the backend in :class:`CPUConfig`, campaign cache
    keys and RunResult records.  Build engines through
    :func:`repro.vector.get_backend`, which checks the name and VL.
    """

    num_regs = 16  # the QReg operand encoding spans q0..q15 at any width

    def __init__(self, name: str, vl_bits: int) -> None:
        self.name = name
        self.vl_bits = vl_bits
        #: one register's width; all lane/chunk math in the DSA derives
        #: from this, never from a hard-coded 16
        self.width_bytes = vl_bits // 8
        self.q = [lanes.zero_register(self.width_bytes) for _ in range(self.num_regs)]
        #: op counters consumed by the energy model; reset per run by the core
        self.stats = VectorStats()
        #: fault-injection hook: called as hook(instr, q) after each
        #: executed instruction, free to corrupt the register file — the
        #: golden check downstream is what must catch the damage
        self.fault_hook = None
        #: optional repro.observe.Observer; when set, every architecturally
        #: executed vector instruction emits a NEON_DISPATCH event
        self.observer = None

    # ------------------------------------------------------------------
    def lanes_for(self, dtype: DType) -> int:
        """Element lanes one register holds at this engine's width."""
        return self.width_bytes // dtype.size

    def read_reg(self, index: int) -> np.ndarray:
        """Copy of register ``index`` as a ``width_bytes`` uint8 image."""
        return self.q[index].copy()

    def write_reg(self, index: int, image: np.ndarray) -> None:
        """Replace register ``index``; the image must be register-width."""
        if image.nbytes != self.width_bytes:
            raise ExecutionError(
                f"register image must be {self.width_bytes} bytes at "
                f"VL={self.vl_bits}"
            )
        self.q[index] = image.astype(np.uint8, copy=True)

    def reset(self) -> None:
        """Zero the register file and the stats counters."""
        self.q = [lanes.zero_register(self.width_bytes) for _ in range(self.num_regs)]
        self.stats.reset()

    # ------------------------------------------------------------------
    # per-class handlers (dispatched through _DISPATCH below; each returns
    # the memory event it performed, or None for register-only operations)
    # ------------------------------------------------------------------
    def _exec_vload(self, instr: VLoad, regs, memory) -> VMemEvent:
        addr = regs[instr.base.index]
        n = self.width_bytes
        self.q[instr.qd.index] = memory.view(addr, n).copy()
        if instr.writeback:
            regs[instr.base.index] = to_u32(addr + n)
        self.stats.mem_ops += 1
        self.stats.bytes_loaded += n
        return VMemEvent(addr, n, False)

    def _exec_vstore(self, instr: VStore, regs, memory) -> VMemEvent:
        addr = regs[instr.base.index]
        n = self.width_bytes
        memory.write(addr, self.q[instr.qs.index].tobytes())
        if instr.writeback:
            regs[instr.base.index] = to_u32(addr + n)
        self.stats.mem_ops += 1
        self.stats.bytes_stored += n
        return VMemEvent(addr, n, True)

    def _exec_vload_lane(self, instr: VLoadLane, regs, memory) -> VMemEvent:
        addr = regs[instr.base.index]
        value = memory.read_value(addr, instr.dtype)
        self.q[instr.qd.index] = lanes.lane_set(
            self.q[instr.qd.index], instr.lane, value, instr.dtype
        )
        if instr.writeback:
            regs[instr.base.index] = to_u32(addr + instr.dtype.size)
        self.stats.mem_ops += 1
        self.stats.bytes_loaded += instr.dtype.size
        return VMemEvent(addr, instr.dtype.size, False)

    def _exec_vstore_lane(self, instr: VStoreLane, regs, memory) -> VMemEvent:
        addr = regs[instr.base.index]
        value = lanes.lane_get(self.q[instr.qs.index], instr.lane, instr.dtype)
        memory.write_value(addr, value, instr.dtype)
        if instr.writeback:
            regs[instr.base.index] = to_u32(addr + instr.dtype.size)
        self.stats.mem_ops += 1
        self.stats.bytes_stored += instr.dtype.size
        return VMemEvent(addr, instr.dtype.size, True)

    def _exec_vbinop(self, instr: VBinOp, regs, memory) -> None:
        self.q[instr.qd.index] = lanes.binop(
            instr.kind, self.q[instr.qn.index], self.q[instr.qm.index], instr.dtype
        )
        self.stats.arith_ops += 1

    def _exec_vmla(self, instr: VMla, regs, memory) -> None:
        self.q[instr.qd.index] = lanes.mla(
            self.q[instr.qd.index],
            self.q[instr.qn.index],
            self.q[instr.qm.index],
            instr.dtype,
        )
        self.stats.arith_ops += 1

    def _exec_vshift(self, instr: VShiftImm, regs, memory) -> None:
        self.q[instr.qd.index] = lanes.shift(
            instr.kind is VShiftKind.VSHL,
            self.q[instr.qn.index],
            instr.amount,
            instr.dtype,
        )
        self.stats.arith_ops += 1

    def _exec_vunary(self, instr: VUnary, regs, memory) -> None:
        self.q[instr.qd.index] = lanes.unary(instr.kind, self.q[instr.qn.index], instr.dtype)
        self.stats.arith_ops += 1

    def _exec_vdup(self, instr: VDup, regs, memory) -> None:
        raw = regs[instr.rn.index]
        value = bits_to_float(raw) if instr.dtype.is_float else raw
        self.q[instr.qd.index] = lanes.broadcast(
            value, instr.dtype, self.width_bytes // instr.dtype.size
        )
        self.stats.lane_ops += 1

    def _exec_vdup_imm(self, instr: VDupImm, regs, memory) -> None:
        self.q[instr.qd.index] = lanes.broadcast(
            instr.value, instr.dtype, self.width_bytes // instr.dtype.size
        )
        self.stats.lane_ops += 1

    def _exec_vcmp(self, instr: VCmp, regs, memory) -> None:
        self.q[instr.qd.index] = lanes.compare(
            instr.kind, self.q[instr.qn.index], self.q[instr.qm.index], instr.dtype
        )
        self.stats.arith_ops += 1

    def _exec_vbsl(self, instr: VBsl, regs, memory) -> None:
        self.q[instr.qd.index] = lanes.bitwise_select(
            self.q[instr.qd.index], self.q[instr.qn.index], self.q[instr.qm.index]
        )
        self.stats.arith_ops += 1

    def _exec_vmovq(self, instr: VMovQ, regs, memory) -> None:
        self.q[instr.qd.index] = self.q[instr.qm.index].copy()
        self.stats.lane_ops += 1

    def _exec_vmov_to_core(self, instr: VMovToCore, regs, memory) -> None:
        value = lanes.lane_get(self.q[instr.qn.index], instr.lane, instr.dtype)
        regs[instr.rd.index] = (
            float_to_bits(value) if instr.dtype.is_float else to_u32(int(value))
        )
        self.stats.lane_ops += 1

    def _exec_vmov_from_core(self, instr: VMovFromCore, regs, memory) -> None:
        raw = regs[instr.rn.index]
        value = bits_to_float(raw) if instr.dtype.is_float else raw
        self.q[instr.qd.index] = lanes.lane_set(
            self.q[instr.qd.index], instr.lane, value, instr.dtype
        )
        self.stats.lane_ops += 1

    #: type-keyed dispatch — one dict probe replaces the isinstance ladder
    _DISPATCH = {
        VLoad: _exec_vload,
        VStore: _exec_vstore,
        VLoadLane: _exec_vload_lane,
        VStoreLane: _exec_vstore_lane,
        VBinOp: _exec_vbinop,
        VMla: _exec_vmla,
        VShiftImm: _exec_vshift,
        VUnary: _exec_vunary,
        VDup: _exec_vdup,
        VDupImm: _exec_vdup_imm,
        VCmp: _exec_vcmp,
        VBsl: _exec_vbsl,
        VMovQ: _exec_vmovq,
        VMovToCore: _exec_vmov_to_core,
        VMovFromCore: _exec_vmov_from_core,
    }

    def execute(
        self, instr: VInstr, regs: list[int], memory: MainMemory
    ) -> list[VMemEvent]:
        """Execute one vector instruction.

        ``regs`` is the core's scalar register file (mutated on writeback and
        on vector->core moves).  Returns the memory events performed, for the
        timing model and the cache hierarchy.
        """
        handler = self._DISPATCH.get(type(instr))
        if handler is None:
            raise ExecutionError(f"unknown vector instruction {instr!r}")
        event = handler(self, instr, regs, memory)
        if self.fault_hook is not None:
            self.fault_hook(instr, self.q)
        if self.observer is not None:
            self.observer.emit(
                EventKind.NEON_DISPATCH,
                instructions=1, source="architectural", op=type(instr).__name__,
            )
        return [event] if event is not None else []

    # ------------------------------------------------------------------
    def run(
        self,
        instrs: list[VInstr],
        regs: list[int],
        memory: MainMemory,
    ) -> list[VMemEvent]:
        """Execute a burst of vector instructions; returns all memory events.

        Used by the DSA's functional-equivalence verification: the burst runs
        against a memory snapshot with a private register file.
        """
        events: list[VMemEvent] = []
        for instr in instrs:
            events.extend(self.execute(instr, regs, memory))
        return events
