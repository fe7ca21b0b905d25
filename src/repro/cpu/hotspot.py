"""Hot-region detection for the compiled execution tier.

The record-free fast loop counts taken backward branches per target index;
once a target reaches :data:`HOT_THRESHOLD` the region starting there is
handed to :mod:`repro.cpu.blockcompile`.  A *region* is an innermost
loop body in the predecoded stream: a straight-line run of scalar/vector
ops ending in a conditional (non-link) branch back to the head.  Anything
else — an inner branch, a halt, an indirect branch, an unknown op — makes
the region uncompilable and the head is marked so it is never probed again.

The table is deliberately dumb: two flat arrays indexed by op index, an
execution counter and a compiled-entry slot.
"""

from __future__ import annotations

from ..isa.instructions import (
    Alu,
    Branch,
    Cmp,
    FloatOp,
    Mem,
    Mov,
    Mul,
    Nop,
)
from ..isa.neon import VInstr
from ..isa.operands import Cond
from .predecode import DecodedProgram

#: taken backward branches to the same target before its region is
#: considered hot and handed to the block compiler
HOT_THRESHOLD = 8

#: never-retry marker stored in a block slot when compilation was refused
FAILED = object()

#: straight-line body classes the block compiler knows how to lower
_BODY_CLASSES = (Alu, Mov, Mul, FloatOp, Cmp, Mem, Nop, VInstr)

#: largest region (body + branch) worth compiling; beyond this the generated
#: source gets big and the interpreter's per-op overhead amortizes anyway
MAX_REGION_OPS = 96


def find_region(dec: DecodedProgram, head: int) -> tuple[int, int] | None:
    """Return ``(head, branch_idx)`` for a compilable region, else None.

    The body is ``ops[head .. branch_idx-1]`` (at least one op) and
    ``ops[branch_idx]`` is a conditional non-link branch whose assembled
    target is exactly the head.
    """
    ops = dec.ops
    n = dec.n
    if head < 0 or head >= n:
        return None
    j = head
    stop = min(n, head + MAX_REGION_OPS)
    while j < stop:
        instr = ops[j].instr
        if isinstance(instr, Branch):
            break
        if not isinstance(instr, _BODY_CLASSES):
            return None
        j += 1
    else:
        return None
    if j == head:
        return None  # the "body" would be empty
    instr = ops[j].instr
    if instr.link or instr.cond is Cond.AL:
        return None
    if not isinstance(instr.target, int):
        return None
    if instr.target != dec.base + (head << 2):
        return None
    return (head, j)


class HotspotTable:
    """Per-core hotness counters and compiled-block cache."""

    __slots__ = ("counts", "fast", "dec", "config")

    def __init__(self, dec: DecodedProgram, config):
        size = len(dec.ops)
        self.counts = [0] * size
        self.fast: list = [None] * size
        self.dec = dec
        self.config = config

    # ------------------------------------------------------------------
    def lookup_fast(self, head: int):
        """Count one loop-back at ``head``; return a compiled block, or
        None while cold / when the region is uncompilable."""
        blk = self.fast[head]
        if blk is None:
            count = self.counts[head] + 1
            self.counts[head] = count
            if count < HOT_THRESHOLD:
                return None
            from .blockcompile import compile_region

            blk = compile_region(self.dec, head, self.config)
            self.fast[head] = blk if blk is not None else FAILED
        return None if blk is FAILED else blk
