"""Covered execution: record-free retirement inside released regions.

Once an attached DSA has fully characterized a loop (see
``repro.dsa.engine``) it *covers* the PC region: instead of interpreting
one instruction per traced-loop pass and handing each a
:class:`~repro.cpu.trace.TraceRecord`, the core retires whole iterations
record-free and the DSA bulk-folds its own per-record effects
afterwards.  A covered loop is in one of three timing regimes:

* **suppressed cover** — the loop is in suppressed EXECUTE: in the traced
  world every retirement inside the region is claimed by the DSA's timing
  suppressor (architectural effect only — no cycles, no cache-model
  traffic) while the verification machinery checks each memory access
  against its per-stream stride prediction.  :func:`compile_covered`
  lowers the body once to a closure with the architectural semantics and
  the identical expected-address checks inlined, and *no* timing at all.

* **scalar cover** — the loop holds a scalar verdict (context state
  SCALAR): the traced world delivers records whose only effect is
  ``records_observed``.  The region runs through the core's own
  record-free fast loop (``Core._run_decoded_fast``) bounded to the
  ``[head_pc, end_pc]`` window — normal timing and hierarchy charges,
  inner compiled blocks dispatched as usual — which returns as soon
  as control leaves the window.

* **post-limit cover** — the loop is still in EXECUTE but the coverage
  limit has deactivated suppression: normal timing again, so it runs
  through the same windowed fast loop as scalar cover.  The DSA
  additionally folds the per-boundary iteration bumps it would have made
  (the loop reports them via ``core._region_boundaries``) and must first
  prove the skipped per-iteration stream samples are redundant — that is
  what :func:`_stride_safe` (``CoverRegion.stride_safe``) certifies
  statically.

Static eligibility lives in :func:`scan_region` (returning a
:class:`CoverRegion`); the *dynamic* re-arm conditions (single retire
hook, no guard/injector/observer, context states, resolved stride
streams) are the DSA's business — see
``DynamicSIMDAssembler._cover_hook``.  This module knows nothing about
the DSA: the suppressed runner receives expected addresses, per-iteration
gaps and a mismatch callback as plain arguments.
"""

from __future__ import annotations

from ..isa.instructions import (
    Alu,
    AluKind,
    Branch,
    BranchReg,
    Cmp,
    FloatOp,
    Halt,
    Mem,
    Mov,
    Mul,
    MulKind,
    Nop,
)
from ..isa.operands import Imm, IndexMode, Reg, ShiftKind
from ..isa.dtypes import float_to_bits
from .blockcompile import _COND_EXPR, _Unsupported, _arch_lines
from .executor import Flags, alu_compute, float_compute, mul_compute
from .hotspot import MAX_REGION_OPS

#: instruction classes a *suppressed* (codegen) cover body may contain —
#: the straight-line set the block compiler understands, minus vector ops
_STRAIGHT_BODY = (Alu, Mov, Mul, FloatOp, Cmp, Mem, Nop)


class CoverRegion:
    """Static facts about one coverable loop region."""

    __slots__ = (
        "head_idx", "end_idx", "head_pc", "end_pc", "n_ops",
        "pcs", "mem_pcs", "straight", "stride_safe", "kind_counts", "block",
    )

    def __init__(self, head_idx, end_idx, head_pc, end_pc,
                 pcs, mem_pcs, straight, stride_safe, kind_counts):
        self.head_idx = head_idx
        self.end_idx = end_idx
        self.head_pc = head_pc
        self.end_pc = end_pc
        self.n_ops = end_idx - head_idx + 1
        #: every instruction address in the region (the suppressed mode
        #: requires the DSA's suppress set to equal exactly this)
        self.pcs = pcs
        #: pcs of memory ops in program order (suppressed mode checks one
        #: expected address per entry per iteration)
        self.mem_pcs = mem_pcs
        #: True when the body is straight-line with a conditional end
        #: branch — the shape :func:`compile_covered` can lower
        self.straight = straight
        #: True when every memory op's per-iteration address delta is
        #: provably the same constant on every iteration (see
        #: :func:`_stride_safe`) — the condition for releasing *post-limit*
        #: EXECUTE stretches without replaying stream sample appends
        self.stride_safe = stride_safe
        #: kind_name -> static occurrences per iteration (icounts folding)
        self.kind_counts = kind_counts
        #: compiled suppressed runner, attached by :func:`compile_covered`
        self.block = None


#: abstract value classes over the iteration index k, for a value sequence
#: v_k observed at one program point on successive iterations
_INV = 0      # v_k identical every iteration
_AFFINE = 1   # v_k = v_0 + c*k for some iteration-independent c
_VARY = 2     # anything else


def _stride_safe(body) -> bool:
    """Prove every memory op's address advances by a per-iteration constant.

    ``body`` is the straight-line op list *excluding* the end branch, so
    every op executes unconditionally exactly once per iteration and a
    forward pass sees each register's defining chain in order.  Values at
    each point are classified over the iteration index as invariant,
    affine (constant per-iteration delta), or varying.  Loop-carried
    entry state is seeded soundly: a register never written in the body
    is invariant; one written only by self-increments of invariant
    amounts (``add/sub r, r, <inv>`` or load/store writeback) enters
    affine; anything else enters varying — recomputed-per-iteration
    registers recover inside the body when their defining chain starts
    from a kill (``mov r, #imm``).  Affinity survives add/sub/mvn, a
    multiply with one invariant factor, and LSL by an invariant amount;
    loads, non-affine bit ops, and affine-times-affine do not.

    When every effective address is invariant-or-affine, the traced
    world's per-iteration stream sample appends would all continue the
    exact observed stride, so skipping them cannot change any later
    ``gap()`` or ``samples[0]`` read (the gap computation tolerates
    iteration holes by construction).
    """
    written: dict[int, list] = {}
    for op in body:
        instr = op.instr
        if isinstance(instr, (Cmp, Nop)):
            continue
        if isinstance(instr, Mem):
            if instr.addr.mode is not IndexMode.OFFSET:
                written.setdefault(instr.addr.base.index, []).append(instr)
            if instr.is_load:
                written.setdefault(instr.rd.index, []).append(instr)
            continue
        written.setdefault(instr.rd.index, []).append(instr)

    def entry_affine(idx: int) -> bool:
        # every writer is a self-increment by a body-invariant amount
        for instr in written[idx]:
            if isinstance(instr, Mem):  # writeback
                if instr.addr.base.index != idx or not _inv_op2(instr.addr.offset, written):
                    return False
                if instr.is_load and instr.rd.index == idx:
                    return False  # the loaded value clobbers the stride
            elif not (
                isinstance(instr, Alu)
                and instr.kind in (AluKind.ADD, AluKind.SUB)
                and instr.rd.index == idx
                and instr.rn.index == idx
                and _inv_op2(instr.op2, written)
            ):
                return False
        return True

    cls: dict[int, int] = {}
    for op in body:
        instr = op.instr
        if isinstance(instr, (Cmp, Nop)):
            continue
        for reg in instr.regs_written():
            if reg.index not in cls:
                cls[reg.index] = (
                    _INV if reg.index not in written
                    else _AFFINE if entry_affine(reg.index)
                    else _VARY
                )

    def rc(reg) -> int:
        idx = reg.index
        c = cls.get(idx)
        if c is None:
            c = cls[idx] = _INV if idx not in written else _VARY
        return c

    def oc(op2) -> int:
        if isinstance(op2, Imm):
            return _INV
        if isinstance(op2, Reg):
            return rc(op2)
        c = rc(op2.reg)
        if op2.kind is ShiftKind.LSL:
            return c  # (v0 + c*k) << s keeps a constant delta
        return c if c is _INV else _VARY

    def mulc(a: int, b: int) -> int:
        if a == _INV and b == _INV:
            return _INV
        if max(a, b) == _AFFINE and min(a, b) == _INV:
            return _AFFINE  # one affine factor scaled by a constant
        return _VARY

    for op in body:
        instr = op.instr
        if isinstance(instr, (Cmp, Nop)):
            continue
        if isinstance(instr, Mem):
            base_c = rc(instr.addr.base)
            off_c = oc(instr.addr.offset)
            addr_c = base_c if instr.addr.mode is IndexMode.POST else max(base_c, off_c)
            if addr_c > _AFFINE:
                return False
            if instr.addr.writes_back:
                cls[instr.addr.base.index] = max(base_c, off_c)
            if instr.is_load:
                cls[instr.rd.index] = _VARY
        elif isinstance(instr, Mov):
            cls[instr.rd.index] = oc(instr.op2)  # mvn negates: still affine
        elif isinstance(instr, Alu):
            a, b = rc(instr.rn), oc(instr.op2)
            if instr.kind in (AluKind.ADD, AluKind.SUB, AluKind.RSB):
                c = max(a, b)
            elif instr.kind is AluKind.LSL:
                c = a if b == _INV else _VARY
            else:  # and/orr/eor/bic/lsr/asr/min/max: not affine-preserving
                c = _INV if max(a, b) == _INV else _VARY
            cls[instr.rd.index] = c
        elif isinstance(instr, Mul):
            if instr.kind in (MulKind.SDIV, MulKind.UDIV):
                # integer division is not affine-preserving
                c = _INV if max(rc(instr.rn), rc(instr.rm)) == _INV else _VARY
            else:
                c = mulc(rc(instr.rn), rc(instr.rm))
                if instr.ra is not None:  # mla accumulates
                    c = max(c, rc(instr.ra))
            cls[instr.rd.index] = c
        elif isinstance(instr, FloatOp):
            # float rounding breaks exact affinity; only invariance survives
            c = _INV if max(rc(instr.rn), rc(instr.rm)) == _INV else _VARY
            cls[instr.rd.index] = c
        else:
            return False  # unexpected op class: be conservative
    return True


def _inv_op2(op2, written: dict) -> bool:
    """A body-invariant amount: immediate, unwritten register, or a shift
    of an unwritten register (any fixed shift of a constant is constant)."""
    if isinstance(op2, Imm):
        return True
    if isinstance(op2, Reg):
        return op2.index not in written
    return op2.reg.index not in written


def scan_region(dec, head_pc: int, end_pc: int) -> CoverRegion | None:
    """Validate ``[head_pc, end_pc]`` as a coverable region.

    Returns ``None`` unless the op at ``end_pc`` is a non-link branch
    whose static target is exactly ``head_pc`` and every body op is
    either straight-line lane math (suppressed-eligible) or, for scalar
    cover, additionally a forward branch / a backward branch to the head
    / HALT / a vector op.  Backward branches to any *other* target are
    rejected outright: in the traced world they fire loop detection,
    which a record-free runner could not replicate.
    """
    base = dec.base
    head = (head_pc - base) >> 2
    end = (end_pc - base) >> 2
    if (
        head < 0
        or end >= dec.n
        or end <= head
        or head_pc != base + (head << 2)
        or end_pc != base + (end << 2)
        or end - head + 1 > MAX_REGION_OPS
    ):
        return None
    ops = dec.ops
    endi = ops[end].instr
    if not isinstance(endi, Branch) or endi.link or ops[end].branch_target != head_pc:
        return None
    straight = endi.cond in _COND_EXPR  # conditional, lowerable
    mem_pcs: list[int] = []
    kind_counts: dict[str, int] = {}
    for i in range(head, end + 1):
        op = ops[i]
        kind_counts[op.kind_name] = kind_counts.get(op.kind_name, 0) + 1
        if i == end:
            continue
        instr = op.instr
        if isinstance(instr, Mem):
            mem_pcs.append(op.pc)
            continue
        if isinstance(instr, _STRAIGHT_BODY):
            continue
        straight = False
        if isinstance(instr, Branch):
            target = op.branch_target
            if instr.link or target is None or (target < op.pc and target != head_pc):
                return None
            continue
        if isinstance(instr, Halt) or op.is_vector:
            continue
        if isinstance(instr, BranchReg):
            return None
        return None
    body = [ops[i] for i in range(head, end)]
    return CoverRegion(
        head, end, head_pc, end_pc,
        frozenset(range(head_pc, end_pc + 4, 4)),
        tuple(mem_pcs), straight,
        straight and _stride_safe(body), kind_counts,
    )


# ----------------------------------------------------------------------
# suppressed cover: architectural semantics + address checks, zero timing
# ----------------------------------------------------------------------
def compile_covered(dec, region: CoverRegion):
    """Compile the suppressed runner for a straight region (or ``None``).

    The generated closure executes whole iterations — architectural
    effects only, mirroring ``blockcompile._arch_lines`` — while checking
    every memory op's effective address against the expected stride
    trajectory (``exps[m] + iters * gaps[m]``).  A mismatch sets ``bad``
    and invokes ``on_mismatch()`` once per deviating access, exactly as
    the DSA's per-record verification would, then finishes the iteration
    and stops.  Signature of the result::

        runner(core, seq, limit, budget, exps, gaps, on_mismatch)
            -> (seq, taken, iters, bad)

    Faults restore the architected position via the same
    ``core._block_fault`` protocol the compiled blocks use.
    """
    if not region.straight:
        return None
    ops = dec.ops
    body = [ops[i] for i in range(region.head_idx, region.end_idx + 1)]
    n = region.n_ops
    ns: dict = {
        "alu_compute": alu_compute,
        "mul_compute": mul_compute,
        "float_compute": float_compute,
        "float_to_bits": float_to_bits,
        "F": Flags,
    }

    body_lines: list[str] = []
    mem_no = 0
    try:
        for j, op in enumerate(body[:-1]):
            is_mem = isinstance(op.instr, Mem)
            if is_mem:
                body_lines.append(f"_k = {j}")
            body_lines.extend(_arch_lines(op, j, ns))
            if is_mem:
                # check after the access, like the retire-time record the
                # traced world verifies; _ea still holds this op's address
                body_lines.append(f"if _ea != _e{mem_no}:")
                body_lines.append("    bad = True")
                body_lines.append("    on_mismatch()")
                body_lines.append(f"_e{mem_no} += _g{mem_no}")
                mem_no += 1
    except _Unsupported:
        return None
    cond = _COND_EXPR[body[-1].instr.cond].format(f="flags")
    body_lines.append(f"taken = {cond}")
    body_lines.append("iters += 1")
    body_lines.append(f"seq += {n}")
    body_lines.append("if bad or not taken:")
    body_lines.append("    break")

    lines = [
        "def __covered_run__(core, seq, limit, budget, exps, gaps, on_mismatch):",
        "    regs = core.regs",
        "    flags = core.flags",
        "    memory = core.memory",
        "    mem_write = memory.write",
        "    mem_read = memory.read_value",
    ]
    for m in range(len(region.mem_pcs)):
        lines.append(f"    _e{m} = exps[{m}]")
        lines.append(f"    _g{m} = gaps[{m}]")
    lines += [
        "    iters = 0",
        "    bad = False",
        "    taken = True",
        "    _k = 0",
        "    try:",
        f"        while iters < budget and seq + {n} <= limit:",
    ]
    lines += ["            " + ln for ln in body_lines]
    lines += [
        "    except BaseException:",
        "        core._block_fault = (iters, _k)",
        "        raise",
        "    finally:",
        "        core.flags = flags",
        "    return seq, taken, iters, bad",
    ]
    src = "\n".join(lines) + "\n"
    code = compile(src, f"<covered block 0x{region.head_pc:x}>", "exec")
    exec(code, ns)
    region.block = ns["__covered_run__"]
    return region.block
