"""Compiled execution tier: hot loop bodies lowered to fused closures.

:mod:`repro.cpu.hotspot` finds innermost loop regions (a straight-line body
ending in a conditional branch back to the head); this module compiles each
region *once* into a single Python function executing one whole guest
iteration — body plus loop branch — per host dispatch, looping while the
branch stays taken.  Blocks run from the record-free fast loop only (no
retire hooks, no suppressor), so architectural semantics and the timing
scoreboard are both fully inlined.  Scoreboard state lives in locals for
the whole block and is written back through one
``TimingModel.block_commit`` call; per-op instruction counts are
reconstructed from the iteration count on exit.  Faults restore the exact
architected state of the faulting op via the ``core._block_fault``
protocol (see ``Core._run_decoded_fast``).

Results are pinned by the golden run matrix (``tests/golden_runs.json``),
which every execution tier must reproduce bit for bit.

The generated source intentionally mirrors ``TimingModel._issue_slot`` /
``charge_scalar_decoded`` / ``charge_vector_decoded`` line for line; any
change there must be reflected here (the golden matrix will catch a
mismatch, since cycle counts feed the serialized RunResult).
"""

from __future__ import annotations

from ..isa.instructions import (
    Alu,
    AluKind,
    Cmp,
    CmpKind,
    FloatOp,
    Mem,
    Mov,
    Mul,
    MulKind,
    Nop,
)
from ..isa.operands import Cond, Imm, IndexMode, Reg, ShiftedReg, ShiftKind
from ..isa.dtypes import float_to_bits, to_u32
from .executor import Flags, alu_compute, float_compute, mul_compute
from .hotspot import find_region
from .predecode import DecodedProgram

_M = 4294967295   # 32-bit mask
_S = 2147483648   # sign bit


class _Unsupported(Exception):
    """Internal: the region contains something the compiler cannot lower."""


class CompiledBlock:
    """One compiled region plus the static facts the dispatcher needs."""

    __slots__ = ("run", "head_idx", "head_pc", "exit_idx", "exit_pc", "n_ops")

    def __init__(self, run, head_idx, head_pc, exit_idx, exit_pc, n_ops):
        self.run = run
        self.head_idx = head_idx
        self.head_pc = head_pc
        self.exit_idx = exit_idx
        self.exit_pc = exit_pc
        self.n_ops = n_ops


# ----------------------------------------------------------------------
# expression helpers
# ----------------------------------------------------------------------
_COND_EXPR = {
    Cond.EQ: "{f}.z",
    Cond.NE: "not {f}.z",
    Cond.LT: "{f}.n != {f}.v",
    Cond.GE: "{f}.n == {f}.v",
    Cond.GT: "(not {f}.z) and {f}.n == {f}.v",
    Cond.LE: "{f}.z or {f}.n != {f}.v",
    Cond.LO: "not {f}.c",
    Cond.HS: "{f}.c",
    Cond.MI: "{f}.n",
    Cond.PL: "not {f}.n",
}

_ALU_INLINE = {
    AluKind.ADD: "({a} + {b}) & 4294967295",
    AluKind.SUB: "({a} - {b}) & 4294967295",
    AluKind.RSB: "({b} - {a}) & 4294967295",
    AluKind.AND: "{a} & {b}",
    AluKind.ORR: "{a} | {b}",
    AluKind.EOR: "{a} ^ {b}",
    AluKind.BIC: "{a} & ({b} ^ 4294967295)",
}


def _op2_expr(op2, out, tmp):
    """Append lines evaluating a flexible second operand; return its expr."""
    if isinstance(op2, Imm):
        return str(to_u32(op2.value))
    if isinstance(op2, Reg):
        return f"regs[{op2.index}]"
    if isinstance(op2, ShiftedReg):
        i, kind, amount = op2.reg.index, op2.kind, op2.amount
        if amount == 0:
            return f"regs[{i}]"
        if kind is ShiftKind.LSL:
            return f"((regs[{i}] << {amount}) & 4294967295)" if amount < 32 else "0"
        if kind is ShiftKind.LSR:
            return f"(regs[{i}] >> {amount})" if amount < 32 else "0"
        if kind is ShiftKind.ASR:
            s = min(amount, 31)
            out.append(f"{tmp} = regs[{i}]")
            return f"((({tmp} - (({tmp} & {_S}) << 1)) >> {s}) & {_M})"
    raise _Unsupported(f"operand2 {op2!r}")


def _flag_ctor(r, c_expr, v_expr):
    """``Flags(...)`` constructor source for a result in variable ``r``."""
    return f"F({r} >= {_S}, {r} == 0, {c_expr}, {v_expr})"


def _arch_lines(op, j, ns):
    """Architectural semantics of one body op as source lines; the current
    Flags object lives in the local ``flags``."""
    instr = op.instr
    out: list[str] = []
    if isinstance(instr, Alu):
        kind, rd, rn = instr.kind, instr.rd.index, instr.rn.index
        b = _op2_expr(instr.op2, out, "_b")
        if not instr.sets_flags:
            tmpl = _ALU_INLINE.get(kind)
            if tmpl is not None:
                out.append(f"regs[{rd}] = " + tmpl.format(a=f"regs[{rn}]", b=b))
            else:
                ns[f"K{j}"] = kind
                out.append(f"regs[{rd}] = alu_compute(K{j}, regs[{rn}], {b})")
            return out
        out.append(f"_a = regs[{rn}]")
        out.append(f"_b = {b}")
        if kind is AluKind.ADD:
            out.append("_w = _a + _b")
            out.append(f"_r = _w & {_M}")
            out.append(f"regs[{rd}] = _r")
            out.append("flags = " + _flag_ctor(
                "_r", f"_w > {_M}",
                f"((_a ^ _b ^ {_M}) & (_a ^ _r) & {_S}) != 0"))
        elif kind is AluKind.SUB:
            out.append(f"_r = (_a - _b) & {_M}")
            out.append(f"regs[{rd}] = _r")
            out.append("flags = " + _flag_ctor(
                "_r", "_a >= _b", f"((_a ^ _b) & (_a ^ _r) & {_S}) != 0"))
        elif kind is AluKind.RSB:
            out.append(f"_r = (_b - _a) & {_M}")
            out.append(f"regs[{rd}] = _r")
            out.append("flags = " + _flag_ctor(
                "_r", "_b >= _a", f"((_b ^ _a) & (_b ^ _r) & {_S}) != 0"))
        else:
            tmpl = _ALU_INLINE.get(kind)
            if tmpl is not None:
                out.append("_r = " + tmpl.format(a="_a", b="_b"))
            else:
                ns[f"K{j}"] = kind
                out.append(f"_r = alu_compute(K{j}, _a, _b)")
            out.append(f"regs[{rd}] = _r")
            out.append("flags = " + _flag_ctor("_r", "flags.c", "flags.v"))
        return out
    if isinstance(instr, Mov):
        rd = instr.rd.index
        b = _op2_expr(instr.op2, out, "_b")
        if instr.negate:
            out.append(f"regs[{rd}] = {b} ^ {_M}")
        else:
            out.append(f"regs[{rd}] = {b}")
        return out
    if isinstance(instr, Mul):
        kind, rd, rn, rm = instr.kind, instr.rd.index, instr.rn.index, instr.rm.index
        if kind is MulKind.MUL:
            out.append(f"regs[{rd}] = (regs[{rn}] * regs[{rm}]) & {_M}")
        elif kind is MulKind.MLA:
            ra = instr.ra.index
            out.append(
                f"regs[{rd}] = (regs[{rn}] * regs[{rm}] + regs[{ra}]) & {_M}"
            )
        else:
            ns[f"K{j}"] = kind
            ra = instr.ra.index if instr.ra is not None else None
            acc = f"regs[{ra}]" if ra is not None else "0"
            out.append(f"regs[{rd}] = mul_compute(K{j}, regs[{rn}], regs[{rm}], {acc})")
        return out
    if isinstance(instr, FloatOp):
        ns[f"K{j}"] = instr.kind
        out.append(
            f"regs[{instr.rd.index}] = float_compute("
            f"K{j}, regs[{instr.rn.index}], regs[{instr.rm.index}])"
        )
        return out
    if isinstance(instr, Cmp):
        kind, rn = instr.kind, instr.rn.index
        b = _op2_expr(instr.op2, out, "_b")
        out.append(f"_a = regs[{rn}]")
        out.append(f"_b = {b}")
        if kind is CmpKind.CMP:
            out.append(f"_r = (_a - _b) & {_M}")
            out.append("flags = " + _flag_ctor(
                "_r", "_a >= _b", f"((_a ^ _b) & (_a ^ _r) & {_S}) != 0"))
        elif kind is CmpKind.CMN:
            out.append("_w = _a + _b")
            out.append(f"_r = _w & {_M}")
            out.append("flags = " + _flag_ctor(
                "_r", f"_w > {_M}",
                f"((_a ^ _b ^ {_M}) & (_a ^ _r) & {_S}) != 0"))
        else:  # TST
            out.append("_r = _a & _b")
            out.append("flags = " + _flag_ctor("_r", "flags.c", "flags.v"))
        return out
    if isinstance(instr, Mem):
        return _mem_lines(instr, j, ns, out)
    if isinstance(instr, Nop):
        return out
    raise _Unsupported(f"cannot lower {instr!r}")


def _mem_lines(instr: Mem, j, ns, out):
    # same ordering as the predecode closures: ea and new_base are both
    # computed from the *old* base, the access happens, and the base is
    # written back last — so rd == base keeps the same aliasing behaviour
    bidx = instr.addr.base.index
    mode = instr.addr.mode
    size = instr.dtype.size
    off = _op2_expr(instr.addr.offset, out, "_b")
    out.append(f"_base = regs[{bidx}]")
    if mode is IndexMode.OFFSET:
        out.append(f"_ea = (_base + {off}) & {_M}")
        wb = None
    elif mode is IndexMode.PRE:
        out.append(f"_ea = (_base + {off}) & {_M}")
        wb = f"regs[{bidx}] = _ea"
    else:  # POST
        out.append("_ea = _base")
        wb = f"regs[{bidx}] = (_base + {off}) & {_M}"
    if instr.is_store:
        mask = (1 << (size * 8)) - 1
        out.append(
            f"mem_write(_ea, (regs[{instr.rd.index}] & {mask})"
            f'.to_bytes({size}, "little"))'
        )
    else:
        ns[f"D{j}"] = instr.dtype
        if instr.dtype.is_float:
            out.append(
                f"regs[{instr.rd.index}] = float_to_bits(float(mem_read(_ea, D{j})))"
            )
        else:
            out.append(f"regs[{instr.rd.index}] = mem_read(_ea, D{j}) & {_M}")
    if wb is not None:
        out.append(wb)
    return out


# ----------------------------------------------------------------------
# inlined timing (mirrors TimingModel exactly)
# ----------------------------------------------------------------------
def _issue_lines(op, width, out, reads_flags=False):
    """Inline ``_issue_slot(earliest)``: leaves the issue cycle in ``_e``."""
    reads = op.read_idx
    if reads_flags:
        out.append("_e = flags_ready")
    elif not reads:
        out.append("_e = 0")
    else:
        out.append(f"_e = ready[{reads[0]}]")
        for r in reads[1:]:
            out.append(f"_t = ready[{r}]")
            out.append("if _t > _e:")
            out.append("    _e = _t")
    out.append("if now > _e:")
    out.append("    _e = now")
    out.append(f"if _e == slot_cycle and slots_used < {width}:")
    out.append("    slots_used += 1")
    out.append("else:")
    out.append("    if slots_used:")
    out.append("        _t = slot_cycle + 1")
    out.append("        if _t > _e:")
    out.append("            _e = _t")
    out.append("    slot_cycle = _e")
    out.append("    slots_used = 1")
    out.append("now = _e")


def _scalar_timing_lines(op, config, out, is_mem=False, is_branch=False):
    """Inline ``charge_scalar_decoded`` against scoreboard locals."""
    _issue_lines(op, config.issue_width, out, reads_flags=op.reads_flags)
    out.append(f"_comp = _e + {op.latency} + _ml" if is_mem else f"_comp = _e + {op.latency}")
    wbi = op.wb_index
    for w in op.write_idx:
        out.append(f"ready[{w}] = _e + 1" if w == wbi else f"ready[{w}] = _comp")
    if op.sets_flags:
        out.append("flags_ready = _comp")
    out.append("if _comp > last_completion:")
    out.append("    last_completion = _comp")
    if is_branch:
        # backward branch, statically predicted taken: the only mispredict
        # is the final not-taken exit
        out.append("if not taken:")
        out.append("    mispredicts += 1")
        out.append(f"    _t = _e + {1 + config.mispredict_penalty}")
        out.append("    if _t > now:")
        out.append("        now = _t")
        out.append("    slot_cycle = -1")
        out.append("    slots_used = 0")


def _vector_timing_lines(op, config, out):
    """Inline ``charge_vector_decoded`` against scoreboard locals."""
    _issue_lines(op, config.issue_width, out)
    out.append("_s = _e")
    out.append("if neon_next_issue > _s:")
    out.append("    _s = neon_next_issue")
    for q in op.q_read_idx:
        out.append(f"_t = q_ready[{q}]")
        out.append("if _t > _s:")
        out.append("    _s = _t")
    out.append("if not neon_burst_open:")
    out.append(f"    _s += {config.vector.pipeline_depth}")
    out.append("    neon_burst_open = True")
    out.append("neon_next_issue = _s + 1")
    out.append(f"_comp = _s + {op.latency} + _ml")
    for q in op.q_write_idx:
        out.append(f"q_ready[{q}] = _comp")
    for w in op.write_idx:
        out.append(f"ready[{w}] = _s + 1" if op.v_is_mem else f"ready[{w}] = _comp")
    out.append("if _comp > last_completion:")
    out.append("    last_completion = _comp")


# ----------------------------------------------------------------------
# lowering
# ----------------------------------------------------------------------
def _gen_fast(dec: DecodedProgram, head: int, br: int, config):
    ops = dec.ops
    region = [ops[i] for i in range(head, br + 1)]
    branch_op = region[-1]
    cond = branch_op.instr.cond
    cond_expr = _COND_EXPR.get(cond)
    if cond_expr is None:
        raise _Unsupported(f"condition {cond!r}")
    n = len(region)
    has_vector = any(op.is_vector for op in region)
    sc_total = sum(1 for op in region if not op.is_vector)
    v_total = n - sc_total
    # retired-op prefix counts by tier, indexed by the fault marker _k
    pref_sc = [0] * (n + 1)
    pref_v = [0] * (n + 1)
    for i, op in enumerate(region):
        pref_sc[i + 1] = pref_sc[i] + (0 if op.is_vector else 1)
        pref_v[i + 1] = pref_v[i] + (1 if op.is_vector else 0)

    ns = {
        "F": Flags,
        "alu_compute": alu_compute,
        "mul_compute": mul_compute,
        "float_compute": float_compute,
        "float_to_bits": float_to_bits,
        "PREF_SC": tuple(pref_sc),
        "PREF_V": tuple(pref_v),
    }

    body: list[str] = []
    for j, op in enumerate(region[:-1]):
        instr = op.instr
        if op.is_vector:
            ns[f"I{j}"] = instr
            body.append(f"_k = {j}")
            body.append(f"_acc = neon_exec(I{j}, regs, memory)")
            body.append("_ml = 0")
            body.append("for _a in _acc:")
            body.append("    _ml += hierarchy_access(_a.addr, _a.nbytes, _a.is_write)")
            body.append("mem_stall += _ml")
            _vector_timing_lines(op, config, body)
            continue
        if isinstance(instr, Mem):
            body.append(f"_k = {j}")
            body.extend(_arch_lines(op, j, ns))
            body.append(f"_ml = hierarchy_access(_ea, {instr.dtype.size}, {instr.is_store})")
            body.append("mem_stall += _ml")
            _scalar_timing_lines(op, config, body, is_mem=True)
            continue
        body.extend(_arch_lines(op, j, ns))
        _scalar_timing_lines(op, config, body)
    body.append("taken = " + cond_expr.format(f="flags"))
    _scalar_timing_lines(branch_op, config, body, is_branch=True)
    body.append("iters += 1")
    body.append(f"seq += {n}")
    body.append("if not taken:")
    body.append("    break")

    lines = [
        "def __block_run__(core, seq, limit):",
        "    regs = core.regs",
        "    flags = core.flags",
        "    memory = core.memory",
        "    mem_write = memory.write",
        "    mem_read = memory.read_value",
        "    hierarchy_access = core.hierarchy.access",
        "    timing = core.timing",
        "    ready = timing._reg_ready",
    ]
    if has_vector:
        lines.append("    q_ready = timing._q_ready")
        lines.append("    neon_exec = core.vector.execute")
    lines += [
        "    (now, slot_cycle, slots_used, flags_ready, last_completion,",
        "     neon_next_issue, neon_burst_open) = timing.block_entry_state()",
        "    mem_stall = 0",
        "    mispredicts = 0",
        "    iters = 0",
        "    extra_sc = 0",
        "    extra_v = 0",
        "    _k = 0",
        "    taken = True",
        "    try:",
        f"        while seq + {n} <= limit:",
    ]
    lines += ["            " + ln for ln in body]
    lines += [
        "    except BaseException:",
        "        core._block_fault = (iters, _k)",
        "        extra_sc = PREF_SC[_k]",
        "        extra_v = PREF_V[_k]",
        "        raise",
        "    finally:",
        "        core.flags = flags",
        "        timing.block_commit(",
        "            now, slot_cycle, slots_used, flags_ready, last_completion,",
        "            neon_next_issue, neon_burst_open,",
        f"            iters * {sc_total} + extra_sc, iters * {v_total} + extra_v,",
        "            mem_stall, mispredicts)",
        "    return seq, taken, iters",
    ]
    return "\n".join(lines) + "\n", ns


# ----------------------------------------------------------------------
def compile_region(dec: DecodedProgram, head: int, config):
    """Compile the region at ``head``, or None if refused."""
    region = find_region(dec, head)
    if region is None:
        return None
    head, br = region
    try:
        src, ns = _gen_fast(dec, head, br, config)
    except _Unsupported:
        return None
    head_pc = dec.base + (head << 2)
    code = compile(src, f"<compiled block 0x{head_pc:x}>", "exec")
    exec(code, ns)
    return CompiledBlock(
        run=ns["__block_run__"],
        head_idx=head,
        head_pc=head_pc,
        exit_idx=br + 1,
        exit_pc=dec.base + ((br + 1) << 2),
        n_ops=br - head + 1,
    )
