"""Static vectorizers: the two baselines the paper compares DSA against.

``AutoVectorizer`` models the ARM NEON auto-vectorizing compiler: it claims
counted loops with *compile-time* trip counts, affine unit-stride accesses,
uniform element width, no conditionals, no calls, and provably disjoint
reads/writes (paper, Table 1).  Loops that are clean but have a runtime trip
count or an unprovable dependency get a *versioning guard*: the compiler
emits a runtime check that falls back to the scalar loop — the source of the
small slowdowns the paper reports for ARM auto-vectorization on Dijkstra and
QSort (Article 1, Fig. 12).

``HandVectorizer`` models a programmer using the ARM NEON intrinsics
library: wider coverage (runtime trip counts, if/else conversion through
VBSL), but per-loop library glue overhead and element-wise leftovers; still
*static* knowledge only, so sentinel loops and ranges computed inside the
loop body remain scalar (paper, Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CompilerError
from ..isa.dtypes import DType
from .analysis import AffineIndex, analyze_loop, split_affine
from .ir import (
    Binary,
    BinOp,
    Compare,
    Const,
    Expr,
    For,
    If,
    Let,
    Load,
    Stmt,
    Store,
    UnOp,
    Unary,
    Var,
)

_VBIN = {
    BinOp.ADD: "vadd",
    BinOp.SUB: "vsub",
    BinOp.MUL: "vmul",
    BinOp.AND: "vand",
    BinOp.OR: "vorr",
    BinOp.XOR: "veor",
    BinOp.MIN: "vmin",
    BinOp.MAX: "vmax",
}

_VCMP = {
    "<": "vclt",
    "<=": "vcle",
    ">": "vcgt",
    ">=": "vcge",
    "==": "vceq",
}


@dataclass
class LoopDecision:
    """Why a loop was or was not vectorized (kept for tests/reports)."""

    loop_var: str
    vectorized: bool
    reason: str


@dataclass
class _Stream:
    """One unit-stride memory stream inside a vectorized loop."""

    array: str
    index: AffineIndex
    index_expr: Expr
    pointer_reg: int
    is_store: bool = False


class _Bailout(Exception):
    """Internal: abandon vector emission and fall back to the scalar loop."""


class AutoVectorizer:
    """The NEON auto-vectorization compiler baseline."""

    name = "autovec"
    #: emit a runtime-versioning guard for clean-but-unprovable loops
    emits_guards = True
    #: handle runtime (type A dynamic range) trip counts
    handles_dynamic_range = False
    #: convert if/else bodies through compare+select
    handles_conditionals = False
    #: extra instructions charged per vectorized loop entry (library glue)
    glue_instructions = 0
    #: maximum distinct memory streams before giving up
    max_streams = 4

    def __init__(self) -> None:
        self.decisions: list[LoopDecision] = []

    # ------------------------------------------------------------------
    def try_vectorize(self, loop: For, low) -> bool:
        """Attempt to emit NEON code for ``loop`` via the lowerer ``low``."""
        reason = self._rejection_reason(loop, low)
        if reason is not None:
            if self.emits_guards and reason in ("dynamic trip count", "unprovable dependency"):
                self._emit_guard(loop, low)
                low.guarded_loops.append(loop.var)
            self.decisions.append(LoopDecision(loop.var, False, reason))
            return False
        snapshot = len(low.lines)
        scope = low.scope
        scope_state = (
            scope.next_named,
            dict(scope.regs),
            dict(scope.spills),
            scope.next_spill,
            list(scope.free_named),
        )
        try:
            self._emit_vector_loop(loop, low)
        except (_Bailout, CompilerError) as exc:
            # roll back both the emitted lines and any registers the
            # emitter bound, so the scalar fallback is not starved
            del low.lines[snapshot:]
            scope.next_named = scope_state[0]
            scope.regs = scope_state[1]
            scope.spills = scope_state[2]
            scope.next_spill = scope_state[3]
            scope.free_named = scope_state[4]
            self.decisions.append(LoopDecision(loop.var, False, str(exc)))
            return False
        self.decisions.append(LoopDecision(loop.var, True, "vectorized"))
        return True

    # ------------------------------------------------------------------
    def _rejection_reason(self, loop: For, low) -> str | None:
        feats = analyze_loop(loop, low.kernel)
        if loop.step != 1:
            return "non-unit step"
        if feats.has_inner_loop or feats.has_while:
            return "nested loop"
        if feats.has_call:
            return "function call in body"
        if feats.has_if and not self.handles_conditionals:
            return "conditional body"
        if feats.has_if and not self._conditional_supported(loop):
            return "unsupported conditional shape"
        if feats.mixed_element_width:
            return "mixed element widths"
        if feats.non_affine_access:
            return "non-affine access"
        if feats.unsupported_op:
            return "unsupported operation"
        if feats.carried_scalars:
            return "carry-around scalar"
        if feats.element_dtype is None:
            return "no array access"
        if feats.possible_cross_iteration_dep:
            return "unprovable dependency"
        if not feats.static_bounds and not self.handles_dynamic_range:
            return "dynamic trip count"
        return None

    def _conditional_supported(self, loop: For) -> bool:
        for stmt in loop.body:
            if isinstance(stmt, If):
                if not _select_pattern(stmt):
                    return False
        return True

    # ------------------------------------------------------------------
    def _emit_guard(self, loop: For, low) -> None:
        """Runtime versioning attempt that always falls back to scalar.

        Models the checks a real auto-vectorizer inserts when it multi-
        versions a loop it cannot prove safe; only the (failing) check cost
        remains, which is the paper's observed autovec penalty.
        """
        t = low.acquire_temp()
        value, is_temp = low._eval(loop.end)
        if isinstance(value, int):
            low.emit(f"mov r{t}, r{value}")
            if is_temp:
                low.release_temp(value)
        else:
            low.emit(f"mov r{t}, #{value}")
        skip = low.fresh_label("guard")
        low.emit(f"cmp r{t}, #{DType.I32.lanes}")
        low.emit(f"blt {skip}")
        low.emit(f"eor r{t}, r{t}, r{t}")
        low.emit_label(skip)
        low.release_temp(t)

    # ------------------------------------------------------------------
    # vector emission
    # ------------------------------------------------------------------
    def _emit_vector_loop(self, loop: For, low) -> None:
        feats = analyze_loop(loop, low.kernel)
        dtype = feats.element_dtype
        assert dtype is not None
        lanes = dtype.lanes
        emitter = _VectorEmitter(self, loop, low, dtype)
        emitter.plan()  # raises _Bailout when the body cannot be mapped

        self._emit_glue(low)
        emitter.emit_pointer_setup()
        emitter.emit_invariants()

        if feats.static_bounds:
            assert isinstance(loop.start, Const) and isinstance(loop.end, Const)
            trip = max(0, loop.end.value - loop.start.value)
            quads, leftover = divmod(trip, lanes)
            if quads == 0:
                emitter.release()
                raise _Bailout("trip count below one vector")
            emitter.emit_static_loop(quads)
            self._emit_glue(low)
            if leftover:
                split = loop.start.value + quads * lanes
                low.emit_scalar_for(For(loop.var, Const(split), loop.end, loop.body))
            emitter.release()
        else:
            emitter.emit_dynamic_loop()
            self._emit_glue(low)
            emitter.emit_dynamic_leftover()
            emitter.release()

    def _emit_glue(self, low) -> None:
        if self.glue_instructions:
            t = low.acquire_temp()
            for _ in range(self.glue_instructions // 2):
                low.emit(f"mov r{t}, r{t}")
                low.emit(f"eor r{t}, r{t}, #0")
            low.release_temp(t)
            low.glue_instructions += 2 * (self.glue_instructions // 2)


class HandVectorizer(AutoVectorizer):
    """The ARM NEON library (hand-coded intrinsics) baseline.

    Like the compiler, the programmer only has *static* knowledge (paper,
    Table 2: hand-code vectorization is static): loops whose trip count or
    control flow is resolved at runtime stay scalar.  What distinguishes
    hand coding is reach within the static domain — a programmer
    if-converts conditional bodies through compare+select — paid for with
    per-loop library glue (register save/restore, marshalling).
    """

    name = "handvec"
    emits_guards = False
    handles_dynamic_range = False
    handles_conditionals = True
    #: intrinsics live behind library call boundaries; model the per-loop
    #: save/restore + marshalling as a fixed instruction overhead
    glue_instructions = 12


def _select_pattern(stmt: If) -> tuple[Store, Expr] | None:
    """Match an if/else body convertible to compare+select.

    Supported shapes::

        if c: a[i] = x  else: a[i] = y     -> select(x, y)
        if c: a[i] = x                     -> select(x, a[i])

    Returns (canonical store, else-value expression) or None.
    """
    if len(stmt.then) != 1 or not isinstance(stmt.then[0], Store):
        return None
    then_store = stmt.then[0]
    if not stmt.else_:
        return then_store, Load(then_store.array, then_store.index)
    if len(stmt.else_) != 1 or not isinstance(stmt.else_[0], Store):
        return None
    else_store = stmt.else_[0]
    if else_store.array != then_store.array or str(else_store.index) != str(then_store.index):
        return None
    return then_store, else_store.value


class _VectorEmitter:
    """Emits the NEON body for one loop through the lowerer."""

    def __init__(self, vec: AutoVectorizer, loop: For, low, dtype: DType):
        self.vec = vec
        self.loop = loop
        self.low = low
        self.dtype = dtype
        self.streams: dict[tuple, _Stream] = {}
        self.q_map: dict[str, int] = {}     # expr/var key -> q register
        self.var_q: dict[str, int] = {}     # Let-defined vector locals
        self.invariants: list[tuple[Expr, int]] = []
        self.next_q = 0
        self._free_q: list[int] = []        # recycled transient registers
        self._transient: set[int] = set()   # anonymous op results in flight
        self._bound_names: list[str] = []
        self.counter_name = f"{loop.var}$vcnt"
        self.split_name = f"{loop.var}$vsplit"

    # ------------------------------------------------------------------
    def _alloc_q(self, transient: bool = True) -> int:
        if self._free_q:
            q = self._free_q.pop()
        else:
            if self.next_q >= 16:
                raise _Bailout("out of NEON registers")
            q = self.next_q
            self.next_q += 1
        if transient:
            self._transient.add(q)
        return q

    def _release_q(self, q: int) -> None:
        """Recycle an anonymous op result once its last consumer emitted."""
        if q in self._transient:
            self._transient.discard(q)
            self._free_q.append(q)

    def _bind_pointer(self, name: str) -> int:
        self.low.scope.bind(name)
        kind, home = self.low.scope.home(name)
        if kind != "reg":
            raise _Bailout("out of scalar registers for stream pointers")
        self._bound_names.append(name)
        return home

    def release(self) -> None:
        """Free the scratch registers (stream pointers, counters) bound for
        this loop — they are dead once the loop and its leftover finish."""
        for name in self._bound_names:
            self.low.scope.unbind(name)
        self._bound_names = []

    # ------------------------------------------------------------------
    # planning: walk the body once, build streams and check feasibility
    # ------------------------------------------------------------------
    def plan(self) -> None:
        self._stored_keys: set[tuple] = set()
        for stmt in self.loop.body:
            self._plan_stmt(stmt)
        if len(self.streams) > self.vec.max_streams:
            raise _Bailout(f"too many memory streams ({len(self.streams)})")
        if not any(s.is_store for s in self.streams.values()):
            raise _Bailout("no store stream")

    def _plan_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Let):
            self._plan_expr(stmt.expr)
        elif isinstance(stmt, Store):
            self._plan_expr(stmt.value)
            self._stream_for(stmt.array, stmt.index, is_store=True)
        elif isinstance(stmt, If):
            pattern = _select_pattern(stmt)
            if pattern is None:
                raise _Bailout("unsupported conditional shape")
            self._plan_expr(stmt.cond.left)
            self._plan_expr(stmt.cond.right)
            store, else_value = pattern
            self._plan_expr(store.value)
            self._plan_expr(else_value)
            self._stream_for(store.array, store.index, is_store=True)
        else:
            raise _Bailout(f"unsupported statement {type(stmt).__name__}")

    def _plan_expr(self, expr: Expr) -> None:
        if isinstance(expr, Load):
            key = self._stream_key(expr.array, expr.index)
            if key in self._stored_keys:
                raise _Bailout("load after store of the same stream")
            self._stream_for(expr.array, expr.index, is_store=False)
        elif isinstance(expr, Binary):
            self._plan_expr(expr.left)
            self._plan_expr(expr.right)
        elif isinstance(expr, Unary):
            self._plan_expr(expr.operand)
        elif isinstance(expr, Var):
            if expr.name == self.loop.var:
                raise _Bailout("loop variable used as data")
        elif isinstance(expr, Const):
            pass
        else:
            raise _Bailout(f"unsupported expression {type(expr).__name__}")

    def _stream_key(self, array: str, index: Expr) -> tuple:
        affine = split_affine(index, self.loop.var)
        if affine is None or affine.coeff != 1:
            raise _Bailout("non-unit-stride stream")
        return (array, affine.base_key, affine.const)

    def _stream_for(self, array: str, index: Expr, is_store: bool) -> _Stream:
        key = self._stream_key(array, index)
        if is_store:
            self._stored_keys.add(key)
        stream = self.streams.get(key)
        if stream is None:
            affine = split_affine(index, self.loop.var)
            assert affine is not None
            name = f"{self.loop.var}$p{len(self.streams)}"
            stream = _Stream(array, affine, index, self._bind_pointer(name))
            self.streams[key] = stream
        stream.is_store = stream.is_store or is_store
        return stream

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def emit_pointer_setup(self) -> None:
        """pointer = base + (index at var = start) * element_size."""
        low = self.low
        for stream in self.streams.values():
            dtype = low.array_dtype(stream.array)
            start_index = _substitute(stream.index_expr, self.loop.var, self.loop.start)
            idx_reg, is_temp = low._eval_to_reg(start_index)
            base = low.param_reg(stream.array)
            shift = {1: 0, 2: 1, 4: 2}[dtype.size]
            if shift:
                low.emit(f"add r{stream.pointer_reg}, r{base}, r{idx_reg}, lsl #{shift}")
            else:
                low.emit(f"add r{stream.pointer_reg}, r{base}, r{idx_reg}")
            if is_temp:
                low.release_temp(idx_reg)

    def emit_invariants(self) -> None:
        """vdup every loop-invariant scalar operand once, before the loop."""
        # handled lazily in _vec_eval; nothing to pre-compute beyond q moves

    # ------------------------------------------------------------------
    def emit_static_loop(self, quads: int) -> None:
        low = self.low
        counter = self._bind_pointer(self.counter_name)
        low.emit(f"mov r{counter}, #{quads}")
        head = low.fresh_label("vloop")
        low.emit_label(head)
        self._emit_body()
        low.emit(f"subs r{counter}, r{counter}, #1")
        low.emit(f"bgt {head}")

    def emit_dynamic_loop(self) -> None:
        """Runtime trip count: quads = (end - start) >> log2(lanes)."""
        low = self.low
        lanes = self.dtype.lanes
        shift = {2: 1, 4: 2, 8: 3, 16: 4}[lanes]
        counter = self._bind_pointer(self.counter_name)
        split = self._bind_pointer(self.split_name)
        end_reg, end_temp = low._eval_to_reg(self.loop.end)
        start_reg, start_temp = low._eval_to_reg(self.loop.start)
        low.emit(f"sub r{counter}, r{end_reg}, r{start_reg}")
        low.emit(f"asr r{counter}, r{counter}, #{shift}")
        # split = start + quads * lanes  (start of the leftover region)
        low.emit(f"lsl r{split}, r{counter}, #{shift}")
        low.emit(f"add r{split}, r{split}, r{start_reg}")
        if end_temp:
            low.release_temp(end_reg)
        if start_temp:
            low.release_temp(start_reg)
        skip = low.fresh_label("vskip")
        head = low.fresh_label("vloop")
        low.emit(f"cmp r{counter}, #0")
        low.emit(f"ble {skip}")
        low.emit_label(head)
        self._emit_body()
        low.emit(f"subs r{counter}, r{counter}, #1")
        low.emit(f"bgt {head}")
        low.emit_label(skip)

    def emit_dynamic_leftover(self) -> None:
        """Scalar loop over the runtime leftover region [split, end)."""
        low = self.low
        _, split_reg = low.scope.home(self.split_name)
        low.emit_scalar_for(
            For(self.loop.var, Var(self.split_name), self.loop.end, self.loop.body),
            start_reg=split_reg,
        )

    # ------------------------------------------------------------------
    def _emit_body(self) -> None:
        self.var_q = {}
        self._loaded: dict[tuple, int] = {}
        # loads first: every stream's pointer advances exactly once per
        # vector iteration — read-modify-write streams load without
        # writeback and let their store do the pointer bump
        for key, stream in self.streams.items():
            if not stream.is_store or self._stream_also_loaded(key):
                dtype = self.low.array_dtype(stream.array)
                q = self._q_for_key(("load",) + key)
                wb = "" if stream.is_store else "!"
                self.low.emit(f"vld1.{dtype} q{q}, [r{stream.pointer_reg}]{wb}")
                self._loaded[key] = q
        for stmt in self.loop.body:
            self._emit_vector_stmt(stmt)

    def _stream_also_loaded(self, key: tuple) -> bool:
        """A store stream whose location is also read (e.g. out[i] += ...)."""
        for stmt in self.loop.body:
            for expr in _all_exprs(stmt):
                if isinstance(expr, Load) and self._stream_key(expr.array, expr.index) == key:
                    return True
        return False

    def _q_for_key(self, key: tuple) -> int:
        if key not in self.q_map:
            self.q_map[key] = self._alloc_q(transient=False)
        return self.q_map[key]

    def _emit_vector_stmt(self, stmt: Stmt) -> None:
        low = self.low
        if isinstance(stmt, Let):
            q = self._vec_eval(stmt.expr)
            self._transient.discard(q)  # the name keeps the register alive
            self.var_q[stmt.name] = q
        elif isinstance(stmt, Store):
            q = self._vec_eval(stmt.value)
            stream = self.streams[self._stream_key(stmt.array, stmt.index)]
            dtype = low.array_dtype(stmt.array)
            low.emit(f"vst1.{dtype} q{q}, [r{stream.pointer_reg}]!")
            self._release_q(q)
        elif isinstance(stmt, If):
            pattern = _select_pattern(stmt)
            assert pattern is not None
            store, else_value = pattern
            mask_q = self._vec_compare(stmt.cond)
            then_q = self._vec_eval(store.value)
            else_q = self._vec_eval(else_value)
            # vbsl overwrites the mask register with the selection result
            low.emit(f"vbsl q{mask_q}, q{then_q}, q{else_q}")
            self._release_q(then_q)
            self._release_q(else_q)
            stream = self.streams[self._stream_key(store.array, store.index)]
            dtype = low.array_dtype(store.array)
            low.emit(f"vst1.{dtype} q{mask_q}, [r{stream.pointer_reg}]!")
            self._release_q(mask_q)
        else:  # pragma: no cover - plan() already rejected it
            raise _Bailout(f"unsupported statement {type(stmt).__name__}")

    def _vec_compare(self, cond: Compare) -> int:
        low = self.low
        left = self._vec_eval(cond.left)
        op = cond.op.value
        if op == "!=":
            right = self._vec_eval(cond.right)
            eq = self._alloc_q()
            low.emit(f"vceq.{self.dtype} q{eq}, q{left}, q{right}")
            self._release_q(left)
            self._release_q(right)
            out = self._alloc_q()
            low.emit(f"vmvn.{self.dtype} q{out}, q{eq}")
            self._release_q(eq)
            return out
        right = self._vec_eval(cond.right)
        out = self._alloc_q()
        low.emit(f"{_VCMP[op]}.{self.dtype} q{out}, q{left}, q{right}")
        self._release_q(left)
        self._release_q(right)
        return out

    def _vec_eval(self, expr: Expr) -> int:
        low = self.low
        if isinstance(expr, Load):
            key = self._stream_key(expr.array, expr.index)
            return self._loaded[key]
        if isinstance(expr, Const):
            key = ("const", expr.value)
            if key not in self.q_map:
                q = self._q_for_key(key)
                low.emit(f"vmovi.{self.dtype} q{q}, #{expr.value}")
            return self.q_map[key]
        if isinstance(expr, Var):
            if expr.name in self.var_q:
                return self.var_q[expr.name]
            # loop-invariant scalar: broadcast from its register
            key = ("dup", expr.name)
            if key not in self.q_map:
                q = self._q_for_key(key)
                kind, home = low.scope.home(expr.name)
                if kind != "reg":
                    raise _Bailout("spilled invariant")
                low.emit(f"vdup.{self.dtype} q{q}, r{home}")
            return self.q_map[key]
        if isinstance(expr, Binary):
            if expr.op in (BinOp.SHL, BinOp.SHR):
                if not isinstance(expr.right, Const):
                    raise _Bailout("variable shift amount")
                src = self._vec_eval(expr.left)
                q = self._alloc_q()
                mnem = "vshl" if expr.op is BinOp.SHL else "vshr"
                low.emit(f"{mnem}.{self.dtype} q{q}, q{src}, #{expr.right.value}")
                self._release_q(src)
                return q
            left = self._vec_eval(expr.left)
            right = self._vec_eval(expr.right)
            q = self._alloc_q()
            low.emit(f"{_VBIN[expr.op]}.{self.dtype} q{q}, q{left}, q{right}")
            self._release_q(left)
            self._release_q(right)
            return q
        if isinstance(expr, Unary):
            src = self._vec_eval(expr.operand)
            q = self._alloc_q()
            mnem = {UnOp.ABS: "vabs", UnOp.NEG: "vneg", UnOp.NOT: "vmvn"}[expr.op]
            low.emit(f"{mnem}.{self.dtype} q{q}, q{src}")
            self._release_q(src)
            return q
        raise _Bailout(f"unsupported expression {type(expr).__name__}")


# ---------------------------------------------------------------------------
# small IR utilities
# ---------------------------------------------------------------------------
def _substitute(expr: Expr, var: str, replacement: Expr) -> Expr:
    if isinstance(expr, Var) and expr.name == var:
        return replacement
    if isinstance(expr, Binary):
        return Binary(expr.op, _substitute(expr.left, var, replacement), _substitute(expr.right, var, replacement))
    if isinstance(expr, Unary):
        return Unary(expr.op, _substitute(expr.operand, var, replacement))
    if isinstance(expr, Load):
        return Load(expr.array, _substitute(expr.index, var, replacement))
    return expr


def _all_exprs(stmt: Stmt):
    """Every expression in a statement, descending into If branches."""
    from .ir import stmt_exprs

    yield from stmt_exprs(stmt)
    if isinstance(stmt, If):
        for s in stmt.then + stmt.else_:
            yield from _all_exprs(s)
