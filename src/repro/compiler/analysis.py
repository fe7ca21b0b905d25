"""Static loop analysis shared by the vectorizers and the tests.

Implements, at the IR level, the inhibiting factors of the paper's Table 1:
dynamic trip counts (line 4), carry-around scalars (line 5), cross-iteration
dependencies (line 2), non-unit access patterns (line 1), mixed element
widths (line 9), function calls (line 10), and if/switch statements
(line 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..isa.dtypes import DType
from .ir import (
    Binary,
    BinOp,
    Call,
    Const,
    Expr,
    For,
    If,
    Kernel,
    Let,
    Load,
    Stmt,
    Store,
    Var,
    While,
    stmt_exprs,
    subexprs,
    walk_stmts,
)


class LoopClass(Enum):
    """The paper's loop taxonomy (Article 3, Fig. 3 / Fig. 7)."""

    COUNT = "count"
    DYNAMIC_RANGE = "dynamic_range"
    SENTINEL = "sentinel"
    CONDITIONAL = "conditional"
    FUNCTION = "function"
    NON_VECTORIZABLE = "non_vectorizable"


@dataclass(frozen=True)
class AffineIndex:
    """An index expression decomposed as ``sum(base_terms) + coeff*var + const``."""

    base_terms: tuple[Expr, ...]
    coeff: int
    const: int

    @property
    def base_key(self) -> tuple[str, ...]:
        """A structural key for comparing invariant parts."""
        return tuple(sorted(str(t) for t in self.base_terms))


def split_affine(expr: Expr, var: str) -> AffineIndex | None:
    """Decompose an index expression as affine in ``var`` with unit stride.

    Returns None when the expression is not affine in ``var`` (indirect
    addressing, products with the loop variable, etc. — Table 1 lines 1/7).
    """
    terms = _flatten_sum(expr)
    if terms is None:
        return None
    base: list[Expr] = []
    coeff = 0
    const = 0
    for sign, term in terms:
        if isinstance(term, Var) and term.name == var:
            coeff += sign
        elif isinstance(term, Const):
            const += sign * term.value
        else:
            if _mentions_var(term, var):
                return None  # non-linear in the loop variable
            if sign < 0:
                base.append(Binary(BinOp.SUB, Const(0), term))
            else:
                base.append(term)
    return AffineIndex(tuple(base), coeff, const)


def _flatten_sum(expr: Expr) -> list[tuple[int, Expr]] | None:
    """Flatten nested +/- into signed terms; None for other top-level shapes."""
    out: list[tuple[int, Expr]] = []

    def go(e: Expr, sign: int) -> bool:
        if isinstance(e, Binary) and e.op is BinOp.ADD:
            return go(e.left, sign) and go(e.right, sign)
        if isinstance(e, Binary) and e.op is BinOp.SUB:
            return go(e.left, sign) and go(e.right, -sign)
        out.append((sign, e))
        return True

    return out if go(expr, 1) else None


def _mentions_var(expr: Expr, var: str) -> bool:
    return any(isinstance(e, Var) and e.name == var for e in subexprs(expr))


# ---------------------------------------------------------------------------
# loop feature extraction
# ---------------------------------------------------------------------------
@dataclass
class LoopFeatures:
    """Everything the vectorizers need to know about one loop."""

    static_bounds: bool = False
    trip_count: int | None = None
    has_if: bool = False
    has_call: bool = False
    has_inner_loop: bool = False
    has_while: bool = False
    carried_scalars: set[str] = field(default_factory=set)
    possible_cross_iteration_dep: bool = False
    non_affine_access: bool = False
    mixed_element_width: bool = False
    unsupported_op: bool = False
    arrays_read: set[str] = field(default_factory=set)
    arrays_written: set[str] = field(default_factory=set)
    element_dtype: DType | None = None


def analyze_loop(loop: For, kernel: Kernel) -> LoopFeatures:
    """Extract the vectorization-relevant features of a counted loop."""
    feats = LoopFeatures()
    feats.static_bounds = isinstance(loop.start, Const) and isinstance(loop.end, Const)
    if feats.static_bounds:
        assert isinstance(loop.start, Const) and isinstance(loop.end, Const)
        feats.trip_count = max(0, (loop.end.value - loop.start.value + loop.step - 1) // loop.step)

    array_dtypes: set[DType] = set()
    loads: list[tuple[str, AffineIndex | None]] = []
    stores: list[tuple[str, AffineIndex | None]] = []

    for stmt in walk_stmts(loop.body):
        if isinstance(stmt, If):
            feats.has_if = True
        elif isinstance(stmt, For):
            feats.has_inner_loop = True
        elif isinstance(stmt, While):
            feats.has_while = True
        elif isinstance(stmt, Store):
            feats.arrays_written.add(stmt.array)
            array_dtypes.add(kernel.array(stmt.array).dtype)
            stores.append((stmt.array, split_affine(stmt.index, loop.var)))
        for expr in stmt_exprs(stmt):
            if isinstance(expr, Call):
                feats.has_call = True
            elif isinstance(expr, Load):
                feats.arrays_read.add(expr.array)
                array_dtypes.add(kernel.array(expr.array).dtype)
                loads.append((expr.array, split_affine(expr.index, loop.var)))
            elif isinstance(expr, Binary) and expr.op is BinOp.SHR and not isinstance(expr.right, Const):
                feats.unsupported_op = True
            elif isinstance(expr, Binary) and expr.op is BinOp.SHL and not isinstance(expr.right, Const):
                feats.unsupported_op = True

    feats.carried_scalars = carried_scalars(loop)
    if len({dt.size for dt in array_dtypes}) > 1:
        feats.mixed_element_width = True
    if len(array_dtypes) >= 1:
        # prefer the widest signed representative for op selection
        feats.element_dtype = sorted(array_dtypes, key=lambda d: (d.size, d.is_float))[-1]

    for _, idx in loads + stores:
        if idx is None or idx.coeff not in (0, 1):
            feats.non_affine_access = True

    feats.possible_cross_iteration_dep = _cross_iteration_dep(loads, stores)
    return feats


def carried_scalars(loop: For | While) -> set[str]:
    """Local variables read before they are (re)written in an iteration.

    These are the paper's "carry-around scalar variables" (Table 1, line 5):
    reductions such as ``acc = acc + x`` cannot be vectorized lane-wise.
    Conservative: straight-line body order; reads inside nested control count
    as reads.
    """
    carried: set[str] = set()
    written: set[str] = set()
    loop_var = loop.var if isinstance(loop, For) else None

    def scan(body: list[Stmt]) -> None:
        for stmt in body:
            for expr in stmt_exprs(stmt):
                for e in subexprs(expr):
                    if isinstance(e, Var) and e.name != loop_var:
                        if e.name not in written:
                            carried.add(e.name)
            if isinstance(stmt, Let):
                written.add(stmt.name)
            elif isinstance(stmt, (For, While)):
                scan(stmt.body)
            elif isinstance(stmt, If):
                scan(stmt.then)
                scan(stmt.else_)

    scan(loop.body)
    # parameters and outer-scope names read but never written in the loop are
    # loop-invariant, not carried
    return {name for name in carried if name in written}


def _cross_iteration_dep(
    loads: list[tuple[str, AffineIndex | None]],
    stores: list[tuple[str, AffineIndex | None]],
) -> bool:
    """Can a store in one iteration alias a load in another iteration?"""
    for s_arr, s_idx in stores:
        for l_arr, l_idx in loads:
            if s_arr != l_arr:
                continue
            if s_idx is None or l_idx is None:
                return True  # cannot prove independence
            if s_idx.base_key != l_idx.base_key:
                return True  # different invariant bases: cannot prove
            if s_idx.coeff != l_idx.coeff:
                return True
            if s_idx.coeff == 0:
                return True  # same element touched every iteration
            if s_idx.const != l_idx.const:
                return True  # e.g. out[i] vs out[i-1]
    # two stores to the same array at different offsets are fine (distinct
    # lanes); store/store at identical indexes are also fine (last-writer)
    return False


def classify_loop(loop: For | While, kernel: Kernel) -> LoopClass:
    """The paper's primary classification for one loop."""
    if isinstance(loop, While):
        return LoopClass.SENTINEL
    feats = analyze_loop(loop, kernel)
    if feats.has_call:
        return LoopClass.FUNCTION
    if feats.has_if:
        return LoopClass.CONDITIONAL
    if feats.carried_scalars or feats.possible_cross_iteration_dep or feats.non_affine_access:
        return LoopClass.NON_VECTORIZABLE
    if not feats.static_bounds:
        return LoopClass.DYNAMIC_RANGE
    return LoopClass.COUNT


def kernel_loops(kernel: Kernel) -> list[For | While]:
    """All loops in a kernel, outermost first."""
    return [s for s in walk_stmts(kernel.body) if isinstance(s, (For, While))]


def innermost_loops(kernel: Kernel) -> list[For | While]:
    out = []
    for loop in kernel_loops(kernel):
        if not any(isinstance(s, (For, While)) for s in walk_stmts(loop.body)):
            out.append(loop)
    return out


def loop_census(kernel: Kernel) -> dict[LoopClass, int]:
    """Static count of loop classes (Article 3, Fig. 7 uses the dynamic
    counterpart from the DSA; this static census backs the unit tests)."""
    census: dict[LoopClass, int] = {cls: 0 for cls in LoopClass}
    for loop in kernel_loops(kernel):
        census[classify_loop(loop, kernel)] += 1
    return census
