"""Loop-kernel intermediate representation.

The workloads (MiBench / OpenCV substitutes) are written in this small typed
IR and lowered to assembly three ways: scalar (the "ARM original" binary the
DSA observes), statically auto-vectorized (the NEON compiler baseline), and
hand-vectorized (the NEON library baseline).

The IR deliberately mirrors the loop taxonomy of the paper (Fig. 11 /
Article 3 Fig. 3):

* ``For`` with constant bounds            -> count loop
* ``For`` with a runtime bound            -> dynamic range loop (type A)
* ``While``                               -> sentinel / dynamic range type B
* ``If`` inside a loop                    -> conditional loop
* ``Call`` inside a loop                  -> function loop
* nested ``For``                          -> inner/outer loops
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Union

from ..errors import CompilerError
from ..isa.dtypes import DType


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ArrayParam:
    """A kernel parameter that is a base pointer to a typed array."""

    name: str
    dtype: DType


@dataclass(frozen=True)
class ScalarParam:
    """A kernel parameter passed by value (always a 32-bit integer)."""

    name: str


Param = Union[ArrayParam, ScalarParam]


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------
class BinOp(Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    AND = "&"
    OR = "|"
    XOR = "^"
    SHL = "<<"
    SHR = ">>"
    MIN = "min"
    MAX = "max"


class UnOp(Enum):
    NEG = "neg"
    ABS = "abs"
    NOT = "not"


@dataclass(frozen=True)
class Const:
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Var:
    """A local variable, loop variable, or scalar parameter reference."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Load:
    """``array[index]`` — index is in elements, not bytes."""

    array: str
    index: "Expr"

    def __str__(self) -> str:
        return f"{self.array}[{self.index}]"


@dataclass(frozen=True)
class Binary:
    op: BinOp
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        if self.op in (BinOp.MIN, BinOp.MAX):
            return f"{self.op.value}({self.left}, {self.right})"
        return f"({self.left} {self.op.value} {self.right})"


@dataclass(frozen=True)
class Unary:
    op: UnOp
    operand: "Expr"

    def __str__(self) -> str:
        return f"{self.op.value}({self.operand})"


@dataclass(frozen=True)
class Call:
    """A call to one of the kernel's helper functions (function loops)."""

    func: str
    args: tuple["Expr", ...]

    def __str__(self) -> str:
        return f"{self.func}({', '.join(map(str, self.args))})"


Expr = Union[Const, Var, Load, Binary, Unary, Call]


class CmpOp(Enum):
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="
    NE = "!="


@dataclass(frozen=True)
class Compare:
    """A signed comparison used by If / While / For bounds."""

    left: Expr
    op: CmpOp
    right: Expr

    def __str__(self) -> str:
        return f"{self.left} {self.op.value} {self.right}"


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------
@dataclass
class Let:
    """Assign an expression to a local scalar variable."""

    name: str
    expr: Expr

    def __str__(self) -> str:
        return f"{self.name} = {self.expr}"


@dataclass
class Store:
    """``array[index] = value``."""

    array: str
    index: Expr
    value: Expr

    def __str__(self) -> str:
        return f"{self.array}[{self.index}] = {self.value}"


@dataclass
class For:
    """Counted loop: ``for var in start..end (step)``; end is exclusive."""

    var: str
    start: Expr
    end: Expr
    body: list["Stmt"]
    step: int = 1

    def __post_init__(self) -> None:
        if self.step == 0:
            raise CompilerError("loop step cannot be zero")

    def __str__(self) -> str:
        return f"for {self.var} in {self.start}..{self.end} step {self.step}"


@dataclass
class While:
    """Sentinel loop: the condition is evaluated before each iteration."""

    cond: Compare
    body: list["Stmt"]

    def __str__(self) -> str:
        return f"while {self.cond}"


@dataclass
class If:
    cond: Compare
    then: list["Stmt"]
    else_: list["Stmt"] = field(default_factory=list)

    def __str__(self) -> str:
        return f"if {self.cond}"


@dataclass
class Return:
    """Only valid inside a Function body."""

    expr: Expr

    def __str__(self) -> str:
        return f"return {self.expr}"


Stmt = Union[Let, Store, For, While, If, Return]


# ---------------------------------------------------------------------------
# functions and kernels
# ---------------------------------------------------------------------------
@dataclass
class Function:
    """A leaf helper function: scalar params, scalar return, no calls/arrays.

    Used to build the paper's "function loops"; lowered with an r0-r3
    register window so no save/restore code is needed.
    """

    name: str
    params: list[str]
    body: list[Stmt]

    def __post_init__(self) -> None:
        if len(self.params) > 2:
            raise CompilerError(f"function {self.name}: at most 2 parameters supported")
        for stmt in walk_stmts(self.body):
            if isinstance(stmt, (For, While)):
                raise CompilerError(f"function {self.name}: loops inside functions unsupported")
            if isinstance(stmt, (Store,)):
                raise CompilerError(f"function {self.name}: array access inside functions unsupported")
        for expr in walk_exprs(self.body):
            if isinstance(expr, (Load, Call)):
                raise CompilerError(
                    f"function {self.name}: loads/calls inside functions unsupported"
                )


@dataclass
class Kernel:
    """A complete kernel: parameters, helper functions, and a body."""

    name: str
    params: list[Param]
    body: list[Stmt]
    functions: list[Function] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise CompilerError(f"kernel {self.name}: duplicate parameter names")
        funcs = {f.name for f in self.functions}
        for expr in walk_exprs(self.body):
            if isinstance(expr, Call) and expr.func not in funcs:
                raise CompilerError(f"kernel {self.name}: call to unknown function {expr.func!r}")
            if isinstance(expr, Load) and expr.array not in {
                p.name for p in self.params if isinstance(p, ArrayParam)
            }:
                raise CompilerError(f"kernel {self.name}: load from unknown array {expr.array!r}")
        for stmt in walk_stmts(self.body):
            if isinstance(stmt, Return):
                raise CompilerError(f"kernel {self.name}: return outside a function")
            if isinstance(stmt, Store) and stmt.array not in {
                p.name for p in self.params if isinstance(p, ArrayParam)
            }:
                raise CompilerError(f"kernel {self.name}: store to unknown array {stmt.array!r}")

    def array_params(self) -> list[ArrayParam]:
        return [p for p in self.params if isinstance(p, ArrayParam)]

    def array(self, name: str) -> ArrayParam:
        for p in self.array_params():
            if p.name == name:
                return p
        raise KeyError(f"no array parameter named {name!r}")

    def function(self, name: str) -> Function:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function named {name!r}")


# ---------------------------------------------------------------------------
# tree walking
# ---------------------------------------------------------------------------
def walk_stmts(body: list[Stmt]) -> Iterator[Stmt]:
    """Yield every statement, depth first."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (For, While)):
            yield from walk_stmts(stmt.body)
        elif isinstance(stmt, If):
            yield from walk_stmts(stmt.then)
            yield from walk_stmts(stmt.else_)


def walk_exprs(body: list[Stmt]) -> Iterator[Expr]:
    """Yield every expression appearing anywhere in ``body``."""
    for stmt in walk_stmts(body):
        yield from stmt_exprs(stmt)


def stmt_exprs(stmt: Stmt) -> Iterator[Expr]:
    """Yield the expressions directly referenced by one statement."""
    if isinstance(stmt, Let):
        yield from subexprs(stmt.expr)
    elif isinstance(stmt, Store):
        yield from subexprs(stmt.index)
        yield from subexprs(stmt.value)
    elif isinstance(stmt, For):
        yield from subexprs(stmt.start)
        yield from subexprs(stmt.end)
    elif isinstance(stmt, While):
        yield from subexprs(stmt.cond.left)
        yield from subexprs(stmt.cond.right)
    elif isinstance(stmt, If):
        yield from subexprs(stmt.cond.left)
        yield from subexprs(stmt.cond.right)
    elif isinstance(stmt, Return):
        yield from subexprs(stmt.expr)


def subexprs(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and every expression below it."""
    yield expr
    if isinstance(expr, Binary):
        yield from subexprs(expr.left)
        yield from subexprs(expr.right)
    elif isinstance(expr, Unary):
        yield from subexprs(expr.operand)
    elif isinstance(expr, Load):
        yield from subexprs(expr.index)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from subexprs(arg)


# ---------------------------------------------------------------------------
# convenience constructors (used heavily by the workloads)
# ---------------------------------------------------------------------------
def c(value: int) -> Const:
    return Const(value)


def v(name: str) -> Var:
    return Var(name)


def add(a: Expr, b: Expr) -> Binary:
    return Binary(BinOp.ADD, a, b)


def sub(a: Expr, b: Expr) -> Binary:
    return Binary(BinOp.SUB, a, b)


def mul(a: Expr, b: Expr) -> Binary:
    return Binary(BinOp.MUL, a, b)


def shr(a: Expr, amount: int) -> Binary:
    return Binary(BinOp.SHR, a, Const(amount))


def shl(a: Expr, amount: int) -> Binary:
    return Binary(BinOp.SHL, a, Const(amount))
