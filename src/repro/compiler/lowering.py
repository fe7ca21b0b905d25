"""Lowering: kernel IR -> assembly text -> assembled Program.

Calling convention (harness-facing):

* kernel parameters live in ``r4, r5, ...`` in declaration order — array
  parameters receive base addresses, scalar parameters receive values;
* ``sp`` points at a spill frame of ``LoweredKernel.frame_size`` bytes
  (only needed when the kernel has more locals than registers);
* helper functions use an ``r0``-``r3`` window (args in r0/r1, result in
  r0), so kernels with functions keep r0-r3 free.

A vectorizer (``repro.compiler.vectorize``) may claim counted loops during
lowering and emit NEON code instead of the scalar loop; everything else is
shared between the scalar and vectorized binaries, which keeps the baseline
comparison honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CompilerError
from ..isa.assembler import assemble
from ..isa.dtypes import DType
from ..isa.program import Program
from .ir import (
    Binary,
    BinOp,
    Call,
    CmpOp,
    Compare,
    Const,
    Expr,
    For,
    Function,
    If,
    Kernel,
    Let,
    Load,
    Return,
    Stmt,
    Store,
    UnOp,
    Unary,
    Var,
    While,
)

#: registers available to kernels (r13=sp, r14=lr, r15=pc stay reserved)
_FULL_POOL = list(range(0, 13))
#: pool when helper functions exist (r0-r3 form the function window)
_WINDOWED_POOL = list(range(4, 13))
#: registers reserved for expression temporaries (taken from the pool tail)
_NUM_TEMPS = 3

_CMP_BRANCH = {
    CmpOp.LT: ("blt", "bge"),
    CmpOp.LE: ("ble", "bgt"),
    CmpOp.GT: ("bgt", "ble"),
    CmpOp.GE: ("bge", "blt"),
    CmpOp.EQ: ("beq", "bne"),
    CmpOp.NE: ("bne", "beq"),
}

_INT_ALU = {
    BinOp.ADD: "add",
    BinOp.SUB: "sub",
    BinOp.AND: "and",
    BinOp.OR: "orr",
    BinOp.XOR: "eor",
    BinOp.SHL: "lsl",
    BinOp.SHR: "asr",
    BinOp.MIN: "min",
    BinOp.MAX: "max",
}

_FLOAT_ALU = {BinOp.ADD: "fadd", BinOp.SUB: "fsub", BinOp.MUL: "fmul"}


def _load_mnemonic(dtype: DType) -> str:
    return {
        DType.U8: "ldrb",
        DType.I8: "ldrsb",
        DType.U16: "ldrh",
        DType.I16: "ldrsh",
        DType.I32: "ldr",
        DType.U32: "ldr",
        DType.F32: "ldr",
    }[dtype]


def _store_mnemonic(dtype: DType) -> str:
    return {
        DType.U8: "strb",
        DType.I8: "strb",
        DType.U16: "strh",
        DType.I16: "strh",
        DType.I32: "str",
        DType.U32: "str",
        DType.F32: "str",
    }[dtype]


def _shift_for_size(size: int) -> int:
    return {1: 0, 2: 1, 4: 2}[size]


@dataclass
class LoweredKernel:
    """The result of lowering: assembled program + calling information."""

    kernel: Kernel
    program: Program
    asm: str
    param_regs: dict[str, int]
    frame_size: int
    vectorized_loops: list[str] = field(default_factory=list)
    guarded_loops: list[str] = field(default_factory=list)
    glue_instructions: int = 0

    @property
    def name(self) -> str:
        return self.kernel.name


class _Scope:
    """Register/spill bookkeeping for one lowering context."""

    def __init__(self, pool: list[int], num_temps: int = _NUM_TEMPS, allow_spill: bool = True):
        if len(pool) <= num_temps:
            raise CompilerError("register pool too small")
        self.temps = pool[-num_temps:]
        self.free_temps = list(self.temps)
        self.named_pool = pool[:-num_temps]
        self.next_named = 0
        self.free_named: list[int] = []  # registers released by unbind()
        self.allow_spill = allow_spill
        self.regs: dict[str, int] = {}      # name -> register
        self.spills: dict[str, int] = {}    # name -> frame offset
        self.next_spill = 0
        self.types: dict[str, str] = {}     # name -> "int" | "float"

    # -- named locals ---------------------------------------------------
    def bind(self, name: str) -> None:
        """Give ``name`` a home (register if available, else a spill slot)."""
        if name in self.regs or name in self.spills:
            return
        if self.free_named:
            self.regs[name] = self.free_named.pop()
        elif self.next_named < len(self.named_pool):
            self.regs[name] = self.named_pool[self.next_named]
            self.next_named += 1
        elif self.allow_spill:
            self.spills[name] = self.next_spill
            self.next_spill += 4
        else:
            raise CompilerError(f"no register available for {name!r} in this scope")

    def unbind(self, name: str) -> None:
        """Release a register whose value is dead (vectorizer scratch)."""
        reg = self.regs.pop(name, None)
        if reg is not None:
            self.free_named.append(reg)

    def bind_register(self, name: str, reg: int) -> None:
        self.regs[name] = reg

    def home(self, name: str) -> tuple[str, int]:
        """('reg', index) or ('spill', offset)."""
        if name in self.regs:
            return "reg", self.regs[name]
        if name in self.spills:
            return "spill", self.spills[name]
        raise CompilerError(f"undefined variable {name!r}")

    # -- temporaries ----------------------------------------------------
    def acquire_temp(self) -> int:
        if not self.free_temps:
            raise CompilerError("expression too deep: out of temporaries")
        return self.free_temps.pop()

    def release_temp(self, reg: int) -> None:
        if reg in self.temps and reg not in self.free_temps:
            self.free_temps.append(reg)


class Lowerer:
    """Lowers one kernel to assembly, optionally with a vectorizer attached."""

    def __init__(self, kernel: Kernel, vectorizer=None):
        self.kernel = kernel
        self.vectorizer = vectorizer
        self.lines: list[str] = []
        self._label_counter = 0
        pool = _WINDOWED_POOL if kernel.functions else _FULL_POOL
        self.scope = _Scope(list(pool))
        self.param_regs: dict[str, int] = {}
        self.vectorized_loops: list[str] = []
        self.guarded_loops: list[str] = []
        self.glue_instructions = 0
        self._in_function = False
        self._assign_params()

    # ------------------------------------------------------------------
    def _assign_params(self) -> None:
        for param in self.kernel.params:
            self.scope.bind(param.name)
            kind, home = self.scope.home(param.name)
            if kind != "reg":
                raise CompilerError(
                    f"kernel {self.kernel.name}: too many parameters for registers"
                )
            self.param_regs[param.name] = home
            self.scope.types[param.name] = "int"

    # ------------------------------------------------------------------
    # public emit API (also used by the vectorizers)
    # ------------------------------------------------------------------
    def emit(self, line: str) -> None:
        self.lines.append(f"    {line}")

    def emit_label(self, label: str) -> None:
        self.lines.append(f"{label}:")

    def fresh_label(self, prefix: str) -> str:
        self._label_counter += 1
        return f"{prefix}_{self._label_counter}"

    def array_dtype(self, name: str) -> DType:
        return self.kernel.array(name).dtype

    def param_reg(self, name: str) -> int:
        return self.param_regs[name]

    def acquire_temp(self) -> int:
        return self.scope.acquire_temp()

    def release_temp(self, reg: int) -> None:
        self.scope.release_temp(reg)

    # ------------------------------------------------------------------
    def lower(self) -> LoweredKernel:
        for stmt in self.kernel.body:
            self._emit_stmt(stmt)
        self.emit("halt")
        for func in self.kernel.functions:
            self._emit_function(func)
        asm = "\n".join(self.lines) + "\n"
        try:
            program = assemble(asm)
        except Exception as exc:  # pragma: no cover - lowering bug guard
            raise CompilerError(f"lowering produced bad assembly: {exc}\n{asm}") from exc
        return LoweredKernel(
            kernel=self.kernel,
            program=program,
            asm=asm,
            param_regs=dict(self.param_regs),
            frame_size=self.scope.next_spill,
            vectorized_loops=list(self.vectorized_loops),
            guarded_loops=list(self.guarded_loops),
            glue_instructions=self.glue_instructions,
        )

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _emit_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Let):
            self._emit_let(stmt)
        elif isinstance(stmt, Store):
            self._emit_store(stmt)
        elif isinstance(stmt, For):
            self._emit_for(stmt)
        elif isinstance(stmt, While):
            self._emit_while(stmt)
        elif isinstance(stmt, If):
            self._emit_if(stmt)
        elif isinstance(stmt, Return):
            if not self._in_function:
                raise CompilerError("return outside a function")
            self._emit_return(stmt)
        else:
            raise CompilerError(f"cannot lower statement {stmt!r}")

    def _emit_return(self, stmt: Return) -> None:
        value, is_temp = self._eval(stmt.expr)
        if isinstance(value, int):
            if value != 0:
                self.emit(f"mov r0, r{value}")
            if is_temp:
                self.scope.release_temp(value)
        else:
            self.emit(f"mov r0, #{value}")
        self.emit("bx lr")

    def _emit_let(self, stmt: Let) -> None:
        value, is_temp = self._eval(stmt.expr)
        self.scope.bind(stmt.name)
        self.scope.types[stmt.name] = self._expr_type(stmt.expr)
        kind, home = self.scope.home(stmt.name)
        if kind == "reg":
            if isinstance(value, int):
                if value != home:
                    self.emit(f"mov r{home}, r{value}")
            else:
                self.emit(f"mov r{home}, #{value}")
        else:
            reg = value if isinstance(value, int) else None
            if reg is None:
                reg = self.scope.acquire_temp()
                self.emit(f"mov r{reg}, #{value}")
                self.emit(f"str r{reg}, [sp, #{home}]")
                self.scope.release_temp(reg)
            else:
                self.emit(f"str r{reg}, [sp, #{home}]")
        if is_temp and isinstance(value, int):
            self.scope.release_temp(value)

    def _emit_store(self, stmt: Store) -> None:
        dtype = self.array_dtype(stmt.array)
        value_reg, value_temp = self._eval_to_reg(stmt.value)
        addr_operand, addr_temp = self._address_operand(stmt.array, stmt.index, dtype)
        self.emit(f"{_store_mnemonic(dtype)} r{value_reg}, {addr_operand}")
        if value_temp:
            self.scope.release_temp(value_reg)
        if addr_temp is not None:
            self.scope.release_temp(addr_temp)

    def _emit_if(self, stmt: If) -> None:
        else_label = self.fresh_label("else")
        end_label = self.fresh_label("endif")
        target = else_label if stmt.else_ else end_label
        self._emit_cond_branch(stmt.cond, target, jump_when_false=True)
        for s in stmt.then:
            self._emit_stmt(s)
        if stmt.else_:
            self.emit(f"b {end_label}")
            self.emit_label(else_label)
            for s in stmt.else_:
                self._emit_stmt(s)
        self.emit_label(end_label)

    def _emit_while(self, stmt: While) -> None:
        head = self.fresh_label("while")
        exit_label = self.fresh_label("wend")
        self.emit_label(head)
        self._emit_cond_branch(stmt.cond, exit_label, jump_when_false=True)
        for s in stmt.body:
            self._emit_stmt(s)
        self.emit(f"b {head}")
        self.emit_label(exit_label)

    def _emit_for(self, stmt: For) -> None:
        if self.vectorizer is not None and self.vectorizer.try_vectorize(stmt, self):
            self.vectorized_loops.append(stmt.var)
            return
        self.emit_scalar_for(stmt)

    def emit_scalar_for(self, stmt: For, start_reg: int | None = None) -> None:
        """Emit the plain scalar loop (also used for vectorizer leftovers).

        ``start_reg`` optionally supplies a register already holding the
        start value (used by leftover loops with runtime split points).
        """
        head = self.fresh_label("loop")
        end_label = self.fresh_label("endloop")

        self.scope.bind(stmt.var)
        self.scope.types[stmt.var] = "int"
        kind, var_home = self.scope.home(stmt.var)
        if kind != "reg":
            raise CompilerError("loop variable spilled; simplify the kernel")

        if start_reg is not None:
            if start_reg != var_home:
                self.emit(f"mov r{var_home}, r{start_reg}")
        else:
            value, is_temp = self._eval(stmt.start)
            if isinstance(value, int):
                if value != var_home:
                    self.emit(f"mov r{var_home}, r{value}")
                if is_temp:
                    self.scope.release_temp(value)
            else:
                self.emit(f"mov r{var_home}, #{value}")

        # loop bound: immediate when static, register otherwise; bounds that
        # do not fit a register live in a spill slot and are reloaded at
        # each compare through a temporary
        bound_operand: str
        bound_spill: int | None = None
        if isinstance(stmt.end, Const):
            bound_operand = f"#{stmt.end.value}"
        elif (
            isinstance(stmt.end, Var)
            and self.scope.home(stmt.end.name)[0] == "reg"
            and not _written_in(stmt.body, stmt.end.name)
        ):
            # the bound already lives in a register and is loop-invariant:
            # compare against it directly instead of copying
            bound_operand = f"r{self.scope.home(stmt.end.name)[1]}"
        elif (
            isinstance(stmt.end, Var)
            and self.scope.home(stmt.end.name)[0] == "spill"
            and not _written_in(stmt.body, stmt.end.name)
        ):
            bound_operand = ""
            bound_spill = self.scope.home(stmt.end.name)[1]
        else:
            end_name = f"{stmt.var}$end"
            value, is_temp = self._eval(stmt.end)
            self.scope.bind(end_name)
            kind, end_home = self.scope.home(end_name)
            if kind != "reg":
                # out of registers: spill the bound and reload per compare
                if isinstance(value, int):
                    self.emit(f"str r{value}, [sp, #{end_home}]")
                    if is_temp:
                        self.scope.release_temp(value)
                else:
                    t = self.scope.acquire_temp()
                    self.emit(f"mov r{t}, #{value}")
                    self.emit(f"str r{t}, [sp, #{end_home}]")
                    self.scope.release_temp(t)
                bound_operand = ""
                bound_spill = end_home
            else:
                if isinstance(value, int):
                    if value != end_home:
                        self.emit(f"mov r{end_home}, r{value}")
                    if is_temp:
                        self.scope.release_temp(value)
                else:
                    self.emit(f"mov r{end_home}, #{value}")
                bound_operand = f"r{end_home}"

        def emit_compare() -> None:
            if bound_spill is not None:
                t = self.scope.acquire_temp()
                self.emit(f"ldr r{t}, [sp, #{bound_spill}]")
                self.emit(f"cmp r{var_home}, r{t}")
                self.scope.release_temp(t)
            else:
                self.emit(f"cmp r{var_home}, {bound_operand}")

        back = "blt" if stmt.step > 0 else "bgt"
        guard_skip = "bge" if stmt.step > 0 else "ble"
        emit_compare()
        self.emit(f"{guard_skip} {end_label}")
        self.emit_label(head)
        for s in stmt.body:
            self._emit_stmt(s)
        if stmt.step > 0:
            self.emit(f"add r{var_home}, r{var_home}, #{stmt.step}")
        else:
            self.emit(f"sub r{var_home}, r{var_home}, #{-stmt.step}")
        emit_compare()
        self.emit(f"{back} {head}")
        self.emit_label(end_label)

    # ------------------------------------------------------------------
    # conditions
    # ------------------------------------------------------------------
    def _emit_cond_branch(self, cond: Compare, target: str, jump_when_false: bool) -> None:
        left_reg, left_temp = self._eval_to_reg(cond.left)
        right_value, right_temp = self._eval(cond.right)
        if isinstance(right_value, int):
            self.emit(f"cmp r{left_reg}, r{right_value}")
            if right_temp:
                self.scope.release_temp(right_value)
        else:
            self.emit(f"cmp r{left_reg}, #{right_value}")
        if left_temp:
            self.scope.release_temp(left_reg)
        taken, not_taken = _CMP_BRANCH[cond.op]
        self.emit(f"{not_taken if jump_when_false else taken} {target}")

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _expr_type(self, expr: Expr) -> str:
        if isinstance(expr, Load):
            return "float" if self.array_dtype(expr.array).is_float else "int"
        if isinstance(expr, Var):
            return self.scope.types.get(expr.name, "int")
        if isinstance(expr, Binary):
            t = self._expr_type(expr.left)
            return t if t == "float" else self._expr_type(expr.right)
        if isinstance(expr, Unary):
            return self._expr_type(expr.operand)
        return "int"

    def _eval(self, expr: Expr) -> tuple[int | str, bool]:
        """Evaluate an expression.

        Returns ``(register_index, is_temp)`` or ``(imm_string, False)``
        where the immediate string is a bare integer for ``#value`` slots.
        """
        if isinstance(expr, Const):
            return str(expr.value), False
        reg, is_temp = self._eval_to_reg(expr)
        return reg, is_temp

    def _eval_to_reg(self, expr: Expr) -> tuple[int, bool]:
        """Evaluate into a register; bool says whether it is a temp to free."""
        if isinstance(expr, Var):
            kind, home = self.scope.home(expr.name)
            if kind == "reg":
                return home, False
            temp = self.scope.acquire_temp()
            self.emit(f"ldr r{temp}, [sp, #{home}]")
            return temp, True
        if isinstance(expr, Const):
            temp = self.scope.acquire_temp()
            self.emit(f"mov r{temp}, #{expr.value}")
            return temp, True
        if isinstance(expr, Load):
            return self._eval_load(expr)
        if isinstance(expr, Binary):
            return self._eval_binary(expr)
        if isinstance(expr, Unary):
            return self._eval_unary(expr)
        if isinstance(expr, Call):
            return self._eval_call(expr)
        raise CompilerError(f"cannot evaluate {expr!r}")

    def _eval_load(self, expr: Load) -> tuple[int, bool]:
        dtype = self.array_dtype(expr.array)
        addr_operand, addr_temp = self._address_operand(expr.array, expr.index, dtype)
        dest = self.scope.acquire_temp()
        self.emit(f"{_load_mnemonic(dtype)} r{dest}, {addr_operand}")
        if addr_temp is not None:
            self.scope.release_temp(addr_temp)
        return dest, True

    def _address_operand(self, array: str, index: Expr, dtype: DType) -> tuple[str, int | None]:
        """Build a load/store address operand string for array[index]."""
        base = self.param_regs[array]
        shift = _shift_for_size(dtype.size)
        if isinstance(index, Const):
            return f"[r{base}, #{index.value * dtype.size}]", None
        idx_reg, idx_temp = self._eval_to_reg(index)
        if shift == 0:
            op = f"[r{base}, r{idx_reg}]"
        else:
            op = f"[r{base}, r{idx_reg}, lsl #{shift}]"
        return op, (idx_reg if idx_temp else None)

    def _eval_binary(self, expr: Binary) -> tuple[int, bool]:
        etype = self._expr_type(expr)
        if etype == "float":
            return self._eval_float_binary(expr)
        if expr.op is BinOp.MUL:
            left, lt = self._eval_to_reg(expr.left)
            right, rt = self._eval_to_reg(expr.right)
            dest = left if lt else right if rt else self.scope.acquire_temp()
            self.emit(f"mul r{dest}, r{left}, r{right}")
            self._release_operands(dest, (left, lt), (right, rt))
            return dest, True
        mnemonic = _INT_ALU[expr.op]
        left, lt = self._eval_to_reg(expr.left)
        if isinstance(expr.right, Const):
            dest = left if lt else self.scope.acquire_temp()
            self.emit(f"{mnemonic} r{dest}, r{left}, #{expr.right.value}")
            return dest, True
        right, rt = self._eval_to_reg(expr.right)
        dest = left if lt else right if rt else self.scope.acquire_temp()
        self.emit(f"{mnemonic} r{dest}, r{left}, r{right}")
        self._release_operands(dest, (left, lt), (right, rt))
        return dest, True

    def _eval_float_binary(self, expr: Binary) -> tuple[int, bool]:
        if expr.op not in _FLOAT_ALU:
            raise CompilerError(f"float operation {expr.op} unsupported")
        left, lt = self._eval_to_reg(expr.left)
        right, rt = self._eval_to_reg(expr.right)
        dest = left if lt else right if rt else self.scope.acquire_temp()
        self.emit(f"{_FLOAT_ALU[expr.op]} r{dest}, r{left}, r{right}")
        self._release_operands(dest, (left, lt), (right, rt))
        return dest, True

    def _release_operands(self, dest: int, *operands: tuple[int, bool]) -> None:
        for reg, is_temp in operands:
            if is_temp and reg != dest:
                self.scope.release_temp(reg)

    def _eval_unary(self, expr: Unary) -> tuple[int, bool]:
        operand, is_temp = self._eval_to_reg(expr.operand)
        dest = operand if is_temp else self.scope.acquire_temp()
        if expr.op is UnOp.NEG:
            self.emit(f"rsb r{dest}, r{operand}, #0")
        elif expr.op is UnOp.NOT:
            self.emit(f"mvn r{dest}, r{operand}")
        elif expr.op is UnOp.ABS:
            # abs(x) = max(x, -x)
            temp = self.scope.acquire_temp()
            self.emit(f"rsb r{temp}, r{operand}, #0")
            self.emit(f"max r{dest}, r{operand}, r{temp}")
            self.scope.release_temp(temp)
        else:
            raise CompilerError(f"bad unary op {expr.op!r}")
        return dest, True

    def _eval_call(self, expr: Call) -> tuple[int, bool]:
        if not self.kernel.functions:
            raise CompilerError("call in a kernel without functions")
        if len(expr.args) > 2:
            raise CompilerError("at most 2 call arguments supported")
        for i, arg in enumerate(expr.args):
            value, is_temp = self._eval(arg)
            if isinstance(value, int):
                self.emit(f"mov r{i}, r{value}")
                if is_temp:
                    self.scope.release_temp(value)
            else:
                self.emit(f"mov r{i}, #{value}")
        self.emit(f"bl {expr.func}")
        dest = self.scope.acquire_temp()
        self.emit(f"mov r{dest}, r0")
        return dest, True

    # ------------------------------------------------------------------
    # helper functions (r0-r3 window)
    # ------------------------------------------------------------------
    def _emit_function(self, func: Function) -> None:
        self.emit_label(func.name)
        outer_scope = self.scope
        # function window: params in r0/r1, temporaries r2/r3, no spilling
        self.scope = _Scope([0, 1, 2, 3], num_temps=2, allow_spill=False)
        self._in_function = True
        for i, pname in enumerate(func.params):
            self.scope.bind_register(pname, i)
            self.scope.next_named = max(self.scope.next_named, i + 1)
            self.scope.types[pname] = "int"
        for stmt in func.body:
            self._emit_stmt(stmt)
        self._in_function = False
        self.scope = outer_scope


def _written_in(body: list[Stmt], name: str) -> bool:
    """Is the named local assigned anywhere inside ``body``?"""
    from .ir import walk_stmts

    return any(isinstance(s, Let) and s.name == name for s in walk_stmts(body))


def lower(kernel: Kernel, vectorizer=None) -> LoweredKernel:
    """Lower ``kernel`` to an assembled program."""
    return Lowerer(kernel, vectorizer=vectorizer).lower()
