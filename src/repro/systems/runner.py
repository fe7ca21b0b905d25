"""Kernel execution harness: binds arguments, runs, extracts results.

Calling convention (see ``repro.compiler.lowering``): parameters in r4+
(or r0+ when the kernel has no helper functions — the lowerer reports the
exact mapping), ``sp`` pointing at the spill frame.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..compiler.ir import ArrayParam, ScalarParam
from ..compiler.lowering import LoweredKernel
from ..cpu.config import CPUConfig
from ..cpu.core import Core, CoreResult
from ..errors import ConfigError, RunTimeoutError
from ..isa.operands import SP
from ..memory.backing import Allocator, MainMemory


@dataclass
class KernelRun:
    """The outcome of one kernel execution."""

    lowered: LoweredKernel
    core: Core
    result: CoreResult
    array_addrs: dict[str, int]
    array_lengths: dict[str, int]

    def array(self, name: str, count: int | None = None) -> np.ndarray:
        """Read back an array argument after execution."""
        dtype = self.lowered.kernel.array(name).dtype
        n = count if count is not None else self.array_lengths[name]
        return self.core.memory.read_array(self.array_addrs[name], dtype, n)

    @property
    def cycles(self) -> int:
        return self.result.cycles


def execute_kernel(
    lowered: LoweredKernel,
    args: dict[str, np.ndarray | int],
    config: CPUConfig | None = None,
    memory_bytes: int = 8 * 1024 * 1024,
    attach: Callable[[Core], None] | None = None,
    max_instructions: int = 100_000_000,
    max_seconds: float | None = None,
) -> KernelRun:
    """Run a lowered kernel with the given arguments.

    ``args`` maps parameter names to numpy arrays (for array parameters —
    copied into simulated memory) or Python ints (for scalar parameters).
    ``attach`` lets callers hook a DSA or trace sink onto the core before
    the run starts.  ``max_seconds`` is a cooperative wall-clock budget:
    the run raises :class:`RunTimeoutError` once it is exceeded (checked
    every few thousand retired instructions, so overshoot is bounded).
    """
    # Validate the whole argument set up front, before anything is allocated
    # or copied: a bad call must fail without mutating allocator/core state.
    param_names = {p.name for p in lowered.kernel.params}
    missing = sorted(param_names - set(args))
    if missing:
        raise ConfigError(f"missing arguments for parameters: {missing}")
    extra = sorted(set(args) - param_names)
    if extra:
        raise ConfigError(f"unknown kernel arguments: {extra}")
    for param in lowered.kernel.params:
        value = args[param.name]
        if isinstance(param, ArrayParam):
            if not isinstance(value, np.ndarray):
                raise ConfigError(f"parameter {param.name!r} expects a numpy array")
        else:
            assert isinstance(param, ScalarParam)
            if isinstance(value, np.ndarray):
                raise ConfigError(f"parameter {param.name!r} expects an int")

    memory = MainMemory(memory_bytes)
    alloc = Allocator(memory)
    core = Core(lowered.program, memory, config=config)

    array_addrs: dict[str, int] = {}
    array_lengths: dict[str, int] = {}
    for param in lowered.kernel.params:
        value = args[param.name]
        reg = lowered.param_regs[param.name]
        if isinstance(param, ArrayParam):
            typed = np.ascontiguousarray(value, dtype=param.dtype.numpy)
            addr = alloc.alloc_array(typed)
            array_addrs[param.name] = addr
            array_lengths[param.name] = typed.size
            core.set_reg(reg, addr)
        else:
            core.set_reg(reg, int(value))

    frame = alloc.alloc(max(lowered.frame_size, 4))
    core.set_reg(SP, frame)

    if attach is not None:
        attach(core)

    if max_seconds is not None:
        deadline = time.perf_counter() + max_seconds
        retired = 0

        def _deadline_hook(record) -> None:
            nonlocal retired
            retired += 1
            if retired % 2048 == 0 and time.perf_counter() > deadline:
                raise RunTimeoutError(
                    f"kernel {lowered.kernel.name!r} exceeded {max_seconds:.1f}s wall clock"
                )

        core.retire_hooks.append(_deadline_hook)

    result = core.run(max_instructions=max_instructions)
    return KernelRun(
        lowered=lowered,
        core=core,
        result=result,
        array_addrs=array_addrs,
        array_lengths=array_lengths,
    )
