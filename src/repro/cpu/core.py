"""The scalar core: functional execution + timing + retire hooks.

Stands in for the gem5 O3CPU of the paper's methodology.  Every retired
instruction is delivered to the registered retire hooks as a
:class:`TraceRecord` — that is the interface the DSA attaches to (the paper
couples DSA to the fetch stage; retire order equals fetch order here since
the functional model executes in order).

The DSA replaces timing, never function: a registered ``timing_suppressor``
may claim an instruction, in which case the core still executes it
architecturally but charges no cycles and does not touch the cache models
(the DSA charges the equivalent NEON burst instead).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from ..errors import ExecutionError
from ..isa.dtypes import to_u32
from ..isa.program import INSTRUCTION_BYTES, Program
from ..memory.backing import MainMemory
from ..memory.hierarchy import MemoryHierarchy
from ..observe.events import EventKind
from .config import CPUConfig, DEFAULT_CPU_CONFIG
from .executor import Flags
from .hotspot import FAILED as _FAILED, HotspotTable
from .predecode import DecodedProgram, predecode
from .timing import TimingModel
from .trace import MemAccess, TraceRecord

RetireHook = Callable[[TraceRecord], None]
TimingSuppressor = Callable[[TraceRecord], bool]


@dataclass
class CoreResult:
    """Summary of one simulation run."""

    cycles: int
    instructions: int
    seconds: float
    halted: bool
    icounts: Counter = field(default_factory=Counter)
    hierarchy_stats: dict = field(default_factory=dict)
    #: instructions retired per execution tier (fast / traced / compiled /
    #: covered) — diagnostic only, never serialized into the canonical
    #: RunResult payload
    tier_counts: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class Core:
    """Functional + timing model of the 2-wide superscalar core."""

    def __init__(
        self,
        program: Program,
        memory: MainMemory,
        config: CPUConfig | None = None,
    ):
        from ..vector import get_backend  # local import to avoid a cycle

        self.program = program
        self.memory = memory
        self.config = config or DEFAULT_CPU_CONFIG
        self.hierarchy = MemoryHierarchy(self.config.hierarchy)
        #: the vector execution engine, chosen by CPUConfig.vector_backend —
        #: NEON by default, the scalable (VLA) engine when configured
        self.vector = get_backend(
            self.config.vector_backend, self.config.vector_length
        )
        self.timing = TimingModel(self.config, num_vector_regs=self.vector.num_regs)
        self.regs: list[int] = [0] * 16
        self.flags = Flags()
        self.pc = program.base
        self.halted = False
        self.seq = 0
        self.icounts: Counter = Counter()
        self.retire_hooks: list[RetireHook] = []
        self.timing_suppressor: TimingSuppressor | None = None
        #: optional repro.observe.Observer — run() wraps the whole simulation
        #: in one "core.run" span and emits RUN_BEGIN/RUN_END; never consulted
        #: inside the retire loops, so the traced-vs-fast choice is unchanged
        self.observer = None
        self._decoded: DecodedProgram | None = None  # built lazily on first run()
        self._hotspots: HotspotTable | None = None   # with the decoded image
        #: (iterations, op-index) a faulting compiled block leaves behind so
        #: the dispatch loop can reconstruct the exact architected state
        self._block_fault: tuple[int, int] | None = None
        #: instructions retired per execution tier; every run loop folds its
        #: residency here (see CoreResult.tier_counts)
        self.tier_counts: Counter = Counter()
        #: covered-execution hand-off, installed by DSA.attach when
        #: config.covered_execution: called at every taken backward branch
        #: in the traced loop as cover_hook(head_pc, max_instructions); it
        #: may retire a record-free stretch of the loop, leaving control
        #: wherever the stretch left the region
        self.cover_hook: Callable[[int, int], None] | None = None
        #: loop-boundary crossings of the last windowed fast-loop run
        #: (retirements of the window's end branch, either direction)
        self._region_boundaries: int = 0

    # ------------------------------------------------------------------
    # register convenience (harness-facing)
    # ------------------------------------------------------------------
    def set_reg(self, index: int, value: int) -> None:
        self.regs[index] = to_u32(value)

    def get_reg(self, index: int) -> int:
        return self.regs[index]

    # ------------------------------------------------------------------
    def run(self, max_instructions: int = 100_000_000) -> CoreResult:
        """Run until HALT (or the safety limit) and return the summary."""
        if self.seq == 0:
            # A run starting from scratch must not inherit vector-op counters
            # from earlier use of the engine on this core (e.g. a previous
            # completed run, or bursts executed while attaching) — the energy
            # model reads them per run.  Continuations (seq > 0 after a
            # max_instructions cut) keep accumulating, as they must.
            self.vector.stats.reset()
        observer = self.observer
        if observer is None:
            return self._run(max_instructions)
        # Observability wraps the whole run; nothing is consulted per retired
        # instruction, so the traced-vs-fast loop choice stays unchanged.
        path = (
            "traced"
            if self.retire_hooks or self.timing_suppressor is not None
            else "fast"
        )
        observer.emit(EventKind.RUN_BEGIN, path=path)
        span = observer.begin_span("core.run", "cpu", cycle=self.timing.cycles)
        try:
            result = self._run(max_instructions)
        finally:
            observer.end_span(span, cycle=self.timing.cycles, path=path)
        observer.emit(
            EventKind.RUN_END, cycle=result.cycles,
            cycles=result.cycles, instructions=result.instructions, path=path,
        )
        return result

    def _run(self, max_instructions: int) -> CoreResult:
        if self._decoded is None:
            self._decoded = predecode(self.program, self.config)
            if self.config.compile_hot:
                self._hotspots = HotspotTable(self._decoded, self.config)
        # Observers force the traced loop: retire hooks consume TraceRecords
        # and a suppressor is *queried* with one per instruction, so both
        # need the full record stream.  With neither attached there is no
        # reader — the fast loop skips record construction entirely.
        # (Attach observers before run(), as every current caller does.)
        if self.retire_hooks or self.timing_suppressor is not None:
            self._run_decoded_traced(self._decoded, max_instructions)
        else:
            self._run_decoded_fast(self._decoded, max_instructions)
        if not self.halted:
            raise ExecutionError(
                f"program did not halt within {max_instructions} instructions"
            )
        cycles = self.timing.drain()
        return CoreResult(
            cycles=cycles,
            instructions=self.seq,
            seconds=self.config.seconds(cycles),
            halted=self.halted,
            icounts=self.icounts.copy(),
            hierarchy_stats=self.hierarchy.stats_dict(),
            tier_counts={k: v for k, v in self.tier_counts.items() if v},
        )

    # ------------------------------------------------------------------
    # predecoded run loops (pinned by the golden run matrix,
    # tests/golden_runs.json)
    # ------------------------------------------------------------------
    def _run_decoded_fast(
        self,
        dec: DecodedProgram,
        max_instructions: int,
        window: tuple[int, int] | None = None,
        tier: str = "fast",
    ) -> None:
        """Record-free inner loop: no TraceRecord, no per-step attribute
        traffic; per-op retire counts are aggregated into ``icounts`` on
        exit, and every retirement outside a compiled block is credited to
        ``tier``.

        Without a ``window`` it runs the whole text and fetching outside it
        raises :class:`ExecutionError`.  With ``window = (head_pc, end_pc)``
        — a loop region handed over by covered execution — it returns as
        soon as control leaves ``[head_pc, end_pc]`` and leaves the number
        of end-branch retirements in ``_region_boundaries``.
        """
        if self.halted:
            return
        ops = dec.ops
        base = dec.base
        n = dec.n
        if window is None:
            lo_pc, hi_pc = 0, 1 << 32  # never left: the fetch check raises
            lo_idx, hi_idx = 0, n - 1
        else:
            lo_pc, hi_pc = window
            lo_idx, hi_idx = (lo_pc - base) >> 2, (hi_pc - base) >> 2
        timing = self.timing
        charge_scalar = timing.charge_scalar_decoded
        charge_vector = timing.charge_vector_decoded
        hierarchy_access = self.hierarchy.access
        counts = [0] * len(ops)
        hot = self._hotspots
        tiers = self.tier_counts
        seq = self.seq
        seq0 = seq
        blk_ops = 0  # retired inside compiled blocks
        pc = self.pc
        idx = (pc - base) >> 2
        try:
            while seq < max_instructions:
                # same validity rule as Program.contains(): in range + aligned
                if idx < 0 or idx > n or pc != base + (idx << 2):
                    raise ExecutionError(
                        f"address 0x{pc:x} is not inside the text segment"
                    )
                op = ops[idx]  # ops[n] is the sentinel: raises the same error
                result = op.execute(self)
                counts[idx] += 1
                seq += 1
                if result is None:
                    # simple sequential scalar op (no memory, no branch)
                    charge_scalar(op)
                    idx += 1
                    pc += INSTRUCTION_BYTES
                    continue
                next_pc, accesses, branch_taken, mispredicted = result
                mem_latency = 0
                for a in accesses:
                    mem_latency += hierarchy_access(a.addr, a.nbytes, a.is_write)
                if op.is_vector:
                    charge_vector(op, mem_latency)
                else:
                    charge_scalar(op, mem_latency, mispredicted)
                pc = next_pc
                if self.halted:
                    break
                if branch_taken is None:
                    idx += 1
                    continue
                if pc < lo_pc or pc > hi_pc:
                    break  # control left the window: hand back to the caller
                new_idx = (pc - base) >> 2
                # compiled tier: a taken backward branch is a loop
                # head candidate — count it, and once a compiled block
                # exists run whole iterations through it
                if (
                    hot is not None
                    and branch_taken
                    and pc < op.pc
                    and new_idx >= 0
                    and pc == base + (new_idx << 2)
                ):
                    blk = hot.fast[new_idx]
                    if blk is None:
                        blk = hot.lookup_fast(new_idx)
                    elif blk is _FAILED:
                        blk = None
                    if blk is not None and seq + blk.n_ops <= max_instructions:
                        s_blk = seq
                        try:
                            seq, taken, iters = blk.run(self, seq, max_instructions)
                        except BaseException:
                            # reconstruct the exact architected position of
                            # the faulting op (not retired, like the
                            # interpreted loops)
                            f_iters, f_k = self._block_fault
                            d = f_iters * blk.n_ops + f_k
                            seq += d
                            blk_ops += d
                            pc = blk.head_pc + (f_k << 2)
                            h0 = blk.head_idx
                            for j in range(blk.n_ops):
                                c = f_iters + 1 if j < f_k else f_iters
                                if c:
                                    counts[h0 + j] += c
                            raise
                        blk_ops += seq - s_blk
                        if iters:
                            h0 = blk.head_idx
                            for j in range(blk.n_ops):
                                counts[h0 + j] += iters
                        if taken:
                            idx = blk.head_idx
                        else:
                            idx = blk.exit_idx
                            pc = blk.exit_pc
                            if pc > hi_pc:
                                break
                        continue
                idx = new_idx
        finally:
            # exceptions (bad fetch, memory fault) leave the architected
            # state at the faulting op, not yet retired
            self.seq = seq
            self.pc = pc
            icounts = self.icounts
            for i in range(lo_idx, hi_idx + 1):
                c = counts[i]
                if c:
                    icounts[ops[i].kind_name] += c
            tiers["compiled"] += blk_ops
            tiers[tier] += (seq - seq0) - blk_ops
            if window is not None:
                self._region_boundaries = counts[hi_idx]

    def _run_decoded_traced(self, dec: DecodedProgram, max_instructions: int) -> None:
        """Full-fidelity loop: builds every TraceRecord and drives the
        suppressor and retire hooks, executing through the predecoded
        closures and precomputed register metadata."""
        tier = self.tier_counts
        seq0 = self.seq
        # the other tiers fold their own residency; traced is the residual
        c0 = tier["compiled"] + tier["covered"]
        try:
            self._traced_loop(dec, max_instructions)
        finally:
            other = tier["compiled"] + tier["covered"] - c0
            tier["traced"] += (self.seq - seq0) - other

    def _traced_loop(self, dec: DecodedProgram, max_instructions: int) -> None:
        ops = dec.ops
        base = dec.base
        n = dec.n
        regs = self.regs
        timing = self.timing
        charge_scalar = timing.charge_scalar_decoded
        charge_vector = timing.charge_vector_decoded
        hierarchy_access = self.hierarchy.access
        icounts = self.icounts
        while not self.halted and self.seq < max_instructions:
            pc = self.pc
            idx = (pc - base) >> 2
            if idx < 0 or idx > n or pc != base + (idx << 2):
                raise ExecutionError(f"address 0x{pc:x} is not inside the text segment")
            op = ops[idx]  # ops[n] is the sentinel: raises the same error
            ridx = op.read_idx
            if not ridx:
                reg_reads = ()
            elif len(ridx) == 1:
                i = ridx[0]
                reg_reads = ((i, regs[i]),)
            else:
                reg_reads = tuple((i, regs[i]) for i in ridx)
            result = op.execute(self)
            if result is None:
                next_pc = pc + INSTRUCTION_BYTES
                accesses: tuple[MemAccess, ...] = ()
                branch_taken = None
                mispredicted = False
            else:
                next_pc, accesses, branch_taken, mispredicted = result
            widx = op.write_idx
            if not widx or (branch_taken is False and op.cond_link):
                # an untaken BL<cond> retired as a NOP: no (stale) LR write
                reg_writes = ()
            elif len(widx) == 1:
                i = widx[0]
                reg_writes = ((i, regs[i]),)
            else:
                reg_writes = tuple((i, regs[i]) for i in widx)
            record = TraceRecord(
                seq=self.seq,
                pc=pc,
                instr=op.instr,
                next_pc=next_pc,
                accesses=accesses,
                branch_taken=branch_taken,
                reg_reads=reg_reads,
                reg_writes=reg_writes,
            )
            suppressor = self.timing_suppressor
            if suppressor is not None and suppressor(record):
                timing.note_suppressed()
            else:
                mem_latency = 0
                for a in accesses:
                    mem_latency += hierarchy_access(a.addr, a.nbytes, a.is_write)
                if op.is_vector:
                    charge_vector(op, mem_latency)
                else:
                    charge_scalar(op, mem_latency, mispredicted)
            icounts[op.kind_name] += 1
            self.seq += 1
            self.pc = next_pc
            for hook in self.retire_hooks:
                hook(record)
            # a taken backward branch the hooks left alone is the hand-off
            # point to covered execution (the DSA bulk-folds its own
            # bookkeeping for whatever it retires record-free)
            cover = self.cover_hook
            if (
                cover is not None
                and branch_taken
                and next_pc < pc
                and not self.halted
                and self.pc == next_pc
            ):
                cover(next_pc, max_instructions)


def run_program(
    program: Program,
    memory: MainMemory,
    regs: dict[int, int] | None = None,
    config: CPUConfig | None = None,
    max_instructions: int = 100_000_000,
) -> CoreResult:
    """Convenience one-shot runner used by tests and examples."""
    core = Core(program, memory, config=config)
    for index, value in (regs or {}).items():
        core.set_reg(index, value)
    return core.run(max_instructions=max_instructions)
