"""Cycle-accounting model: 2-wide in-order issue with a RAW scoreboard,
static branch prediction, memory stalls, and a decoupled NEON pipeline.

This stands in for gem5's O3CPU timing.  It is intentionally analytical —
what the experiments need is a *consistent relative* cost model between the
scalar pipeline and the NEON engine, which is also all the paper's
trace-level methodology provided (Methodology, Fig. 30).

The DSA replaces the timing of vectorized loop iterations: the core keeps
retiring the scalar instructions functionally, but while ``suppressed`` is
set their cycles are not charged; the DSA charges the NEON burst instead
(`charge_vector_burst`) plus its own latencies (`add_stall`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.instructions import (
    Alu,
    Branch,
    BranchReg,
    Cmp,
    FloatKind,
    FloatOp,
    Halt,
    Instruction,
    Mem,
    Mov,
    Mul,
    MulKind,
    Nop,
)
from ..isa.neon import (
    VBinKind,
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
    VStore,
    VStoreLane,
    VUnary,
)
from .config import CPUConfig


@dataclass
class TimingStats:
    """Aggregate counters the experiments report."""

    scalar_instructions: int = 0
    vector_instructions: int = 0
    suppressed_instructions: int = 0
    branch_mispredicts: int = 0
    memory_stall_cycles: int = 0
    dsa_stall_cycles: int = 0


class TimingModel:
    """Accumulates cycles for a single core + vector engine."""

    def __init__(self, config: CPUConfig, num_vector_regs: int = 16):
        self.config = config
        self.stats = TimingStats()
        # The whole scoreboard counts in integer cycles: accumulating floats
        # drifts over 1e8-instruction runs and makes the exact-equality
        # comparisons below hazardous.  Fractional latencies are rounded
        # exactly once, where they enter (see ``add_stall``).
        self._reg_ready = [0] * 16
        self._flags_ready = 0
        # vector register scoreboard, sized to the backend's register file
        self._q_ready = [0] * num_vector_regs
        self._now = 0          # next scalar issue opportunity
        self._slot_cycle = -1  # cycle of the current issue group
        self._slots_used = 0
        self._neon_next_issue = 0
        self._neon_burst_open = False
        self._last_completion = 0

    # ------------------------------------------------------------------
    @property
    def cycles(self) -> int:
        """Total cycles elapsed so far (scalar and vector drained)."""
        return max(self._now, self._last_completion, self._neon_next_issue)

    # ------------------------------------------------------------------
    # scalar path
    # ------------------------------------------------------------------
    def scalar_latency(self, instr: Instruction) -> int:
        lat = self.config.scalar
        if isinstance(instr, Alu):
            return lat.alu
        if isinstance(instr, Mov):
            return lat.mov
        if isinstance(instr, Cmp):
            return lat.cmp
        if isinstance(instr, Mul):
            if instr.kind is MulKind.MLA:
                return lat.mla
            if instr.kind in (MulKind.SDIV, MulKind.UDIV):
                return lat.div
            return lat.mul
        if isinstance(instr, FloatOp):
            if instr.kind is FloatKind.FDIV:
                return lat.fdiv
            if instr.kind is FloatKind.FMUL:
                return lat.fmul
            return lat.fadd
        if isinstance(instr, Mem):
            return lat.store if instr.is_store else lat.load
        if isinstance(instr, (Branch, BranchReg)):
            return lat.branch
        if isinstance(instr, (Nop, Halt)):
            return 1
        raise ValueError(f"no scalar latency for {instr!r}")

    def _issue_slot(self, earliest: int) -> int:
        """Find the issue cycle respecting the superscalar width."""
        cycle = max(self._now, earliest)
        if cycle == self._slot_cycle and self._slots_used < self.config.issue_width:
            self._slots_used += 1
        else:
            cycle = max(cycle, self._slot_cycle + 1 if self._slots_used else cycle)
            self._slot_cycle = cycle
            self._slots_used = 1
        self._now = cycle
        return cycle

    def charge_scalar_decoded(
        self,
        op,
        mem_latency: int = 0,
        mispredicted: bool = False,
    ) -> None:
        """Account one retired scalar instruction from its predecoded form.

        The register sets, latency and flag behaviour arrive precomputed on
        the :class:`~repro.cpu.predecode.DecodedOp`, so nothing is re-derived
        from the instruction object on every retirement.
        """
        self.stats.scalar_instructions += 1
        ready = self._reg_ready
        earliest = 0
        for i in op.read_idx:
            t = ready[i]
            if t > earliest:
                earliest = t
        if op.reads_flags and self._flags_ready > earliest:
            earliest = self._flags_ready
        issue = self._issue_slot(earliest)
        completion = issue + op.latency + mem_latency
        if mem_latency:
            self.stats.memory_stall_cycles += mem_latency
        wb = op.wb_index
        for i in op.write_idx:
            # address-generation writeback (post/pre-index) resolves early,
            # so pointer-bump loops do not serialize on cache misses
            ready[i] = issue + 1 if i == wb else completion
        if op.sets_flags:
            self._flags_ready = completion
        if completion > self._last_completion:
            self._last_completion = completion
        if mispredicted:
            self.stats.branch_mispredicts += 1
            bubble = issue + 1 + self.config.mispredict_penalty
            self._now = max(self._now, bubble)
            self._slot_cycle = -1
            self._slots_used = 0

    # ------------------------------------------------------------------
    # vector path (decoupled NEON pipeline)
    # ------------------------------------------------------------------
    def vector_latency(self, instr: VInstr) -> int:
        lat = self.config.vector
        if isinstance(instr, (VLoad,)):
            return lat.load
        if isinstance(instr, (VStore,)):
            return lat.store
        if isinstance(instr, (VLoadLane, VStoreLane)):
            return lat.lane_mem
        if isinstance(instr, VBinOp):
            return lat.mul if instr.kind is VBinKind.VMUL else lat.arith
        if isinstance(instr, VMla):
            return lat.mla
        if isinstance(instr, VCmp):
            return lat.cmp
        if isinstance(instr, VBsl):
            return lat.bsl
        if isinstance(instr, VShiftImm):
            return lat.shift
        if isinstance(instr, (VDup, VDupImm)):
            return lat.dup
        if isinstance(instr, (VMovToCore, VMovFromCore)):
            return lat.lane_mov
        if isinstance(instr, (VMovQ, VUnary)):
            return lat.arith
        raise ValueError(f"no vector latency for {instr!r}")

    def charge_vector(self, instr: VInstr, mem_latency: int = 0) -> None:
        """Account one NEON instruction dispatched from the core.

        The core spends an issue slot dispatching it; execution proceeds in
        the NEON pipeline, which sustains one operation per cycle once the
        burst has filled the pipeline (``pipeline_depth`` is paid on the
        first instruction of a burst).
        """
        self.stats.vector_instructions += 1
        dispatch = self._issue_slot(
            max((self._reg_ready[r.index] for r in instr.regs_read()), default=0)
        )
        start = max(dispatch, self._neon_next_issue)
        operands_ready = max(
            (self._q_ready[q.index] for q in instr.qregs_read()), default=0
        )
        start = max(start, operands_ready)
        if not self._neon_burst_open:
            start += self.config.vector.pipeline_depth
            self._neon_burst_open = True
        if mem_latency:
            self.stats.memory_stall_cycles += mem_latency
        # one operation enters the NEON pipeline per cycle; memory latency
        # overlaps with later operations (only RAW dependents wait for it)
        self._neon_next_issue = start + 1
        completion = start + self.vector_latency(instr) + mem_latency
        for q in instr.qregs_written():
            self._q_ready[q.index] = completion
        for r in instr.regs_written():
            # base-register writeback resolves at address generation, not at
            # data return, so pointer-bump chains do not serialize on misses
            self._reg_ready[r.index] = start + 1 if instr.is_load or instr.is_store else completion
        self._last_completion = max(self._last_completion, completion)

    def charge_vector_decoded(self, op, mem_latency: int = 0) -> None:
        """Predecoded twin of :meth:`charge_vector` — identical accounting,
        with the register sets and latency read off the decoded op."""
        self.stats.vector_instructions += 1
        ready = self._reg_ready
        earliest = 0
        for i in op.read_idx:
            t = ready[i]
            if t > earliest:
                earliest = t
        dispatch = self._issue_slot(earliest)
        start = max(dispatch, self._neon_next_issue)
        q_ready = self._q_ready
        for i in op.q_read_idx:
            t = q_ready[i]
            if t > start:
                start = t
        if not self._neon_burst_open:
            start += self.config.vector.pipeline_depth
            self._neon_burst_open = True
        if mem_latency:
            self.stats.memory_stall_cycles += mem_latency
        # one operation enters the NEON pipeline per cycle; memory latency
        # overlaps with later operations (only RAW dependents wait for it)
        self._neon_next_issue = start + 1
        completion = start + op.latency + mem_latency
        for i in op.q_write_idx:
            q_ready[i] = completion
        for i in op.write_idx:
            # base-register writeback resolves at address generation, not at
            # data return, so pointer-bump chains do not serialize on misses
            ready[i] = start + 1 if op.v_is_mem else completion
        if completion > self._last_completion:
            self._last_completion = completion

    # ------------------------------------------------------------------
    # compiled-block scoreboard batching (fast tier only; see
    # repro.cpu.blockcompile — the traced tier charges per-op because the
    # DSA mutates timing mid-run through add_stall)
    # ------------------------------------------------------------------
    def block_entry_state(self) -> tuple:
        """Snapshot the scalar scoreboard state a compiled block keeps in
        locals (``_reg_ready``/``_q_ready`` are shared lists, mutated in
        place by the block, so they are not part of the snapshot)."""
        return (
            self._now,
            self._slot_cycle,
            self._slots_used,
            self._flags_ready,
            self._last_completion,
            self._neon_next_issue,
            self._neon_burst_open,
        )

    def block_commit(
        self,
        now: int,
        slot_cycle: int,
        slots_used: int,
        flags_ready: int,
        last_completion: int,
        neon_next_issue: int,
        neon_burst_open: bool,
        scalar_n: int,
        vector_n: int,
        mem_stall: int,
        mispredicts: int,
    ) -> None:
        """Write back the scoreboard locals and the batched stat deltas of
        one compiled-block dispatch (the single-call counterpart of N
        ``charge_*_decoded`` calls)."""
        self._now = now
        self._slot_cycle = slot_cycle
        self._slots_used = slots_used
        self._flags_ready = flags_ready
        self._last_completion = last_completion
        self._neon_next_issue = neon_next_issue
        self._neon_burst_open = neon_burst_open
        stats = self.stats
        stats.scalar_instructions += scalar_n
        stats.vector_instructions += vector_n
        stats.memory_stall_cycles += mem_stall
        stats.branch_mispredicts += mispredicts

    def end_vector_burst(self) -> None:
        """Mark the end of a NEON burst; the next one pays the fill again."""
        self._neon_burst_open = False

    # ------------------------------------------------------------------
    # DSA hooks
    # ------------------------------------------------------------------
    def note_suppressed(self) -> None:
        """A scalar instruction retired functionally with its timing replaced."""
        self.stats.suppressed_instructions += 1

    def add_stall(self, cycles: float, kind: str = "dsa") -> None:
        """Charge a flat stall (pipeline flush, DSA overheads, ...).

        This is the only place fractional latencies can enter the model, so
        the rounding to whole cycles happens exactly once, here.
        """
        if cycles < 0:
            raise ValueError("stall cycles must be non-negative")
        whole = int(round(cycles))
        self._now = self.cycles + whole
        self._slot_cycle = -1
        self._slots_used = 0
        self._last_completion = max(self._last_completion, self._now)
        if kind == "dsa":
            self.stats.dsa_stall_cycles += whole

    def drain(self) -> int:
        """Wait for everything in flight; returns the final cycle count."""
        self._now = self.cycles
        return self._now
