"""The Dynamic SIMD Assembler (DSA).

Couples to a :class:`repro.cpu.core.Core` through the retire hook (the
trace-driven equivalent of the paper's fetch-stage coupling, Fig. 31) and
the timing suppressor.  The state machine follows Section 4.3:

* **Loop Detection** — a taken backward branch names a loop (ID = target
  PC); the DSA cache is consulted first.
* **Data Collection** — iteration 2 is recorded: instruction window, memory
  addresses into the verification cache, loop bound and induction step.
* **Dependency Analysis** — iteration 3 gives per-stream address gaps; the
  CIDP equations decide CID/NCID (Section 4.4).
* **Store ID / Execution** — from iteration 4 the remaining iterations run
  on the NEON engine: the scalar body's timing is replaced by the generated
  SIMD burst (plus pipeline-flush and DSA-cache latencies), exactly like
  the paper's trace-level methodology (Fig. 30).
* **Mapping / Speculative Execution** — conditional loops vectorize each
  condition over the remaining range and select results through the vector
  map at loop end; sentinel loops vectorize a speculative range that is
  remembered in the DSA cache across invocations.

Architectural state is never touched: the core keeps executing scalar
instructions functionally, which makes the DSA's transparency claim
checkable — ``verify_functional`` replays every generated template with
numpy over the covered iterations and asserts bit-equality with what the
scalar execution produced.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from ..cpu.core import Core
from ..cpu.covered import compile_covered, scan_region
from ..cpu.trace import TraceRecord
from ..errors import ReproError
from ..observe.events import EventKind
from ..isa.instructions import Branch, BranchReg, Cmp, CmpKind, Mem
from ..isa.operands import Cond, Imm, Reg
from ..isa.dtypes import to_s32
from .caches import ArrayMaps, DSACache, VerificationCache
from .config import DSAConfig, FULL_DSA_CONFIG
from .snapshot import RegionSnapshot
from .streams import MemStream, predict_cid, safe_chunk
from .template import LoopTemplate, TemplateReject, build_template


class DSAVerificationError(ReproError):
    """A vectorized region did not reproduce the scalar results."""


class LoopKind(Enum):
    COUNT = "count"
    FUNCTION = "function"
    NESTED_OUTER = "nested_outer"
    CONDITIONAL = "conditional"
    SENTINEL = "sentinel"
    DYNAMIC_RANGE = "dynamic_range"
    PARTIAL = "partial"
    NON_VECTORIZABLE = "non_vectorizable"


class Leftover(Enum):
    SINGLE_ELEMENTS = "single_elements"
    OVERLAPPING = "overlapping"


@dataclass
class DSAStats:
    records_observed: int = 0
    loops_detected: int = 0
    analyses_started: int = 0
    analyses_aborted: int = 0
    verdicts: Counter = field(default_factory=Counter)
    vectorized_invocations: Counter = field(default_factory=Counter)
    iterations_covered: int = 0
    bursts_charged: int = 0
    vector_instructions: int = 0
    stall_cycles: int = 0
    detection_cycles: int = 0
    stage_activations: Counter = field(default_factory=Counter)
    leftover_used: Counter = field(default_factory=Counter)
    vector_mem_ops: int = 0
    vector_arith_ops: int = 0
    verifications: int = 0
    unknown_path_aborts: int = 0
    #: guarded mode: mis-speculations detected and rolled back to scalar
    fallbacks: int = 0
    fallback_causes: Counter = field(default_factory=Counter)
    #: fault injection: corruptions an attached injector actually applied
    injected_faults: int = 0


@dataclass
class CacheEntry:
    """What the DSA cache remembers about one loop."""

    kind: LoopKind
    vectorizable: bool
    reason: str = ""
    template: LoopTemplate | None = None
    path_templates: dict[tuple, LoopTemplate] = field(default_factory=dict)
    suppress_pcs: frozenset = frozenset()
    cmp_pc: int | None = None
    bound_kind: str | None = None       # 'imm' | 'reg'
    bound_value: int = 0                # immediate, or register index
    induction_reg: int | None = None
    step: int = 1
    branch_cond: Cond = Cond.LT
    spec_range: int = 0                 # sentinel speculative range
    chunk: int | None = None            # partial vectorization chunk
    must_reverify: bool = False         # dynamic-range type A
    leftover: Leftover = Leftover.SINGLE_ELEMENTS
    stream_gaps: dict = field(default_factory=dict)  # pc -> (gap, is_write, dtype)


class _State(Enum):
    COLLECT = "collect"           # recording iteration 2
    ANALYZE = "analyze"           # recording iteration 3
    MAP_ANALYZE = "map_analyze"   # conditional: collecting paths
    EXECUTE = "execute"           # timing replaced by NEON burst
    COND_EXECUTE = "cond_execute"  # conditional mapping + speculation
    SCALAR = "scalar"             # verdict: leave the loop alone


class _LoopContext:
    """Per-loop runtime state inside the DSA."""

    __slots__ = (
        "loop_id", "end_pc", "state", "iteration", "window",
        "path_windows", "streams", "call_depth", "has_inner",
        "has_call", "entry", "vcache_overflow", "suppress_pcs",
        "suppress_active", "covered", "first_covered", "suppress_limit",
        "path_map", "invariants", "snapshot", "snapshot_done",
        "current_path", "last_window", "pending_abort_reason",
    )

    def __init__(self, loop_id: int, end_pc: int):
        self.loop_id = loop_id
        self.end_pc = end_pc
        self.state = _State.COLLECT
        self.iteration = 1           # completed iterations
        self.window: list[TraceRecord] = []
        #: per path signature (the tuple of pcs one iteration retired), the
        #: iterations that took it: ``{sig: [(iteration, window), ...]}``
        #: where ``window`` is that iteration's full record list — the
        #: shape ``_loop_shape`` and the conditional-verdict logic consume
        self.path_windows: dict[tuple, list[tuple[int, list[TraceRecord]]]] = {}
        self.streams: dict[int, MemStream] = {}
        self.call_depth = 0
        self.has_inner = False
        self.has_call = False
        self.entry: CacheEntry | None = None
        self.vcache_overflow = False
        # execution state
        self.suppress_pcs: frozenset = frozenset()
        self.suppress_active = False
        self.covered = 0
        self.first_covered = 0
        self.suppress_limit: int | None = None   # iterations to cover
        self.path_map: list[tuple[int, tuple]] = []
        self.invariants: dict[int, int] = {}
        self.snapshot: RegionSnapshot | None = None
        self.snapshot_done: set[int] = set()
        self.current_path: list[int] = []
        self.last_window: list = []
        self.pending_abort_reason: str | None = None


#: "no plan built yet" marker for the cover-plan cache (None is a verdict)
_UNBUILT = object()

#: cover-hook dispatch modes (sentinels compared by identity)
_COVER_SUPPRESSED = object()   # suppressed EXECUTE: codegen replay, zero timing
_COVER_POSTLIMIT = object()    # EXECUTE past the coverage limit: normal timing
_COVER_SCALAR = object()       # SCALAR verdict: record-free fast tier


class DynamicSIMDAssembler:
    """Runtime DLP detector coupled to one core.

    ``guard`` enables guarded execution: every committed vector region is
    cross-checked against the scalar reference, and a mismatch — instead of
    raising :class:`DSAVerificationError` — discards the vector outcome,
    re-charges the covered iterations as scalar work (the software analogue
    of the paper's speculation rollback) and bumps ``stats.fallbacks``.
    ``injector`` attaches a :class:`repro.faults.FaultInjector` that
    corrupts speculative state at the verification boundary, so tests can
    prove the guard catches mis-speculation rather than absorbing it.
    ``observer`` attaches a :class:`repro.observe.Observer` that receives
    a typed event for every decision the state machine takes (loop
    detection, verdicts, speculation start/commit/rollback, guard
    fallbacks, NEON bursts); with the default ``None`` an emission is one
    call to ``_emit`` and a pointer comparison, off the record hot path.
    """

    def __init__(
        self,
        config: DSAConfig | None = None,
        guard: bool = False,
        injector=None,
        observer=None,
    ):
        self.config = config or FULL_DSA_CONFIG
        self.guard = guard
        self.injector = injector
        self.observer = observer
        self.cache = DSACache(self.config)
        self.vcache = VerificationCache(self.config)
        self.array_maps = ArrayMaps(self.config.array_maps, self.config.spare_neon_regs)
        self.stats = DSAStats()
        self.core: Core | None = None
        self.contexts: dict[int, _LoopContext] = {}
        self._suppress_union: dict[int, frozenset] = {}
        self._suppress_set: frozenset = frozenset()
        #: iteration snapshot of ``contexts.values()`` — rebuilt at every
        #: context insert/remove so ``on_record`` does not allocate a list
        #: per retired instruction (same snapshot-at-loop-start semantics)
        self._ctx_snapshot: tuple[_LoopContext, ...] = ()
        #: (lo, hi) pc range in which a non-branch, non-memory record is a
        #: guaranteed no-op for *every* live context; None disables the
        #: fast path.  See ``_refresh_passive_window``.
        self._passive_window: tuple[int, int] | None = None
        #: contexts that sample memory streams (EXECUTE state) — the only
        #: ones a passive-window memory record can reach
        self._sampling_ctxs: tuple[_LoopContext, ...] = ()
        #: covered execution: static region analysis cached per
        #: (loop_id, end_pc); None records a region that can never cover
        self._cover_plans: dict[tuple[int, int], object] = {}
        #: loops an observed run reported as cover-eligible (LOOP_COVERED
        #: emitted) and not yet re-armed — observability bookkeeping only
        self._cover_marked: set[int] = set()

    @property
    def _verify_enabled(self) -> bool:
        """Guarded mode always cross-checks, even with verification off."""
        return self.config.verify_functional or self.guard

    # ------------------------------------------------------------------
    # coupling
    # ------------------------------------------------------------------
    def attach(self, core: Core) -> None:
        if self.core is not None:
            raise ReproError("DSA already attached to a core")
        self.core = core
        core.retire_hooks.append(self.on_record)
        core.timing_suppressor = self._suppressor
        self._vector = core.vector
        if core.config.covered_execution:
            core.cover_hook = self._cover_hook

    def _suppressor(self, record: TraceRecord) -> bool:
        return record.pc in self._suppress_set

    def _build_template(self, window, streams) -> LoopTemplate:
        """Lower a window against the attached core's vector backend, so
        lane/chunk math follows its width instead of NEON constants."""
        backend = self.core.vector
        return build_template(
            window,
            streams,
            width_bytes=backend.width_bytes,
            num_regs=backend.num_regs,
        )

    # ------------------------------------------------------------------
    # observability (one ``observer is None`` check: zero overhead when
    # detached, and nothing here is on the record hot path)
    # ------------------------------------------------------------------
    def _emit(self, kind: EventKind, **args) -> None:
        """Emit one event stamped with the core's current cycle."""
        obs = self.observer
        if obs is not None:
            cycle = self.core.timing.cycles if self.core is not None else None
            obs.emit(kind, cycle=cycle, **args)

    def _rebuild_suppression(self) -> None:
        pcs: set[int] = set()
        for ctx in self.contexts.values():
            if ctx.suppress_active:
                pcs.update(ctx.suppress_pcs)
        self._suppress_set = frozenset(pcs)

    # ------------------------------------------------------------------
    # covered execution (the record-free release protocol)
    # ------------------------------------------------------------------
    # Once a loop is fully characterized, tracing it buys nothing: the
    # per-record effects are *predictable* (suppressed EXECUTE: one
    # suppressed retirement plus one expected-address check per memory op
    # per iteration; SCALAR: just the observation counter).  The cover
    # hook — installed by attach() when CPUConfig.covered_execution —
    # lets the core hand a whole region to the record-free runners in
    # repro.cpu.covered and bulk-folds the identical bookkeeping after
    # the fact, so every serialized stat, cycle and context transition
    # stays byte-identical to the traced loop.  Any phase-change signal
    # re-arms tracing: control leaving the region, an address
    # misprediction, the coverage limit, a backward branch the static
    # scan did not bless, guard mode, a fault injector, an attached
    # observer, or extra retire hooks (e.g. a wall-clock deadline).
    def _cover_hook(self, head_pc: int, limit: int) -> None:
        """Called by the traced loop at every taken backward branch.

        Retires a covered stretch of the loop record-free when the region
        is eligible (control is then wherever it left the region);
        otherwise returns at once and the traced loop carries on exactly
        as if covering did not exist.
        """
        ctx = self.contexts.get(head_pc)
        if ctx is None:
            return
        state = ctx.state
        if state is _State.EXECUTE:
            if ctx.pending_abort_reason is not None:
                return
            # suppressed EXECUTE replays the codegen block; once the
            # coverage limit deactivates suppression the remaining
            # iterations run with normal timing ("post-limit")
            mode = _COVER_SUPPRESSED if ctx.suppress_active else _COVER_POSTLIMIT
        elif state is _State.SCALAR:
            mode = _COVER_SCALAR
        else:
            return  # verdict pending or COND_EXECUTE: keep tracing
        if self.guard or self.injector is not None:
            return
        core = self.core
        if self.observer is not None or core.observer is not None:
            return  # observation needs the record stream
        hooks = core.retire_hooks
        if (
            len(hooks) != 1
            or hooks[0] != self.on_record  # == : bound methods are re-created per access
            or core.timing_suppressor != self._suppressor
        ):
            return  # someone else reads records (deadline hook, ...)
        if mode is _COVER_SUPPRESSED:
            plan = self._suppressed_cover_plan(ctx)
        else:
            plan = self._cover_plan(head_pc, ctx.end_pc)
        if plan is None:
            return
        # every other live context must be inert (SCALAR) and must contain
        # this region: an out-of-range context would be finalized by the
        # first record of each iteration, and delaying that could diverge
        # loop re-detection
        for other in self._ctx_snapshot:
            if other is ctx:
                continue
            if other.state is not _State.SCALAR:
                return
            if other.call_depth <= 0 and not (
                other.loop_id <= head_pc and ctx.end_pc <= other.end_pc
            ):
                return
        if mode is _COVER_SUPPRESSED:
            self._run_suppressed_cover(ctx, plan, limit)
            return
        if self._suppress_set:
            return  # records in-region would be claimed: keep tracing
        if mode is _COVER_POSTLIMIT:
            if not plan.stride_safe:
                return  # sample appends would be live state
            if any(pc not in ctx.streams for pc in plan.mem_pcs):
                return  # a fresh pc would raise an unknown-path abort
            self._run_window_cover(plan, limit, ctx)
        else:
            self._run_window_cover(plan, limit)

    def _cover_plan(self, head_pc: int, end_pc: int):
        key = (head_pc, end_pc)
        plan = self._cover_plans.get(key, _UNBUILT)
        if plan is _UNBUILT:
            dec = self.core._decoded if self.core is not None else None
            plan = scan_region(dec, head_pc, end_pc) if dec is not None else None
            if plan is not None and plan.straight:
                compile_covered(dec, plan)
            self._cover_plans[key] = plan
        return plan

    def _suppressed_cover_plan(self, ctx: _LoopContext):
        """The plan that replays ``ctx``'s suppressed EXECUTE record-free,
        or None when the region cannot be covered that way.

        Guard mode and a fault injector need every record; the plan must
        be built, its block compiled, and its pcs exactly the suppressed
        ones.  The cover hook and the LOOP_COVERED event both ask here.
        """
        if self.guard or self.injector is not None:
            return None
        plan = self._cover_plan(ctx.loop_id, ctx.end_pc)
        if plan is None or plan.block is None or ctx.suppress_pcs != plan.pcs:
            return None
        return plan

    def _run_suppressed_cover(self, ctx: _LoopContext, plan, limit: int) -> None:
        """Release a suppressed-EXECUTE region and replay the DSA effects.

        The traced world's per-record effects during suppressed execution
        are exactly: note_suppressed() per retirement, records_observed,
        one expected-address comparison per memory op (mismatch ⇒ pending
        abort + a non-vectorizable cache insert), covered/iteration bumps
        at each boundary, deactivation at the coverage limit, and abort at
        a *taken* boundary with a pending reason.  (Stream samples are
        also appended, but during suppression they equal the prediction by
        construction — a deviating access aborts instead — so skipping
        them is unobservable: ``gap()`` and ``addr_at`` are fixed by the
        first samples.)  All of it is folded here in bulk.  ``plan`` comes
        from :meth:`_suppressed_cover_plan`.
        """
        if ctx.suppress_limit is not None:
            budget = ctx.suppress_limit - ctx.covered
            if budget <= 0:
                return
        else:
            budget = 1 << 60
        current = ctx.iteration + 1
        exps: list[int] = []
        gaps: list[int] = []
        for pc in plan.mem_pcs:
            stream = ctx.streams.get(pc)
            if stream is None:
                return  # unsampled access pattern: keep tracing
            a = stream.addr_at(current)
            if a is None:
                return  # irregular stride: every access must abort-check
            exps.append(a)
            gaps.append(stream.gap())
        core = self.core
        cache = self.cache
        loop_id = ctx.loop_id
        n = plan.n_ops

        def on_mismatch() -> None:
            # replay of _sample_stream's misprediction branch, once per
            # deviating access (repeat inserts only refresh LRU order)
            ctx.pending_abort_reason = "address misprediction"
            cache.insert(loop_id, CacheEntry(
                kind=LoopKind.NON_VECTORIZABLE,
                vectorizable=False,
                reason="address misprediction at runtime",
            ))

        seq0 = core.seq
        try:
            seq, taken, iters, bad = plan.block(
                core, seq0, limit, budget, exps, gaps, on_mismatch
            )
        except BaseException:
            f_iters, f_k = core._block_fault
            core.seq = seq0 + f_iters * n + f_k
            core.pc = plan.head_pc + (f_k << 2)
            self._fold_covered(plan, f_iters, f_k)
            ctx.iteration += f_iters
            ctx.covered += f_iters  # completed iterations all hit boundaries
            raise
        core.seq = seq
        core.pc = plan.head_pc if taken else plan.end_pc + 4
        self._fold_covered(plan, iters, 0)
        ctx.iteration += iters
        if bad:
            if taken:
                # the bad iteration reached a taken boundary: abort before
                # its covered increment, exactly like _iteration_boundary
                ctx.covered += iters - 1
                self._abort_execution(ctx)
            else:
                # fall-through exit never checks pending aborts — the final
                # iteration still counts and commits later (same quirk as
                # _observe's fall-through arm)
                ctx.covered += iters
        else:
            ctx.covered += iters
            if (
                taken
                and ctx.suppress_limit is not None
                and ctx.covered >= ctx.suppress_limit
            ):
                ctx.suppress_active = False
                self._rebuild_suppression()

    def _fold_covered(self, plan, iters: int, k: int) -> None:
        """Bulk-fold what the traced world would have done per record."""
        retired = iters * plan.n_ops + k
        if not retired:
            return
        core = self.core
        self.stats.records_observed += retired
        core.timing.stats.suppressed_instructions += retired
        core.tier_counts["covered"] += retired
        icounts = core.icounts
        if iters:
            for kind, cnt in plan.kind_counts.items():
                icounts[kind] += cnt * iters
        if k:
            ops = core._decoded.ops
            h = plan.head_idx
            for j in range(k):
                icounts[ops[h + j].kind_name] += 1

    def _run_window_cover(self, plan, limit: int, ctx: _LoopContext | None = None) -> None:
        """Release a region to the core's fast loop, bounded to its window.

        Timing, hierarchy traffic and icounts are charged natively by the
        loop; the DSA folds only its own counters.

        * SCALAR verdict (no ``ctx``): a SCALAR context's only per-record
          effect inside its range is the observation counter — sampling is
          state-gated off, windows are not appended, and the boundary bumps
          an iteration count nothing reads for SCALAR.
        * EXECUTE past the coverage limit (``ctx`` given): after
          ``_iteration_boundary`` deactivates suppression, the per-record
          effects are ``records_observed``, the per-boundary
          ``ctx.iteration`` bump, and one stream sample append per memory
          op per iteration.  The eligibility gate (``plan.stride_safe``
          plus a live stream for every memory pc) proves those appends
          would continue each stream's exact stride — and
          ``MemStream.gap()`` tolerates iteration holes — so every later
          read (``gap()`` and ``samples[0]`` at commit/verify time) is
          unchanged when they are skipped.
        """
        core = self.core
        seq0 = core.seq
        try:
            core._run_decoded_fast(
                core._decoded, limit, (plan.head_pc, plan.end_pc), "covered"
            )
        finally:
            self.stats.records_observed += core.seq - seq0
            if ctx is not None:
                ctx.iteration += core._region_boundaries

    # ------------------------------------------------------------------
    # record stream
    # ------------------------------------------------------------------
    def on_record(self, record: TraceRecord) -> None:
        self.stats.records_observed += 1

        # Passive-window fast path.  A record with no branch outcome whose
        # pc lies inside the window cannot change any context's shape (no
        # call tracking, no window append, no boundary, no finalize) and
        # cannot start a loop.  Without accesses it is a complete no-op;
        # with accesses only EXECUTE-state contexts react, and only by
        # sampling the stream (which never moves states, bounds, or the
        # context set, so the window stays valid without a refresh).
        if record.branch_taken is None:
            w = self._passive_window
            if w is not None and w[0] <= record.pc < w[1]:
                if not record.accesses:
                    return
                if isinstance(record.instr, Mem):
                    for ctx in self._sampling_ctxs:
                        self._sample_stream(ctx, record)
                return

        observe = self._observe
        for ctx in self._ctx_snapshot:
            observe(ctx, record)

        if (
            record.branch_taken
            and record.next_pc < record.pc
            and record.next_pc not in self.contexts
        ):
            self._loop_detected(record)

        self._refresh_passive_window()

    def _refresh_passive_window(self) -> None:
        """Recompute the no-op pc window after any slow-path record.

        The window is valid only while every live context is in a state
        with no per-record bookkeeping for plain in-range records (EXECUTE
        samples memory only; SCALAR tracks nothing).  COLLECT/ANALYZE/
        MAP_ANALYZE append every in-range record to the iteration window
        and COND_EXECUTE appends to the path signature, so any such
        context disables the fast path entirely.  The bounds intersect all
        context ranges and stay strictly below every ``end_pc`` so
        iteration boundaries always take the slow path.
        """
        lo = 0
        hi: int | None = None
        sampling: list[_LoopContext] = []
        for ctx in self._ctx_snapshot:
            state = ctx.state
            if state is _State.EXECUTE:
                sampling.append(ctx)
            elif state is not _State.SCALAR:
                self._passive_window = None
                return
            if ctx.loop_id > lo:
                lo = ctx.loop_id
            if hi is None or ctx.end_pc < hi:
                hi = ctx.end_pc
        if hi is not None and lo < hi:
            self._passive_window = (lo, hi)
            self._sampling_ctxs = tuple(sampling)
        else:
            self._passive_window = None

    # ------------------------------------------------------------------
    def _loop_detected(self, record: TraceRecord) -> None:
        """A taken backward branch to a loop the DSA is not tracking."""
        loop_id, end_pc = record.next_pc, record.pc
        self.stats.loops_detected += 1
        self.stats.stage_activations["loop_detection"] += 1

        # an inner loop inside a loop under analysis: the outer loop cannot
        # be vectorized as a unit (the inner one is handled on its own)
        for ctx in self.contexts.values():
            if ctx.state in (_State.COLLECT, _State.ANALYZE, _State.MAP_ANALYZE):
                if ctx.loop_id <= loop_id and end_pc <= ctx.end_pc:
                    ctx.has_inner = True

        entry = self.cache.lookup(loop_id)
        self._charge_detection(self.config.latencies.dsa_cache_access)
        self._emit(EventKind.LOOP_DETECTED, loop_id=hex(loop_id), end_pc=hex(end_pc))
        self._emit(
            EventKind.CACHE_HIT if entry is not None else EventKind.CACHE_MISS,
            cache="dsa_cache", key=hex(loop_id),
        )
        if entry is not None:
            self._start_from_cache(loop_id, end_pc, entry)
            return
        ctx = _LoopContext(loop_id, end_pc)
        self.contexts[loop_id] = ctx
        self._ctx_snapshot = tuple(self.contexts.values())
        self.stats.analyses_started += 1
        self.stats.stage_activations["data_collection"] += 1

    # ------------------------------------------------------------------
    def _observe(self, ctx: _LoopContext, record: TraceRecord) -> None:
        pc = record.pc

        # function-call tracking keeps callee instructions "inside"
        in_range = ctx.loop_id <= pc <= ctx.end_pc
        if in_range or ctx.call_depth > 0:
            # only branch-class records can open/close a call; everything
            # else skips the isinstance ladder entirely
            if record.branch_taken is not None:
                instr = record.instr
                if isinstance(instr, Branch):
                    if instr.link:
                        ctx.call_depth += 1
                        ctx.has_call = True
                elif ctx.call_depth > 0 and isinstance(instr, BranchReg):
                    ctx.call_depth -= 1
            if not in_range and ctx.call_depth <= 0:
                return
        elif (
            not record.branch_taken
            or record.next_pc >= pc
            or record.next_pc != ctx.loop_id
        ):
            # completely outside this loop: it has ended
            self._finalize(ctx)
            return
        else:
            # outside the body, but a backward branch into the loop head
            # (re-entry): nothing to observe on this record
            return

        # continuous stream sampling (loops left alone need no bookkeeping)
        if ctx.state is not _State.SCALAR and record.accesses and isinstance(record.instr, Mem):
            self._sample_stream(ctx, record)

        if ctx.state in (_State.COLLECT, _State.ANALYZE, _State.MAP_ANALYZE):
            ctx.window.append(record)
        elif ctx.state is _State.COND_EXECUTE:
            ctx.current_path.append(pc)

        # iteration boundary: the backward branch at the loop's end
        if pc == ctx.end_pc and record.branch_taken and record.next_pc == ctx.loop_id:
            self._iteration_boundary(ctx)
        elif pc == ctx.end_pc and record.branch_taken is False:
            # fall-through exit: close the final iteration (the next record
            # lies outside the loop and triggers finalization)
            ctx.iteration += 1
            if ctx.state is _State.EXECUTE and ctx.suppress_active:
                ctx.covered += 1
            elif ctx.state is _State.COND_EXECUTE and ctx.suppress_active and ctx.entry:
                sig = tuple(ctx.current_path)
                ctx.current_path = []
                if sig in ctx.entry.path_templates:
                    ctx.covered += 1
                    ctx.path_map.append((ctx.iteration, sig))

    # ------------------------------------------------------------------
    def _sample_stream(self, ctx: _LoopContext, record: TraceRecord) -> None:
        instr = record.instr
        assert isinstance(instr, Mem)
        access = record.accesses[0]
        stream = ctx.streams.get(record.pc)
        if stream is None:
            if ctx.state not in (_State.COLLECT, _State.ANALYZE, _State.MAP_ANALYZE):
                # a new access pattern mid-execution: unknown path
                ctx.pending_abort_reason = "unknown path during execution"
                return
            if not self.vcache.record(record.pc, access.addr):
                ctx.vcache_overflow = True
                return
            stream = MemStream(pc=record.pc, is_write=access.is_write, dtype=instr.dtype)
            ctx.streams[record.pc] = stream
        current_iter = ctx.iteration + 1
        if ctx.state in (_State.EXECUTE, _State.COND_EXECUTE):
            if ctx.suppress_active:
                # the verification cache keeps checking every iteration: an
                # address deviating from the prediction means the analysis
                # mis-speculated and the NEON hand-off must be cancelled
                predicted = stream.addr_at(current_iter)
                if predicted is not None and predicted != access.addr:
                    ctx.pending_abort_reason = "address misprediction"
                    self.cache.insert(
                        ctx.loop_id,
                        CacheEntry(
                            kind=LoopKind.NON_VECTORIZABLE,
                            vectorizable=False,
                            reason="address misprediction at runtime",
                        ),
                    )
                    return
            # the fast-resume path pre-seeds a synthetic sample for the
            # current iteration; keep one sample per iteration here
            if stream.samples and stream.samples[-1][0] >= current_iter:
                return
            stream.add_sample(current_iter, access.addr)
            return
        # during analysis, a second access by the same pc within one
        # iteration makes gap() irregular, rejecting the stream — intended
        stream.add_sample(current_iter, access.addr)

    # ------------------------------------------------------------------
    def _iteration_boundary(self, ctx: _LoopContext) -> None:
        ctx.iteration += 1
        window, ctx.window = ctx.window, []
        if ctx.state in (_State.COLLECT, _State.ANALYZE, _State.MAP_ANALYZE):
            self.stats.detection_cycles += len(window)
            ctx.last_window = window
            ctx.path_windows.setdefault(tuple(r.pc for r in window), []).append((ctx.iteration, window))

        if ctx.state is _State.COLLECT:
            if self._try_fast_resume(ctx, window):
                return
            ctx.state = _State.ANALYZE
            self.stats.stage_activations["dependency_analysis"] += 1
        elif ctx.state is _State.ANALYZE:
            self._analyze(ctx)
        elif ctx.state is _State.MAP_ANALYZE:
            self.stats.stage_activations["mapping"] += 1
            self._try_conditional_verdict(ctx)
        elif ctx.state is _State.EXECUTE:
            if ctx.pending_abort_reason:
                self._abort_execution(ctx)
                return
            if ctx.suppress_active:
                ctx.covered += 1
                if ctx.suppress_limit is not None and ctx.covered >= ctx.suppress_limit:
                    ctx.suppress_active = False
                    self._rebuild_suppression()
                    self._note_rearm(ctx, "coverage limit reached")
        elif ctx.state is _State.COND_EXECUTE:
            if ctx.pending_abort_reason:
                self._abort_execution(ctx)
                return
            sig = tuple(ctx.current_path)
            ctx.current_path = []
            assert ctx.entry is not None
            if sig not in ctx.entry.path_templates:
                if not set(sig) & set(ctx.entry.suppress_pcs):
                    # a path that executes no vectorized arm (e.g. the
                    # not-taken side first appearing mid-execution): the
                    # vector map records it; nothing was speculated for it
                    ctx.entry.path_templates[sig] = None
                else:
                    self.stats.unknown_path_aborts += 1
                    self._abort_execution(ctx)
                    return
            ctx.covered += 1
            ctx.path_map.append((ctx.iteration, sig))
            if ctx.suppress_limit is not None and ctx.covered >= ctx.suppress_limit:
                ctx.suppress_active = False
                self._rebuild_suppression()

    # ------------------------------------------------------------------
    # cache-hit fast resume (end of iteration 2)
    # ------------------------------------------------------------------
    _FAST_KINDS = (LoopKind.COUNT, LoopKind.FUNCTION, LoopKind.DYNAMIC_RANGE, LoopKind.PARTIAL)

    def _try_fast_resume(self, ctx: _LoopContext, window: list[TraceRecord]) -> bool:
        """DSA-cache hit on a straight loop: skip collection/analysis.

        The cached template already knows the body dataflow and every
        stream's per-iteration gap; this invocation's window supplies the
        new base addresses and the current loop bound (the hardware reads
        them from the register file).  CIDP is re-run because relative
        stream distances shift with the bases — which is also what makes
        dynamic-range type A loops safe to re-vectorize (Fig. 24).
        """
        entry = ctx.entry
        if entry is None or not entry.vectorizable or entry.kind not in self._FAST_KINDS:
            return False
        template = entry.template
        if template is None or not entry.stream_gaps:
            return False
        # rebase every remembered stream onto this invocation's addresses
        rebased: dict[int, MemStream] = {}
        for pc, (gap, is_write, dtype) in entry.stream_gaps.items():
            observed = ctx.streams.get(pc)
            if observed is None or gap is None:
                return False  # different path than last time: re-analyze
            addr2 = observed.samples[0][1]
            stream = MemStream(pc=pc, is_write=is_write, dtype=dtype)
            stream.add_sample(2, addr2)
            stream.add_sample(3, addr2 + gap)
            rebased[pc] = stream
        if any(pc not in rebased for pc in ctx.streams):
            return False  # new accesses appeared: re-analyze from scratch

        # current bound/induction from this window's loop-control compare
        cmp_rec = next((r for r in window if r.pc == entry.cmp_pc), None)
        if cmp_rec is None or entry.induction_reg is None:
            return False
        value_now = cmp_rec.read_value(entry.induction_reg)
        if value_now is None:
            return False
        if entry.bound_kind == "imm":
            bound_now = entry.bound_value
        else:
            bound_now = cmp_rec.read_value(entry.bound_value)
            if bound_now is None:
                return False
        info = {
            "value_now": to_s32(value_now),
            "bound_now": to_s32(bound_now),
            "step": entry.step,
            "cond": entry.branch_cond,
        }
        remaining = self._remaining_iterations(info)
        last_iteration = ctx.iteration + remaining

        self._charge_detection(self.config.latencies.dsa_cache_access)
        verdict = predict_cid(list(rebased.values()), last_iteration)
        chunk = entry.chunk
        kind = entry.kind
        if verdict.dependent:
            chunk = safe_chunk(verdict, template.lanes) if self.config.features.partial else None
            if chunk is None:
                ctx.state = _State.SCALAR
                return True
            kind = LoopKind.PARTIAL
        elif kind is LoopKind.PARTIAL:
            kind = LoopKind.DYNAMIC_RANGE if entry.bound_kind == "reg" else LoopKind.COUNT
            chunk = None

        live = replace(
            entry,
            kind=kind,
            chunk=chunk,
            template=replace(template, streams={pc: rebased[pc] for pc in template.streams}),
        )
        ctx.streams = rebased
        self.stats.vectorized_invocations["cache_fast_path"] += 1
        self._begin_execution(ctx, live, remaining)
        return True

    # ------------------------------------------------------------------
    # analysis (end of iteration 3)
    # ------------------------------------------------------------------
    def _analyze(self, ctx: _LoopContext) -> None:
        feats = self._loop_shape(ctx)
        if ctx.has_inner:
            self._reject(ctx, LoopKind.NESTED_OUTER, "contains inner loop")
            return
        if ctx.vcache_overflow:
            self._reject(ctx, LoopKind.NON_VECTORIZABLE, "verification cache overflow")
            return

        if feats["conditional"]:
            if not (self.config.features.conditional and (not ctx.has_call or self.config.features.function)):
                self._reject(ctx, LoopKind.CONDITIONAL, "conditional loops disabled")
                return
            ctx.state = _State.MAP_ANALYZE
            self.stats.stage_activations["mapping"] += 1
            self._try_conditional_verdict(ctx)
            return

        if feats["sentinel"]:
            self._analyze_sentinel(ctx)
            return

        self._analyze_straight(ctx)

    def _loop_shape(self, ctx: _LoopContext) -> dict:
        """Classify the loop's control structure from the observed windows."""
        conditional = False
        sentinel = False
        for windows in ctx.path_windows.values():
            for _, window in windows:
                for rec in window:
                    instr = rec.instr
                    if isinstance(instr, Branch) and rec.pc != ctx.end_pc:
                        assert isinstance(instr.target, int)
                        if instr.cond is not Cond.AL and ctx.loop_id <= instr.target <= ctx.end_pc:
                            conditional = True
                        elif instr.cond is Cond.AL and not instr.link:
                            # internal unconditional jump (if/else join)
                            conditional = True
                        elif instr.cond is not Cond.AL and not (
                            ctx.loop_id <= instr.target <= ctx.end_pc
                        ):
                            sentinel = True
        if len(ctx.path_windows) > 1:
            conditional = True
        back = None
        for windows in ctx.path_windows.values():
            for _, window in windows:
                if window and window[-1].pc == ctx.end_pc:
                    back = window[-1].instr
        if back is not None and isinstance(back, Branch) and back.cond is Cond.AL:
            sentinel = True
        if sentinel:
            conditional = False  # sentinel handling wins for While loops
        return {"conditional": conditional, "sentinel": sentinel}

    # ------------------------------------------------------------------
    def _find_bound(self, ctx: _LoopContext, window: list[TraceRecord]) -> dict | None:
        """Locate the loop-control compare and extract bound + induction."""
        back = window[-1]
        if not isinstance(back.instr, Branch) or back.instr.cond is Cond.AL:
            return None
        cmp_rec = None
        for rec in reversed(window[:-1]):
            if isinstance(rec.instr, Cmp) and rec.instr.kind is CmpKind.CMP:
                cmp_rec = rec
                break
        if cmp_rec is None:
            return None
        instr = cmp_rec.instr
        induction_reg = instr.rn.index
        value_now = cmp_rec.read_value(induction_reg)
        if isinstance(instr.op2, Imm):
            bound_kind, bound_value, bound_now = "imm", instr.op2.value, instr.op2.value
        elif isinstance(instr.op2, Reg):
            bound_kind, bound_value = "reg", instr.op2.index
            bound_now = cmp_rec.read_value(instr.op2.index)
        else:
            return None
        # induction step: compare against the nearest earlier sighting of
        # the same compare, normalised by the iteration distance (windows
        # of different conditional paths may be several iterations apart)
        prev: tuple[int, int] | None = None  # (iteration, value)
        for windows in ctx.path_windows.values():
            for it, w in windows:
                for rec in w:
                    if rec.pc == cmp_rec.pc and rec.seq < cmp_rec.seq:
                        value = rec.read_value(induction_reg)
                        if value is not None and (prev is None or it > prev[0]):
                            prev = (it, value)
        if prev is None or value_now is None or bound_now is None:
            return None
        delta_iter = ctx.iteration - prev[0]
        if delta_iter <= 0:
            return None
        raw_step = to_s32(value_now) - to_s32(prev[1])
        if raw_step == 0 or raw_step % delta_iter:
            return None
        step = raw_step // delta_iter
        return {
            "cmp_pc": cmp_rec.pc,
            "bound_kind": bound_kind,
            "bound_value": bound_value,
            "bound_now": to_s32(bound_now),
            "induction_reg": induction_reg,
            "value_now": to_s32(value_now),
            "step": step,
            "cond": back.instr.cond,
        }

    @staticmethod
    def _remaining_iterations(info: dict) -> int:
        """Iterations still to run after the current one, from the compare."""
        v, bound, step, cond = info["value_now"], info["bound_now"], info["step"], info["cond"]
        if step > 0 and cond in (Cond.LT, Cond.NE, Cond.LO):
            return max(0, math.ceil((bound - v) / step))
        if step > 0 and cond is Cond.LE:
            return max(0, math.floor((bound - v) / step) + 1)
        if step < 0 and cond in (Cond.GT, Cond.NE):
            return max(0, math.ceil((v - bound) / -step))
        if step < 0 and cond is Cond.GE:
            return max(0, math.floor((v - bound) / -step) + 1)
        return 0

    # ------------------------------------------------------------------
    def _analyze_straight(self, ctx: _LoopContext) -> None:
        window = ctx.path_windows[next(iter(ctx.path_windows))][-1][1]
        info = self._find_bound(ctx, window)
        if info is None:
            self._reject(ctx, LoopKind.NON_VECTORIZABLE, "no recognizable loop bound")
            return

        kind = LoopKind.COUNT
        if ctx.has_call:
            kind = LoopKind.FUNCTION
        if info["bound_kind"] == "reg":
            kind = LoopKind.DYNAMIC_RANGE

        gate = {
            LoopKind.COUNT: self.config.features.count,
            LoopKind.FUNCTION: self.config.features.function,
            LoopKind.DYNAMIC_RANGE: self.config.features.dynamic_range,
        }[kind]
        if not gate:
            self._reject(ctx, kind, f"{kind.value} loops disabled", info=info)
            return

        try:
            template = self._build_template(window, ctx.streams)
        except TemplateReject as exc:
            self._reject(ctx, LoopKind.NON_VECTORIZABLE, str(exc), info=info)
            return

        remaining = self._remaining_iterations(info)
        last_iteration = ctx.iteration + remaining
        self.stats.detection_cycles += len(ctx.streams)
        self._charge_detection(self.config.latencies.verification_cache_access)
        # the verification cache holds EVERY observed access, including
        # pinned (loop-invariant) loads that never enter the template —
        # a walking store hitting one of those is still a dependency
        verdict = predict_cid(list(ctx.streams.values()), last_iteration)
        chunk = None
        if verdict.dependent:
            chunk = safe_chunk(verdict, template.lanes) if self.config.features.partial else None
            if chunk is None:
                self._reject(ctx, LoopKind.NON_VECTORIZABLE, "cross-iteration dependency", info=info)
                return
            kind = LoopKind.PARTIAL

        entry = CacheEntry(
            kind=kind,
            vectorizable=True,
            template=template,
            suppress_pcs=frozenset(r.pc for r in window),
            cmp_pc=info["cmp_pc"],
            bound_kind=info["bound_kind"],
            bound_value=info["bound_value"],
            induction_reg=info["induction_reg"],
            step=info["step"],
            branch_cond=info["cond"],
            chunk=chunk,
            must_reverify=(info["bound_kind"] == "reg"),
            leftover=self._choose_leftover(template),
            stream_gaps={
                pc: (st.gap(), st.is_write, st.dtype) for pc, st in ctx.streams.items()
            },
        )
        self._accept(ctx, entry, template.lanes, len(template.streams))
        self._begin_execution(ctx, entry, remaining)

    # ------------------------------------------------------------------
    def _analyze_sentinel(self, ctx: _LoopContext) -> None:
        if not self.config.features.sentinel:
            self._reject(ctx, LoopKind.SENTINEL, "sentinel loops disabled")
            return
        window = ctx.path_windows[next(iter(ctx.path_windows))][-1][1]
        # the exit branch: first conditional branch leaving the loop range
        exit_pc = None
        for rec in window:
            instr = rec.instr
            if (
                isinstance(instr, Branch)
                and instr.cond is not Cond.AL
                and isinstance(instr.target, int)
                and not (ctx.loop_id <= instr.target <= ctx.end_pc)
            ):
                exit_pc = rec.pc
                break
        if exit_pc is None:
            self._reject(ctx, LoopKind.NON_VECTORIZABLE, "sentinel without exit branch")
            return
        try:
            template = self._build_template(window, ctx.streams)
        except TemplateReject as exc:
            self._reject(ctx, LoopKind.SENTINEL, str(exc))
            return

        # the speculative range fills the vector unit on the first run and
        # follows the last observed range on later invocations (Fig. 23)
        if ctx.entry is not None and ctx.entry.kind is LoopKind.SENTINEL and ctx.entry.spec_range:
            spec_range = ctx.entry.spec_range
        else:
            spec_range = template.lanes
        verdict = predict_cid(list(ctx.streams.values()), ctx.iteration + spec_range)
        if verdict.dependent:
            self._reject(ctx, LoopKind.SENTINEL, "cross-iteration dependency")
            return

        # the stop-condition computation keeps running on the scalar core
        scalar_pcs = {r.pc for r in window if r.pc <= exit_pc} | {ctx.end_pc}
        entry = CacheEntry(
            kind=LoopKind.SENTINEL,
            vectorizable=True,
            template=template,
            suppress_pcs=frozenset(r.pc for r in window) - frozenset(scalar_pcs),
            spec_range=spec_range,
            leftover=Leftover.SINGLE_ELEMENTS,
        )
        self._accept(ctx, entry, template.lanes, len(template.streams))
        self._begin_execution(ctx, entry, entry.spec_range, sentinel=True)

    # ------------------------------------------------------------------
    # conditional loops
    # ------------------------------------------------------------------
    def _try_conditional_verdict(self, ctx: _LoopContext) -> None:
        """Check the paper's two completion criteria: every loop-body PC was
        covered by some path, and every path has two sightings for CIDP."""
        body_pcs = set(range(ctx.loop_id, ctx.end_pc + 4, 4))
        if not body_pcs <= set().union(*ctx.path_windows):
            if ctx.iteration > 64:
                # paths never complete (e.g. data-dependent rare branch);
                # give up for this invocation
                self.stats.analyses_aborted += 1
                ctx.state = _State.SCALAR
            return
        # a path needs a second sighting only when its own (non-shared)
        # instructions touch memory — stride verification needs two
        # addresses; an empty arm (e.g. the not-taken side of a
        # relaxation) is verified by a single pass
        sigs = list(ctx.path_windows)
        shared = frozenset(_common_prefix(sigs)) | frozenset(_common_suffix(sigs))
        for sig, pairs in ctx.path_windows.items():
            unique = set(sig) - shared
            needs_two = any(
                rec.accesses and rec.pc in unique for _, w in pairs for rec in w
            )
            if needs_two and len(pairs) < 2:
                return

        # build one template per path
        path_templates: dict[tuple, LoopTemplate] = {}
        info = self._find_bound(ctx, ctx.last_window)
        if info is None:
            self._reject(ctx, LoopKind.CONDITIONAL, "no recognizable loop bound")
            return
        remaining = self._remaining_iterations(info)
        last_iteration = ctx.iteration + remaining
        result_regs = 0
        for sig in sigs:
            window = ctx.path_windows[sig][-1][1]
            try:
                template = self._build_template(window, ctx.streams)
            except TemplateReject as exc:
                if str(exc).startswith("no store"):
                    # a condition arm that stores nothing (e.g. the
                    # not-taken side of a relaxation): nothing to
                    # vectorize, only the vector map records it
                    template = None
                else:
                    self._reject(ctx, LoopKind.CONDITIONAL, str(exc), info=info)
                    return
            # conservative: check the condition's streams against every
            # stream the verification cache observed (cross-path aliasing)
            verdict = predict_cid(list(ctx.streams.values()), last_iteration)
            if verdict.dependent:
                self._reject(ctx, LoopKind.CONDITIONAL, "cross-iteration dependency", info=info)
                return
            path_templates[sig] = template
            if template is not None:
                result_regs += template.result_registers

        if all(t is None for t in path_templates.values()):
            self._reject(ctx, LoopKind.CONDITIONAL, "no vectorizable condition", info=info)
            return

        if not self.array_maps.can_allocate(result_regs):
            self._reject(ctx, LoopKind.CONDITIONAL, "insufficient array maps", info=info)
            return

        entry = CacheEntry(
            kind=LoopKind.CONDITIONAL,
            vectorizable=True,
            path_templates=path_templates,
            # each path's own pcs; the shared prefix/suffix stays scalar
            suppress_pcs=frozenset().union(*sigs) - shared,
            cmp_pc=info["cmp_pc"],
            bound_kind=info["bound_kind"],
            bound_value=info["bound_value"],
            induction_reg=info["induction_reg"],
            step=info["step"],
            branch_cond=info["cond"],
            must_reverify=(info["bound_kind"] == "reg"),
        )
        lanes = next(t.lanes for t in path_templates.values() if t is not None)
        self._accept(ctx, entry, lanes, len(ctx.streams), paths=len(path_templates))
        self._begin_conditional_execution(ctx, entry, lanes, remaining)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _start(
        self, ctx: _LoopContext, entry: CacheEntry, state: _State, lanes: int, remaining: int, **spec
    ) -> bool:
        """Hand the loop's timing to the vector unit in ``state`` (EXECUTE
        or COND_EXECUTE); ``spec`` joins the SPEC_START payload.  Returns
        False, leaving the loop scalar, when fewer iterations remain than
        one vector's ``lanes`` (or the configured minimum)."""
        if remaining < max(self.config.min_vector_iterations, lanes):
            ctx.state = _State.SCALAR
            return False
        ctx.entry = entry
        ctx.state = state
        self._emit(
            EventKind.SPEC_START, loop_id=hex(ctx.loop_id), loop_kind=entry.kind.value,
            limit=remaining, **spec,
        )
        ctx.first_covered = ctx.iteration + 1
        ctx.covered = 0
        ctx.invariants = dict(enumerate(self.core.regs)) if self.core else {}
        ctx.suppress_pcs = entry.suppress_pcs
        ctx.suppress_active = True
        self.stats.stage_activations["store_id_execution"] += 1
        self.stats.vectorized_invocations[entry.kind.value] += 1
        return True

    def _begin_execution(
        self, ctx: _LoopContext, entry: CacheEntry, remaining: int, sentinel: bool = False
    ) -> None:
        template = entry.template
        assert template is not None
        if not self._start(ctx, entry, _State.EXECUTE, template.lanes, remaining, sentinel=sentinel):
            return
        if sentinel:
            ctx.suppress_limit = entry.spec_range
        elif entry.leftover is Leftover.SINGLE_ELEMENTS:
            leftover = remaining % template.lanes
            ctx.suppress_limit = remaining - leftover
        else:
            ctx.suppress_limit = remaining
        if self._verify_enabled:
            ctx.snapshot = RegionSnapshot()
            self._capture(ctx, template, ctx.suppress_limit or remaining)
        self._rebuild_suppression()
        if self.observer is not None:
            self._note_would_cover(ctx)

    def _note_would_cover(self, ctx: _LoopContext) -> None:
        """Observed runs only: covering needs the record stream gone, so it
        is disabled under observation — instead, document (LOOP_COVERED)
        that this configuration would release the region record-free, and
        COVER_REARM later marks the phase change that would force tracing
        back.  Anchored to the state machine, not the run loop, so the
        emission points do not depend on block-compilation timing; configs
        that cannot cover (the knob off) emit nothing."""
        core = self.core
        if core is None or not core.config.covered_execution:
            return
        if self._suppressed_cover_plan(ctx) is None:
            return
        self._cover_marked.add(ctx.loop_id)
        self._emit(EventKind.LOOP_COVERED, loop_id=hex(ctx.loop_id), mode="suppressed")

    def _note_rearm(self, ctx: _LoopContext, reason: str) -> None:
        if ctx.loop_id in self._cover_marked:
            self._cover_marked.discard(ctx.loop_id)
            self._emit(EventKind.COVER_REARM, loop_id=hex(ctx.loop_id), reason=reason)

    def _begin_conditional_execution(
        self, ctx: _LoopContext, entry: CacheEntry, lanes: int, remaining: int
    ) -> None:
        if not self._start(ctx, entry, _State.COND_EXECUTE, lanes, remaining):
            return
        ctx.suppress_limit = remaining
        ctx.path_map = []
        ctx.current_path = []
        self.array_maps.allocate(
            sum(t.result_registers for t in entry.path_templates.values() if t is not None)
        )
        if self._verify_enabled:
            ctx.snapshot = RegionSnapshot()
            for template in entry.path_templates.values():
                if template is not None:
                    self._capture(ctx, template, remaining)
        self._rebuild_suppression()

    # ------------------------------------------------------------------
    def _capture(self, ctx: _LoopContext, template: LoopTemplate, count: int) -> None:
        """Snapshot, into ``ctx.snapshot``, the memory each of ``template``'s
        streams spans over ``count`` iterations from ``ctx.first_covered``;
        a stream pc shared by several path templates is captured once."""
        assert self.core is not None and ctx.snapshot is not None
        done = ctx.snapshot_done
        for pc, stream in template.streams.items():
            if pc in done:
                continue
            done.add(pc)
            gap = stream.gap()
            if gap is None:
                continue
            start = stream.addr_at(ctx.first_covered)
            if start is None:
                continue
            end = start + gap * (count + 1) + stream.dtype.size
            lo, hi = (start, end) if gap >= 0 else (end, start)
            ctx.snapshot.capture(self.core.memory, lo - 16, (hi - lo) + 32)

    # ------------------------------------------------------------------
    # cache-hit fast path
    # ------------------------------------------------------------------
    def _start_from_cache(self, loop_id: int, end_pc: int, entry: CacheEntry) -> None:
        """DSA-cache hit.

        Known non-vectorizable loops go straight to the SCALAR state (the
        hit saves the whole analysis).  Vectorizable loops re-run the
        observation window: the paper's DRL-A and sentinel loops re-verify
        on every invocation anyway (Figs. 23/24), and cached hints (the
        sentinel's remembered speculative range) are picked up from
        ``ctx.entry`` during the re-analysis.
        """
        ctx = _LoopContext(loop_id, end_pc)
        self.contexts[loop_id] = ctx
        self._ctx_snapshot = tuple(self.contexts.values())
        ctx.entry = entry
        if not entry.vectorizable and not entry.must_reverify:
            # a definitively non-vectorizable loop stays scalar; verdicts
            # that depend on runtime values (dynamic ranges, conditional
            # loops with register bounds) are re-checked per invocation
            ctx.state = _State.SCALAR
            return
        ctx.state = _State.COLLECT

    # ------------------------------------------------------------------
    def _abort_execution(self, ctx: _LoopContext) -> None:
        """Unknown behaviour mid-execution: cancel the NEON hand-off.

        Results stay correct (the scalar core did the work all along); the
        iterations whose timing was already suppressed are re-charged as an
        equivalent scalar stall so the cancelled speculation is not free.
        """
        self.stats.analyses_aborted += 1
        self._charge_stall(ctx.covered * max(1, len(ctx.suppress_pcs)))
        self._emit(
            EventKind.SPEC_ROLLBACK, loop_id=hex(ctx.loop_id),
            reason=ctx.pending_abort_reason or "unknown path", covered=ctx.covered,
        )
        ctx.suppress_active = False
        ctx.state = _State.SCALAR
        ctx.covered = 0
        ctx.path_map = []
        self._rebuild_suppression()
        self._note_rearm(ctx, ctx.pending_abort_reason or "execution aborted")

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------
    def _finalize(self, ctx: _LoopContext) -> None:
        try:
            if ctx.state in (_State.EXECUTE, _State.COND_EXECUTE) and ctx.covered:
                self._commit(ctx)
            elif ctx.state in (_State.COLLECT, _State.ANALYZE, _State.MAP_ANALYZE):
                self.stats.analyses_aborted += 1
        finally:
            self.array_maps.release_all()
            self.vcache.reset()
            self.contexts.pop(ctx.loop_id, None)
            self._ctx_snapshot = tuple(self.contexts.values())
            self._rebuild_suppression()
            self._note_rearm(ctx, "control left the region")

    def _commit(self, ctx: _LoopContext) -> None:
        """Charge the NEON bursts for the covered iterations, then verify
        them against the scalar results."""
        entry = ctx.entry
        assert entry is not None
        lat = self.config.latencies
        self._charge_stall(lat.pipeline_flush + lat.dsa_cache_access)
        straight = ctx.state is _State.EXECUTE
        if straight:
            self._charge_straight(ctx, entry)
        else:
            self._charge_conditional(ctx, entry)
        self.stats.iterations_covered += ctx.covered
        self._emit(
            EventKind.SPEC_COMMIT, loop_id=hex(ctx.loop_id), covered=ctx.covered,
            loop_kind=entry.kind.value,
        )
        if self._verify_enabled and ctx.snapshot is not None:
            try:
                if straight:
                    self._verify_straight(ctx, entry)
                else:
                    self._verify_conditional(ctx, entry)
            except DSAVerificationError as exc:
                self._guard_fallback(ctx, exc)

    def _charge_straight(self, ctx: _LoopContext, entry: CacheEntry) -> None:
        template = entry.template
        assert template is not None
        covered = ctx.covered
        lanes = template.lanes
        lat = self.config.latencies
        if entry.must_reverify:
            self._charge_stall(lat.verification_cache_access)

        if entry.kind is LoopKind.PARTIAL and entry.chunk:
            chunks = math.ceil(covered / entry.chunk)
            for c in range(chunks):
                chunk_iters = min(entry.chunk, covered - c * entry.chunk)
                self._charge_stall(lat.partial_reanalysis)
                self._charge_template_burst(
                    template, ctx.first_covered + c * entry.chunk, math.ceil(chunk_iters / lanes)
                )
        elif entry.kind is LoopKind.SENTINEL:
            quads = math.ceil(max(covered, entry.spec_range) / lanes)
            self._charge_template_burst(template, ctx.first_covered, quads)
            self._charge_stall(lat.speculative_select)
            # remember the real range for the next invocation (Fig. 23)
            new_entry = replace(entry, spec_range=max(lanes, _round_up(ctx.iteration, lanes)))
            self.cache.insert(ctx.loop_id, new_entry)
        else:
            quads, leftover = divmod(covered, lanes)
            extra: list[tuple[int, int]] = []
            if entry.leftover is Leftover.OVERLAPPING and leftover:
                # one overlapped vector re-covers the last `lanes` elements
                # (Fig. 28) — within the arrays, so the lines are warm
                extra.append((ctx.first_covered + covered - lanes, 1))
            elif leftover:
                # residual iterations of sentinel/aborted coverage: round up
                extra.append((ctx.first_covered + quads * lanes, 1))
            self._charge_template_burst(template, ctx.first_covered, quads, extra)
            self.stats.leftover_used[entry.leftover.value] += 1

    def _charge_conditional(self, ctx: _LoopContext, entry: CacheEntry) -> None:
        lat = self.config.latencies
        # the vector map is consulted every mapped iteration, but that is
        # DSA hardware running in parallel with the core (paper, Section
        # 4.1); only the end-of-loop result selection stalls the pipeline
        self._charge_detection(lat.array_map_access * ctx.covered)
        self._charge_stall(lat.speculative_select)

        total_range = ctx.suppress_limit or ctx.covered
        first_seen: dict[tuple, int] = {}
        for iteration, sig in ctx.path_map:
            first_seen.setdefault(sig, iteration)
        for sig, template in entry.path_templates.items():
            if template is None or sig not in first_seen:
                continue  # nothing to vectorize, or never ran
            start = first_seen[sig]
            span = ctx.first_covered + total_range - start
            quads = math.ceil(max(span, 0) / template.lanes)
            self._charge_template_burst(template, start, quads)

    # ------------------------------------------------------------------
    def _guard_fallback(self, ctx: _LoopContext, exc: DSAVerificationError) -> None:
        """Guarded rollback: the vector outcome disagreed with the scalar
        reference (mis-speculation, possibly injected).

        The vector results are discarded — architecturally free, since the
        scalar core computed every iteration all along — and the covered
        region is re-charged as scalar work on top of the already-charged
        (and now wasted) NEON burst, plus a pipeline flush: rolling back
        speculation is never free.  Unguarded runs keep the old contract
        and raise.
        """
        if not self.guard:
            raise exc
        self.stats.fallbacks += 1
        self.stats.fallback_causes[f"loop_0x{ctx.loop_id:x}"] += 1
        lat = self.config.latencies
        self._charge_stall(lat.pipeline_flush + ctx.covered * max(1, len(ctx.suppress_pcs)))
        self._emit(
            EventKind.GUARD_FALLBACK, loop_id=hex(ctx.loop_id), cause=str(exc),
            covered=ctx.covered,
        )

    # ------------------------------------------------------------------
    def _charge_template_burst(
        self,
        template: LoopTemplate,
        first_iter: int,
        quads: int,
        extra_segments: list[tuple[int, int]] | None = None,
    ) -> None:
        """Charge one NEON burst covering ``quads`` vector iterations from
        ``first_iter``; ``extra_segments`` (e.g. an overlapped tail quad)
        join the same burst, so the pipeline fill is paid once."""
        if quads <= 0 or self.core is None:
            return
        segments = [(first_iter, quads)] + list(extra_segments or [])
        timing = self.core.timing
        hierarchy = self.core.hierarchy
        total = 0
        for seg_first, seg_quads in segments:
            if seg_quads <= 0:
                continue
            start_addrs: dict[int, int] = {}
            for pc, stream in template.streams.items():
                addr = stream.addr_at(seg_first)
                if addr is None:
                    addr = stream.first_addr
                start_addrs[pc] = addr
            try:
                burst = template.emit_burst(start_addrs, seg_quads)
            except TemplateReject:
                continue
            for instr, addr in burst:
                mem_latency = 0
                if addr is not None:
                    mem_latency = hierarchy.access(addr, template.width_bytes, instr.is_store)
                    self.stats.vector_mem_ops += 1
                else:
                    self.stats.vector_arith_ops += 1
                timing.charge_vector(instr, mem_latency)
            total += len(burst)
        timing.end_vector_burst()
        self.stats.bursts_charged += 1
        self.stats.vector_instructions += total
        self._emit(EventKind.NEON_DISPATCH, instructions=total, source="dsa_burst", quads=quads)

    def _charge_stall(self, cycles: int) -> None:
        if self.core is not None and cycles:
            self.core.timing.add_stall(cycles, kind="dsa")
            self.stats.stall_cycles += cycles

    def _charge_detection(self, cycles: int) -> None:
        """Analysis work that runs in parallel with the core (not charged)."""
        self.stats.detection_cycles += cycles

    # ------------------------------------------------------------------
    # functional verification
    # ------------------------------------------------------------------
    def _verify_straight(self, ctx: _LoopContext, entry: CacheEntry) -> None:
        assert self.core is not None and ctx.snapshot is not None
        self.stats.verifications += 1
        template = entry.template
        covered, chunk = ctx.covered, entry.chunk
        first = ctx.first_covered
        if entry.kind is LoopKind.PARTIAL and chunk:
            done = 0
            while done < covered:
                size = min(chunk, covered - done)
                iters = np.arange(first + done, first + done + size)
                results = template.evaluate(ctx.snapshot, iters, ctx.invariants)
                for pc, values in results.items():
                    stream = template.streams[pc]
                    gap = stream.gap() or 0
                    i0, a0 = stream.samples[0]
                    for k, it in enumerate(iters):
                        ctx.snapshot.write_value(int(a0 + gap * (it - i0)), values[k].item(), stream.dtype)
                done += size
            self._compare_snapshot_stores(ctx, template, np.arange(first, first + covered))
            return
        iters = np.arange(first, first + covered)
        results = template.evaluate(ctx.snapshot, iters, ctx.invariants)
        self._compare_results(ctx, template, iters, results)

    def _verify_conditional(self, ctx: _LoopContext, entry: CacheEntry) -> None:
        assert self.core is not None and ctx.snapshot is not None
        self.stats.verifications += 1
        by_path: dict[tuple, list[int]] = {}
        for iteration, sig in ctx.path_map:
            by_path.setdefault(sig, []).append(iteration)
        if self.injector is not None:
            by_path = self.injector.corrupt_paths(by_path, entry.path_templates)
        for sig, iters_list in by_path.items():
            template = entry.path_templates[sig]
            if template is None:
                continue
            iters = np.array(iters_list)
            results = template.evaluate(ctx.snapshot, iters, ctx.invariants)
            self._compare_results(ctx, template, iters, results)

    def _compare_results(self, ctx, template: LoopTemplate, iters: np.ndarray, results: dict) -> None:
        assert self.core is not None
        for pc, values in results.items():
            stream = template.streams[pc]
            gap = stream.gap() or 0
            i0, a0 = stream.samples[0]
            for k, it in enumerate(iters):
                addr = int(a0 + gap * (int(it) - i0))
                expected = values[k].item()
                if self.injector is not None:
                    addr, expected = self.injector.corrupt_check(pc, int(it), addr, expected, stream)
                actual = self.core.memory.read_value(addr, stream.dtype)
                if not _values_equal(actual, expected):
                    raise DSAVerificationError(
                        f"loop 0x{ctx.loop_id:x}: store pc=0x{pc:x} iteration {int(it)} "
                        f"addr=0x{addr:x}: scalar={actual!r} vector={expected!r}"
                    )

    def _compare_snapshot_stores(self, ctx, template: LoopTemplate, iters: np.ndarray) -> None:
        assert self.core is not None and ctx.snapshot is not None
        for root in template.stores:
            stream = template.streams[root.stream_pc]
            gap = stream.gap() or 0
            i0, a0 = stream.samples[0]
            for it in iters:
                addr = int(a0 + gap * (int(it) - i0))
                expected = ctx.snapshot.read_value(addr, stream.dtype)
                if self.injector is not None:
                    addr, expected = self.injector.corrupt_check(
                        root.stream_pc, int(it), addr, expected, stream
                    )
                actual = self.core.memory.read_value(addr, stream.dtype)
                if not _values_equal(actual, expected):
                    raise DSAVerificationError(
                        f"loop 0x{ctx.loop_id:x} (partial): addr=0x{addr:x}: "
                        f"scalar={actual!r} vector={expected!r}"
                    )

    # ------------------------------------------------------------------
    def _choose_leftover(self, template: LoopTemplate) -> Leftover:
        """Pick the leftover technique (Section 4.8).

        Overlapping recomputes a few elements; that is only safe when the
        loop is pure elementwise (no store stream is also read — a
        read-modify-write would apply the operation twice).  Larger arrays
        need cooperation from the allocator, which a transparent DSA cannot
        assume, so the fallback is single elements.  The configured policy
        can force either technique for ablation studies.
        """
        if self.config.leftover_policy == "single_elements":
            return Leftover.SINGLE_ELEMENTS
        rmw = False
        store_keys = set()
        for root in template.stores:
            s = template.streams[root.stream_pc]
            store_keys.add((s.first_addr, s.gap()))
        for pc in template.load_pcs:
            s = template.streams[pc]
            if (s.first_addr, s.gap()) in store_keys:
                rmw = True
        if rmw:
            return Leftover.SINGLE_ELEMENTS  # recomputation would double-apply
        return Leftover.OVERLAPPING

    # ------------------------------------------------------------------
    # verdicts: every analysis verdict is cached, counted and reported
    # through one of these two
    # ------------------------------------------------------------------
    def _reject(self, ctx: _LoopContext, kind: LoopKind, reason: str, info: dict | None = None) -> None:
        """Leave the loop scalar and cache why.

        ``info`` (the loop bound, when one was found) marks a register
        bound, so the verdict is re-checked on the next invocation.
        """
        entry = CacheEntry(kind=kind, vectorizable=False, reason=reason)
        if info is not None:
            entry.bound_kind = info["bound_kind"]
            entry.must_reverify = info["bound_kind"] == "reg"
        self.cache.insert(ctx.loop_id, entry)
        self.stats.verdicts[kind.value] += 1
        self._emit(
            EventKind.LOOP_VERDICT, loop_id=hex(ctx.loop_id), loop_kind=kind.value,
            vectorizable=False, reason=reason,
        )
        ctx.state = _State.SCALAR

    def _accept(self, ctx: _LoopContext, entry: CacheEntry, lanes: int, streams: int, **extra) -> None:
        """Cache a vectorizable verdict for the template(s) in ``entry``;
        the caller then starts execution.  ``extra`` joins the
        TEMPLATE_BUILT payload."""
        self.cache.insert(ctx.loop_id, entry)
        self.stats.verdicts[entry.kind.value] += 1
        loop_id = hex(ctx.loop_id)
        self._emit(EventKind.TEMPLATE_BUILT, loop_id=loop_id, lanes=lanes, streams=streams, **extra)
        self._emit(EventKind.LOOP_VERDICT, loop_id=loop_id, loop_kind=entry.kind.value, vectorizable=True)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _common_prefix(sigs: list[tuple]) -> tuple:
    if not sigs:
        return ()
    first = sigs[0]
    n = min(len(s) for s in sigs)
    out = []
    for i in range(n):
        if all(s[i] == first[i] for s in sigs):
            out.append(first[i])
        else:
            break
    return tuple(out)


def _common_suffix(sigs: list[tuple]) -> tuple:
    reversed_sigs = [tuple(reversed(s)) for s in sigs]
    return tuple(reversed(_common_prefix(reversed_sigs)))


def _round_up(value: int, multiple: int) -> int:
    return ((value + multiple - 1) // multiple) * multiple


def _values_equal(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-6 * max(abs(a), abs(b))
    return int(a) == int(b)
