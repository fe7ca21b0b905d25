"""Loop profiling over the retire stream.

A lightweight retire hook that discovers loops the same way the DSA's Loop
Detection stage does (taken backward branches) and aggregates per-loop
statistics: invocations, iterations, body size, share of dynamic
instructions.  Useful for understanding where a workload's DLP lives before
pointing the DSA at it, and for the examples' reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trace import TraceRecord


@dataclass
class LoopProfile:
    """Aggregate statistics for one static loop."""

    loop_id: int
    end_pc: int
    invocations: int = 0
    iterations: int = 0
    instructions: int = 0

    @property
    def body_instructions(self) -> int:
        """Static body length in instructions (from the PC range)."""
        return (self.end_pc - self.loop_id) // 4 + 1

    @property
    def avg_trip_count(self) -> float:
        return self.iterations / self.invocations if self.invocations else 0.0


class LoopProfiler:
    """Retire hook building a table of the program's loops."""

    def __init__(self) -> None:
        self.loops: dict[int, LoopProfile] = {}
        self.total_instructions = 0
        self._active: dict[int, int] = {}  # loop_id -> iterations this invocation

    def __call__(self, record: TraceRecord) -> None:
        self.total_instructions += 1
        pc = record.pc

        # attribute the instruction to every loop whose body contains it
        for loop_id, profile in self.loops.items():
            if loop_id <= pc <= profile.end_pc and loop_id in self._active:
                profile.instructions += 1

        if record.is_backward_branch:
            loop_id, end_pc = record.next_pc, pc
            profile = self.loops.get(loop_id)
            if profile is None:
                profile = LoopProfile(loop_id=loop_id, end_pc=end_pc)
                self.loops[loop_id] = profile
            if loop_id not in self._active:
                profile.invocations += 1
                self._active[loop_id] = 1
                # the first (already retired) iteration is counted now
                profile.iterations += 1
                profile.instructions += profile.body_instructions
            profile.iterations += 1
            self._active[loop_id] += 1
        else:
            # leaving a loop's range closes its invocation
            for loop_id in list(self._active):
                profile = self.loops[loop_id]
                if not (loop_id <= pc <= profile.end_pc):
                    del self._active[loop_id]

    # ------------------------------------------------------------------
    def hottest(self, top: int = 10) -> list[LoopProfile]:
        """Loops sorted by dynamic instruction share, hottest first."""
        return sorted(self.loops.values(), key=lambda p: -p.instructions)[:top]

    def coverage(self) -> float:
        """Fraction of retired instructions spent inside detected loops."""
        if not self.total_instructions:
            return 0.0
        in_loops = sum(p.instructions for p in self.loops.values())
        return min(1.0, in_loops / self.total_instructions)

    def table(self) -> str:
        lines = [f"{'loop':>10s} {'invocs':>7s} {'iters':>8s} {'avg_trip':>9s} {'instrs':>9s} {'share':>7s}"]
        for p in self.hottest():
            share = p.instructions / self.total_instructions if self.total_instructions else 0
            lines.append(
                f"0x{p.loop_id:08x} {p.invocations:7d} {p.iterations:8d} "
                f"{p.avg_trip_count:9.1f} {p.instructions:9d} {share:6.1%}"
            )
        lines.append(f"loop coverage: {self.coverage():.1%} of {self.total_instructions} instructions")
        return "\n".join(lines)
