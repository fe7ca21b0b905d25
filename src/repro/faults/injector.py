"""Deterministic fault injector: applies a :class:`FaultPlan` to one run.

One injector is built per (plan, run-label) pair — in the worker process,
right before the simulation starts — and hooks into the execution stack at
the points the plan targets:

* the DSA's guarded-verification boundary (``corrupt_check`` /
  ``corrupt_paths``), where lane values, speculated trip counts, cached
  loop templates and conditional verdicts are corrupted *in the vector
  outcome the DSA is about to commit*.  The scalar core's architectural
  results are never touched, which is exactly what makes the guard's
  fallback path testable: a corrupted speculation must be detected and
  rolled back, and the final numbers must still match the scalar
  reference.
* the NEON engine's register file (``neon_lane``), corrupting the
  *architectural* Q registers of statically vectorized systems — those
  runs have no runtime scalar reference, so the corruption must surface as
  a golden-check failure that the campaign harness captures.

All decisions are pure functions of the plan, so re-running the same plan
reproduces the same faults at the same points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .plan import FaultPlan


@dataclass
class InjectionEvent:
    """One fault that actually fired."""

    kind: str
    where: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.kind}@{self.where}"


class FaultInjector:
    """Applies the DSA/NEON faults of a plan to one run."""

    #: how many injection events to keep verbatim (the count is unbounded)
    MAX_EVENTS = 32

    def __init__(self, plan: FaultPlan, label: str):
        self.plan = plan
        self.label = label
        self.dsa_faults = plan.dsa_faults_for(label)
        self.neon_faults = plan.neon_faults_for(label)
        self.injections = 0
        self.events: list[InjectionEvent] = []
        self._neon_ops = 0
        self._neon_done: set[int] = set()

    # ------------------------------------------------------------------
    @property
    def armed(self) -> bool:
        """Does this run need an injector at all?"""
        return bool(self.dsa_faults or self.neon_faults)

    @property
    def has_neon_faults(self) -> bool:
        return bool(self.neon_faults)

    def _record(self, kind: str, where: str) -> None:
        self.injections += 1
        if len(self.events) < self.MAX_EVENTS:
            self.events.append(InjectionEvent(kind, where))

    # ------------------------------------------------------------------
    # DSA guarded-verification boundary
    # ------------------------------------------------------------------
    def corrupt_check(self, pc: int, iteration: int, addr: int, expected, stream):
        """Corrupt one (store pc, iteration) vector outcome before it is
        cross-checked against the scalar reference.

        * ``lane``       — perturb the computed value (a stuck result lane);
        * ``trip_count`` — skew the iteration→address mapping by whole
          iterations (a mis-speculated trip count / induction step);
        * ``loop_cache`` — skew the remembered stream base by a sub-element
          byte offset (a corrupted cached template).
        """
        for spec in self.dsa_faults:
            if spec.kind == "lane":
                expected = expected + spec.delta
                self._record("lane", f"pc=0x{pc:x} it={iteration}")
            elif spec.kind == "trip_count":
                gap = stream.gap() or stream.dtype.size
                addr = addr + spec.shift * gap
                self._record("trip_count", f"pc=0x{pc:x} it={iteration}")
            elif spec.kind == "loop_cache":
                addr = addr + max(1, stream.dtype.size // 2)
                self._record("loop_cache", f"pc=0x{pc:x} it={iteration}")
        return addr, expected

    def corrupt_paths(self, by_path: dict, path_templates: dict) -> dict:
        """``verdict`` fault: swap which template two conditional paths are
        believed to have executed (a corrupted vector-map verdict)."""
        if not any(f.kind == "verdict" for f in self.dsa_faults):
            return by_path
        sigs = [s for s in by_path if path_templates.get(s) is not None]
        if len(sigs) < 2:
            return by_path  # nothing to mis-attribute on this loop
        a, b = sigs[0], sigs[1]
        swapped = dict(by_path)
        swapped[a], swapped[b] = by_path[b], by_path[a]
        self._record("verdict", f"paths {len(by_path[a])}<->{len(by_path[b])} iters")
        return swapped

    # ------------------------------------------------------------------
    # architectural NEON lane corruption (static SIMD systems)
    # ------------------------------------------------------------------
    def attach_neon(self, core) -> None:
        core.vector.fault_hook = self.on_neon_op

    def on_neon_op(self, instr, q) -> None:
        """Corrupt a Q-register byte at the ``shift``-th register write."""
        qd = getattr(instr, "qd", None)
        if qd is None:
            return
        self._neon_ops += 1
        for index, spec in enumerate(self.neon_faults):
            target_op = max(1, spec.shift)
            if index in self._neon_done or self._neon_ops != target_op:
                continue
            byte = spec.delta % 16
            q[qd.index][byte] ^= 0xA5
            self._neon_done.add(index)
            self._record("neon_lane", f"q{qd.index} byte {byte} op {self._neon_ops}")

    # ------------------------------------------------------------------
    def summary(self) -> str:
        head = ", ".join(str(e) for e in self.events[:4])
        more = f" (+{self.injections - len(self.events)} more)" if self.injections > len(self.events) else ""
        return f"{self.injections} injection(s): {head}{more}"


def build_injector(plan: FaultPlan | None, label: str) -> FaultInjector | None:
    """An injector for this run, or ``None`` when the plan has nothing
    targeting it (the common case — zero overhead on clean runs)."""
    if plan is None:
        return None
    injector = FaultInjector(plan, label)
    return injector if injector.armed else None
