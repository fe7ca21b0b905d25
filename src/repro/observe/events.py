"""Typed observability events.

Every interesting runtime decision — a loop detected, a template built, a
speculation committed or rolled back, a worker retried — is described by
one :class:`Event` carrying an :class:`EventKind`, a host timestamp, the
simulation cycle when one is known, and a flat JSON-safe payload.

The payload schema per kind is declared in :data:`EVENT_FIELDS` and
enforced at emission time (events are rare relative to retired
instructions, so validation is affordable); extra keys beyond the required
set are allowed so emitters can attach context without a schema change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class EventKind(str, Enum):
    """The vocabulary of runtime events the subsystems emit."""

    # DSA state machine
    LOOP_DETECTED = "loop_detected"       # a taken backward branch named a loop
    LOOP_VERDICT = "loop_verdict"         # analysis decided: vectorize or stay scalar
    TEMPLATE_BUILT = "template_built"     # a NEON template was generated for a loop
    SPEC_START = "spec_start"             # timing hand-off to the NEON engine began
    SPEC_COMMIT = "spec_commit"           # covered iterations were committed
    SPEC_ROLLBACK = "spec_rollback"       # mid-execution abort (misprediction, unknown path)
    GUARD_FALLBACK = "guard_fallback"     # guarded verification failed; scalar rollback
    # covered execution (record-free release of a characterized region).
    # Covering is disabled while an observer is attached — observation
    # needs the record stream — so these mark where an *unobserved* run
    # would drop to the covered tier, and where it would re-arm.
    LOOP_COVERED = "loop_covered"         # region qualified for covered execution
    COVER_REARM = "cover_rearm"           # a phase change forced the traced loop back
    # engines
    NEON_DISPATCH = "neon_dispatch"       # vector instructions dispatched (burst or architectural)
    # core
    RUN_BEGIN = "run_begin"               # one core simulation started
    RUN_END = "run_end"                   # one core simulation finished
    # campaign / caching
    CACHE_HIT = "cache_hit"               # a cache served a lookup (dsa_cache / disk / memory)
    CACHE_MISS = "cache_miss"             # the lookup had to be computed
    # isolation
    WORKER_RETRY = "worker_retry"         # a failed run was rescheduled
    WORKER_TIMEOUT = "worker_timeout"     # a worker blew its deadline and was killed


#: required payload keys per kind (extra keys are always allowed)
EVENT_FIELDS: dict[EventKind, frozenset] = {
    EventKind.LOOP_DETECTED: frozenset({"loop_id", "end_pc"}),
    EventKind.LOOP_VERDICT: frozenset({"loop_id", "loop_kind", "vectorizable"}),
    EventKind.TEMPLATE_BUILT: frozenset({"loop_id", "lanes", "streams"}),
    EventKind.SPEC_START: frozenset({"loop_id", "loop_kind", "limit"}),
    EventKind.SPEC_COMMIT: frozenset({"loop_id", "covered"}),
    EventKind.SPEC_ROLLBACK: frozenset({"loop_id", "reason"}),
    EventKind.LOOP_COVERED: frozenset({"loop_id", "mode"}),
    EventKind.COVER_REARM: frozenset({"loop_id", "reason"}),
    EventKind.GUARD_FALLBACK: frozenset({"loop_id", "cause"}),
    EventKind.NEON_DISPATCH: frozenset({"instructions", "source"}),
    EventKind.RUN_BEGIN: frozenset(),
    EventKind.RUN_END: frozenset({"cycles", "instructions", "path"}),
    EventKind.CACHE_HIT: frozenset({"cache", "key"}),
    EventKind.CACHE_MISS: frozenset({"cache", "key"}),
    EventKind.WORKER_RETRY: frozenset({"task", "attempt", "status"}),
    EventKind.WORKER_TIMEOUT: frozenset({"task", "attempt", "deadline_s"}),
}


class EventSchemaError(TypeError):
    """An event was emitted without its required payload keys."""


@dataclass(frozen=True, slots=True)
class Event:
    """One observed runtime decision.

    ``ts_us`` is host wall-clock microseconds since the owning observer's
    epoch (the unit Chrome tracing wants); ``cycle`` is the simulation
    cycle at emission when the emitter had one.
    """

    kind: EventKind
    seq: int
    ts_us: float
    cycle: int | None = None
    args: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "seq": self.seq,
            "ts_us": round(self.ts_us, 3),
            "cycle": self.cycle,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Event":
        return cls(
            kind=EventKind(d["kind"]),
            seq=int(d["seq"]),
            ts_us=float(d["ts_us"]),
            cycle=d.get("cycle"),
            args=dict(d.get("args") or {}),
        )


def validate_args(kind: EventKind, args: dict) -> None:
    """Check the payload carries every key the kind's schema requires."""
    required = EVENT_FIELDS.get(kind)
    if required is None:
        raise EventSchemaError(f"unknown event kind {kind!r}")
    missing = required - args.keys()
    if missing:
        raise EventSchemaError(
            f"event {kind.value!r} missing required payload keys: {sorted(missing)}"
        )
