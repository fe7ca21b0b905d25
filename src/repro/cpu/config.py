"""Processor configuration (Systems Setup — paper Methodology, Table 4).

All four evaluated systems share the same core: a 2-wide superscalar ARMv7-A
(gem5 O3CPU in the paper) at 1 GHz with 64 KB L1 / 512 KB L2 LRU caches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from ..memory.hierarchy import HierarchyConfig


@dataclass(frozen=True)
class ScalarLatencies:
    """Execution latencies (cycles) per scalar instruction class."""

    alu: int = 1
    mov: int = 1
    cmp: int = 1
    mul: int = 3
    mla: int = 4
    div: int = 12
    fadd: int = 4
    fmul: int = 5
    fdiv: int = 14
    load: int = 1   # address generation; the memory hierarchy adds the rest
    store: int = 1
    branch: int = 1


@dataclass(frozen=True)
class VectorLatencies:
    """Execution latencies (cycles) per NEON instruction class.

    The NEON engine runs a 10-stage pipeline decoupled from the core through
    a 16-entry instruction queue (paper, Conceptual Analysis Section 2.2.2);
    ``pipeline_depth`` is paid once per burst, per-op costs thereafter.
    """

    pipeline_depth: int = 10
    queue_entries: int = 16
    dispatch_per_cycle: int = 2
    arith: int = 3
    mul: int = 5
    mla: int = 6
    cmp: int = 3
    bsl: int = 3
    shift: int = 3
    load: int = 2   # plus memory hierarchy latency
    store: int = 2
    dup: int = 2
    lane_mem: int = 2
    lane_mov: int = 2


@dataclass(frozen=True)
class CPUConfig:
    """Top-level core configuration."""

    name: str = "gem5-O3CPU (ARMv7-like)"
    clock_hz: float = 1e9
    issue_width: int = 2
    mispredict_penalty: int = 8
    #: execution tiers (fast / traced / compiled / covered).  Every
    #: combination of the two knobs below reproduces the golden run
    #: matrix (tests/golden_runs.json) bit for bit; they trade host time
    #: only.  The program is always predecoded into direct-dispatch
    #: closures (repro.cpu.predecode) and run by the record-free fast loop
    #: or, with retire hooks or a timing suppressor attached, the traced
    #: loop.
    #:
    #: compiled tier: straight-line hot loop bodies are compiled once into
    #: a fused closure executing a whole guest iteration per host dispatch
    #: with batched timing (fast loop only)
    compile_hot: bool = True
    #: covered execution: once an attached DSA has fully characterized a
    #: loop (template built, verdict rendered, address streams stable) it
    #: may declare the PC region *covered* and retire whole iterations
    #: record-free (see ``repro.cpu.covered``), bulk-folding its
    #: own per-record bookkeeping afterwards.  The DSA re-arms (the traced
    #: loop resumes, exactly as with this knob off) on any phase-change
    #: signal: control leaving the region, a new backward branch inside
    #: it, an address misprediction, guard mode, an active fault plan, an
    #: attached observer, or a wall-clock deadline hook
    covered_execution: bool = True
    #: which vector engine the core instantiates — a name accepted by
    #: repro.vector.get_backend ("neon" = the paper's fixed 128-bit unit,
    #: "scalable" = the VLA engine)
    vector_backend: str = "neon"
    #: vector length in bits; the neon backend is fixed at 128, the
    #: scalable backend accepts 128/256/512/1024
    vector_length: int = 128
    scalar: ScalarLatencies = field(default_factory=ScalarLatencies)
    vector: VectorLatencies = field(default_factory=VectorLatencies)
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ConfigError("issue width must be at least 1")
        if self.clock_hz <= 0:
            raise ConfigError("clock must be positive")
        # Validate eagerly so a bad backend/VL pair fails at config time,
        # not at first dispatch deep inside a worker process.  The import
        # is deferred: repro.vector sits above this module.
        from ..vector import BACKEND_NAMES, VALID_VECTOR_LENGTHS

        if self.vector_backend not in BACKEND_NAMES:
            raise ConfigError(
                f"unknown vector backend {self.vector_backend!r} "
                f"(choose from {BACKEND_NAMES})"
            )
        if self.vector_length not in VALID_VECTOR_LENGTHS:
            raise ConfigError(
                f"vector length must be one of {VALID_VECTOR_LENGTHS}, "
                f"got {self.vector_length}"
            )
        if self.vector_backend == "neon" and self.vector_length != 128:
            raise ConfigError(
                "the neon backend is fixed at VL=128; "
                "use vector_backend='scalable' for wider vectors"
            )

    def seconds(self, cycles: float) -> float:
        return cycles / self.clock_hz


#: the configuration used by every system in the paper's Table 4
DEFAULT_CPU_CONFIG = CPUConfig()
