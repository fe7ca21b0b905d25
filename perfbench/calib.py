"""Host-speed probe, independent of the program under test.

The benchmark's host is a share of a machine whose speed drifts with the
load of its neighbours: by up to 2x, in phases that last from seconds to
minutes, with the process's CPU time tracking its wall time.  That drift
moves whole runs, so medians over the passes of one run cannot remove it.

The benchmark therefore times this probe between the steps of every pass
that runs inline (each run, the tables) and reports host times scaled to a
host on which the probe takes :data:`REFERENCE_S` seconds: a step's seconds
are multiplied by ``REFERENCE_S`` over the median probe time around it.
The raw seconds stay in the report (see perfbench/README.md, "Steadiness
and bounds").

The probe is a small register-machine interpreter in plain Python:
instruction fetch from a tuple, dispatch on an opcode, registers in a list,
loads from a dict of about 10 MB at scattered keys, stores to a bytearray.
That is the kind of work the simulator spends its time on (interpreter
dispatch, and memory well past the private caches), so the two slow down
together.  It imports nothing from the program, so no change to the
program can move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: seconds the probe takes on the host the benchmark is scaled to
REFERENCE_S = 0.02

#: guest steps of one probe
STEPS = 120_000

#: probes on each side of a step whose median scales it
WINDOW = 3

#: entries of the probe's load table
TABLE = 1 << 17

#: a loop that gathers, sums, masks and scatters: (op, dst, a, b)
PROGRAM = (
    ("li", 1, 1, 0),          # r1 = key
    ("li", 2, 0, 0),          # r2 = acc
    ("ld", 3, 1, 0),          # r3 = table[r1]
    ("add", 2, 2, 3),         # acc += r3
    ("and", 4, 2, 255),       # r4 = acc & 255
    ("st", 4, 3, 0),          # buf[r3 & 4095] = r4
    ("mix", 1, 1, 3),         # key = next key from key and r3
    ("jmp", 2, 0, 0),         # back to the load
)

_table: dict | None = None


def probe(steps: int = STEPS) -> int:
    """Run the register machine for ``steps`` steps; returns a checksum."""
    global _table
    if _table is None:
        _table = {(k * 2654435761) & 0xFFFFFFFF: (k * 40503) & 0xFFFF for k in range(TABLE)}
    table = _table
    regs = [0] * 8
    buf = bytearray(4096)
    pc = 0
    program = PROGRAM
    for _ in range(steps):
        op, d, a, b = program[pc]
        pc += 1
        if op == "ld":
            regs[d] = table[(regs[a] % TABLE * 2654435761) & 0xFFFFFFFF]
        elif op == "add":
            regs[d] = regs[a] + regs[b]
        elif op == "and":
            regs[d] = regs[a] & b
        elif op == "st":
            buf[regs[a] & 4095] = regs[d]
        elif op == "mix":
            regs[d] = (regs[a] * 1103515245 + regs[b] + 12345) & 0x7FFFFFFF
        elif op == "jmp":
            pc = d
        else:
            regs[d] = a
    return sum(buf) + regs[2]


def time_probe() -> float:
    """Seconds one probe takes now."""
    start = perf_counter()
    probe()
    return perf_counter() - start


class HostSpeed:
    """Probe times taken between the steps of the timed passes, on the CPU
    this process is pinned to."""

    def __init__(self) -> None:
        probe(1)  # build the table outside any timing
        self.samples: list[float] = []

    def tick(self) -> int:
        """Time one probe now; returns its index, which the step that
        follows keeps."""
        self.samples.append(time_probe())
        return len(self.samples) - 1

    def factor(self, before: int) -> float:
        """Scale of a step that ran between probes ``before`` and
        ``before + 1``: ``REFERENCE_S`` over the median of the
        ``WINDOW`` probes on each side of it."""
        around = self.samples[max(0, before - WINDOW + 1):before + WINDOW + 1]
        return REFERENCE_S / statistics.median(around)
