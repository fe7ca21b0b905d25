"""Workload abstraction: a kernel + deterministic inputs + numpy golden.

The paper evaluates MiBench and OpenCV benchmarks at three DLP levels
(Article 1, Section V-A): high (MM, RGB-Gray, Gaussian Filter), medium
(Susan Edges), low (QSort, Dijkstra); Article 2 adds BitCounts for its
dynamic-behaviour loops.  Each workload here reproduces the loop-type mix
of its namesake and ships an independent numpy reference implementation so
every simulated system can be checked bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..compiler.ir import Kernel
from ..errors import ConfigError

#: named problem sizes: unit tests stay fast, benches look like the paper
SCALES = ("test", "bench", "full")


@dataclass
class Workload:
    """One benchmark: kernel, argument factory, and golden reference."""

    name: str
    dlp_level: str                      # "high" | "medium" | "low"
    kernel: Kernel
    make_args: Callable[[], dict]       # fresh arguments for one run
    golden: Callable[[dict], dict]      # args -> expected output arrays
    output_arrays: list[str]
    description: str = ""
    loop_note: str = ""                 # which paper loop types it exercises
    seed: int | None = None             # RNG seed the generator actually used
    #: declared paper loop classes (see ``repro.observe.stats
    #: .PAPER_LOOP_CLASSES``); the coverage gate cross-checks every
    #: declaration against the static classifier, so a workload cannot
    #: claim a class its kernel does not actually contain
    loop_classes: tuple[str, ...] = ()

    def fresh_args(self) -> dict:
        """A new, independent argument set (arrays are copied)."""
        args = self.make_args()
        return {
            k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in args.items()
        }

    def expected(self) -> dict:
        """Golden outputs computed with numpy on a fresh argument set."""
        return self.golden(self.fresh_args())


def check_scale(scale: str) -> str:
    """Validate a named problem size (uniform across every builder).

    Raises :class:`~repro.errors.ConfigError` — the CLI maps it to exit
    status 2, the same contract as every other configuration mistake.
    """
    if scale not in SCALES:
        raise ConfigError(f"unknown scale {scale!r}; pick one of {SCALES}")
    return scale


def check_size(n: int, what: str = "size") -> int:
    """Validate an explicit element count (microkernel builders)."""
    if int(n) <= 0:
        raise ConfigError(f"workload {what} must be positive, got {n}")
    return int(n)


def resolve_seed(seed: int | None, default: int) -> int:
    """Pick the generator seed: the caller's, or the workload's baked-in
    default (which keeps the golden outputs of the paper runs unchanged).

    Negative seeds are a configuration mistake (``numpy`` would reject
    them deep inside a worker process with a raw traceback otherwise).
    """
    if seed is None:
        return default
    seed = int(seed)
    if seed < 0:
        raise ConfigError(f"workload seed must be non-negative, got {seed}")
    return seed
