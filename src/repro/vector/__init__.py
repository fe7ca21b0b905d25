"""Vector execution at any vector length.

One engine, :class:`VectorEngine`, models sixteen vector registers of a
configurable width; the NEON backend is that engine at VL=128 and the
scalable backend is the same engine at VL 128–1024.

>>> from repro.isa.dtypes import DType
>>> from repro.vector import get_backend
>>> be = get_backend("scalable", 256)
>>> be.width_bytes, be.lanes_for(DType.I32)
(32, 8)
"""

from __future__ import annotations

from ..errors import ConfigError
from .engine import VALID_VECTOR_LENGTHS, VectorEngine, VectorStats, VMemEvent
from .scalable import ScalableEngine

#: names accepted by :func:`get_backend`, CPUConfig.vector_backend,
#: RunSpec.backend and `repro campaign --backend`
BACKEND_NAMES = ("neon", "scalable")


def get_backend(name: str, vl: int = 128) -> VectorEngine:
    """Construct a vector backend by name at vector length ``vl`` (bits).

    The one constructor that checks names and VLs from the CLI:
    ``get_backend("neon")`` for the paper's fixed 128-bit NEON unit
    (``vl`` must be 128), or ``get_backend("scalable", vl)`` for
    ``vl`` ∈ {128, 256, 512, 1024}.
    """
    if name == "neon":
        if vl != 128:
            raise ConfigError(
                f"the neon backend is fixed at VL=128, got VL={vl}; "
                f"use the scalable backend for wider vectors"
            )
        # deferred: repro.neon.engine imports this package's engine module
        from ..neon.engine import NeonEngine

        return NeonEngine()
    if name == "scalable":
        return ScalableEngine(vl)
    raise ConfigError(
        f"unknown vector backend {name!r} (choose from {BACKEND_NAMES})"
    )


__all__ = [
    "BACKEND_NAMES",
    "VALID_VECTOR_LENGTHS",
    "VectorEngine",
    "VectorStats",
    "VMemEvent",
    "ScalableEngine",
    "get_backend",
]
