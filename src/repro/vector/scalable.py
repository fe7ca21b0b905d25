"""The scalable (SVE/RVV-style) backend: the vector engine at a chosen VL.

The same vector program runs at any VL ∈ {128, 256, 512, 1024} bits; at
VL=128 every operation is byte-identical to NEON, because both are one
:class:`~repro.vector.engine.VectorEngine`.
"""

from __future__ import annotations

from ..errors import ConfigError
from .engine import VALID_VECTOR_LENGTHS, VectorEngine


class ScalableEngine(VectorEngine):
    """The vector engine at one configured VL; build it via ``get_backend``."""

    # Bound here rather than inherited, for the same reason as NeonEngine's:
    # perfbench/layers.py traces each engine class's own ``execute``.
    execute = VectorEngine.execute

    def __init__(self, vl_bits: int = 128) -> None:
        if vl_bits not in VALID_VECTOR_LENGTHS:
            raise ConfigError(
                f"scalable backend vector length must be one of "
                f"{VALID_VECTOR_LENGTHS}, got {vl_bits}"
            )
        super().__init__("scalable", vl_bits)
