"""The NEON engine: the paper's sixteen 128-bit Q registers (Table 4).

NEON is the vector engine (:class:`repro.vector.engine.VectorEngine`) at
its fixed VL of 128 bits; every handler, the register file and the
dispatch loop live there.
"""

from __future__ import annotations

from ..vector.engine import VectorEngine


class NeonEngine(VectorEngine):
    """The paper's 128-bit NEON unit; build it via ``get_backend("neon")``."""

    # Bound here rather than inherited: perfbench/layers.py looks up
    # ``__dict__["execute"]`` on NeonEngine and on ScalableEngine and wraps
    # each once, so an engine class without its own binding fails there.
    execute = VectorEngine.execute

    def __init__(self) -> None:
        super().__init__("neon", 128)
