"""NEON engine model: width-agnostic lane math and the 128-bit engine.

:class:`~repro.neon.engine.NeonEngine` is imported from
:mod:`repro.neon.engine`, not re-exported here: it subclasses
:class:`repro.vector.engine.VectorEngine`, which itself uses
:mod:`repro.neon.lanes`, so importing it here would close an import cycle.
"""

from . import lanes

__all__ = ["lanes"]
