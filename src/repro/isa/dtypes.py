"""Element data types understood by the scalar core and the NEON engine.

The NEON engine is 128 bits wide; the number of lanes available for a SIMD
operation therefore depends only on the element width (paper, Conceptual
Analysis Fig. 4 and Article 1 Fig. 11):

=========  =====  =============
data type  bits   lanes / 128b
=========  =====  =============
i8 / u8       8   16
i16 / u16    16    8
i32 / u32    32    4
i64 / u64    64    2
f32          32    4
=========  =====  =============

The 128-bit width is a property of the NEON *backend*, not the ISA:
the scalable backend widens its registers to VL/8 bytes and derives
its lane counts from :meth:`repro.vector.VectorEngine.lanes_for`.
``DType.lanes`` and the module constants below keep describing the
fixed 128-bit NEON geometry for the static binaries.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

NEON_WIDTH_BITS = 128
#: .. deprecated:: use ``backend.width_bytes`` (``repro.vector``) in code that
#:    must work on any vector backend; this constant is only correct for NEON.
NEON_WIDTH_BYTES = NEON_WIDTH_BITS // 8


class DType(Enum):
    """An element type, named after the NEON instruction suffixes."""

    I8 = "i8"
    U8 = "u8"
    I16 = "i16"
    U16 = "u16"
    I32 = "i32"
    U32 = "u32"
    I64 = "i64"
    U64 = "u64"
    F32 = "f32"

    # ------------------------------------------------------------------
    # basic geometry
    # ------------------------------------------------------------------
    @property
    def bits(self) -> int:
        return _BITS[self]

    @property
    def size(self) -> int:
        """Element size in bytes."""
        return _BITS[self] // 8

    @property
    def lanes(self) -> int:
        """How many elements fit in one 128-bit NEON register."""
        return NEON_WIDTH_BYTES // self.size

    @property
    def is_float(self) -> bool:
        return self is DType.F32

    @property
    def is_signed(self) -> bool:
        return self.value[0] in ("i", "f")

    @property
    def numpy(self) -> np.dtype:
        return np.dtype(
            {
                DType.I8: np.int8,
                DType.U8: np.uint8,
                DType.I16: np.int16,
                DType.U16: np.uint16,
                DType.I32: np.int32,
                DType.U32: np.uint32,
                DType.I64: np.int64,
                DType.U64: np.uint64,
                DType.F32: np.float32,
            }[self]
        )

    # ------------------------------------------------------------------
    # scalar conversions
    # ------------------------------------------------------------------
    def wrap(self, value: int | float) -> int | float:
        """Wrap a Python number to this type's range (two's complement)."""
        if self.is_float:
            return float(np.float32(value))
        mask = (1 << self.bits) - 1
        v = int(value) & mask
        if self.is_signed and v >= (1 << (self.bits - 1)):
            v -= 1 << self.bits
        return v

    def min_value(self) -> int:
        if self.is_float:
            raise ValueError("min_value is only defined for integer types")
        return -(1 << (self.bits - 1)) if self.is_signed else 0

    def max_value(self) -> int:
        if self.is_float:
            raise ValueError("max_value is only defined for integer types")
        return (1 << (self.bits - 1)) - 1 if self.is_signed else (1 << self.bits) - 1

    # ------------------------------------------------------------------
    # byte-level conversions (little endian, like ARMv7)
    # ------------------------------------------------------------------
    def pack(self, value: int | float) -> bytes:
        if self.is_float:
            return struct.pack("<f", float(value))
        fmt = {1: "B", 2: "H", 4: "I", 8: "Q"}[self.size]
        unsigned = int(value) & ((1 << self.bits) - 1)
        return struct.pack("<" + fmt, unsigned)

    def unpack(self, raw: bytes) -> int | float:
        if len(raw) != self.size:
            raise ValueError(f"expected {self.size} bytes for {self.value}, got {len(raw)}")
        if self.is_float:
            return struct.unpack("<f", raw)[0]
        fmt = {1: "B", 2: "H", 4: "I", 8: "Q"}[self.size]
        return self.wrap(struct.unpack("<" + fmt, raw)[0])

    def unpack_from(self, buffer, offset: int = 0) -> int | float:
        """Like :meth:`unpack` but straight out of a buffer, with no
        intermediate ``bytes`` copy — the memory model's hot read path."""
        return _UNPACKERS[self](buffer, offset)

    @classmethod
    def from_suffix(cls, suffix: str) -> "DType":
        """Parse an instruction suffix such as ``i32`` or ``f32``."""
        try:
            return cls(suffix.lower())
        except ValueError:
            raise ValueError(f"unknown dtype suffix {suffix!r}") from None

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: per-member geometry caches — enum properties are hot in the interpreter,
#: so the dict lookup replaces string slicing on every access
_BITS: dict[DType, int] = {m: int(m.value.lstrip("iuf")) for m in DType}


def _make_unpacker(dtype: DType):
    if dtype.is_float:
        unpack_f32 = struct.Struct("<f").unpack_from
        return lambda buffer, offset=0: unpack_f32(buffer, offset)[0]
    fmt = {1: "B", 2: "H", 4: "I", 8: "Q"}[dtype.size]
    unpack_uint = struct.Struct("<" + fmt).unpack_from
    if not dtype.is_signed:
        return lambda buffer, offset=0: unpack_uint(buffer, offset)[0]
    sign_bit = 1 << (dtype.bits - 1)
    wrap = 1 << dtype.bits

    def unpack_signed(buffer, offset=0):
        v = unpack_uint(buffer, offset)[0]
        return v - wrap if v >= sign_bit else v

    return unpack_signed


#: precompiled little-endian unpackers, one per member (no bytes copies)
_UNPACKERS = {m: _make_unpacker(m) for m in DType}


@dataclass(frozen=True)
class LaneLayout:
    """Geometry of a 128-bit vector split into lanes of one :class:`DType`."""

    dtype: DType

    @property
    def lanes(self) -> int:
        return self.dtype.lanes

    @property
    def lane_bytes(self) -> int:
        return self.dtype.size

    def lane_slice(self, lane: int) -> slice:
        """Byte slice of one lane inside a 16-byte register image."""
        if not 0 <= lane < self.lanes:
            raise IndexError(f"lane {lane} out of range for {self.dtype}")
        return slice(lane * self.lane_bytes, (lane + 1) * self.lane_bytes)


#: 32-bit register arithmetic helpers -------------------------------------
WORD_MASK = 0xFFFFFFFF


def to_u32(value: int) -> int:
    """Interpret a Python int as an unsigned 32-bit register value."""
    return value & WORD_MASK


def to_s32(value: int) -> int:
    """Interpret a Python int as a signed 32-bit register value."""
    v = value & WORD_MASK
    return v - (1 << 32) if v >= (1 << 31) else v


def float_to_bits(value: float) -> int:
    """Reinterpret a float32 as its 32-bit pattern (for scalar registers)."""
    return struct.unpack("<I", struct.pack("<f", float(np.float32(value))))[0]


def bits_to_float(bits: int) -> float:
    """Reinterpret a 32-bit register pattern as a float32 value."""
    return struct.unpack("<f", struct.pack("<I", bits & WORD_MASK))[0]
