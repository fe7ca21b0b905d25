"""Functional lane math for vector register images of any width.

A register image is a numpy ``uint8`` array of the vector engine's
register width — 16 bytes at NEON's VL=128, wider at larger VLs;
operations reinterpret it as lanes of the requested :class:`DType`, with
silent wraparound on integer overflow — exactly what the hardware does.
Every operation here is width-agnostic: the lane count falls out of
``image.nbytes``, so these kernels serve the one
:class:`repro.vector.engine.VectorEngine` at every VL.
"""

from __future__ import annotations

import numpy as np

from ..isa.dtypes import DType, NEON_WIDTH_BYTES
from ..isa.neon import VBinKind, VCmpKind, VUnaryKind


def zero_register(width_bytes: int = NEON_WIDTH_BYTES) -> np.ndarray:
    return np.zeros(width_bytes, dtype=np.uint8)


def view(image: np.ndarray, dtype: DType) -> np.ndarray:
    """Reinterpret a register image as lanes of ``dtype`` (shares storage)."""
    if image.nbytes == 0 or image.nbytes % dtype.size != 0:
        raise ValueError(
            f"register image of {image.nbytes} bytes cannot hold {dtype} lanes"
        )
    return image.view(dtype.numpy)


def from_lanes(values, dtype: DType, lanes: int | None = None) -> np.ndarray:
    """Build a register image from per-lane values (wrapped to the type).

    ``lanes`` defaults to the 128-bit NEON lane count; callers at another
    width pass ``engine.lanes_for(dtype)``.
    """
    expected = dtype.lanes if lanes is None else lanes
    arr = np.asarray(values)
    if arr.size != expected:
        raise ValueError(f"{dtype} needs {expected} lanes, got {arr.size}")
    return arr.astype(dtype.numpy).view(np.uint8).copy()


def broadcast(value: int | float, dtype: DType, lanes: int | None = None) -> np.ndarray:
    """Register image with ``value`` in every lane (vdup semantics)."""
    n = dtype.lanes if lanes is None else lanes
    return from_lanes([dtype.wrap(value)] * n, dtype, lanes=n)


def binop(kind: VBinKind, a: np.ndarray, b: np.ndarray, dtype: DType) -> np.ndarray:
    """Lane-wise binary operation; returns a fresh image of the same width."""
    va, vb = view(a, dtype), view(b, dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        if kind is VBinKind.VADD:
            out = va + vb
        elif kind is VBinKind.VSUB:
            out = va - vb
        elif kind is VBinKind.VMUL:
            out = va * vb
        elif kind is VBinKind.VMIN:
            out = np.minimum(va, vb)
        elif kind is VBinKind.VMAX:
            out = np.maximum(va, vb)
        elif kind in (VBinKind.VAND, VBinKind.VORR, VBinKind.VEOR):
            ia = a.view(np.uint8)
            ib = b.view(np.uint8)
            if kind is VBinKind.VAND:
                return (ia & ib).copy()
            if kind is VBinKind.VORR:
                return (ia | ib).copy()
            return (ia ^ ib).copy()
        else:
            raise ValueError(f"bad vector binop kind: {kind!r}")
    return out.astype(dtype.numpy).view(np.uint8).copy()


def mla(acc: np.ndarray, a: np.ndarray, b: np.ndarray, dtype: DType) -> np.ndarray:
    """acc + a*b, lane-wise."""
    vacc, va, vb = view(acc, dtype), view(a, dtype), view(b, dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        out = vacc + va * vb
    return out.astype(dtype.numpy).view(np.uint8).copy()


def unary(kind: VUnaryKind, a: np.ndarray, dtype: DType) -> np.ndarray:
    va = view(a, dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        if kind is VUnaryKind.VABS:
            out = np.abs(va)
        elif kind is VUnaryKind.VNEG:
            out = -va
        elif kind is VUnaryKind.VMVN:
            return (~a.view(np.uint8)).copy()
        else:
            raise ValueError(f"bad vector unary kind: {kind!r}")
    return out.astype(dtype.numpy).view(np.uint8).copy()


def shift(left: bool, a: np.ndarray, amount: int, dtype: DType) -> np.ndarray:
    """Lane-wise shift by immediate (arithmetic right for signed types)."""
    if dtype.is_float:
        raise ValueError("cannot shift float lanes")
    va = view(a, dtype)
    with np.errstate(over="ignore"):
        out = (va << amount) if left else (va >> amount)
    return out.astype(dtype.numpy).view(np.uint8).copy()


def compare(kind: VCmpKind, a: np.ndarray, b: np.ndarray, dtype: DType) -> np.ndarray:
    """Lane-wise compare producing an all-ones / all-zeros mask per lane."""
    va, vb = view(a, dtype), view(b, dtype)
    if kind is VCmpKind.VCEQ:
        cond = va == vb
    elif kind is VCmpKind.VCGT:
        cond = va > vb
    elif kind is VCmpKind.VCGE:
        cond = va >= vb
    elif kind is VCmpKind.VCLT:
        cond = va < vb
    elif kind is VCmpKind.VCLE:
        cond = va <= vb
    else:
        raise ValueError(f"bad vector compare kind: {kind!r}")
    mask_dtype = np.dtype(f"u{dtype.size}")
    ones = np.iinfo(mask_dtype).max
    mask = np.where(cond, ones, 0).astype(mask_dtype)
    return mask.view(np.uint8).copy()


def bitwise_select(mask: np.ndarray, n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """VBSL: per-bit, take ``n`` where mask is 1 and ``m`` where it is 0."""
    md = mask.view(np.uint8)
    return ((md & n.view(np.uint8)) | (~md & m.view(np.uint8))).copy()


def lane_get(a: np.ndarray, lane: int, dtype: DType) -> int | float:
    value = view(a, dtype)[lane]
    return float(value) if dtype.is_float else int(value)


def lane_set(a: np.ndarray, lane: int, value: int | float, dtype: DType) -> np.ndarray:
    out = a.copy()
    view(out, dtype)[lane] = dtype.wrap(value)
    return out
