"""Vectorized GF(2^8) kernels over numpy uint8 buffers.

These are the data-path primitives of the whole system.  A repair equation

    R = a_1*C_1 ^ a_2*C_2 ^ ... ^ a_k*C_k

is computed entirely with constant multiplies and XORs — whether centrally
(traditional repair) or split across servers (PPR partial operations).

There is one multiply kernel: a block of the source is copied out with
``tobytes()`` (which also normalises read-only and strided views) and run
through ``bytes.translate`` with the coefficient's 256-byte map.  Buffers
are walked in :data:`BLOCK`-sized pieces so source, product and
destination stay cache-resident, and no scratch buffer or table cache is
shared between calls, so the kernels are safe to run from several
threads.  :func:`combine` is the one row-combine loop on top of it:
encode, decode and every partial-result computation are calls to it.
"""

from __future__ import annotations

from typing import Any, Iterable, Tuple

import numpy as np

from repro.errors import GaloisError
from repro.galois.tables import GF_MUL_MAPS

#: Bytes multiplied per kernel step: large enough to amortise the per-call
#: overhead, small enough that source, product and destination fit in L2
#: and that the per-block temporaries stay under malloc's mmap threshold.
BLOCK = 64 * 1024


def _as_u8(buf: np.ndarray, name: str) -> np.ndarray:
    if not isinstance(buf, np.ndarray) or buf.dtype != np.uint8:
        raise GaloisError(f"{name} must be a numpy uint8 array")
    return buf


def _check_coeff(coeff: int) -> None:
    if not 0 <= coeff < 256:
        raise GaloisError(f"coefficient out of range: {coeff!r}")


def _step(buf: np.ndarray) -> int:
    """How many leading-axis rows of ``buf`` make up about BLOCK bytes."""
    return max(1, BLOCK * len(buf) // max(1, buf.size))


def _product(coeff: int, block: np.ndarray) -> np.ndarray:
    """``coeff * block`` elementwise; read-only, and ``block`` itself for 1."""
    if coeff == 1:
        return block
    product = block.tobytes().translate(GF_MUL_MAPS[coeff])
    return np.ndarray(block.shape, np.uint8, product)


def scale(coeff: int, buf: np.ndarray) -> np.ndarray:
    """Return ``coeff * buf`` elementwise over GF(2^8) (new array)."""
    out = np.empty_like(_as_u8(buf, "buf"))
    combine([out], [buf], [(0, 0, coeff)])
    return out


def xor_into(dst: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Accumulate ``dst ^= src`` in place (GF addition). Returns ``dst``."""
    _as_u8(dst, "dst")
    _as_u8(src, "src")
    if dst.shape != src.shape:
        raise GaloisError("xor_into: shape mismatch")
    np.bitwise_xor(dst, src, out=dst)
    return dst


def addmul(dst: np.ndarray, coeff: int, src: np.ndarray) -> np.ndarray:
    """Fused ``dst ^= coeff * src`` in place.  Returns ``dst``.

    ``src`` may be ``dst`` itself (giving ``(coeff ^ 1) * dst``), but not a
    shifted view of the same memory.
    """
    _as_u8(dst, "dst")
    _as_u8(src, "src")
    if dst.shape != src.shape:
        raise GaloisError("addmul: shape mismatch")
    _check_coeff(coeff)
    if coeff:
        step = _step(dst)
        for i in range(0, len(dst), step):
            part = dst[i : i + step]
            np.bitwise_xor(part, _product(coeff, src[i : i + step]), out=part)
    return dst


def combine(
    out: Any, sources: Any, entries: "Iterable[Tuple[Any, Any, int]]"
) -> None:
    """Set ``out[o]`` to the XOR of ``coeff * sources[s]`` over ``entries``.

    ``entries`` are ``(o, s, coeff)`` triples — the shape of a recipe's
    ``(lost_row, helper_row, coeff)`` — and ``out`` / ``sources`` anything
    they index: a 2-D array, a list or a dict of equal-shape buffers.  The
    ``out`` buffers need not be initialised: the first entry naming a row
    writes it, later ones accumulate, and rows no entry names are left
    alone.  Walked block-outer, entry-inner, so every coefficient applied
    to a source block finds it cache-resident.
    """
    entries = list(entries)
    if not entries:
        return
    first = out[entries[0][0]]
    shape = first.shape
    for o, s, coeff in entries:
        _check_coeff(coeff)
        for buf in (_as_u8(out[o], "out"), _as_u8(sources[s], "source")):
            if buf.shape != shape:
                raise GaloisError("combine: shape mismatch")
    step = _step(first)
    for i in range(0, len(first), step):
        written = set()
        for o, s, coeff in entries:
            product = _product(coeff, sources[s][i : i + step])
            part = out[o][i : i + step]
            if o in written:
                np.bitwise_xor(part, product, out=part)
            else:
                part[...] = product
                written.add(o)
