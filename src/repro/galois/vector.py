"""Vectorized GF(2^8) kernels over numpy uint8 buffers.

These are the data-path primitives of the whole system.  A repair equation

    R = a_1*C_1 ^ a_2*C_2 ^ ... ^ a_k*C_k

is computed entirely with constant multiplies and XORs — whether centrally
(traditional repair) or split across servers (PPR partial operations).

There are two multiply kernels, both ``np.take`` gathers (which hold the
GIL) over source blocks widened to ``intp``.  A coefficient's *pair
table* holds 65 536 ``uint16`` entries, entry ``(hi << 8) | lo`` being
``c*hi << 8 | c*lo``, so one lookup multiplies two bytes.  Tables are
built on first use and kept in a cache bounded to :data:`TABLE_CACHE`
entries (4 MiB); buffers shorter than :data:`PAIR_MIN` gather through the
256-byte ``GF_MUL`` row instead, so they never pay for building one.
:func:`combine`, the row-combine loop on top of it, runs every partial
result, :func:`addmul` and :func:`scale`.  The *packed-lane* product,
:func:`lane_product`, runs the multiply rows of ``GFMatrix.mul_buffer``
(every encode and decode): a column's 256-entry table holds its
coefficient for up to eight rows in the byte lanes of a ``uint32`` or
``uint64`` (:func:`lane_tables`), so one lookup per source byte serves
them all.

Both walk their buffers block by block, so source, product and
destination stay cache-resident, and split a long call into contiguous
block shares: the calling thread runs one, a module-level thread pool
with one worker per further usable core runs the rest, overlapping only
the GIL-free widening, XOR and copy steps.  A share touches only its own
offsets of every buffer, and no scratch buffer is shared between calls,
so the kernels are safe to call from several threads at once.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import lru_cache, partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import GaloisError
from repro.galois.tables import GF_MUL

#: Bytes multiplied per kernel step: large enough to amortise the per-call
#: overhead, small enough that source, widened indices, table and
#: destination fit in L2.
BLOCK = 128 * 1024

#: Most pair tables cached at once (32 x 128 KiB = 4 MiB).
TABLE_CACHE = 32

#: Buffers shorter than this multiply through the coefficient's 256-byte
#: ``GF_MUL`` row, one byte a lookup: building a pair table costs 15-100 us
#: (mostly page faults on its 128 KiB), more than pairing saves on a short
#: buffer whose coefficient misses the cache, as the simulator's 16 KiB
#: stripes over many codes do.
PAIR_MIN = 32 * 1024

#: A call is split only where every worker gets at least this many blocks;
#: smaller ones (a 64 KiB repair buffer) run inline, where a thread
#: hand-off would cost more than it saves.
MIN_BLOCKS_PER_WORKER = 2

#: Scratch bytes of one packed-product share: ``intp`` indices plus two
#: lane buffers, 16 (``uint32`` lanes) or 24 (``uint64``) bytes a source
#: byte, so it steps 32 or 21.3 KiB at a time; 1 MiB a call on two cores.
LANE_SCRATCH = 512 * 1024


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


#: Pool threads beside the caller: one per further usable core.
_WORKERS = _usable_cores() - 1
_pool: "Optional[ThreadPoolExecutor]" = None
_pool_lock = threading.Lock()


def _reset_pool() -> None:
    """Forget the pool in a forked child, which inherits none of its threads."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool)


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="gf")
        return _pool


def _as_u8(buf: np.ndarray, name: str) -> np.ndarray:
    if not isinstance(buf, np.ndarray) or buf.dtype != np.uint8:
        raise GaloisError(f"{name} must be a numpy uint8 array")
    return buf


def _check_coeff(coeff: int) -> None:
    if not 0 <= coeff < 256:
        raise GaloisError(f"coefficient out of range: {coeff!r}")


@lru_cache(maxsize=TABLE_CACHE)
def _pair_table(coeff: int) -> np.ndarray:
    """``uint16[65536]`` whose entry ``(hi << 8) | lo`` is ``c*hi << 8 | c*lo``."""
    row = GF_MUL[coeff].astype(np.uint16)
    table = ((row[:, None] << 8) | row).reshape(-1)
    table.setflags(write=False)
    return table


def _gather(
    table: np.ndarray, src: np.ndarray, wide: np.ndarray, dst: np.ndarray
) -> None:
    """``dst[:] = coeff * src`` over equal-length 1-D contiguous buffers.

    ``table`` is a pair table (``uint16``, two bytes a lookup) or a
    ``GF_MUL`` row (``uint8``, one byte); ``wide`` holds ``src``'s whole
    lookups widened to ``intp``, which is what ``np.take`` indexes with.
    """
    whole = wide.size * table.itemsize
    np.take(table, wide, mode="clip", out=dst[:whole].view(table.dtype))
    if whole != src.size:
        dst[-1] = table[src[-1]]  # pair entry (0 << 8) | lo is c*lo


#: One use of a source: output key, output buffer, coefficient and its
#: lookup table (``None`` for 0 and 1, which need no multiply).
_Use = Tuple[Any, np.ndarray, int, Optional[np.ndarray]]
#: A source buffer with every use of it, so each block is widened once.
_Group = Tuple[np.ndarray, "List[_Use]"]


def _walk(
    groups: "List[_Group]", accumulate: bool, step: int, start: int, stop: int
) -> None:
    """Apply ``groups`` to leading-axis rows ``[start, stop)``, block-wise."""
    scratch = index = None
    for i in range(start, stop, step):
        end = min(i + step, stop)
        written = set()
        for src, uses in groups:
            block = src[i:end]
            flat = wide = None
            for o, dst, coeff, table in uses:
                part = dst[i:end]
                fresh = not accumulate and o not in written
                written.add(o)
                if coeff == 0:
                    if fresh:
                        part[...] = 0
                    continue
                product = block
                if table is not None:
                    if wide is None:
                        flat = np.ascontiguousarray(block).reshape(-1)
                        whole = flat.size - flat.size % table.itemsize
                        units = flat[:whole].view(table.dtype)
                        if index is None or index.size < units.size:
                            index = np.empty(units.size, np.intp)
                        wide = index[: units.size]
                        np.copyto(wide, units)
                    if fresh and part.flags.c_contiguous:
                        _gather(table, flat, wide, part.reshape(-1))
                        continue
                    if scratch is None or scratch.size < flat.size:
                        scratch = np.empty(flat.size, np.uint8)
                    _gather(table, flat, wide, scratch[: flat.size])
                    product = scratch[: flat.size].reshape(part.shape)
                if fresh:
                    part[...] = product
                else:
                    np.bitwise_xor(part, product, out=part)


def _run(
    out: Any,
    sources: Any,
    entries: "Iterable[Tuple[Any, Any, int]]",
    accumulate: bool,
) -> None:
    uses: "Dict[Any, _Group]" = {}
    first = None
    for o, s, coeff in entries:
        _check_coeff(coeff)
        dst, src = _as_u8(out[o], "out"), _as_u8(sources[s], "source")
        first = dst if first is None else first
        if dst.shape != first.shape or src.shape != first.shape:
            raise GaloisError("combine: shape mismatch")
        if coeff < 2:
            table = None
        elif first.size < PAIR_MIN:
            table = GF_MUL[coeff]
        else:
            table = _pair_table(coeff)
        uses.setdefault(s, (src, []))[1].append((o, dst, coeff, table))
    if first is None:
        return
    rows = len(first)
    step = max(1, BLOCK * rows // max(1, first.size))
    _in_shares(partial(_walk, list(uses.values()), accumulate, step), rows, step)


def _in_shares(walk: "Callable[[int, int], None]", rows: int, step: int) -> None:
    """Run ``walk(start, stop)`` over ``[0, rows)`` inline, or in shares cut
    at multiples of ``step`` where each gets :data:`MIN_BLOCKS_PER_WORKER`."""
    blocks = -(-rows // step)
    workers = min(_WORKERS, blocks // MIN_BLOCKS_PER_WORKER)
    if workers <= 0:
        walk(0, rows)
        return
    shares = workers + 1
    cuts = [min(rows, blocks * k // shares * step) for k in range(shares)]
    cuts.append(rows)
    pool = _executor()
    futures = [pool.submit(walk, cuts[k], cuts[k + 1]) for k in range(1, shares)]
    try:
        walk(cuts[0], cuts[1])
    finally:
        wait(futures)
    for future in futures:
        future.result()


def lane_tables(coeffs: np.ndarray) -> np.ndarray:
    """Per column of a ``(g <= 8, cols)`` block, a 256-entry little-endian
    ``uint32`` (``g > 4``: ``uint64``) table whose byte lane ``l`` of entry
    ``x`` is ``coeffs[l, col] * x``."""
    g, cols = coeffs.shape
    width = 4 if g <= 4 else 8
    lanes = np.zeros((cols, 256, width), np.uint8)
    lanes[:, :, :g] = GF_MUL[coeffs.T].transpose(0, 2, 1)
    tables = lanes.view(f"<u{width}")[:, :, 0]
    tables.setflags(write=False)
    return tables


def lane_product(
    out: np.ndarray, sources: np.ndarray, rows: "List[int]", cols: "List[int]",
    tables: np.ndarray,
) -> None:
    """``out[rows[l]] = XOR_j coeff(l, j) * sources[cols[j]]`` for every lane.

    ``tables`` come from :func:`lane_tables`.  Each source block is
    widened once and gathered once into a packed accumulator, whose lanes
    are shifted out into the output rows after the last source.
    """
    def walk(begin: int, end: int) -> None:
        step = min(LANE_SCRATCH // (8 + 2 * tables.itemsize), end - begin) or 1
        wide = np.empty(step, np.intp)
        acc, tmp = np.empty((2, step), tables.dtype)
        for start in range(begin, end, step):
            stop = min(start + step, end)
            w, a, t = wide[: stop - start], acc[: stop - start], tmp[: stop - start]
            for q, j in enumerate(cols):
                np.copyto(w, sources[j, start:stop])
                # Byte indices never wrap a 256-entry table; "wrap"
                # gathers ~13% faster than "clip" here.
                np.take(tables[q], w, mode="wrap", out=t if q else a)
                if q:
                    np.bitwise_xor(a, t, out=a)
            for lane, r in enumerate(rows):
                part = np.right_shift(a, 8 * lane, out=t) if lane else a
                np.copyto(out[r, start:stop], part, casting="unsafe")

    _in_shares(walk, out.shape[1], BLOCK)


def scale(coeff: int, buf: np.ndarray) -> np.ndarray:
    """Return ``coeff * buf`` elementwise over GF(2^8) (new array)."""
    out = np.empty_like(_as_u8(buf, "buf"))
    _run([out], [buf], [(0, 0, coeff)], accumulate=False)
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
    _run([dst], [src], [(0, 0, coeff)], accumulate=True)
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
    to a source block finds it cache-resident; large calls are split into
    contiguous block shares, one per usable core.
    """
    _run(out, sources, entries, accumulate=False)
