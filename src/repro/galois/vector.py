"""Vectorized GF(2^8) kernels over numpy uint8 buffers.

These are the data-path primitives of the whole system.  A repair equation

    R = a_1*C_1 ^ a_2*C_2 ^ ... ^ a_k*C_k

is computed entirely with constant multiplies and XORs — whether centrally
(traditional repair) or split across servers (PPR partial operations).

Every bulk multiply (:func:`combine`, :func:`addmul`, :func:`scale` and
``GFMatrix.mul_buffer``) is a :func:`plan` run by one walker.  A plan
makes rows of 0/1 coefficients copies and XORs, and puts rows with a real
multiply in groups of up to :data:`LANES`, each gathering through one
``np.take`` table kind, whichever makes fewer lookups per source byte: a
coefficient's 16-bit *pair table* (two bytes of one row a lookup, from
:data:`PAIR_MIN` bytes on), its 256-byte ``GF_MUL`` row (one byte), or a
source's *packed-lane* table (one byte for up to eight rows, in the byte
lanes of a ``uint32``/``uint64``).  The walker steps :data:`BLOCK` bytes
at a time and widens each source block to ``intp`` once per index width.
It splits a long call into contiguous shares, one per usable core, and a
share touches only its own offsets of every buffer and its own thread's
scratch, so the kernels are safe to call from several threads at once.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import lru_cache, partial
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import GaloisError
from repro.galois.tables import GF_MUL

#: Bytes of each buffer one walk step covers: large enough to amortise the
#: per-step Python work, small enough that a step's source, indices,
#: products and lane accumulators stay in L2.
BLOCK = 128 * 1024

#: Most pair tables cached at once (32 x 128 KiB = 4 MiB).
TABLE_CACHE = 32

#: Buffers from this length on multiply one-lane rows through pair tables.
#: Building one costs 15-100 us (mostly page faults on its 128 KiB), more
#: than pairing saves on a shorter buffer whose coefficient misses the cache.
PAIR_MIN = 32 * 1024

#: A call is split only where every worker gets at least this many steps;
#: smaller ones (a 64 KiB repair buffer) run inline, where a thread
#: hand-off would cost more than it saves.
MIN_BLOCKS_PER_WORKER = 2

#: Most output rows one packed lookup serves (``uint64`` lanes).
LANES = 8


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


#: Pool threads beside the caller: one per further usable core.
_WORKERS = _usable_cores() - 1
_pool: "Optional[ThreadPoolExecutor]" = None
_pool_lock = threading.Lock()
#: Each thread's walk scratch, kept across calls so it faults in once.
_local = threading.local()


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


def table_width(nbytes: int) -> int:
    """Bytes a one-lane lookup multiplies in ``nbytes``-long buffers: 2
    (pair tables) from :data:`PAIR_MIN` on, else 1 (``GF_MUL`` rows).  A
    plan holds for every length of its width."""
    return 2 if nbytes >= PAIR_MIN else 1


class Plan(NamedTuple):
    """:func:`plan`'s output; rows and sources are numbered in order of
    first appearance."""

    outs: tuple  #: output keys, by row number
    sources: tuple  #: source keys, by source number
    zeros: tuple  #: rows filled with zero
    copies: tuple  #: ``(row, source)`` pairs copied whole, outside the walk
    #: per walked source, ``(source, units, mults, lanes)``: ``(row, fresh)``
    #: copies or XORs, ``(row, coeff, fresh)`` one-lane multiplies, ``(group,
    #: lane table, first)`` packed gathers.  Fresh uses write, others XOR.
    walk: tuple
    groups: tuple  #: packed groups, as ``(lane dtype, rows)``
    coeffs: tuple  #: coefficients of the one-lane multiplies
    width: int  #: their index width (:func:`table_width`)
    scratch: int  #: bytes of walk scratch a step byte takes (see :func:`_walk`)

    def apply(self, dsts: "List[np.ndarray]", srcs: "List[np.ndarray]") -> None:
        """Run on validated equal-shape buffers, listed by row and source."""
        for row in self.zeros:
            dsts[row][...] = 0
        for row, source in self.copies:
            np.copyto(dsts[row], srcs[source])
        rows = len(dsts[0]) if self.walk else 0
        if rows:
            per_row = dsts[0].size // rows
            step = max(1, BLOCK // max(1, per_row))
            tables = {c: _pair_table(c) if self.width == 2 else GF_MUL[c] for c in self.coeffs}
            _in_shares(partial(_walk, self, srcs, dsts, tables, step, per_row), rows, step)


def plan(entries: "Iterable[Tuple[Any, Any, int]]", width: int) -> Plan:
    """Plan ``out[o] = XOR coeff * sources[s]`` over ``(o, s, coeff)``
    entries, for buffers of one :func:`table_width`.  Entries naming one
    ``(o, s)`` add up, and a row whose coefficients are all 0 is zeroed.
    Coefficients are validated here, before any buffer is written."""
    outs: "Dict[Any, int]" = {}  # output and source keys -> their numbers
    keys: "Dict[Any, int]" = {}
    rows: "List[Dict[int, int]]" = []  # per row, source number -> coefficient
    for o, s, coeff in entries:
        _check_coeff(coeff)
        if outs.setdefault(o, len(outs)) == len(rows):
            rows.append({})
        if coeff:
            row, j = rows[outs[o]], keys.setdefault(s, len(keys))
            row[j] = row.get(j, 0) ^ coeff
    rows = [{j: c for j, c in row.items() if c} for row in rows]
    dense = [i for i, row in enumerate(rows) if max(row.values(), default=0) > 1]
    one_lane = [i for i, row in enumerate(rows) if row and max(row.values()) == 1]
    groups: "List[Tuple[np.dtype, List[int]]]" = []
    lanes: "List[list]" = [[] for _ in keys]
    for at in range(0, len(dense), LANES):
        group = dense[at : at + LANES]
        cols = sorted({j for i in group for j in rows[i]})
        mults = sum(c > 1 for i in group for c in rows[i].values())
        # Lookups a source byte, in halves: packed, one a column (1.5 for
        # uint64 lanes); one-lane, one a multiply, half that through pair
        # tables.  Packing every group instead makes rotated RS's sparse
        # rows 1.2-1.7x slower from PAIR_MIN.
        if len(cols) * (2 if len(group) <= 4 else 3) < mults * 2 // width:
            # Byte lane l of column q's entry x is row l's coefficient * x.
            block = np.array([[rows[i].get(j, 0) for j in cols] for i in group], np.uint8)
            packed = np.zeros((len(cols), 256, 4 if len(group) <= 4 else 8), np.uint8)
            packed[:, :, : len(group)] = GF_MUL[block.T].transpose(0, 2, 1)
            tables = packed.view(f"<u{packed.shape[2]}")[:, :, 0]
            for q, j in enumerate(cols):
                lanes[j].append((len(groups), tables[q], q == 0))
            groups.append((tables.dtype, group))
        else:
            one_lane += group
    uses: "List[list]" = [[] for _ in keys]
    for i in one_lane:
        first = min(rows[i])  # the source whose use writes the row
        for j, c in rows[i].items():
            uses[j].append((i, c, j == first))
    # A unit row whose source nothing else reads is one whole-buffer copy.
    copies = [(i, j) for j, used in enumerate(uses) if len(used) == 1 and not lanes[j]
              for i, c, _ in used if c == 1 and len(rows[i]) == 1]
    for _, j in copies:
        uses[j] = []
    walk = [
        (j, tuple((i, fresh) for i, c, fresh in used if c == 1),
         tuple(use for use in used if use[1] > 1), tuple(lanes[j]))
        for j, used in enumerate(uses) if used or lanes[j]
    ]
    coeffs = tuple(sorted({c for i in one_lane for c in rows[i].values() if c > 1}))
    zeros = tuple(i for i, row in enumerate(rows) if not row)
    items = [dtype.itemsize for dtype, _ in groups]
    return Plan(
        tuple(outs), tuple(keys), zeros, tuple(copies), tuple(walk),
        tuple(groups), coeffs, width, 13 + max(items, default=0) + sum(items),
    )


#: Plans of recent :func:`combine`, :func:`addmul` and :func:`scale` calls,
#: which repeat a few entry sets (a recipe's terms, one coefficient).
_planned = lru_cache(maxsize=TABLE_CACHE)(plan)


def _walk(
    plan: Plan, srcs: "List[np.ndarray]", dsts: "List[np.ndarray]",
    tables: "Dict[int, np.ndarray]", step: int, per_row: int, start: int, stop: int,
) -> None:
    """Apply ``plan`` to leading-axis rows ``[start, stop)``, at most
    ``step`` at a time: each source block is widened once per index width
    and gathered into every row and group that reads it."""
    # This thread's scratch (``plan.scratch`` bytes a step byte): one-lane
    # products, byte and pair indices, a lane temporary, one accumulator
    # per group.  A plan touches only the pieces it uses, and the thread
    # keeps it only under numpy's 4 MiB huge-page threshold, so untouched
    # pieces stay unmapped: a plan of many packed groups walks shorter
    # steps to fit (1/16 spare covers each piece's 64-byte alignment).
    huge = 4 << 20
    step = max(1, min(step, huge * 15 // 16 // plan.scratch // max(1, per_row)))
    n = min(step, stop - start) * per_row
    carved = getattr(_local, "carved", None)  # the views of the last call
    if carved is None or carved[0] != (n, plan.groups):
        items = [dtype.itemsize * n for dtype, _ in plan.groups]
        sizes = [n, 8 * n, 8 * (n // 2), max(items, default=0), *items]
        starts = [sum(-(-size // 64) * 64 for size in sizes[:k]) for k in range(len(sizes) + 1)]
        scratch = getattr(_local, "scratch", None)
        if scratch is None or scratch.size < starts[-1]:
            scratch = np.empty(starts[-1], np.uint8)
        products, narrow, pairs, tmp, *accs = (scratch[a : a + z] for a, z in zip(starts, sizes))
        accs = [acc.view(dt) for acc, (dt, _) in zip(accs, plan.groups)]
        tmps = [tmp[: acc.nbytes].view(acc.dtype) for acc in accs]
        views = products, narrow.view(np.intp), pairs.view(np.intp), accs, tmps
        carved = (n, plan.groups), views
        if scratch.size < huge:  # larger (a step of one long row) lasts one call
            _local.scratch, _local.carved = scratch, carved
    products, narrow, pairs, accs, tmps = carved[1]
    pair = plan.width == 2 and bool(plan.coeffs)
    for i in range(start, stop, step):
        end = min(i + step, stop)
        m = (end - i) * per_row
        if m != n:  # the share's last, short step
            products, narrow, pairs = products[:m], narrow[:m], pairs[: m // 2]
            accs, tmps = [acc[:m] for acc in accs], [tmp[:m] for tmp in tmps]
        whole = m - m % 2 if pair else m
        for j, units, mults, lanes in plan.walk:
            block = srcs[j][i:end]
            for row, fresh in units:
                part = dsts[row][i:end]
                if fresh:
                    np.copyto(part, block)
                else:
                    np.bitwise_xor(part, block, out=part)
            if not (mults or lanes):
                continue
            flat = block.ravel()
            if lanes or not pair:
                np.copyto(narrow, flat)
            if mults and pair:
                np.copyto(pairs, flat[:whole].view(np.uint16))
            index = pairs if pair else narrow
            for row, coeff, fresh in mults:
                table = tables[coeff]
                part = dsts[row][i:end]
                direct = fresh and part.flags.c_contiguous
                product = part.reshape(-1) if direct else products
                # Indices never leave a table; "wrap" gathers faster than "clip".
                table.take(index, mode="wrap", out=product[:whole].view(table.dtype))
                if whole != m:
                    product[-1] = table[flat[-1]]  # pair entry (0 << 8) | lo is c*lo
                if direct:
                    continue
                product = product.reshape(part.shape)
                if fresh:
                    np.copyto(part, product)
                else:
                    np.bitwise_xor(part, product, out=part)
            for g, table, first in lanes:
                if first:
                    table.take(narrow, mode="wrap", out=accs[g])
                else:
                    table.take(narrow, mode="wrap", out=tmps[g])
                    np.bitwise_xor(accs[g], tmps[g], out=accs[g])
        for (_, rows), acc, shifted in zip(plan.groups, accs, tmps):
            for lane, row in enumerate(rows):
                part = dsts[row][i:end]
                value = np.right_shift(acc, 8 * lane, out=shifted) if lane else acc
                np.copyto(part, value.reshape(part.shape), casting="unsafe")


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


def _run(out: Any, sources: Any, entries: "Iterable[Tuple[Any, Any, int]]") -> None:
    entries = tuple(entries)
    if not entries:
        return
    first = _as_u8(out[entries[0][0]], "out")
    product = _planned(entries, table_width(first.size))
    dsts = [_as_u8(out[o], "out") for o in product.outs]
    srcs = [_as_u8(sources[s], "source") for s in product.sources]
    for buf in dsts + srcs:
        if buf.shape != first.shape:
            raise GaloisError("combine: shape mismatch")
    product.apply(dsts, srcs)


def scale(coeff: int, buf: np.ndarray) -> np.ndarray:
    """Return ``coeff * buf`` elementwise over GF(2^8) (new array)."""
    out = np.empty_like(_as_u8(buf, "buf"))
    _run([out], [buf], [(0, 0, coeff)])
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
    # dst's own copy onto itself is a no-op numpy skips.
    _run([dst], [dst, src], [(0, 0, 1), (0, 1, coeff)])
    return dst


def combine(
    out: Any, sources: Any, entries: "Iterable[Tuple[Any, Any, int]]"
) -> None:
    """Set ``out[o]`` to the XOR of ``coeff * sources[s]`` over ``entries``.

    ``entries`` are ``(o, s, coeff)`` triples — the shape of a recipe's
    ``(lost_row, helper_row, coeff)`` — and ``out`` / ``sources`` anything
    they index: a 2-D array, a list or a dict of equal-shape buffers.  The
    ``out`` buffers need not be initialised: every row an entry names is
    written, and rows no entry names are left alone.
    """
    _run(out, sources, entries)
