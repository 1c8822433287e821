"""Vectorized block kernels for exhaustive bitmask sweeps.

Every exhaustive sweep below walks the integers 0..2^n - 1 in contiguous
blocks, evaluates a predicate or transform on each block as one numpy int64
vector, and consumes the per-block results in block order.  Workers only
change which thread evaluates a block, never the order results are merged,
so output is identical for any worker count.

The subset kernels split a code into its low part (members below
b = min(n, TABLE_BITS)) and its high part.  A span lies inside one aligned
window of 2^b codes, so its codes share the high part: N[S], |S| and the
independence of S are a per-sweep table over the low parts combined with
one Python-int constant for the high part.  Every member v of S has N[v]
inside N[S], so S is convex iff exactly |S| vertices are swallowed that way.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

TABLE_BITS = 18
BLOCK_SIZE = 1 << TABLE_BITS


def iter_blocks(total: int, block_size: int = BLOCK_SIZE):
    """Yield (lo, hi) spans covering range(total) in increasing order."""
    for lo in range(0, total, block_size):
        yield lo, min(lo + block_size, total)


def scan_blocks(total: int, block_fn, workers: int = 1, block_size: int = BLOCK_SIZE):
    """Yield block_fn(lo, hi) for consecutive blocks, in block order.

    With workers > 1 the blocks run on a thread pool (numpy releases the
    GIL on large array ops), at most 2 * workers of them ahead of the
    consumer; results are still yielded in block order, and closing the
    generator early cancels the blocks not yet started.
    """
    spans = iter_blocks(total, block_size)
    if workers <= 1:
        yield from itertools.starmap(block_fn, spans)
        return
    pool, pending = ThreadPoolExecutor(max_workers=workers), deque()
    try:
        for lo, hi in spans:
            pending.append(pool.submit(block_fn, lo, hi))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


@functools.lru_cache(maxsize=1)
def _tables(closed_masks: tuple):
    """(ns_low, size_low, indep_low) indexed by the code of the members
    among the first b = min(n, TABLE_BITS) vertices: their N[S] bitmask,
    their number, and whether no two of them are adjacent."""
    size = 1 << min(len(closed_masks), TABLE_BITS)
    ns_low = np.zeros(size, dtype=np.int64)
    size_low = np.zeros(size, dtype=np.uint8)
    indep_low = np.ones(size, dtype=bool)
    for v, mask in enumerate(closed_masks[:size.bit_length() - 1]):
        # codes h..2h-1 are the codes below h with vertex v added; their
        # ns_low rows first hold whether v is adjacent to a lower member
        h = 1 << v
        top = slice(h, 2 * h)
        np.bitwise_and(ns_low[:h], h, out=ns_low[top])
        np.equal(ns_low[top], 0, out=indep_low[top])
        indep_low[top] &= indep_low[:h]
        np.bitwise_or(ns_low[:h], mask, out=ns_low[top])
        np.add(size_low[:h], 1, out=size_low[top])
    return ns_low, size_low, indep_low


def _window(closed_masks, lo: int, hi: int):
    """The high part shared by the codes in [lo, hi), and the rows of the
    three tables for their low parts."""
    tables = _tables(closed_masks)
    off = lo & (len(tables[0]) - 1)
    if off + hi - lo > len(tables[0]):
        raise ValueError(f"span [{lo}, {hi}) crosses a window of {len(tables[0])} codes")
    return lo - off, [t[off:off + hi - lo] for t in tables]


def _union(masks, high: int) -> int:
    """OR of masks[v] over the members v of the high part."""
    return functools.reduce(int.__or__, (m for v, m in enumerate(masks) if high >> v & 1), 0)


def neighborhood_codes(closed_masks, lo: int, hi: int):
    """Subset codes and their N[S] bitmasks for every code in [lo, hi).

    Parameters
    ----------
    closed_masks : tuple of int
        Per-vertex closed-neighbourhood bitmasks (Python ints, < 2^62).
    lo, hi : int
        Half-open range of subset codes to evaluate; it must lie inside
        one aligned window of 2^min(n, TABLE_BITS) codes.

    Returns
    -------
    (ids, ns) : pair of int64 arrays
        ids[i] is the subset code, ns[i] the bitmask of its closed
        neighbourhood union.
    """
    high, (ns_low, _, _) = _window(closed_masks, lo, hi)
    return np.arange(lo, hi, dtype=np.int64), ns_low | _union(closed_masks, high)


def convex_flags(closed_masks, lo: int, hi: int):
    """Boolean vector: which subset codes in [lo, hi) are digitally convex.

    S is convex iff no vertex outside S is swallowed (N[v] inside N[S]);
    members always are, so the test is: exactly |S| vertices are swallowed.
    The span's high members are skipped, and so left out of both sides.
    """
    high, (_, size_low, _) = _window(closed_masks, lo, hi)
    _, missed = neighborhood_codes(closed_masks, lo, hi)
    np.invert(missed, out=missed)
    tmp = np.empty_like(missed)
    hit = np.empty(hi - lo, dtype=bool)
    swallowed = np.zeros(hi - lo, dtype=np.uint8)
    for v, mask in enumerate(closed_masks):
        if not high >> v & 1:
            np.bitwise_and(missed, mask, out=tmp)
            np.equal(tmp, 0, out=hit)
            swallowed += hit
    return swallowed == size_low


def mis_flags(closed_masks, lo: int, hi: int):
    """Boolean vector: which subset codes are maximal independent sets.

    For an independent set, maximality is equivalent to domination, so the
    test is: no member is adjacent to another member, and N[S] covers V.
    A span whose high part is not independent holds no such set.
    """
    high, (_, _, indep_low) = _window(closed_masks, lo, hi)
    adj_high = _union([m ^ 1 << v for v, m in enumerate(closed_masks)], high)
    if adj_high & high:
        return np.zeros(hi - lo, dtype=bool)
    ids, ns = neighborhood_codes(closed_masks, lo, hi)
    return (ns == (1 << len(closed_masks)) - 1) & indep_low & ((ids & adj_high) == 0)
