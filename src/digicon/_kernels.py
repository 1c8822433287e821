"""The sweep layer: the budget, the code width and the vectorized block
kernels behind every exhaustive bitmask sweep.

Every exhaustive sweep walks the integers 0..2^bits - 1 in contiguous
blocks, flags the codes of each block with one vectorized predicate, and
counts or lists the flagged codes in block order: one flags function on
count_flagged or iter_flagged, which check the code width and then the
budget before any block runs.  Workers only change which thread evaluates
a block, never the order results are merged, so output is identical for
any worker count.

numpy is imported inside the functions that build arrays, and the thread
pool only when a sweep has more than one worker, so the routes that never
sweep (recurrences, formulas, the ladder, series) load neither.  A
function-level import of a loaded module is a lookup in sys.modules, safe
from the pool's threads; a lazy module proxy is not (on Python 3.11 two
threads touching one at once can see it half loaded).

Codes and masks are held in the narrowest dtype that fits their width
(code_dtype: uint32 up to 32 bits, int64 up to 62), and a block of 2^16
codes keeps its few working arrays in the L2 cache.  The subset and arrays
kernels allocate a block's working arrays as the rows of one array and
update them with out= operations, not a temporary per pass; the string
sweep takes its codes as the first row of one array as large as its
working set.  One allocation matters: once malloc has freed a chunk that
large, its trim threshold lies above a block's working set, so each block
reuses the pages of the one before instead of faulting in fresh ones
(separate row-sized arrays fault on every block).

The subset kernels split a code into its low part (members below
b = min(n, TABLE_BITS)) and its high part.  A span lies inside one aligned
window of 2^b codes, so its codes share the high part: N[S], |S| and the
independence of S are a per-sweep table over the low parts combined with
one constant for the high part.  Every member v of S has N[v] inside N[S],
so S is convex iff exactly |S| vertices are swallowed that way.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass

from .errors import BudgetExceededError, InvalidParameterError
from .graphs import union_of_masks

TABLE_BITS = 18
# 2^16 codes: a block's few working arrays (256 KiB each as uint32) stay in
# the L2 cache.  Blocks are aligned and divide a table window of
# 2^TABLE_BITS codes, so no block crosses one.
BLOCK_SIZE = 1 << 16

DEFAULT_MAX_SUBSETS = 1 << 26

# codes of up to 32 bits are held in uint32 and wider ones in int64, where
# every code a kernel shifts or masks must stay below 2^62
_MAX_SWEEP_BITS = 62


@dataclass(frozen=True)
class EnumerationBudget:
    """Cap on exhaustive sweep size, plus the worker count for block evaluation."""

    max_subsets: int = DEFAULT_MAX_SUBSETS
    workers: int = 1

    def __post_init__(self):
        if self.max_subsets < 1:
            raise InvalidParameterError(f"max_subsets must be >= 1, got {self.max_subsets}")
        if self.workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {self.workers}")


def _workers(bits: int, width: int, budget: EnumerationBudget | None, what: str) -> int:
    """The budget's workers for a sweep of 2^bits codes (what) whose kernel
    needs max(bits, width)-bit codes.  The width is checked first: a sweep
    that no budget can run is a parameter error, not a budget error."""
    budget = EnumerationBudget() if budget is None else budget
    width = max(bits, width)
    if width > _MAX_SWEEP_BITS:
        raise InvalidParameterError(
            f"exhaustive sweep supports at most {_MAX_SWEEP_BITS}-bit codes, got {width}"
        )
    if 1 << bits > budget.max_subsets:
        raise BudgetExceededError(1 << bits, budget.max_subsets, what=what)
    return budget.workers


def code_dtype(width: int):
    """The numpy scalar type for codes and masks of width bits: uint32 up to
    32 bits, int64 beyond (every sweep is capped at 62)."""
    import numpy as np

    return np.uint32 if width <= 32 else np.int64


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
    from concurrent.futures import ThreadPoolExecutor  # loads logging: only for a pool

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


def count_flagged(bits: int, flags, budget: EnumerationBudget | None, what: str,
                  width: int = 0) -> int:
    """How many codes below 2^bits the bool vectors flags(lo, hi) mark;
    _workers checks the sweep before any block runs."""
    import numpy as np

    workers = _workers(bits, width, budget, what)
    return sum(scan_blocks(1 << bits, lambda lo, hi: int(np.count_nonzero(flags(lo, hi))),
                           workers))


def iter_flagged(bits: int, flags, budget: EnumerationBudget | None, what: str,
                 width: int = 0, image=None):
    """The codes below 2^bits that flags(lo, hi) marks, ascending, or
    image(codes) of each block's int64 array of them, as Python ints;
    checked like count_flagged on the call, not on the first code."""
    import numpy as np

    workers = _workers(bits, width, budget, what)

    def block(lo, hi):
        codes = lo + np.flatnonzero(flags(lo, hi))
        return (codes if image is None else image(codes)).tolist()

    return itertools.chain.from_iterable(scan_blocks(1 << bits, block, workers))


@functools.lru_cache(maxsize=1)
def _tables(closed_masks: tuple):
    """The closed masks cast to the code dtype once per sweep, and
    (ns_low, size_low, indep_low) indexed by the code of the members among
    the first b = min(n, TABLE_BITS) vertices: their N[S] bitmask, their
    number, and whether no two of them are adjacent."""
    import numpy as np

    dtype = code_dtype(len(closed_masks))
    masks = tuple(map(dtype, closed_masks))
    size = 1 << min(len(closed_masks), TABLE_BITS)
    ns_low = np.zeros(size, dtype=dtype)
    size_low = np.zeros(size, dtype=np.uint8)
    indep_low = np.ones(size, dtype=bool)
    for v, mask in enumerate(masks[:size.bit_length() - 1]):
        # codes h..2h-1 are the codes below h with vertex v added; their
        # ns_low rows first hold whether v is adjacent to a lower member
        h = 1 << v
        top = slice(h, 2 * h)
        np.bitwise_and(ns_low[:h], dtype(h), out=ns_low[top])
        np.equal(ns_low[top], 0, out=indep_low[top])
        indep_low[top] &= indep_low[:h]
        np.bitwise_or(ns_low[:h], mask, out=ns_low[top])
        np.add(size_low[:h], 1, out=size_low[top])
    return masks, (ns_low, size_low, indep_low)


def _window(closed_masks, lo: int, hi: int):
    """The high part shared by the codes in [lo, hi), the closed masks in
    the code dtype, and the rows of the three tables for their low parts."""
    masks, tables = _tables(closed_masks)
    off = lo & (len(tables[0]) - 1)
    if off + hi - lo > len(tables[0]):
        raise ValueError(f"span [{lo}, {hi}) crosses a window of {len(tables[0])} codes")
    return lo - off, masks, [t[off:off + hi - lo] for t in tables]


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
    (ids, ns) : pair of arrays of dtype code_dtype(n)
        ids[i] is the subset code, ns[i] the bitmask of its closed
        neighbourhood union.
    """
    import numpy as np

    high, _, (ns_low, _, _) = _window(closed_masks, lo, hi)
    dtype = ns_low.dtype.type
    ids, ns = np.empty((2, hi - lo), dtype)  # one allocation (module docstring)
    ids[:] = np.arange(lo, hi, dtype=dtype)
    np.bitwise_or(ns_low, dtype(union_of_masks(closed_masks, high)), out=ns)
    return ids, ns


def convex_flags(closed_masks, lo: int, hi: int):
    """Boolean vector: which subset codes in [lo, hi) are digitally convex.

    S is convex iff no vertex outside S is swallowed (N[v] inside N[S]);
    members always are, so the test is: exactly |S| vertices are swallowed.
    The span's high members are skipped, and so left out of both sides.
    """
    import numpy as np

    high, masks, (_, size_low, _) = _window(closed_masks, lo, hi)
    tmp, missed = neighborhood_codes(closed_masks, lo, hi)  # the ids become scratch
    np.invert(missed, out=missed)
    hit = np.empty(hi - lo, dtype=bool)
    swallowed = np.zeros(hi - lo, dtype=np.uint8)
    for v, mask in enumerate(masks):
        if not high >> v & 1:
            np.bitwise_and(missed, mask, out=tmp)
            np.equal(tmp, 0, out=hit)
            swallowed += hit
    return np.equal(swallowed, size_low, out=hit)


def mis_flags(closed_masks, lo: int, hi: int):
    """Boolean vector: which subset codes are maximal independent sets.

    For an independent set, maximality is equivalent to domination, so the
    test is: no member is adjacent to another member, and N[S] covers V.
    A span whose high part is not independent holds no such set.
    """
    import numpy as np

    high, _, (_, _, indep_low) = _window(closed_masks, lo, hi)
    adj_high = union_of_masks([m ^ 1 << v for v, m in enumerate(closed_masks)], high)
    if adj_high & high:
        return np.zeros(hi - lo, dtype=bool)
    ids, ns = neighborhood_codes(closed_masks, lo, hi)
    dtype = ns.dtype.type
    flags = np.equal(ns, dtype((1 << len(closed_masks)) - 1))
    flags &= indep_low
    np.bitwise_and(ids, dtype(adj_high), out=ids)
    flags &= ids == 0
    return flags
