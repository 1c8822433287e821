"""The sweep and walk layer: the budget, the code width and the bit-sliced
block kernels behind every exhaustive bitmask sweep, and the one chunk walk
behind every sweep-free stream.

Every sweep walks the codes 0..2^bits - 1 in aligned blocks of 2^b codes,
flags each block's codes with one kernel, and counts or lists them in block
order: count_flagged or iter_flagged, the one place that refuses a sweep,
checks the code width, then the budget, and only then builds the closed
masks, so a refused sweep builds nothing.  Every block runs on the calling
thread.

A kernel returns an int whose bit i stands for the code lo + i,
so one AND or OR tests all 2^b subsets of a block at once.  The plane of
a low vertex v < b has bit i set iff i holds v; a high vertex is in every
code of the block or in none, as lo says.  convex_bits runs on one plan
per sweep (_convex_plan): only a vertex w with a high closed neighbour,
a varying one, can have N[S] hold w in every code of a block, so the
terms of the vertices u with no varying vertex in N[u] fold into one
constant int, and every other term keeps a fixed int; a block redoes only
the ANDs with the covers of the varying vertices that no high member
fills.  The grid arrays sweep is convex_bits on the grid's cross masks.
No sweep imports numpy: only the bool-vector views convex_flags and
mis_flags do.

A stream lists the words of an automaton with no sweep, on walk_chunks (a
walk per start, on tables of endings built as the walks first read them):
the cycle-power strings a run per step, the ladder's sets a column per step.
Sweeps and walks stream chunks (prefix, table), the sets prefix | rest for
rest in the nonempty list table, each prefix bit below or above every bit of
the table's entries; chunk_masks flattens them.
"""

from __future__ import annotations

import functools
import itertools

from .errors import BudgetExceededError, FrozenRecord, InvalidParameterError, _int
from .graphs import union_of_masks

# 2^16 codes: a block int, and each plane, is 8 KiB
BLOCK_SIZE = 1 << 16

DEFAULT_MAX_SUBSETS = 1 << 26

# no sweep of 2^63 codes could end
_MAX_SWEEP_BITS = 62


class EnumerationBudget(FrozenRecord):
    """Cap on exhaustive sweep size (on the exact count for the string walk
    and the ladder stream)."""

    _fields = ("max_subsets",)

    def __init__(self, max_subsets: int = DEFAULT_MAX_SUBSETS):
        object.__setattr__(self, "max_subsets", _int(max_subsets, "max_subsets", 1))


def check_budget(required: int, budget: EnumerationBudget | None, what: str) -> None:
    """Raise BudgetExceededError if required items (what) exceed the budget's cap."""
    limit = (budget or EnumerationBudget()).max_subsets
    if required > limit:
        raise BudgetExceededError(required, limit, what=what)


def _checked_masks(bits: int, masks, budget: EnumerationBudget | None, what: str):
    """masks(), called only once a sweep of 2^bits codes (what) passes its
    checks: the width first, since a sweep that no budget can run is a
    parameter error, not a budget error, then the budget."""
    if bits > _MAX_SWEEP_BITS:
        raise InvalidParameterError(f"exhaustive sweep supports at most {_MAX_SWEEP_BITS}-bit "
                                    f"codes, got {bits}")
    check_budget(1 << bits, budget, what)
    return masks()


def iter_blocks(total: int, block_size: int = BLOCK_SIZE):
    """Yield (lo, hi) spans covering range(total) in increasing order."""
    for lo in range(0, total, block_size):
        yield lo, min(lo + block_size, total)


def scan_blocks(total: int, block_fn, workers: int = 1, block_size: int = BLOCK_SIZE):
    """Yield block_fn(lo, hi) for consecutive blocks, in block order, each
    run on the calling thread when it is asked for.  workers is unused; it
    stays because perfbench/tracer.py calls this with four arguments."""
    for lo, hi in iter_blocks(total, block_size):
        yield block_fn(lo, hi)


def count_flagged(bits: int, kernel, masks, budget: EnumerationBudget | None, what: str) -> int:
    """How many codes below 2^bits kernel(masks(), lo, hi) marks; masks()
    is called once, after _checked_masks checks the sweep."""
    closed = _checked_masks(bits, masks, budget, what)
    return sum(scan_blocks(1 << bits, lambda lo, hi: kernel(closed, lo, hi).bit_count()))


def iter_flagged(bits: int, kernel, masks, budget: EnumerationBudget | None, what: str):
    """The codes below 2^bits that kernel(masks(), lo, hi) marks, ascending,
    as a chunk (lo, offsets) per block, the codes lo | offset; checked and
    built like count_flagged on the call, not on the first code."""
    closed = _checked_masks(bits, masks, budget, what)
    chunks = scan_blocks(1 << bits, lambda lo, hi: (lo, _set_bits(kernel(closed, lo, hi))))
    return (chunk for chunk in chunks if chunk[1])


def chunk_masks(chunks):
    """The masks of a stream of chunks (prefix, table), in order."""
    return itertools.chain.from_iterable([p | rest for rest in t] if p else t for p, t in chunks)


def walk_chunks(top: int, steps, accepting):
    """walk(start): the words of an automaton from a (left, state, prefix)
    start, in walk order, in chunks (prefix, table), each table nonempty.

    steps(state, left) gives the (width, bits, after) triples of a state
    with left positions still to fill, top down, in walk order; bits is
    placed for those positions.  A word ends at left = 0 in an accepting
    state.  The endings of left <= top positions are tabulated, a row per
    left and a table per state, shared by every walk: a row is built from
    the rows under it the first time a walk reads it, and then kept.  walk
    goes depth first on one stack: a prefix that leaves left <= top
    positions yields itself and its nonempty table, the kept row itself.
    """
    empty = []
    rows = [[[0] if ok else empty for ok in accepting]]

    def grow(top_row):  # build the missing rows through top_row, bottom up
        for left in range(len(rows), top_row + 1):
            row, shared = [], {}  # states with the same steps share one table
            for state in range(len(accepting)):
                step = tuple(steps(state, left))
                if step not in shared:
                    shared[step] = [bits | rest if bits else rest for width, bits, after in step
                                    for rest in rows[left - width][after]] or empty
                row.append(shared[step])
            rows.append(row)
        return len(rows) - 1

    def walk(start):
        built = len(rows) - 1  # at most top, and refreshed only on growing
        stack = [start]
        while stack:
            left, state, prefix = stack.pop()
            if left > built:  # so a read of a built row, the common case, costs one test
                if left > top:
                    stack += [(left - width, after, prefix | bits)
                              for width, bits, after in reversed(steps(state, left))]
                    continue
                built = grow(left)
            if table := rows[left][state]:
                yield prefix, table

    return walk


@functools.cache
def _byte_bits() -> tuple:
    """For each byte value, the positions of its set bits, ascending."""
    return tuple(tuple(i for i in range(8) if byte >> i & 1) for byte in range(256))


def _set_bits(flags: int) -> list[int]:
    """Each set bit i of flags, ascending; only nonzero bytes are visited."""
    data, table = flags.to_bytes((flags.bit_length() + 7) // 8, "little"), _byte_bits()
    return [(j << 3) + i for j in itertools.compress(range(len(data)), data)
            for i in table[data[j]]]


def block(lo: int, hi: int) -> tuple[int, int]:
    """(b, full) for a block [lo, hi) of 2^b codes with lo a multiple of
    2^b: full, 2^(2^b) - 1, is the int that flags all its codes."""
    size = hi - lo
    if lo < 0 or size < 1 or size & size - 1 or lo & size - 1:
        raise ValueError(f"span [{lo}, {hi}) is not an aligned block of 2^b codes")
    b = size.bit_length() - 1
    return b, _full(b)


@functools.cache
def _full(b: int) -> int:
    # one object per b, so that the kernels can skip it by identity
    return (1 << (1 << b)) - 1


@functools.cache
def planes(b: int) -> tuple[int, ...]:
    """For each v < b, the 2^b-bit int whose bit i is bit v of i: each plane
    of b - 1 repeated in both halves, then the plane of b - 1, the upper half."""
    if b == 0:
        return ()
    half = 1 << b - 1
    return (*(plane | plane << half for plane in planes(b - 1)), _full(b - 1) << half)


@functools.lru_cache(maxsize=1)
def _low_covers(closed_masks: tuple, b: int) -> tuple[int, ...]:
    """For each vertex w, the OR of the planes of its closed neighbours below b."""
    low = (1 << b) - 1
    return tuple(union_of_masks(planes(b), mask & low) for mask in closed_masks)


def neighborhood_codes(closed_masks, lo: int, hi: int) -> list[int]:
    """For each vertex w, the int of the codes S in the aligned block
    [lo, hi) whose N[S] holds w: full itself (see block) when a high member
    is a closed neighbour of w, else the OR of the planes of w's low ones."""
    b, full = block(lo, hi)
    # the low b bits of lo are 0, so mask & lo is w's high neighbours in S
    return [full if mask & lo else cover
            for mask, cover in zip(closed_masks, _low_covers(closed_masks, b))]


@functools.lru_cache(maxsize=1)
def _convex_plan(closed_masks: tuple, b: int) -> tuple:
    """The block-independent part of convex_bits for blocks of 2^b codes.

    A vertex w varies when a high vertex is a closed neighbour of it: only
    then can covered_w be full.  Returns (const_bad, terms, highs, covers):
    const_bad ORs the swallowed codes of every low u with no varying vertex
    in N[u]; terms holds, for every other u, (its bit if u is high, else 0,
    the codes that lack u and cover its non-varying neighbours, the indices
    of its varying ones); highs and covers hold each varying vertex's
    closed mask and the OR of the planes of its low closed neighbours.  A
    high u's neighbours all vary, so its fixed codes are full itself."""
    full, low, plane = _full(b), (1 << b) - 1, planes(b)
    covers = [union_of_masks(plane, mask & low) for mask in closed_masks]
    varying = {w: i for i, w in enumerate(w for w, mask in enumerate(closed_masks) if mask >> b)}
    const_bad, terms = 0, []
    for u, mask in enumerate(closed_masks):
        swallowed, around = full ^ plane[u] if u < b else full, []
        for w in range(mask.bit_length()):
            if mask >> w & 1:
                if w in varying:
                    around.append(varying[w])
                else:
                    swallowed &= covers[w]
        if around:
            terms.append((1 << u if u >= b else 0, swallowed, tuple(around)))
        else:
            const_bad |= swallowed
    return (const_bad, tuple(terms), tuple(closed_masks[w] for w in varying),
            tuple(covers[w] for w in varying))


def convex_bits(closed_masks, lo: int, hi: int) -> int:
    """The int of the digitally convex codes in the block [lo, hi): those
    whose S swallows no vertex u outside it (N[u] inside N[S]), so the OR
    over u of the codes that lack u and cover N[u] is dropped.  Only the
    terms of _convex_plan are redone, each with the covers of its varying
    neighbours that no high member makes full."""
    b, full = block(lo, hi)
    bad, terms, highs, covers = _convex_plan(closed_masks, b)
    # the low b bits of lo are 0, so mask & lo is w's high neighbours in S
    covered = [full if mask & lo else cover for mask, cover in zip(highs, covers)]
    for bit, swallowed, around in terms:
        if lo & bit:
            continue
        for i in around:
            if covered[i] is not full:
                swallowed &= covered[i]
        if swallowed is full:
            return 0  # a high non-member swallowed by every code of the block
        bad |= swallowed
    return full ^ bad


@functools.lru_cache(maxsize=1)
def _mis_terms(closed_masks: tuple, b: int) -> tuple:
    """The open-neighbourhood masks, and the int of the codes of a 2^b block
    whose low members include two adjacent vertices."""
    opened = tuple(mask ^ 1 << v for v, mask in enumerate(closed_masks))
    dependent = 0
    for plane, mask in zip(planes(b), opened):
        dependent |= plane & union_of_masks(planes(b), mask & (1 << b) - 1)
    return opened, dependent


def mis_bits(closed_masks, lo: int, hi: int) -> int:
    """The int of the maximal independent sets in the block [lo, hi): for
    an independent S, maximal means dominating, so S holds no edge and N[S]
    covers V.  A block whose high part holds an edge has none."""
    b, full = block(lo, hi)
    opened, dependent = _mis_terms(closed_masks, b)
    adjacent = union_of_masks(opened, lo)
    if adjacent & lo:
        return 0
    dominated = full
    for covered in neighborhood_codes(closed_masks, lo, hi):
        if covered is not full:
            dominated &= covered
    # a low vertex adjacent to a high member must stay out of S
    dependent |= union_of_masks(planes(b), adjacent & (1 << b) - 1)
    return dominated & ~dependent


def convex_flags(closed_masks, lo: int, hi: int):
    """convex_bits for the block [lo, hi) as a numpy bool vector."""
    import numpy as np

    return np.array(list(f"{convex_bits(closed_masks, lo, hi):0{hi - lo}b}"[::-1])) == "1"


def mis_flags(closed_masks, lo: int, hi: int):
    """mis_bits for the block [lo, hi) as a numpy bool vector."""
    import numpy as np

    return np.array(list(f"{mis_bits(closed_masks, lo, hi):0{hi - lo}b}"[::-1])) == "1"
