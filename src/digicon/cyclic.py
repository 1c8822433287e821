"""Cyclic binary strings with minimum block lengths, and the bijection with
digitally convex sets of cycle powers.

A string is read cyclically, so a run of equal bits touching both ends is a
single block.  For k >= 2, the family of interest is the length-n strings
whose cyclic blocks all have length >= k (when n < k only the two constant
strings qualify).  Its cardinality a_count(k, n) is the number of closed
walks of length n in a 2k-state run-length automaton, so its linear
recurrence, initial terms and series all follow from one polynomial, and
for k+1 these strings are exactly the indicator strings of
the digitally convex sets of the k-th power of an n-cycle, with vertex x
contributing ones at positions x..x+k (mod n).

The members are listed with no sweep, one run at a time: a string is its
first run, then alternating runs of length >= k, the last of which wraps
into the first.  A first run shorter than k is a rotation of one of
length k, so only first runs >= k are walked, and how a string may end
depends only on the positions left, the run bit and whether it is the
first run's bit: the four states of a run automaton (_block_chunks), whose
walk yields a chunk (prefix, table) per prefix, its table of endings (of
<= n // 2 positions) built when first read and shared, with no dead end.
The walk carries one int per string, the position-ordered one (bit p holds
position p); its code, position 0 at the top bit, is its reverse.  The walk
places the convex sets too, a block of L ones at p as the vertices
p..p+L-k-1 (_convex_set_chunks).

Window passes map single strings to sets and back (_eroded, _dilated)
and test the blocks (_blocks_ok): the opening of a string's ones by a
window of k positions, its erosion dilated back, keeps just the ones in
runs of k or more, so every block is >= k when the ones and the zeros each
survive their opening.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, starmap
from math import comb

from ._kernels import EnumerationBudget, check_budget, chunk_masks, walk_chunks
from .errors import FrozenRecord, InvalidParameterError, NotConvexError, NotMemberError, _int, _ints
from .graphs import VertexSet
from .sequences import LinearRecurrence, PowerSeries, _long_division, eval_recurrence


class CyclicBinaryString(FrozenRecord):
    """A cyclically-read bit string; position 0 prints leftmost."""

    _fields = ("bits",)

    def __init__(self, bits: tuple[int, ...]):
        bits = _ints(bits, "bit")
        if len(bits) < 1:
            raise InvalidParameterError("string must have length >= 1")
        if {*bits} - {0, 1}:
            raise InvalidParameterError("bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_text(cls, text: str) -> "CyclicBinaryString":
        if not text or any(c not in "01" for c in text):
            raise InvalidParameterError(f"string text must be nonempty over 0/1, got {text!r}")
        return cls(tuple(int(c) for c in text))

    @classmethod
    def from_code(cls, n: int, code: int) -> "CyclicBinaryString":
        """Decode an n-bit integer; position 0 is the most significant bit."""
        n, code = _int(n, "length", 1), _int(code, "code")
        if not 0 <= code < 1 << n:
            raise InvalidParameterError(f"code {code} out of range for length {n}")
        return cls(tuple(code >> (n - 1 - i) & 1 for i in range(n)))

    @property
    def length(self) -> int:
        return len(self.bits)

    @property
    def code(self) -> int:
        """The integer whose most significant bit is position 0."""
        value = 0
        for b in self.bits:
            value = value << 1 | b
        return value

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


class BlockProfile(FrozenRecord):
    """Maximal cyclic runs as (bit, length) pairs.

    The run containing position 0 (wraparound merged) comes first, the rest
    follow in increasing position order; lengths sum to the string length.
    """

    _fields = ("runs",)

    def __init__(self, runs: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "runs", runs)


def _cyclic_runs(bits) -> list[tuple[int, int, int]]:
    """Cyclic run decomposition as (start, bit, length) triples.

    The first triple is the run containing position 0; a wraparound run
    starts at its true cyclic start near the end of the string.
    """
    n = len(bits)
    starts = [i for i in range(n) if bits[i] != bits[i - 1]] or [0]
    if starts[0]:  # position 0 lies in the run that wraps around from the last start
        starts.insert(0, starts.pop())
    ends = starts[1:] + starts[:1]
    return [(start, bits[start], (end - start) % n or n) for start, end in zip(starts, ends)]


def cyclic_blocks(s: CyclicBinaryString) -> BlockProfile:
    """The cyclic run decomposition, wraparound run (if any) reported first."""
    return BlockProfile(tuple((b, length) for _, b, length in _cyclic_runs(s.bits)))


def is_member_B(k: int, s: CyclicBinaryString) -> bool:
    """Membership in the family of strings with all cyclic blocks >= k."""
    [ok] = _blocks_ok(_int(k, "k", 2), s.length, [s.code])
    return ok


def enumerate_B(k: int, n: int, budget: EnumerationBudget | None = None) -> Iterator[CyclicBinaryString]:
    """Yield all members of length n in increasing code order.

    Position 0 is the most significant bit of the code, and rotations are
    distinct members (no necklace quotienting).  The budget caps the exact
    number of members, a_count(k, n); it is checked on the first item.
    The strings are read off the position-ordered ints of _block_chunks.
    """
    check_budget(a_count(k, n), budget, "strings")
    for rev in chunk_masks(_block_chunks(k, n)):
        yield CyclicBinaryString(tuple(rev >> i & 1 for i in range(n)))


def _block_chunks(k: int, n: int, trim: int = 0) -> Iterator[tuple]:
    """Each length-n string whose cyclic blocks are all >= k, as the int
    whose bit p is position p, in chunks (prefix, table).  Flattened, the
    chunks are the members of enumerate_B(k, n) in its order: increasing
    code order, position 0 at the top bit.  A block of L ones at p places
    bits p..p+L-trim-1, with trim = k - 1 the string's convex set.

    A string is a first run (bit f, length h), then alternating runs.  For
    h < k the strings with first run f^h are those with first run f^k
    rotated left by r = k - h: the same r f's move to the end of each, so
    the order holds, only first runs of length >= k are walked, and a
    rotated chunk gets a table of its own.  They are the words of a run
    automaton on walk_chunks: state 2c + eq starts a run of bit c, and eq
    says c = f.  A run of f is k..left - k long, or the last, taking all of
    left and merging into the first run; a run of the other bit is k..left
    long.  Only a last run reaches left = 0, so every state accepts.  0-runs
    go longest first and 1-runs shortest first, so that the codes ascend;
    the constant strings are the ends.
    """
    def steps(state, left):
        lengths = [*range(k, left - k + 1), left] if state & 1 else range(k, left + 1)
        if state >> 1:  # a last run of f = 1 merges into the first block: it keeps all
            return [(length, (1 << length - (0 if state == 3 and length == left else trim)) - 1
                     << n - left, 3 - state) for length in lengths]
        return [(length, 0, 3 - state) for length in reversed(lengths)]

    # a row past n - 2k serves only starts, which can step instead: a drain keeps none
    walk = walk_chunks(max(0, min(n // 2, n - 2 * k)), steps, [True] * 4)

    def first_run(f, h):  # the chunks of the strings whose first run is f^h
        r = max(k - h, 0)
        prefix = f * ((1 << h + r - trim) - 1)
        chunks = walk((n - h - r, 2 - 2 * f, prefix))
        fill = (prefix & (1 << r) - 1) << n - r  # no later run places a bit below k
        return ((x >> r | fill, [y >> r for y in table]) for x, table in chunks) if r else chunks

    # a first run past n - k leaves no room for the next block; one of f starts state 2 - 2f
    firsts = [(0, h) for h in range(n - k, 0, -1)] + [(1, h) for h in range(1, n - k + 1)]
    return chain([(0, [0])], chain.from_iterable(starmap(first_run, firsts)), [(0, [(1 << n) - 1])])


def _q_poly(k: int) -> list[tuple[int, int]]:
    """Q_k(x) = det(I - x A_k) = 1 - 2x + x^2 - x^{2k}, k >= 2, as its nonzero
    (degree, coefficient) pairs, so that its size does not grow with k.

    A_k is the 2k-state run-length automaton: state (bit, run length capped
    at k) steps to (bit, run + 1 capped at k), and (b, k) also steps to
    (1 - b, 1).  A cyclic string with every block >= k is exactly one closed
    walk from its state at position 0, so a_count(k, n) = trace(A_k^n) for
    all n >= 1: the power sums of the reciprocal roots of Q_k.
    """
    return [(0, 1), (1, -2), (2, 1), (2 * k, -1)]


def _a_recurrence(k: int) -> LinearRecurrence:
    """The power sums p_n of Q_k by Newton's identities,
    p_n = -n q_n - sum_{i=1}^{n-1} q_i p_{n-i}: for n > 2k this is the
    order-2k recurrence f(n) = 2f(n-1) - f(n-2) + f(n-2k), taps (i, -q_i),
    and for n = 1..2k it gives the initial terms.  O(k) work, since Q_k has
    three nonzero coefficients past the constant."""
    taps = tuple((i, -c) for i, c in _q_poly(k) if i)
    degree = taps[-1][0]
    minus_q = dict(taps)
    p: dict[int, int] = {}
    for n in range(1, degree + 1):
        p[n] = n * minus_q.get(n, 0) + sum(c * p[n - i] for i, c in taps if i < n)
    return LinearRecurrence(taps=taps, initial_terms=p, first_recurrent_index=degree + 1)


def a_count(k: int, n: int) -> int:
    """Number of length-n cyclic strings with all blocks >= k, by blocks or recurrence."""
    k, n = _int(k, "k", 2), _int(n, "n", 1)
    pairs = n // (2 * k)  # the most pairs of blocks that fit
    if pairs > 2 * k:  # more terms than the recurrence's order
        return eval_recurrence(_a_recurrence(k), n)
    # the constants, and for each j the strings of 2j blocks: a start, a bit
    # and 2j block lengths >= k summing to n, per the 2j starts of a string
    return 2 + sum(n * comb(n - 2 * j * (k - 1) - 1, 2 * j - 1) // j for j in range(1, pairs + 1))


def _series_fraction(k: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Numerator and denominator of sum_n a_count(k, n) x^n = -x Q_k'(x) / Q_k(x),
    the generating function of Q_k's power sums:
    (2x - 2x^2 + 2k x^{2k}) / (1 - 2x + x^2 - x^{2k}), each as its nonzero
    (degree, coefficient) pairs, so that their size does not grow with k."""
    q = _q_poly(_int(k, "k", 2))
    return [(i, -i * c) for i, c in q if i], q


def a_series(k: int, terms: int) -> PowerSeries:
    """Coefficients x^0..x^terms of _series_fraction(k), by long division
    in O(terms) integer steps."""
    return PowerSeries(tuple(_long_division(*_series_fraction(k), terms)))


def _check_power(k: int, n: int) -> None:
    """The parameters of the k-th power of an n-cycle: k >= 1 and n >= 3."""
    _int(k, "k", 1)
    _int(n, "n", 3)


def _window_steps(k: int, n: int) -> list[int]:
    """The steps that widen a window of one position to k + 1 positions, or
    all n of them, by doubling: a window of w positions and its copy s <= w
    positions on make one of w + s.  ceil(log2(min(k + 1, n))) steps."""
    reach = min(k, n - 1)  # the window's last offset
    steps = []
    width = 1
    while width <= reach:
        steps.append(min(width, reach + 1 - width))
        width += steps[-1]
    return steps


def _eroded(k: int, n: int, masks: list[int]) -> list[int]:
    """For a list of ones (bit p holding position p), the list of the
    vertices x whose positions x..x+k (mod n) are all ones.  Bit x of a mask
    says that the window of positions x..x+w-1 is all ones; a pass ands each
    mask with itself rotated by -s, which widens the window to w + s."""
    full = (1 << n) - 1
    for step in _window_steps(k, n):
        up = n - step  # a rotation by -step, mod n
        masks = [mask & (mask << up & full | mask >> step) for mask in masks]
    return masks


def _dilated(k: int, n: int, masks: list[int]) -> list[int]:
    """For a list of vertex sets, the list of their ones: position p is one
    when a member x has p among x..x+k (mod n).  The mirror of _eroded: a
    pass ors each mask with itself rotated by +s."""
    full = (1 << n) - 1
    for step in _window_steps(k, n):
        down = n - step  # bit n - step wraps to bit 0
        masks = [mask | (mask << step & full | mask >> down) for mask in masks]
    return masks


def _blocks_ok(k: int, n: int, masks: list[int]) -> list[bool]:
    """For each n-bit mask, whether every cyclic block of its string has
    length >= k.  The opening of a mask by a window of k positions, its
    erosion dilated back, keeps the ones that lie in some run of k or more
    (Serra 1982), so a string passes when its ones and its zeros are each
    their own opening: when the two openings cover all n positions.  The
    bit order does not matter, as reversal keeps the blocks.  For n <= k the
    window covers all n positions, so only the constant strings pass."""
    full = (1 << n) - 1
    opened = _dilated(k - 1, n, _eroded(k - 1, n, masks + [full ^ mask for mask in masks]))
    return [ones | zeros == full for ones, zeros in zip(opened, opened[len(masks):])]


def string_from_convex_set(k: int, n: int, s: VertexSet) -> CyclicBinaryString:
    """Indicator string of a digitally convex set of the k-th power of C_n.

    Each member vertex x sets positions x..x+k (mod n) to 1; the result has
    every cyclic block of length >= k+1.  Only defined on digitally convex
    inputs (checked on the string side: by the bijection, a set is convex
    iff its string has every block >= k+1 and maps back to the set).
    """
    _check_power(k, n)
    if s.universe != n:
        raise InvalidParameterError(f"set universe {s.universe} != cycle length {n}")
    [ones] = _dilated(k, n, [s.mask])
    [ok] = _blocks_ok(k + 1, n, [ones])
    if not (ok and _eroded(k, n, [ones]) == [s.mask]):
        raise NotConvexError(
            f"set {list(s.indices())} is not digitally convex in the power-{k} {n}-cycle"
        )
    return CyclicBinaryString(tuple(ones >> i & 1 for i in range(n)))


def convex_set_from_string(k: int, n: int, s: CyclicBinaryString) -> VertexSet:
    """Inverse of string_from_convex_set.

    A block of L >= k+1 ones starting at position p yields the vertices
    p..p+L-k-1 (mod n); the constant strings map to the empty and full sets.
    Only defined on strings with all cyclic blocks >= k+1 (checked).
    """
    _check_power(k, n)
    if s.length != n:
        raise InvalidParameterError(f"string length {s.length} != n = {n}")
    ones = sum(b << p for p, b in enumerate(s.bits))
    [ok] = _blocks_ok(k + 1, n, [ones])
    if not ok:
        raise NotMemberError(
            f"string {s} has a cyclic block shorter than {k + 1}; it matches no convex set"
        )
    [mask] = _eroded(k, n, [ones])
    return VertexSet(n, mask)


def _convex_set_chunks(k: int, n: int, budget: EnumerationBudget | None = None) -> Iterator[tuple]:
    """The bitmasks of the digitally convex sets of the k-th power of C_n,
    in chunks (prefix, table), in the order enumerate_B(k + 1, n) yields
    their strings: the map of convex_set_from_string, placed by the string
    walk with no window pass and no string or set built.  The budget is
    checked on the call, before the first chunk is asked for."""
    check_budget(a_count(k + 1, n), budget, "strings")
    return _block_chunks(k + 1, n, k)


def count_cycle_power(k: int, n: int) -> int:
    """Number of digitally convex sets of the k-th power of an n-cycle.

    Equals the block-string count with threshold k+1: the indicator map
    above is a bijection onto those strings.
    """
    _check_power(k, n)
    return a_count(k + 1, n)
