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
into the first.  How a string may end depends only on a few numbers (the
positions left, the run bit, whether it is the first run's bit, and the
first run's length capped at k), so every ending of at most n // 2
positions is tabulated once per call (_suffix_tables), and each prefix
that reaches one yields its whole table as a chunk (_block_chunks).  The
walk carries one int per string, the position-ordered one (bit p holds
position p), which is what erosion reads; a string's code, position 0 at
the top bit, is its reverse.

The same window passes map strings to sets and back (_eroded, _dilated)
and test the blocks (_blocks_ok): the opening of a string's ones by a
window of k positions, its erosion dilated back, keeps just the ones in
runs of k or more, so every block is >= k when the ones and the zeros each
survive their opening.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain

from ._kernels import EnumerationBudget, check_budget
from .errors import FrozenRecord, InvalidParameterError, NotConvexError, NotMemberError
from .graphs import VertexSet
from .sequences import LinearRecurrence, PowerSeries, _long_division, eval_recurrence


class CyclicBinaryString(FrozenRecord):
    """A cyclically-read bit string; position 0 prints leftmost."""

    _fields = ("bits",)

    def __init__(self, bits: tuple[int, ...]):
        bits = tuple(int(b) for b in bits)
        if len(bits) < 1:
            raise InvalidParameterError("string must have length >= 1")
        if any(b not in (0, 1) for b in bits):
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
        if n < 1:
            raise InvalidParameterError(f"length must be >= 1, got {n}")
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
    if k < 2:
        raise InvalidParameterError(f"k must be >= 2, got {k}")
    [ok] = _blocks_ok(k, s.length, [s.code])
    return ok


def enumerate_B(k: int, n: int, budget: EnumerationBudget | None = None) -> Iterator[CyclicBinaryString]:
    """Yield all members of length n in increasing code order.

    Position 0 is the most significant bit of the code, and rotations are
    distinct members (no necklace quotienting).  The budget caps the exact
    number of members, a_count(k, n); it is checked on the first item.
    The strings are read off the position-ordered ints of _block_chunks.
    """
    check_budget(a_count(k, n), budget, "strings")
    for rev in chain.from_iterable(_block_chunks(k, n)):
        yield CyclicBinaryString(tuple(rev >> i & 1 for i in range(n)))


def _suffix_tables(k: int, n: int, top: int) -> list[dict]:
    """tables[m][c, eq, h] = every way to finish a length-n string whose
    last m positions start a run of bit c, in increasing code order: the
    runs from there alternate, each >= k, except that the last one wraps
    into the first run (bit f, length h capped at k; h < n, so the keys
    stop at h = min(k, n)).  eq says whether c = f.  If the last run's bit
    is f, it needs length >= k - h; if not, it needs length >= k and
    h >= k.  Each way is an int holding the m suffix bits at bits
    n - m..n - 1, as position p sits at bit p.
    tables[0] is the empty suffix after a run of length >= k, complete when
    that run is not f's (not eq) or h >= k.

    Row m is built from the shorter rows only, for m <= top: a 0-suffix is
    its first run (longest first, so the codes ascend) followed by the
    1-suffixes of the rest, and a 1-suffix is the complement of the
    0-suffix with the same eq (so the other f), in reverse order.
    """
    hs = range(1, min(k, n) + 1)
    empty = []
    tables = [{(c, eq, h): [0] if not eq or h == k else empty
               for c in (0, 1) for eq in (False, True) for h in hs}]
    for m in range(1, top + 1):
        row = {}
        ones = (1 << m) - 1 << n - m
        for eq in (False, True):
            for h in hs:
                if m < k:  # only one run fits: the last, wrapping into the first
                    zeros = [0] if eq and m >= k - h else empty
                else:
                    zeros = []
                    for length in range(m, k - 1, -1):
                        zeros += tables[m - length][1, not eq, h]
                if not zeros:  # one shared empty table: short rows are mostly empty
                    row[0, eq, h] = row[1, eq, h] = empty
                    continue
                row[0, eq, h] = zeros
                row[1, eq, h] = [ones ^ rev for rev in reversed(zeros)]
        tables.append(row)
    return tables


def _block_chunks(k: int, n: int) -> Iterator[list[int]]:
    """Each length-n string whose cyclic blocks are all >= k, as the int
    whose bit p is position p, in lists (chunks), each nonempty.  Flattened,
    the chunks are the members of enumerate_B(k, n) in its order: increasing
    code order, position 0 at the top bit.

    The walk goes one run at a time over the prefixes that leave more than
    n // 2 positions, on an explicit stack: first the first run (bit f,
    length h), then alternating runs of length >= k, 0-runs longest first
    and 1-runs shortest first, so that the codes ascend.  A prefix that
    leaves m <= n // 2 positions yields its table of _suffix_tables under
    it as one chunk.  The two constant strings come first and last.
    """
    top = n // 2
    tables = _suffix_tables(k, n, top)
    yield [0]
    # (m, c, eq, h, rev): a prefix that leaves m positions, starting a run of
    # c; rev holds the prefix bits, position p at bit p
    stack = [(n - h, 0, False, min(h, k), (1 << h) - 1) for h in range(n - 1, 0, -1)]
    stack += [(n - h, 1, False, min(h, k), 0) for h in range(1, n)]
    while stack:
        m, c, eq, h, rev = stack.pop()
        if m <= top:
            if suffixes := tables[m][c, eq, h]:
                yield [rev | r for r in suffixes]
        else:
            # push the runs in reverse order, so that they are walked in order.
            # None fits when m < k, and none need: a prefix past the tables
            # with a run after the first leaves m <= n - k - 1, so m >= k,
            # and one without must end on a run of k or more
            lengths = range(k, m + 1) if c == 0 else range(m, k - 1, -1)
            for length in lengths:
                run = (1 << length) - 1 if c else 0
                stack.append((m - length, 1 - c, not eq, h, rev | run << n - m))
    yield [(1 << n) - 1]


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
    """Number of length-n cyclic strings with all blocks >= k, via recurrence."""
    if k < 2:
        raise InvalidParameterError(f"k must be >= 2, got {k}")
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if n < 2 * k:  # two blocks of length >= k do not fit: only the constant strings
        return 2
    return eval_recurrence(_a_recurrence(k), n)


def _series_fraction(k: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Numerator and denominator of sum_n a_count(k, n) x^n = -x Q_k'(x) / Q_k(x),
    the generating function of Q_k's power sums:
    (2x - 2x^2 + 2k x^{2k}) / (1 - 2x + x^2 - x^{2k}), each as its nonzero
    (degree, coefficient) pairs, so that their size does not grow with k."""
    if k < 2:
        raise InvalidParameterError(f"k must be >= 2, got {k}")
    q = _q_poly(k)
    return [(i, -i * c) for i, c in q if i], q


def a_series(k: int, terms: int) -> PowerSeries:
    """Coefficients x^0..x^terms of _series_fraction(k), by long division
    in O(terms) integer steps."""
    return PowerSeries(tuple(_long_division(*_series_fraction(k), terms)))


def _check_power(k: int, n: int) -> None:
    """The parameters of the k-th power of an n-cycle: k >= 1 and n >= 3."""
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if n < 3:
        raise InvalidParameterError(f"n must be >= 3, got {n}")


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


def _eroded(k: int, n: int, chunks) -> Iterator[list[int]]:
    """For each list of ones (bit p holding position p), the list of the
    vertices x whose positions x..x+k (mod n) are all ones.  Bit x of a mask
    says that the window of positions x..x+w-1 is all ones; a pass ands each
    mask with itself rotated by -s, which widens the window to w + s."""
    full = (1 << n) - 1
    steps = _window_steps(k, n)
    for masks in chunks:
        for step in steps:
            up = n - step  # a rotation by -step, mod n
            masks = [mask & (mask << up & full | mask >> step) for mask in masks]
        yield masks


def _dilated(k: int, n: int, chunks) -> Iterator[list[int]]:
    """For each list of vertex sets, the list of their ones: position p is
    one when a member x has p among x..x+k (mod n).  The mirror of _eroded:
    a pass ors each mask with itself rotated by +s."""
    full = (1 << n) - 1
    steps = _window_steps(k, n)
    for masks in chunks:
        for step in steps:
            down = n - step  # bit n - step wraps to bit 0
            masks = [mask | (mask << step & full | mask >> down) for mask in masks]
        yield masks


def _blocks_ok(k: int, n: int, masks: list[int]) -> list[bool]:
    """For each n-bit mask, whether every cyclic block of its string has
    length >= k.  The opening of a mask by a window of k positions, its
    erosion dilated back, keeps the ones that lie in some run of k or more
    (Serra 1982), so a string passes when its ones and its zeros are each
    their own opening: when the two openings cover all n positions.  The
    bit order does not matter, as reversal keeps the blocks.  For n <= k the
    window covers all n positions, so only the constant strings pass."""
    full = (1 << n) - 1
    opened = _dilated(k - 1, n, _eroded(k - 1, n, [masks, [full ^ mask for mask in masks]]))
    return [ones | zeros == full for ones, zeros in zip(*opened)]


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
    [[ones]] = _dilated(k, n, [[s.mask]])
    [ok] = _blocks_ok(k + 1, n, [ones])
    if not (ok and next(_eroded(k, n, [[ones]])) == [s.mask]):
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
    [[mask]] = _eroded(k, n, [[ones]])
    return VertexSet(n, mask)


def _convex_set_codes(k: int, n: int, budget: EnumerationBudget | None = None) -> Iterator[int]:
    """The bitmasks of the digitally convex sets of the k-th power of C_n,
    in the order enumerate_B(k + 1, n) yields their strings: the map of
    convex_set_from_string, with no string or set built: each chunk of the
    walk is eroded as it comes.  The budget is checked on the call, before
    the first code is asked for."""
    check_budget(a_count(k + 1, n), budget, "strings")
    return chain.from_iterable(_eroded(k, n, _block_chunks(k + 1, n)))


def count_cycle_power(k: int, n: int) -> int:
    """Number of digitally convex sets of the k-th power of an n-cycle.

    Equals the block-string count with threshold k+1: the indicator map
    above is a bijection onto those strings.
    """
    _check_power(k, n)
    return a_count(k + 1, n)
