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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator

from . import _kernels
from ._kernels import EnumerationBudget
from .errors import InvalidParameterError, NotConvexError, NotMemberError
from .graphs import VertexSet
from .sequences import LinearRecurrence, PowerSeries, eval_recurrence, expand_rational


@dataclass(frozen=True)
class CyclicBinaryString:
    """A cyclically-read bit string; position 0 prints leftmost."""

    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        if len(self.bits) < 1:
            raise InvalidParameterError("string must have length >= 1")
        if any(b not in (0, 1) for b in self.bits):
            raise InvalidParameterError("bits must be 0 or 1")

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


@dataclass(frozen=True)
class BlockProfile:
    """Maximal cyclic runs as (bit, length) pairs.

    The run containing position 0 (wraparound merged) comes first, the rest
    follow in increasing position order; lengths sum to the string length.
    """

    runs: tuple[tuple[int, int], ...]


def _cyclic_runs(bits) -> list[tuple[int, int, int]]:
    """Cyclic run decomposition as (start, bit, length) triples.

    The first triple is the run containing position 0; a wraparound run
    starts at its true cyclic start near the end of the string.
    """
    n = len(bits)
    first = bits[0]
    if all(b == first for b in bits):
        return [(0, first, n)]
    start = n
    while bits[start - 1] == first:
        start -= 1
    start %= n
    runs = []
    i, consumed = start, 0
    while consumed < n:
        b = bits[i]
        length = 1
        while length < n - consumed and bits[(i + length) % n] == b:
            length += 1
        runs.append((i, b, length))
        i = (i + length) % n
        consumed += length
    return runs


def cyclic_blocks(s: CyclicBinaryString) -> BlockProfile:
    """The cyclic run decomposition, wraparound run (if any) reported first."""
    return BlockProfile(tuple((b, length) for _, b, length in _cyclic_runs(s.bits)))


def _rot(n: int, codes, d: int):
    """Rotate n-bit codes cyclically, bit i moving to bit i + d (mod n): one
    Python int of any size, or an array of code_dtype(n) codes below 2^n
    (two arrays allocated, the rest in place)."""
    d %= n
    out = codes & (1 << n - d) - 1  # the bits that stay below 2^n after the shift
    out <<= d
    out |= codes >> n - d
    return out


def _blocks_ok(n: int, k: int, codes):
    """Every cyclic block has length >= k (n >= k), or the string is constant (n < k).

    t marks the block boundaries, and a block shorter than k puts two of
    them less than k apart.  For n < k the shift d = n is among those
    tested, so only a constant string (t = 0) passes.  Answers in kind.
    """
    t = _rot(n, codes, 1)
    t ^= codes
    clash = 0
    for d in range(1, k):
        near = _rot(n, t, d)
        near &= t
        clash |= near
    return clash == 0


def is_member_B(k: int, s: CyclicBinaryString) -> bool:
    """Membership in the family of strings with all cyclic blocks >= k."""
    if k < 2:
        raise InvalidParameterError(f"k must be >= 2, got {k}")
    return _blocks_ok(s.length, k, s.code)


def enumerate_B(k: int, n: int, budget: EnumerationBudget | None = None) -> Iterator[CyclicBinaryString]:
    """Yield all members of length n in increasing code order.

    Position 0 is the most significant bit of the code, and rotations are
    distinct members (no necklace quotienting).  The codes are swept in
    blocks of code_dtype(n) arrays, so the stream is identical for any
    worker count.
    """
    if k < 2:
        raise InvalidParameterError(f"k must be >= 2, got {k}")
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    for code in _kernels.iter_flagged(n, partial(_member_flags, n, k), budget, "strings"):
        yield CyclicBinaryString.from_code(n, code)


def _member_flags(n: int, k: int, lo: int, hi: int):
    """_blocks_ok(n, k) on the codes in [lo, hi), of code_dtype(n)."""
    import numpy as np

    # the codes are the first row of a chunk as large as _blocks_ok's working
    # set (the codes, t, clash, the previous near and _rot's two arrays): once
    # freed, it lifts malloc's trim threshold above that working set, so each
    # block reuses the pages of the one before (see the _kernels docstring)
    codes = np.empty((6, hi - lo), _kernels.code_dtype(n))[0]
    codes[:] = np.arange(lo, hi, dtype=codes.dtype)
    return _blocks_ok(n, k, codes)


def _q_poly(k: int) -> list[int]:
    """Q_k(x) = det(I - x A_k) = 1 - 2x + x^2 - x^{2k}, coefficients by degree.

    A_k is the 2k-state run-length automaton: state (bit, run length capped
    at k) steps to (bit, run + 1 capped at k), and (b, k) also steps to
    (1 - b, 1).  A cyclic string with every block >= k is exactly one closed
    walk from its state at position 0, so a_count(k, n) = trace(A_k^n) for
    all n >= 1: the power sums of the reciprocal roots of Q_k.
    """
    q = [1, -2, 1] + [0] * (2 * k - 2)
    q[2 * k] -= 1
    return q


def _a_recurrence(k: int) -> LinearRecurrence:
    """The power sums p_n of Q_k by Newton's identities,
    p_n = -n q_n - sum_{i=1}^{n-1} q_i p_{n-i}: for n > 2k this is the
    order-2k recurrence f(n) = 2f(n-1) - f(n-2) + f(n-2k), taps (i, -q_i),
    and for n = 1..2k it gives the initial terms.  O(k) work, since Q_k has
    three nonzero coefficients past the constant."""
    q = _q_poly(k)
    degree = len(q) - 1
    taps = tuple((i, -c) for i, c in enumerate(q) if i and c)
    p: dict[int, int] = {}
    for n in range(1, degree + 1):
        p[n] = -n * q[n] + sum(c * p[n - i] for i, c in taps if i < n)
    return LinearRecurrence(taps=taps, initial_terms=p, first_recurrent_index=degree + 1)


def a_count(k: int, n: int) -> int:
    """Number of length-n cyclic strings with all blocks >= k, via recurrence."""
    if k < 2:
        raise InvalidParameterError(f"k must be >= 2, got {k}")
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    return eval_recurrence(_a_recurrence(k), n)


def a_series(k: int, terms: int) -> PowerSeries:
    """Coefficients x^0..x^terms of sum_n a_count(k, n) x^n = -x Q_k'(x) / Q_k(x),
    the generating function of Q_k's power sums:
    (2x - 2x^2 + 2k x^{2k}) / (1 - 2x + x^2 - x^{2k}), by long division
    in O(terms * k) integer steps."""
    if k < 2:
        raise InvalidParameterError(f"k must be >= 2, got {k}")
    q = _q_poly(k)
    return expand_rational([-i * c for i, c in enumerate(q)], q, terms)


def _check_power(k: int, n: int) -> None:
    """The parameters of the k-th power of an n-cycle: k >= 1 and n >= 3."""
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if n < 3:
        raise InvalidParameterError(f"n must be >= 3, got {n}")


def _reverse(n: int, codes):
    """Reverse n-bit codes, bit i moving to bit n-1-i; in kind, like _rot.
    A string's code holds position p at bit n-1-p, so this gives the
    integer whose bit p is position p."""
    out = codes & 0
    for i in range(n):
        out |= (codes >> i & 1) << n - 1 - i
    return out


def _erode(n: int, k: int, ones):
    """The vertices x whose positions x..x+k are all ones (bit p holding
    position p); in kind, like _rot."""
    mask = ones
    for j in range(1, k + 1):
        mask = mask & _rot(n, ones, -j)  # not &=, which would write into an array ones
    return mask


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
    ones = 0
    for j in range(k + 1):
        ones |= _rot(n, s.mask, j)
    if not (_blocks_ok(n, k + 1, ones) and _erode(n, k, ones) == s.mask):
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
    if not _blocks_ok(n, k + 1, s.code):
        raise NotMemberError(
            f"string {s} has a cyclic block shorter than {k + 1}; it matches no convex set"
        )
    return VertexSet(n, _erode(n, k, _reverse(n, s.code)))


def _convex_set_codes(k: int, n: int, budget: EnumerationBudget | None = None) -> Iterator[int]:
    """The bitmasks of the digitally convex sets of the k-th power of C_n,
    in the order enumerate_B(k + 1, n) yields their strings: the map of
    convex_set_from_string on array blocks, with no string or set built."""
    return _kernels.iter_flagged(n, partial(_member_flags, n, k + 1), budget, "strings",
                                 image=lambda codes: _erode(n, k, _reverse(n, codes)))


def count_cycle_power(k: int, n: int) -> int:
    """Number of digitally convex sets of the k-th power of an n-cycle.

    Equals the block-string count with threshold k+1: the indicator map
    above is a bijection onto those strings.
    """
    _check_power(k, n)
    return a_count(k + 1, n)
