"""Exact-integer sequence tools: linear recurrences, rational power series,
and comparison against external "index value" sequence files.

Everything stays in exact Python ints, read and printed in decimal at any
size, except that the long division also runs on Decimals under a context
that traps any rounding; nothing here rounds.
"""

from __future__ import annotations

import functools
import os
import re
from collections import deque
from collections.abc import Iterable, Iterator, Mapping, Sequence

from .errors import (BfileParseError, EmptyOverlapError, FrozenRecord, InvalidParameterError,
                     Record, _int, _ints)

# ints up to this many bits convert directly; Decimal(int) is quadratic past it
_PLAIN_BITS = 4096


@functools.cache
def _exact():
    """The decimal context that raises on any rounding instead of passing it
    silently; decimal is imported on the first call, not with digicon."""
    import decimal
    return decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                           traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation])


@functools.lru_cache(maxsize=None)
def _two_power(bits: int):
    """2^bits as a Decimal, for bits = _PLAIN_BITS * 2^i."""
    if bits <= _PLAIN_BITS:
        return _exact().create_decimal(1 << bits)
    half = _two_power(bits // 2)
    return _exact().multiply(half, half)


def _to_decimal(value: int):
    """value as an exact Decimal, whose str prints an int of any size: where
    str(int) stops at 4300 digits by default, and it and Decimal(int) are
    quadratic (the 208,988 digits of the cycle count at n = 10^6).  Splits
    on 2^bits, bits = _PLAIN_BITS * 2^i about half the length, and
    recombines the halves in decimal."""
    if value.bit_length() <= _PLAIN_BITS:
        return _exact().create_decimal(value)
    bits = _PLAIN_BITS
    while 2 * bits < value.bit_length():
        bits *= 2
    low = value & (1 << bits) - 1
    return _exact().fma(_to_decimal(value >> bits), _two_power(bits), _to_decimal(low))


def _int_text(value: int) -> str:
    """str(value) at any size: directly up to _PLAIN_BITS bits, which stays
    below str(int)'s digit cap and needs no decimal, else via _to_decimal."""
    if value.bit_length() <= _PLAIN_BITS:
        return str(value)
    return str(_to_decimal(value))


# what int() reads in base 10: a sign, then digits with single underscores between
_INTEGER = re.compile(r"[+-]?\d+(?:_\d+)*")


def _exact_int(text: str) -> int:
    """int(text), also past the cap on the digits that int(str) converts
    (4300 by default): a longer integer is converted in halves."""
    try:
        return int(text)
    except ValueError:
        if not _INTEGER.fullmatch(text):
            raise
    digits = text.lstrip("+-").replace("_", "")
    half = len(digits) // 2
    value = _exact_int(digits[:half]) * 10 ** (len(digits) - half) + _exact_int(digits[half:])
    return -value if text[0] == "-" else value


class LinearRecurrence(FrozenRecord):
    """f(n) = sum of coefficient * f(n - offset), from first_recurrent_index on.

    taps are (offset, coefficient) pairs; initial_terms maps indices below
    (or at isolated points of) the recurrent range to their exact values.
    Since initial_terms is a dict, hashing a recurrence raises TypeError.
    """

    _fields = ("taps", "initial_terms", "first_recurrent_index")

    def __init__(self, taps: tuple[tuple[int, int], ...], initial_terms: dict[int, int],
                 first_recurrent_index: int):
        taps = tuple((_int(o, "tap offset", 1), _int(c, "tap coefficient")) for o, c in taps)
        initial_terms = {_int(i, "term index"): _int(v, "initial term")
                         for i, v in initial_terms.items()}
        if not taps:
            raise InvalidParameterError("recurrence needs at least one tap")
        if not initial_terms:
            raise InvalidParameterError("recurrence needs initial terms")
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "initial_terms", initial_terms)
        object.__setattr__(self, "first_recurrent_index",
                           _int(first_recurrent_index, "first_recurrent_index"))


def _advance(taps, window: deque, start: int, stop: int) -> None:
    """Append terms start..stop-1 to the window of the terms just before them."""
    for i in range(start, stop):
        term = 0
        for off, c in taps:
            back = window[-off]
            if back is None:
                raise InvalidParameterError(f"term {i} needs undefined back-reference {i - off}")
            term += c * back
        window.append(term)


def _reduce(poly: list[int], taps, span: int) -> list[int]:
    """poly mod x^span - sum c x^(span - off), from the top degree down."""
    for d in range(len(poly) - 1, span - 1, -1):
        top = poly[d]
        if top:
            for off, c in taps:
                poly[d - off] += c * top
    return poly[:span]


def _x_power_mod(taps, span: int, e: int) -> list[int]:
    """Coefficients of x^0..x^(span-1) in x^e mod the characteristic
    polynomial x^span - sum c x^(span - off), by binary powering: one
    squaring per bit of e, and a shift by x for each set bit."""
    r = [1] + [0] * (span - 1)
    for bit in bin(e)[2:]:
        square = [0] * (2 * span - 1)
        for i, a in enumerate(r):
            if a:
                square[2 * i] += a * a
                twice = a << 1
                for d, b in enumerate(r[i + 1:], 2 * i + 1):
                    if b:
                        square[d] += twice * b
        r = _reduce(square, taps, span)
        if bit == "1":
            r = _reduce([0] + r, taps, span)
    return r


def eval_recurrence(rec: LinearRecurrence, n: int) -> int:
    """Term n of the recurrence, exact throughout.

    The first span recurrent terms (span = the largest tap offset) are
    stepped forward from the initial terms; every back-reference is read on
    the way, so an undefined one raises.  From those terms f(first + i),
    i < span, term n is the dot product with the coefficients of x^e mod
    x^span - sum c x^(span - off), e = n - first (Fiduccia, SIAM J. Comput.
    14, 1985).  That costs about span^2 * log2(e) big-integer products
    against len(taps) * e for stepping on, and the cheaper of the two runs:
    doubling for short recurrences at large n, forward steps for wide,
    sparse ones at modest n.  Either way memory holds O(span) numbers no
    larger than the answer, not n terms.
    """
    n = _int(n, "index")
    initial = rec.initial_terms
    lowest = min(initial)
    if n < lowest:
        raise InvalidParameterError(f"index {n} is below the first defined term {lowest}")
    first = rec.first_recurrent_index
    if n < first:
        if n not in initial:
            raise InvalidParameterError(f"index {n} is not covered by the initial terms")
        return initial[n]
    taps = rec.taps
    span = max(off for off, _ in taps)
    # terms i-span..i-1; None marks an index below first with no initial term
    window = deque((initial.get(j) for j in range(first - span, first)), maxlen=span)
    _advance(taps, window, first, min(n + 1, first + span))
    e = n - first
    if e < span:
        return window[-1]
    if span * span * e.bit_length() < len(taps) * e:
        return sum(r * term for r, term in zip(_x_power_mod(taps, span, e), window))
    _advance(taps, window, first + span, n + 1)
    return window[-1]


class PowerSeries(FrozenRecord):
    """A finite prefix of a formal integer power series; index = exponent."""

    _fields = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...]):
        object.__setattr__(self, "coefficients", _ints(coefficients, "coefficient"))

    def __len__(self) -> int:
        return len(self.coefficients)

    def __getitem__(self, exponent: int) -> int:
        return self.coefficients[exponent]


def _coefficients(series) -> tuple[int, ...]:
    if isinstance(series, PowerSeries):
        return series.coefficients
    return _ints(series, "coefficient")


def _long_division(numerator, denominator, terms: int) -> Iterator:
    """Coefficients x^0..x^terms of numerator/denominator, yielded one at a
    time by long division: c_i = (num_i - sum_{j>=1} den_j * c_{i-j}) / den_0.

    Both polynomials are given as (degree, coefficient) pairs, so a sparse
    one costs its nonzero terms.  The denominator's constant term must be 1
    or -1, so dividing by it is a sign; both checks run on the call, before
    the first coefficient.  The arithmetic is in whatever number type the
    numerator holds (ints, or Decimals under an exact context), and only
    the last min(deg den, terms) coefficients are kept: a term of degree
    past terms meets only the zeros before x^0.
    """
    num = dict(numerator)
    den = dict(denominator)
    terms = _int(terms, "terms", 0)
    if den.get(0) not in (1, -1):
        raise InvalidParameterError("denominator constant term must be 1 or -1")
    # a zero of the numerator's type: Decimal("0"), where 0 * Decimal(-1) is "-0"
    zero = type(next(iter(num.values())))(0) if num else 0
    # the numerator's coefficients up to x^terms, by degree, for the loop to index
    num = [num.get(i, zero) for i in range(min(max(num, default=-1), terms) + 1)]
    size = min(max(den), terms)
    taps = [(j, c) for j, c in sorted(den.items()) if 0 < j <= size and c]
    sign = den[0]
    # c_{i-1}, c_{i-2}, ..., c_{i-size}; zeros stand for the c_{i-j} with i < j
    window = deque([zero] * size, maxlen=size)

    def quotients():
        for i in range(terms + 1):
            acc = num[i] if i < len(num) else zero
            for j, c in taps:
                acc -= c * window[-j]
            if sign < 0:
                acc = -acc
            window.append(acc)
            yield acc

    return quotients()


def expand_rational(numerator, denominator, terms: int) -> PowerSeries:
    """Coefficients x^0..x^terms of numerator/denominator by long division.

    Both are coefficient sequences, index = exponent.  The denominator's
    constant term must be 1 or -1 so the division stays in exact integers:
    c_i = (num_i - sum_{j>=1} den_j * c_{i-j}) / den_0.
    """
    return PowerSeries(tuple(_long_division(enumerate(_coefficients(numerator)),
                                            enumerate(_coefficients(denominator)), terms)))


def parse_bfile(source) -> list[tuple[int, int]]:
    """Parse "index value" lines into (index, value) pairs.

    Accepts a path (str or os.PathLike) or an iterable of lines.  Whitespace
    separation is arbitrary; text after '#' is a comment; blank lines are
    skipped.  A value may have any number of digits.  Malformed or
    duplicated entries raise a parse error carrying the 1-based line number.
    """
    if isinstance(source, (str, os.PathLike)):
        # open() rather than pathlib, which would load urllib.parse and
        # ipaddress with it in every digicon process
        with open(source) as file:
            lines: Iterable[str] = file.read().splitlines()
    else:
        lines = source
    entries: list[tuple[int, int]] = []
    seen: set[int] = set()
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        fields = text.split()
        if len(fields) != 2:
            raise BfileParseError(lineno, raw.rstrip("\n"), "expected two fields")
        try:
            index, value = map(_exact_int, fields)
        except ValueError:
            raise BfileParseError(lineno, raw.rstrip("\n"), "fields must be integers") from None
        if index in seen:
            raise BfileParseError(lineno, raw.rstrip("\n"), f"duplicate index {index}")
        seen.add(index)
        entries.append((index, value))
    return entries


class ComparisonReport(Record):
    """Outcome of comparing computed (index, value) pairs against a file;
    mutable, and so unhashable.  Each list not passed starts empty."""

    _fields = ("matched", "mismatches", "only_left", "only_right")

    def __init__(self, matched: int, mismatches: list[tuple[int, int, int]] | None = None,
                 only_left: list[int] | None = None, only_right: list[int] | None = None):
        self.matched = matched
        self.mismatches = [] if mismatches is None else mismatches
        self.only_left = [] if only_left is None else only_left
        self.only_right = [] if only_right is None else only_right

    @property
    def all_match(self) -> bool:
        return not self.mismatches

    def to_json(self) -> str:
        import json
        return json.dumps({
            "matched": self.matched,
            "mismatches": [
                {"index": i, "expected": _int_text(e), "found": _int_text(f)}
                for i, e, f in self.mismatches
            ],
            "only_left": self.only_left,
            "only_right": self.only_right,
        })


def compare_with_bfile(values: Sequence[tuple[int, int]] | Mapping[int, int], bfile) -> ComparisonReport:
    """Compare computed values (left) against a sequence file (right).

    Mismatches carry (index, expected, found) where expected is the file's
    value.  Raises an empty-overlap error when no index is shared, so a
    vacuous comparison can never look like success.
    """
    left = {_int(i, "index"): _int(v, "value")
            for i, v in (values.items() if isinstance(values, Mapping) else values)}
    right = dict(parse_bfile(bfile))
    overlap = sorted(left.keys() & right.keys())
    if not overlap:
        raise EmptyOverlapError("no overlapping indices between computed values and the file")
    mismatches = [(i, right[i], left[i]) for i in overlap if left[i] != right[i]]
    return ComparisonReport(
        matched=len(overlap) - len(mismatches),
        mismatches=mismatches,
        only_left=sorted(left.keys() - right.keys()),
        only_right=sorted(right.keys() - left.keys()),
    )
