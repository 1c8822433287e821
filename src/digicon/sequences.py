"""Exact-integer sequence tools: linear recurrences, rational power series,
and comparison against external "index value" sequence files.

Everything stays in arbitrary-precision Python ints; nothing here rounds.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import BfileParseError, EmptyOverlapError, InvalidParameterError


@dataclass(frozen=True)
class LinearRecurrence:
    """f(n) = sum of coefficient * f(n - offset), from first_recurrent_index on.

    taps are (offset, coefficient) pairs; initial_terms maps indices below
    (or at isolated points of) the recurrent range to their exact values.
    """

    taps: tuple[tuple[int, int], ...]
    initial_terms: dict[int, int]
    first_recurrent_index: int

    def __post_init__(self):
        object.__setattr__(self, "taps", tuple((int(o), int(c)) for o, c in self.taps))
        object.__setattr__(self, "initial_terms",
                           {int(i): int(v) for i, v in self.initial_terms.items()})
        if not self.taps:
            raise InvalidParameterError("recurrence needs at least one tap")
        if any(o < 1 for o, _ in self.taps):
            raise InvalidParameterError("tap offsets must be >= 1")
        if not self.initial_terms:
            raise InvalidParameterError("recurrence needs initial terms")


def eval_recurrence(rec: LinearRecurrence, n: int) -> int:
    """Term n of the recurrence by forward iteration, exact throughout.

    Only the last max-offset terms are kept, so memory does not grow with n.
    """
    initial = rec.initial_terms
    lowest = min(initial)
    if n < lowest:
        raise InvalidParameterError(f"index {n} is below the first defined term {lowest}")
    first = rec.first_recurrent_index
    if n < first:
        if n not in initial:
            raise InvalidParameterError(f"index {n} is not covered by the initial terms")
        return initial[n]
    span = max(off for off, _ in rec.taps)
    # terms i-span..i-1; None marks an index below first with no initial term
    window = deque((initial.get(j) for j in range(first - span, first)), maxlen=span)
    for i in range(first, n + 1):
        term = 0
        for off, c in rec.taps:
            back = window[-off]
            if back is None:
                raise InvalidParameterError(f"term {i} needs undefined back-reference {i - off}")
            term += c * back
        window.append(term)
    return window[-1]


@dataclass(frozen=True)
class PowerSeries:
    """A finite prefix of a formal integer power series; index = exponent."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(int(c) for c in self.coefficients))

    def __len__(self) -> int:
        return len(self.coefficients)

    def __getitem__(self, exponent: int) -> int:
        return self.coefficients[exponent]


def _coefficients(series) -> tuple[int, ...]:
    if isinstance(series, PowerSeries):
        return series.coefficients
    return tuple(int(c) for c in series)


def expand_rational(numerator, denominator, terms: int) -> PowerSeries:
    """Coefficients x^0..x^terms of numerator/denominator by long division.

    The denominator's constant term must be 1 or -1 so the division stays in
    exact integers: c_i = (num_i - sum_{j>=1} den_j * c_{i-j}) / den_0.
    """
    num = _coefficients(numerator)
    den = _coefficients(denominator)
    if terms < 0:
        raise InvalidParameterError(f"terms must be >= 0, got {terms}")
    if not den or den[0] not in (1, -1):
        raise InvalidParameterError("denominator constant term must be 1 or -1")
    out: list[int] = []
    for i in range(terms + 1):
        acc = num[i] if i < len(num) else 0
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * out[i - j]
        out.append(acc * den[0])
    return PowerSeries(tuple(out))


def parse_bfile(source) -> list[tuple[int, int]]:
    """Parse "index value" lines into (index, value) pairs.

    Accepts a path (str or Path) or an iterable of lines.  Whitespace
    separation is arbitrary; text after '#' is a comment; blank lines are
    skipped.  Malformed or duplicated entries raise a parse error carrying
    the 1-based line number.
    """
    if isinstance(source, (str, Path)):
        lines: Iterable[str] = Path(source).read_text().splitlines()
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
            index, value = int(fields[0]), int(fields[1])
        except ValueError:
            raise BfileParseError(lineno, raw.rstrip("\n"), "fields must be integers") from None
        if index in seen:
            raise BfileParseError(lineno, raw.rstrip("\n"), f"duplicate index {index}")
        seen.add(index)
        entries.append((index, value))
    return entries


@dataclass
class ComparisonReport:
    """Outcome of comparing computed (index, value) pairs against a file."""

    matched: int
    mismatches: list[tuple[int, int, int]] = field(default_factory=list)
    only_left: list[int] = field(default_factory=list)
    only_right: list[int] = field(default_factory=list)

    @property
    def all_match(self) -> bool:
        return not self.mismatches

    def to_json(self) -> str:
        return json.dumps({
            "matched": self.matched,
            "mismatches": [
                {"index": i, "expected": str(e), "found": str(f)}
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
    left = dict(values.items() if isinstance(values, Mapping) else values)
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
