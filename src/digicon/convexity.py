"""Digital convexity: private neighbours, the hull closure, and exhaustive
enumeration of digitally convex sets.

A set S is digitally convex when every vertex v outside S has a private
neighbour with respect to S, some vertex of N[v] that N[S] misses: S is a
fixed point of the closure S -> {v : N[v] inside N[S]}.  The enumeration
here is the brute-force oracle the family-specific counters are validated
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator

from . import _kernels
from .errors import BudgetExceededError, InvalidParameterError
from .graphs import Graph, VertexSet

DEFAULT_MAX_SUBSETS = 1 << 26

# the int64 block kernels need every code they shift or mask to stay < 2^62
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


def _member_mask(g: Graph, s: VertexSet) -> int:
    if s.universe != g.order:
        raise InvalidParameterError(f"set universe {s.universe} != graph order {g.order}")
    return s.mask


def _neighborhood_mask(g: Graph, member_mask: int) -> int:
    ns = 0
    for v in range(g.order):
        if member_mask >> v & 1:
            ns |= g.closed_masks[v]
    return ns


def has_private_neighbor(g: Graph, v: int, s: VertexSet) -> bool:
    """True iff some vertex of N[v] lies outside N[S - {v}]."""
    if not 0 <= v < g.order:
        raise InvalidParameterError(f"vertex {v} out of range 0..{g.order - 1}")
    rest = _member_mask(g, s) & ~(1 << v)
    ns = _neighborhood_mask(g, rest)
    return (g.closed_masks[v] & ~ns) != 0


def _closure(g: Graph, mask: int) -> int:
    """The vertices v whose N[v] lies inside N[S], for S given by mask.

    Every member qualifies, so S is convex iff this is S itself.
    """
    ns = _neighborhood_mask(g, mask)
    return sum(1 << v for v, closed in enumerate(g.closed_masks) if closed & ~ns == 0)


def is_digitally_convex(g: Graph, s: VertexSet) -> bool:
    """True iff every vertex outside s keeps a private neighbour."""
    mask = _member_mask(g, s)
    return _closure(g, mask) == mask


def digital_convex_hull(g: Graph, s: VertexSet) -> VertexSet:
    """The smallest digitally convex superset of s.

    Any convex superset T of S has N[S] contained in N[T], so a vertex with
    N[v] inside N[S] is forced into T; taking the closure until nothing
    changes therefore reaches the minimal convex superset.
    """
    mask = _member_mask(g, s)
    while (grown := _closure(g, mask)) != mask:
        mask = grown
    return VertexSet(g.order, mask)


def _checked_budget(exponent: int, width: int, budget: EnumerationBudget | None,
                    what: str) -> EnumerationBudget:
    """The budget for a sweep of 2^exponent candidates whose int64 kernel
    needs width-bit codes.

    The width is checked first, so a sweep that cannot run at any budget is
    a parameter error, never a budget error asking for a rerun.
    """
    if budget is None:
        budget = EnumerationBudget()
    if width > _MAX_SWEEP_BITS:
        raise InvalidParameterError(
            f"exhaustive sweep supports at most {_MAX_SWEEP_BITS}-bit codes, got {width}"
        )
    required = 1 << exponent
    if required > budget.max_subsets:
        raise BudgetExceededError(required, budget.max_subsets, what=what)
    return budget


def enumerate_digitally_convex(g: Graph, budget: EnumerationBudget | None = None) -> Iterator[VertexSet]:
    """Yield every digitally convex subset of g in increasing bitmask order.

    The sweep covers all 2^order subset codes in contiguous blocks, testing
    each block as one numpy vector; survivors are emitted in numeric order,
    so the stream is identical for any worker count.  Raises a budget error
    (never truncates) when 2^order exceeds the cap.
    """
    for code in _convex_codes(g, budget):
        yield VertexSet(g.order, code)


def _convex_codes(g: Graph, budget: EnumerationBudget | None = None) -> Iterator[int]:
    """The bitmasks of the digitally convex subsets of g, ascending.

    The budget is checked on the call, before the first code is asked for.
    """
    budget = _checked_budget(g.order, g.order, budget, "subsets")
    flags = partial(_kernels.convex_flags, g.closed_masks)
    return _kernels.iter_flagged(1 << g.order, flags, budget.workers)


def count_digitally_convex(g: Graph, budget: EnumerationBudget | None = None) -> int:
    """Exact number of digitally convex subsets of g, by exhaustive sweep."""
    budget = _checked_budget(g.order, g.order, budget, "subsets")
    flags = partial(_kernels.convex_flags, g.closed_masks)
    return _kernels.count_flagged(1 << g.order, flags, budget.workers)
