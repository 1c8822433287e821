"""Digital convexity: private neighbours, the hull closure, and exhaustive
enumeration of digitally convex sets.

A set S is digitally convex when every vertex v outside S has a private
neighbour with respect to S, some vertex of N[v] that N[S] misses: S is a
fixed point of the closure S -> {v : N[v] inside N[S]}.  The enumeration
here is the brute-force oracle the family-specific counters are validated
against: the subset sweep, convex_bits on the _kernels drivers, which own
its budget and width check.

Convex sets are maximal independent sets (the closed double cover).  Let
D(G) have two copies of V, with v0 ~ u1 iff u is in N[v].  A pair (S0, F1)
is independent iff F misses N[S], and then maximal iff every other vertex
has a neighbour in it: F = V - N[S] and S = V - N[F].  The first fixes F;
given it, the second says that each vertex outside S has a closed
neighbour outside N[S], which is digital convexity.  So S -> (S0,
(V - N[S])1) is a bijection, and #convex(G) = #MIS(D(G)).  For a bipartite
G, swapping the two copies of each vertex on one side maps D(G) onto
G x K_2, so ``products.count_mis_grid3`` counts the convex sets of a grid
as the maximal independent sets of the grid times P_2.
"""

from __future__ import annotations

from collections.abc import Iterator

from . import _kernels
from ._kernels import EnumerationBudget
from .errors import InvalidParameterError
from .graphs import Graph, VertexSet, _vertex, union_of_masks


def _member_mask(g: Graph, s: VertexSet) -> int:
    if s.universe != g.order:
        raise InvalidParameterError(f"set universe {s.universe} != graph order {g.order}")
    return s.mask


def _neighborhood_mask(g: Graph, member_mask: int) -> int:
    return union_of_masks(g.closed_masks, member_mask)


def has_private_neighbor(g: Graph, v: int, s: VertexSet) -> bool:
    """True iff some vertex of N[v] lies outside N[S - {v}]."""
    v = _vertex(v, g.order)
    rest = _member_mask(g, s) & ~(1 << v)
    ns = _neighborhood_mask(g, rest)
    return (g.closed_masks[v] & ~ns) != 0


def _closure(g: Graph, mask: int) -> int:
    """The vertices v whose N[v] lies inside N[S], for S given by mask.

    Every member qualifies, so S is convex iff this is S itself.  N[v] lies
    inside N[S] iff no vertex of N[v] is free (outside N[S]), that is, iff v
    is in no N[u] of a free u, so the closure is V & ~N[V & ~N[S]].
    """
    full = (1 << g.order) - 1
    return full & ~_neighborhood_mask(g, full & ~_neighborhood_mask(g, mask))


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


def enumerate_digitally_convex(g: Graph, budget: EnumerationBudget | None = None) -> Iterator[VertexSet]:
    """Yield every digitally convex subset of g in increasing bitmask order.

    The sweep tests all 2^order subset codes a block at a time, one bit per
    code; survivors are emitted in numeric order.  Raises a budget error
    (never truncates) when 2^order exceeds the cap.
    """
    for code in _convex_codes(g, budget):
        yield VertexSet(g.order, code)


def _convex_codes(g: Graph, budget: EnumerationBudget | None = None) -> Iterator[int]:
    """The bitmasks of the digitally convex subsets of g, ascending.

    The budget is checked on the call, before the first code is asked for.
    """
    return _kernels.chunk_masks(_kernels.iter_flagged(
        g.order, _kernels.convex_bits, lambda: g.closed_masks, budget, "subsets"))


def count_digitally_convex(g: Graph, budget: EnumerationBudget | None = None) -> int:
    """Exact number of digitally convex subsets of g, by exhaustive sweep."""
    return _kernels.count_flagged(g.order, _kernels.convex_bits, lambda: g.closed_masks,
                                  budget, "subsets")
