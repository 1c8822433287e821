"""Immutable finite simple graphs with 0-based vertices and bitmask vertex sets.

Vertices of a graph on n vertices are the integers 0..n-1.  A ``VertexSet``
stores its members as a single Python int bitmask (bit v set means vertex v is
in the set), which keeps subset sweeps and neighbourhood unions cheap and
exact at any size.

A ``Graph`` is held as its closed neighbourhood masks, ``closed_masks[v]``
the bitmask of N[v], since digital convexity reads a graph only through
them.  The family builders compute the masks directly, with no edge list:
a path's N[v] is the three-bit window ``7 << v >> 1``, cut to the order; a
cycle's window wraps around at both ends; a complete graph's N[v] is every
vertex; a power ORs N of the masks it has reached, a round per step; and a
Cartesian product shifts the second factor's masks into each row and
spreads the first factor's down each column.  All of them go through
``Graph._from_masks``, which checks that the masks make a simple graph.
The sorted ``adjacency`` rows, which equality, hash, repr and ``edges``
read, are derived from the masks on first read and then kept, so a sweep
that reads only the masks never builds them.  ``Graph(order, adjacency)``
and ``Graph.from_edges`` take a graph given as rows or as an edge list.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator

from .errors import FrozenRecord, InvalidParameterError


def _int(value, what: str) -> int:
    """value as an int; a bool, a float or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(f"{what} must be an int, got {value!r}")
    return int(value)


class VertexSet(FrozenRecord):
    """A subset of the vertices 0..universe-1, stored as a bitmask."""

    _fields = ("universe", "mask")

    def __init__(self, universe: int, mask: int = 0):
        if type(universe) is not int or type(mask) is not int:  # plain ints skip the calls
            universe, mask = _int(universe, "universe"), _int(mask, "mask")
        if universe < 0:
            raise InvalidParameterError(f"universe must be >= 0, got {universe}")
        if not 0 <= mask < (1 << universe):
            raise InvalidParameterError(f"mask {mask:#x} out of range for universe {universe}")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_indices(cls, universe: int, indices: Iterable[int]) -> "VertexSet":
        universe, mask = _int(universe, "universe"), 0
        for v in indices:
            v = _int(v, "vertex")
            if not 0 <= v < universe:
                raise InvalidParameterError(f"vertex {v} out of range 0..{universe - 1}")
            mask |= 1 << v
        return cls(universe, mask)

    @classmethod
    def full(cls, universe: int) -> "VertexSet":
        universe = _int(universe, "universe")
        return cls(universe, (1 << universe) - 1)

    def indices(self) -> tuple[int, ...]:
        """Members in ascending order."""
        return tuple(v for v in range(self.universe) if self.mask >> v & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices())

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.universe and bool(self.mask >> v & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def _check_same_universe(self, other: "VertexSet"):
        if self.universe != other.universe:
            raise InvalidParameterError(
                f"universe mismatch: {self.universe} vs {other.universe}"
            )

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check_same_universe(other)
        return VertexSet(self.universe, self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check_same_universe(other)
        return VertexSet(self.universe, self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check_same_universe(other)
        return VertexSet(self.universe, self.mask & ~other.mask)

    def with_vertex(self, v: int) -> "VertexSet":
        if not 0 <= v < self.universe:
            raise InvalidParameterError(f"vertex {v} out of range 0..{self.universe - 1}")
        return VertexSet(self.universe, self.mask | 1 << v)

    def without_vertex(self, v: int) -> "VertexSet":
        if not 0 <= v < self.universe:
            raise InvalidParameterError(f"vertex {v} out of range 0..{self.universe - 1}")
        return VertexSet(self.universe, self.mask & ~(1 << v))

    def is_subset_of(self, other: "VertexSet") -> bool:
        self._check_same_universe(other)
        return self.mask & ~other.mask == 0

    def complement(self) -> "VertexSet":
        return VertexSet(self.universe, ~self.mask & (1 << self.universe) - 1)


class Graph(FrozenRecord):
    """A finite simple graph, held as its closed neighbourhood masks.

    ``closed_masks[v]`` is the bitmask of the closed neighbourhood N[v]:
    every convexity question below reduces to unions and subset tests on
    these masks.  ``adjacency``, the sorted neighbour tuples, is derived from
    the masks the first time it is read and then kept.  Equality and hash
    compare (order, adjacency) and ignore ``family``; the repr omits
    ``closed_masks``.
    """

    _fields = ("order", "adjacency")
    _shown = ("order", "adjacency", "family")

    def __init__(self, order: int, adjacency: tuple[tuple[int, ...], ...],
                 family: str | None = None):
        order = _int(order, "order")
        if order < 1:
            raise InvalidParameterError(f"order must be >= 1, got {order}")
        if len(adjacency) != order:
            raise InvalidParameterError(f"adjacency has {len(adjacency)} rows for order {order}")
        rows = tuple(tuple(_int(u, "vertex") for u in row) for row in adjacency)
        masks = []
        for v, row in enumerate(rows):
            if list(row) != sorted(set(row)):
                raise InvalidParameterError(f"adjacency of {v} not sorted and duplicate-free")
            mask = 1 << v
            for u in row:
                if not 0 <= u < order:
                    raise InvalidParameterError(f"vertex {u} out of range in adjacency of {v}")
                if u == v:
                    raise InvalidParameterError(f"self-loop at vertex {v}")
                if v not in rows[u]:
                    raise InvalidParameterError(f"edge {v}-{u} is not symmetric")
                mask |= 1 << u
            masks.append(mask)
        self._set(order, tuple(masks), family)
        object.__setattr__(self, "adjacency", rows)

    def _set(self, order: int, closed_masks: tuple[int, ...], family: str | None) -> None:
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "closed_masks", closed_masks)

    @classmethod
    def _from_masks(cls, closed_masks, family: str | None) -> "Graph":
        """The graph whose N[v] is closed_masks[v]; what every builder returns.

        Each mask must lie within the order, hold its own bit, and agree
        with the others: u in N[v] iff v in N[u].
        """
        closed_masks = tuple(closed_masks)
        order = len(closed_masks)
        if order < 1:
            raise InvalidParameterError(f"order must be >= 1, got {order}")
        full = (1 << order) - 1
        for v, mask in enumerate(closed_masks):
            if not 0 <= mask <= full:
                raise InvalidParameterError(f"N[{v}] = {mask:#x} out of range for order {order}")
            if not mask >> v & 1:
                raise InvalidParameterError(f"N[{v}] = {mask:#x} misses vertex {v}")
            others = mask ^ 1 << v
            while others:
                low = others & -others
                if not closed_masks[low.bit_length() - 1] >> v & 1:
                    raise InvalidParameterError(
                        f"edge {v}-{low.bit_length() - 1} is not symmetric")
                others ^= low
        g = object.__new__(cls)
        g._set(order, closed_masks, family)
        return g

    @functools.cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour tuples, derived from the masks on first read."""
        return tuple(tuple(u for u in range(self.order) if mask >> u & 1 and u != v)
                     for v, mask in enumerate(self.closed_masks))

    @classmethod
    def from_edges(cls, order: int, edges: Iterable[tuple[int, int]],
                   family: str | None = None) -> "Graph":
        """Build a graph from an edge list (pairs in any order, no loops)."""
        order = _int(order, "order")
        masks = [1 << v for v in range(order)]
        for u, v in edges:
            u, v = _int(u, "edge end"), _int(v, "edge end")
            if not (0 <= u < order and 0 <= v < order):
                raise InvalidParameterError(f"edge ({u}, {v}) out of range for order {order}")
            if u == v:
                raise InvalidParameterError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        if order < 1:
            raise InvalidParameterError(f"order must be >= 1, got {order}")
        return cls._from_masks(masks, family)

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) with u < v, sorted lexicographically."""
        return [(u, v) for u in range(self.order) for v in self.adjacency[u] if u < v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def vertex_set(self, indices: Iterable[int]) -> VertexSet:
        return VertexSet.from_indices(self.order, indices)


def _path_masks(n: int) -> list[int]:
    # N[v] is the window v-1, v, v+1, cut at both ends
    full = (1 << n) - 1
    return [7 << v >> 1 & full for v in range(n)]


def make_path(n: int) -> Graph:
    """The path P_n on vertices 0..n-1, consecutive integers adjacent."""
    n = _int(n, "path order")
    if n < 1:
        raise InvalidParameterError(f"path order must be >= 1, got {n}")
    return Graph._from_masks(_path_masks(n), f"P_{n}")


def make_cycle(n: int) -> Graph:
    """The cycle C_n, n >= 3."""
    n = _int(n, "cycle order")
    if n < 3:
        raise InvalidParameterError(f"cycle order must be >= 3, got {n}")
    masks = _path_masks(n)
    masks[0] |= 1 << n - 1
    masks[-1] |= 1
    return Graph._from_masks(masks, f"C_{n}")


def make_complete(n: int) -> Graph:
    """The complete graph K_n."""
    n = _int(n, "complete graph order")
    if n < 1:
        raise InvalidParameterError(f"complete graph order must be >= 1, got {n}")
    return Graph._from_masks([(1 << n) - 1] * n, f"K_{n}")


def graph_power(g: Graph, d: int) -> Graph:
    """The d-th power of g: vertices joined when their distance in g is <= d.

    reach[v] starts as N[v], the vertices within distance 1; each round
    takes N of it, one step further, until d rounds are done or a round
    adds nothing.
    """
    d = _int(d, "power")
    if d < 1:
        raise InvalidParameterError(f"power must be >= 1, got {d}")
    closed = reach = g.closed_masks
    for _ in range(d - 1):
        grown = tuple(union_of_masks(closed, mask) for mask in reach)
        if grown == reach:
            break
        reach = grown
    tag = f"{g.family}^{d}" if g.family else None
    return Graph._from_masks(reach, tag)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """The Cartesian product, vertex (a, b) stored row-major as a * h.order + b.

    (a, b) ~ (a', b') iff a == a' and bb' is an edge of h, or b == b' and
    aa' is an edge of g.  So N[(a, b)] is N_h[b] shifted into row a, OR
    spread[a] shifted to column b, where spread[a] has bit a' * h.order for
    each a' in N_g[a].
    """
    m = h.order
    units = [1 << a * m for a in range(g.order)]
    spread = [union_of_masks(units, mask) for mask in g.closed_masks]
    tag = f"{g.family} x {h.family}" if g.family and h.family else None
    return Graph._from_masks([h_mask << a * m | column << b
                              for a, column in enumerate(spread)
                              for b, h_mask in enumerate(h.closed_masks)], tag)


def closed_neighborhood(g: Graph, v: int) -> VertexSet:
    """N[v]: the vertex v together with its neighbours."""
    if not 0 <= v < g.order:
        raise InvalidParameterError(f"vertex {v} out of range 0..{g.order - 1}")
    return VertexSet(g.order, g.closed_masks[v])


def closed_neighborhood_of_set(g: Graph, s: VertexSet) -> VertexSet:
    """N[S]: union of the closed neighbourhoods of the members of s."""
    if s.universe != g.order:
        raise InvalidParameterError(f"set universe {s.universe} != graph order {g.order}")
    return VertexSet(g.order, union_of_masks(g.closed_masks, s.mask))


def union_of_masks(masks, members: int) -> int:
    """OR of masks[v] over the set bits v of members: N[S] for the closed
    neighbourhood masks of a graph and the bitmask of S."""
    union = 0
    while members:
        low = members & -members
        union |= masks[low.bit_length() - 1]
        members ^= low
    return union


def graph_to_json(g: Graph) -> str:
    """Serialize as {"order": n, "edges": [[u, v], ...]} with u < v, sorted."""
    import json
    return json.dumps({"order": g.order, "edges": [list(e) for e in g.edges()]})


def _json_loads(text: str, what: str):
    """text decoded as JSON; malformed JSON is a parameter error."""
    import json
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"{what} is not valid JSON: {exc}") from None


def graph_from_json(text: str) -> Graph:
    data = _json_loads(text, "graph JSON")
    if not isinstance(data, dict) or "order" not in data or "edges" not in data:
        raise InvalidParameterError("graph JSON needs 'order' and 'edges' keys")
    edges = data["edges"]
    if not isinstance(edges, list):
        raise InvalidParameterError("graph JSON edges must be an array")
    pairs = []
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2):
            raise InvalidParameterError(f"bad edge entry {e!r}")
        pairs.append((e[0], e[1]))
    return Graph.from_edges(data["order"], pairs)


def set_to_json(s: VertexSet) -> str:
    """Serialize a vertex set as a sorted JSON array of 0-based indices."""
    import json
    return json.dumps(list(s.indices()))


def set_from_json(text: str, universe: int) -> VertexSet:
    data = _json_loads(text, "vertex set JSON")
    if not isinstance(data, list):
        raise InvalidParameterError("vertex set JSON must be an array of ints")
    return VertexSet.from_indices(universe, data)
