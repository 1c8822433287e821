"""Immutable finite simple graphs with 0-based vertices and bitmask vertex sets.

Vertices of a graph on n vertices are the integers 0..n-1.  A ``VertexSet``
stores its members as a single Python int bitmask (bit v set means vertex v is
in the set), which keeps subset sweeps and neighbourhood unions cheap and
exact at any size.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator

from .errors import FrozenRecord, InvalidParameterError


class VertexSet(FrozenRecord):
    """A subset of the vertices 0..universe-1, stored as a bitmask."""

    _fields = ("universe", "mask")

    def __init__(self, universe: int, mask: int = 0):
        if universe < 0:
            raise InvalidParameterError(f"universe must be >= 0, got {universe}")
        if not 0 <= mask < (1 << universe):
            raise InvalidParameterError(f"mask {mask:#x} out of range for universe {universe}")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_indices(cls, universe: int, indices: Iterable[int]) -> "VertexSet":
        mask = 0
        for v in indices:
            if not 0 <= v < universe:
                raise InvalidParameterError(f"vertex {v} out of range 0..{universe - 1}")
            mask |= 1 << v
        return cls(universe, mask)

    @classmethod
    def full(cls, universe: int) -> "VertexSet":
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
    """A finite simple graph given by sorted adjacency tuples.

    ``closed_masks[v]`` is the bitmask of the closed neighbourhood N[v]; it is
    precomputed because every convexity question below reduces to unions and
    subset tests on these masks.  Equality and hash ignore ``family``, and
    the repr omits ``closed_masks``.
    """

    _fields = ("order", "adjacency")
    _shown = ("order", "adjacency", "family")

    def __init__(self, order: int, adjacency: tuple[tuple[int, ...], ...],
                 family: str | None = None):
        if order < 1:
            raise InvalidParameterError(f"order must be >= 1, got {order}")
        if len(adjacency) != order:
            raise InvalidParameterError(f"adjacency has {len(adjacency)} rows for order {order}")
        for v, row in enumerate(adjacency):
            if list(row) != sorted(set(row)):
                raise InvalidParameterError(f"adjacency of {v} not sorted and duplicate-free")
            for u in row:
                if not 0 <= u < order:
                    raise InvalidParameterError(f"vertex {u} out of range in adjacency of {v}")
                if u == v:
                    raise InvalidParameterError(f"self-loop at vertex {v}")
                if v not in adjacency[u]:
                    raise InvalidParameterError(f"edge {v}-{u} is not symmetric")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "closed_masks", tuple(
            (1 << v) | sum(1 << u for u in row) for v, row in enumerate(adjacency)))

    @classmethod
    def from_edges(cls, order: int, edges: Iterable[tuple[int, int]],
                   family: str | None = None) -> "Graph":
        """Build a graph from an edge list (pairs in any order, no loops)."""
        nbrs: list[set[int]] = [set() for _ in range(max(order, 0))]
        for u, v in edges:
            if not (0 <= u < order and 0 <= v < order):
                raise InvalidParameterError(f"edge ({u}, {v}) out of range for order {order}")
            if u == v:
                raise InvalidParameterError(f"self-loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(order, tuple(tuple(sorted(s)) for s in nbrs), family)

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) with u < v, sorted lexicographically."""
        return [(u, v) for u in range(self.order) for v in self.adjacency[u] if u < v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def vertex_set(self, indices: Iterable[int]) -> VertexSet:
        return VertexSet.from_indices(self.order, indices)


def make_path(n: int) -> Graph:
    """The path P_n on vertices 0..n-1, consecutive integers adjacent."""
    if n < 1:
        raise InvalidParameterError(f"path order must be >= 1, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)], family=f"P_{n}")


def make_cycle(n: int) -> Graph:
    """The cycle C_n, n >= 3."""
    if n < 3:
        raise InvalidParameterError(f"cycle order must be >= 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges, family=f"C_{n}")


def make_complete(n: int) -> Graph:
    """The complete graph K_n."""
    if n < 1:
        raise InvalidParameterError(f"complete graph order must be >= 1, got {n}")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, edges, family=f"K_{n}")


def graph_power(g: Graph, d: int) -> Graph:
    """The d-th power of g: vertices joined when their distance in g is <= d."""
    if d < 1:
        raise InvalidParameterError(f"power must be >= 1, got {d}")
    edges = []
    for source in range(g.order):
        # BFS to depth d from each vertex
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            if dist[u] == d:
                continue
            for w in g.adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        edges.extend((source, w) for w in dist if w > source)
    tag = f"{g.family}^{d}" if g.family else None
    return Graph.from_edges(g.order, edges, family=tag)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """The Cartesian product, vertex (a, b) stored row-major as a * h.order + b.

    (a, b) ~ (a', b') iff a == a' and bb' is an edge of h, or b == b' and
    aa' is an edge of g.
    """
    m = h.order
    edges = []
    for a in range(g.order):
        for b, b2 in h.edges():
            edges.append((a * m + b, a * m + b2))
    for a, a2 in g.edges():
        for b in range(m):
            edges.append((a * m + b, a2 * m + b))
    tag = f"{g.family} x {h.family}" if g.family and h.family else None
    return Graph.from_edges(g.order * m, edges, family=tag)


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


def graph_from_json(text: str) -> Graph:
    import json
    data = json.loads(text)
    if not isinstance(data, dict) or "order" not in data or "edges" not in data:
        raise InvalidParameterError("graph JSON needs 'order' and 'edges' keys")
    order = data["order"]
    edges = data["edges"]
    if not isinstance(order, int) or not isinstance(edges, list):
        raise InvalidParameterError("graph JSON has wrong field types")
    pairs = []
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2):
            raise InvalidParameterError(f"bad edge entry {e!r}")
        pairs.append((e[0], e[1]))
    return Graph.from_edges(order, pairs)


def set_to_json(s: VertexSet) -> str:
    """Serialize a vertex set as a sorted JSON array of 0-based indices."""
    import json
    return json.dumps(list(s.indices()))


def set_from_json(text: str, universe: int) -> VertexSet:
    import json
    data = json.loads(text)
    if not isinstance(data, list) or not all(isinstance(v, int) for v in data):
        raise InvalidParameterError("vertex set JSON must be an array of ints")
    return VertexSet.from_indices(universe, data)
