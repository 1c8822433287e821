"""Membership, hulls, enumeration and counting against naive oracles."""

import random

import pytest
from hypothesis import given, strategies as st

import digicon._kernels as kernels
from digicon import (
    BudgetExceededError,
    EnumerationBudget,
    Graph,
    InvalidParameterError,
    VertexSet,
    cartesian_product,
    count_digitally_convex,
    digital_convex_hull,
    enumerate_digitally_convex,
    graph_power,
    has_private_neighbor,
    is_digitally_convex,
    make_complete,
    make_cycle,
    make_path,
)
from oracles import (
    all_convex_masks_naive,
    has_private_neighbor_naive,
    hull_naive,
    is_convex_naive,
    random_graph,
)

SMALL_GRAPHS = [
    make_path(1),
    make_path(4),
    make_cycle(5),
    make_complete(4),
    graph_power(make_cycle(7), 2),
    cartesian_product(make_path(3), make_path(2)),
    cartesian_product(make_complete(3), make_complete(2)),
]

IDS = ["P1", "P4", "C5", "K4", "C7^2", "P3xP2", "K3xK2"]


@st.composite
def graph_and_seed(draw):
    order = draw(st.integers(min_value=1, max_value=9))
    pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    g = Graph.from_edges(order, edges)
    mask = draw(st.integers(min_value=0, max_value=(1 << order) - 1))
    return g, VertexSet(order, mask)


# --- private neighbours ---


@pytest.mark.parametrize("g", SMALL_GRAPHS, ids=IDS)
def test_private_neighbor_matches_naive_exhaustively(g):
    for mask in range(1 << g.order):
        s = VertexSet(g.order, mask)
        for v in range(g.order):
            assert has_private_neighbor(g, v, s) == has_private_neighbor_naive(
                g, v, s.indices()
            )


def test_private_neighbor_trivial_cases():
    g = make_complete(3)
    # against the empty set every vertex is its own private neighbour
    assert has_private_neighbor(g, 0, VertexSet(3))
    # a complete graph leaves nothing private once anyone else is inside
    assert not has_private_neighbor(g, 1, VertexSet.from_indices(3, [0]))


def test_private_neighbor_in_complete_product():
    g = cartesian_product(make_complete(3), make_complete(2))
    s = VertexSet.from_indices(6, [2])
    # (2,1) is inside; (1,1) keeps a private neighbour outside N[S]
    assert has_private_neighbor(g, 0, s)


def test_private_neighbor_rejects_foreign_input():
    g = make_path(3)
    with pytest.raises(InvalidParameterError):
        has_private_neighbor(g, 3, VertexSet(3))
    with pytest.raises(InvalidParameterError):
        has_private_neighbor(g, 0, VertexSet(4))


@pytest.mark.parametrize("v, message", [
    (True, "vertex must be an int, got True"),
    (1.0, "vertex must be an int, got 1.0"),
    ("1", "vertex must be an int, got '1'"),
], ids=["bool", "float", "str"])
def test_private_neighbor_refuses_a_vertex_that_is_not_an_int(v, message):
    with pytest.raises(InvalidParameterError) as info:
        has_private_neighbor(make_path(3), v, VertexSet(3, 0b100))
    assert str(info.value) == message


# --- membership ---


@pytest.mark.parametrize("g", SMALL_GRAPHS, ids=IDS)
def test_membership_matches_naive_exhaustively(g):
    for mask in range(1 << g.order):
        s = VertexSet(g.order, mask)
        members = [v for v in range(g.order) if (mask >> v) & 1]
        assert is_digitally_convex(g, s) == is_convex_naive(g, members)


def test_empty_and_full_are_always_convex():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 10))
        assert is_digitally_convex(g, VertexSet(g.order))
        assert is_digitally_convex(g, VertexSet.full(g.order))


def test_membership_rejects_universe_mismatch():
    with pytest.raises(InvalidParameterError):
        is_digitally_convex(make_path(3), VertexSet(4))


# --- hulls ---


@pytest.mark.parametrize("g", SMALL_GRAPHS[:6], ids=IDS[:6])
def test_hull_matches_intersection_oracle(g):
    for mask in range(1 << g.order):
        s = VertexSet(g.order, mask)
        assert set(digital_convex_hull(g, s).indices()) == hull_naive(g, s.indices())


def test_hull_of_convex_set_is_itself():
    g = cartesian_product(make_path(3), make_path(2))
    for s in enumerate_digitally_convex(g):
        assert digital_convex_hull(g, s) == s


@given(graph_and_seed())
def test_hull_is_extensive_and_convex(case):
    g, s = case
    h = digital_convex_hull(g, s)
    assert s.is_subset_of(h)
    assert is_digitally_convex(g, h)


@given(graph_and_seed())
def test_hull_is_idempotent(case):
    g, s = case
    h = digital_convex_hull(g, s)
    assert digital_convex_hull(g, h) == h


@given(graph_and_seed(), st.data())
def test_hull_is_monotone(case, data):
    g, s = case
    extra = data.draw(st.integers(min_value=0, max_value=(1 << g.order) - 1))
    bigger = VertexSet(g.order, s.mask | extra)
    assert digital_convex_hull(g, s).is_subset_of(digital_convex_hull(g, bigger))


def test_hull_pixel_grid_example():
    """Hull of a scattered pixel set in a 5x5 grid, frozen from the oracle."""
    g = cartesian_product(make_path(5), make_path(5))
    at = lambda r, c: 5 * r + c
    seed = VertexSet.from_indices(
        25, [at(1, 0), at(1, 1), at(3, 1), at(4, 2), at(2, 3), at(3, 3), at(2, 4)]
    )
    added = {at(0, 0), at(2, 0), at(2, 1), at(2, 2), at(3, 2)}
    hull = digital_convex_hull(g, seed)
    assert set(hull.indices()) == set(seed.indices()) | added


# --- enumeration and counting ---


@pytest.mark.parametrize("g", SMALL_GRAPHS, ids=IDS)
def test_enumeration_matches_naive_filter(g):
    got = [s.mask for s in enumerate_digitally_convex(g)]
    assert got == all_convex_masks_naive(g)
    assert got[0] == 0
    assert got[-1] == (1 << g.order) - 1
    assert got == sorted(got)


@pytest.mark.parametrize("g", SMALL_GRAPHS, ids=IDS)
def test_count_agrees_with_enumeration(g):
    assert count_digitally_convex(g) == sum(1 for _ in enumerate_digitally_convex(g))


def test_every_enumerated_set_passes_the_scalar_check():
    """The vectorized sweep and the scalar membership test must agree."""
    for g in SMALL_GRAPHS:
        for s in enumerate_digitally_convex(g):
            outside = [v for v in range(g.order) if v not in s]
            assert all(has_private_neighbor(g, v, s) for v in outside)


def test_enumerated_family_is_intersection_closed():
    for g in [make_cycle(6), cartesian_product(make_path(3), make_path(2))]:
        family = [s.mask for s in enumerate_digitally_convex(g)]
        members = set(family)
        for a in family:
            for b in family:
                assert (a & b) in members


@pytest.mark.parametrize(
    "g,expected",
    [
        (make_complete(5), 2),
        (make_cycle(4), 6),
        (make_cycle(5), 12),
        (make_path(4), 6),
        (cartesian_product(make_path(4), make_path(2)), 38),
    ],
    ids=["K5", "C4", "C5", "P4", "P4xP2"],
)
def test_known_counts(g, expected):
    assert count_digitally_convex(g) == expected


# --- the closed double cover ---


def _closed_double_cover(g):
    """D(g): two copies of V, with v in the first adjacent to u in the
    second iff u is in N[v]."""
    n = g.order
    return Graph.from_edges(2 * n, [(v, n + u) for v in range(n) for u in range(n)
                                    if g.closed_masks[v] >> u & 1])


def _mis_count(g):
    return kernels.count_flagged(g.order, kernels.mis_bits, lambda: g.closed_masks, None, "sets")


def _is_bipartite(g):
    side = {}
    for root in range(g.order):
        stack = [root] if root not in side else []
        side.setdefault(root, 0)
        while stack:
            v = stack.pop()
            for u in g.adjacency[v]:
                if u not in side:
                    side[u] = 1 - side[v]
                    stack.append(u)
                elif side[u] == side[v]:
                    return False
    return True


def test_convex_sets_are_the_maximal_independent_sets_of_the_closed_double_cover():
    # S is convex iff (S, V \ N[S]) is a maximal independent set of D(g);
    # for a bipartite g, swapping the copies of one side maps D(g) onto g x P_2
    rng = random.Random(2027)
    bipartite = 0
    for i in range(200):
        g = random_graph(rng, rng.randint(1, 8), i % 11 / 10)
        convex = count_digitally_convex(g)
        assert _mis_count(_closed_double_cover(g)) == convex, g
        if _is_bipartite(g):
            bipartite += 1
            assert _mis_count(cartesian_product(g, make_path(2))) == convex, g
    assert bipartite > 50
    # the product form fails off the bipartite graphs
    for g, convex, product in ((make_cycle(7), 30, 28), (make_complete(4), 2, 12)):
        assert count_digitally_convex(g) == _mis_count(_closed_double_cover(g)) == convex
        assert _mis_count(cartesian_product(g, make_path(2))) == product


# --- budgets ---


def test_budget_boundary_is_exact():
    g = make_cycle(4)
    assert count_digitally_convex(g, EnumerationBudget(max_subsets=16)) == 6
    with pytest.raises(BudgetExceededError) as exc:
        count_digitally_convex(g, EnumerationBudget(max_subsets=15))
    assert exc.value.required == 16
    assert exc.value.limit == 15
    assert "max_subsets >= 16" in str(exc.value)


def test_default_budget_refuses_a_thirty_vertex_sweep():
    with pytest.raises(BudgetExceededError) as exc:
        count_digitally_convex(make_path(30))
    assert exc.value.required == 1 << 30


def test_budget_validation():
    with pytest.raises(InvalidParameterError):
        EnumerationBudget(max_subsets=0)
    # the budget holds the cap alone: worker counts stop at the CLI
    with pytest.raises(TypeError):
        EnumerationBudget(workers=2)


# --- block determinism ---


def test_small_blocks_do_not_change_the_stream(monkeypatch):
    g = graph_power(make_cycle(12), 2)
    whole = [s.mask for s in enumerate_digitally_convex(g)]
    real_iter = kernels.iter_blocks
    monkeypatch.setattr(
        kernels, "iter_blocks", lambda total, block_size=0: real_iter(total, 1 << 7)
    )
    budget = EnumerationBudget()
    assert [s.mask for s in enumerate_digitally_convex(g, budget)] == whole
    assert count_digitally_convex(g, budget) == len(whole) == 92
