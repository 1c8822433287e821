"""Graph construction, powers, products, neighbourhoods, serialization."""

import json
import random

import pytest

from digicon import (
    Graph,
    InvalidParameterError,
    VertexSet,
    cartesian_product,
    closed_neighborhood,
    closed_neighborhood_of_set,
    graph_from_json,
    graph_power,
    graph_to_json,
    make_complete,
    make_cycle,
    make_path,
    set_from_json,
    set_to_json,
)
from oracles import (
    bfs_distances,
    closed_nbhd_of_set,
    complete_by_edges,
    cycle_by_edges,
    path_by_edges,
    power_by_bfs,
    power_edges_naive,
    product_by_edges,
    random_graph,
)


# --- family builders ---


def test_path_small():
    g = make_path(4)
    assert g.order == 4
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert [g.degree(v) for v in range(4)] == [1, 2, 2, 1]
    assert g.family == "P_4"


def test_path_single_vertex_has_no_edges():
    g = make_path(1)
    assert g.order == 1
    assert g.edges() == []
    assert g.degree(0) == 0


def test_cycle_small():
    g = make_cycle(5)
    assert g.edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert all(g.degree(v) == 2 for v in range(5))
    assert g.family == "C_5"


def test_triangle_is_complete():
    assert make_cycle(3).adjacency == make_complete(3).adjacency


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_complete_edge_count(n):
    assert len(make_complete(n).edges()) == n * (n - 1) // 2


@pytest.mark.parametrize(
    "builder,bad",
    [(make_path, 0), (make_path, -3), (make_cycle, 2), (make_cycle, 0), (make_complete, 0)],
)
def test_builders_reject_bad_order(builder, bad):
    with pytest.raises(InvalidParameterError):
        builder(bad)


# --- the mask builders against the edge-list oracles ---


def assert_same_graph(built, oracle):
    # closed_masks and family first: eq, hash and repr read adjacency
    assert built.closed_masks == oracle.closed_masks
    assert built.family == oracle.family
    assert built == oracle and hash(built) == hash(oracle)
    assert repr(built) == repr(oracle)
    assert built.edges() == oracle.edges()


FAMILIES = {
    "path": (make_path, path_by_edges, 1),
    "cycle": (make_cycle, cycle_by_edges, 3),
    "complete": (make_complete, complete_by_edges, 1),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_family_builders_match_their_edge_lists(family):
    build, oracle, least = FAMILIES[family]
    for n in range(least, 13):
        assert_same_graph(build(n), oracle(n))


@pytest.mark.parametrize("left", FAMILIES)
@pytest.mark.parametrize("right", FAMILIES)
def test_products_match_their_edge_lists(left, right):
    (build_g, _, least_g), (build_h, _, least_h) = FAMILIES[left], FAMILIES[right]
    for n in range(least_g, 7):
        for m in range(least_h, 7):
            g, h = build_g(n), build_h(m)
            assert_same_graph(cartesian_product(g, h), product_by_edges(g, h))


def test_powers_match_bfs():
    rng = random.Random(31)
    bases = [make_cycle(n) for n in range(3, 13)] + [make_path(n) for n in range(1, 13)]
    bases += [random_graph(rng, rng.randint(1, 10)) for _ in range(20)]
    for g in bases:
        for d in range(1, 7):
            assert_same_graph(graph_power(g, d), power_by_bfs(g, d))


def test_builders_derive_adjacency_only_when_read():
    g, h = make_path(3), make_cycle(4)
    p = cartesian_product(g, h)
    # a product reads only its factors' masks
    assert not {"adjacency"} & (vars(g).keys() | vars(h).keys() | vars(p).keys())
    assert p.degree(0) == 3
    assert vars(p)["adjacency"] is p.adjacency


@pytest.mark.parametrize("masks, message", [
    ((0b11, 0b10), "edge 0-1 is not symmetric"),
    ((0b101, 0b010), "out of range"),
    ((0b01, 0b00), "misses vertex 1"),
    ((), "order must be >= 1"),
])
def test_from_masks_rejects_inconsistent_masks(masks, message):
    with pytest.raises(InvalidParameterError, match=message):
        Graph._from_masks(masks, None)


# --- Graph validation ---


def test_graph_rejects_asymmetric_adjacency():
    with pytest.raises(InvalidParameterError):
        Graph(2, ((1,), ()))


def test_graph_rejects_self_loop():
    with pytest.raises(InvalidParameterError):
        Graph(1, ((0,),))


def test_graph_rejects_out_of_range_neighbor():
    with pytest.raises(InvalidParameterError):
        Graph(2, ((5,), (0,)))


def test_graph_rejects_unsorted_row():
    with pytest.raises(InvalidParameterError):
        Graph(3, ((2, 1), (0, 2), (0, 1)))


def test_graph_refuses_vertices_that_are_not_ints():
    with pytest.raises(InvalidParameterError, match="must be an int, got '1'"):
        Graph(2, (("1",), (0,)))
    with pytest.raises(InvalidParameterError, match="must be an int, got True"):
        Graph(2, ((True,), (0,)))
    with pytest.raises(InvalidParameterError, match="order must be an int"):
        Graph(True, ((),))


def test_graph_stores_list_rows_as_tuples():
    g = Graph(2, [[1], [0]])
    assert g.adjacency == ((1,), (0,))
    assert g == Graph(2, ((1,), (0,))) and hash(g) == hash(Graph(2, ((1,), (0,))))


def test_from_edges_dedups_and_validates():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edges() == [(0, 1)]
    with pytest.raises(InvalidParameterError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(InvalidParameterError):
        Graph.from_edges(3, [(0, 5)])


# --- graph powers ---


@pytest.mark.parametrize("base", ["path", "cycle"])
@pytest.mark.parametrize("n,d", [(6, 2), (7, 3), (9, 4)])
def test_power_matches_bfs_distances(base, n, d):
    g = make_path(n) if base == "path" else make_cycle(n)
    assert graph_power(g, d).edges() == power_edges_naive(g, d)


def test_power_one_keeps_adjacency():
    g = make_cycle(9)
    assert graph_power(g, 1).adjacency == g.adjacency


def test_power_composes():
    g = make_cycle(12)
    assert graph_power(graph_power(g, 2), 2).adjacency == graph_power(g, 4).adjacency


@pytest.mark.parametrize("n,k", [(5, 2), (7, 3), (8, 4), (9, 4)])
def test_cycle_power_complete_once_k_reaches_half(n, k):
    """C_n^k is complete exactly when k covers half the cycle."""
    assert graph_power(make_cycle(n), k).adjacency == make_complete(n).adjacency


def test_power_rejects_nonpositive_exponent():
    with pytest.raises(InvalidParameterError):
        graph_power(make_path(3), 0)


def test_random_graph_power_matches_bfs():
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8))
        d = rng.randint(1, 3)
        assert graph_power(g, d).edges() == power_edges_naive(g, d)


# --- cartesian products ---


def test_product_order_and_edge_count():
    rng = random.Random(7)
    for _ in range(12):
        g = random_graph(rng, rng.randint(1, 5))
        h = random_graph(rng, rng.randint(1, 5))
        p = cartesian_product(g, h)
        assert p.order == g.order * h.order
        assert len(p.edges()) == g.order * len(h.edges()) + h.order * len(g.edges())


def test_product_vertex_indexing_is_row_major():
    g = cartesian_product(make_path(3), make_path(2))
    # (a, b) sits at index a*2+b, so (1, 0) = 2 touches (0,0), (1,1), (2,0)
    assert g.adjacency[2] == (0, 3, 4)


def test_square_of_paths_is_a_four_cycle():
    g = cartesian_product(make_path(2), make_path(2))
    assert sorted(g.degree(v) for v in range(4)) == [2, 2, 2, 2]
    assert len(bfs_distances(g, 0)) == 4


def test_complete_product_shape():
    g = cartesian_product(make_complete(3), make_complete(2))
    assert g.order == 6
    assert len(g.edges()) == 9
    assert all(g.degree(v) == 3 for v in range(6))


# --- closed neighbourhoods ---


def test_closed_neighborhood_examples():
    g2 = graph_power(make_cycle(7), 2)
    assert set(closed_neighborhood(g2, 0).indices()) == {5, 6, 0, 1, 2}
    assert closed_neighborhood(make_path(1), 0).indices() == (0,)
    full = closed_neighborhood(make_complete(5), 3)
    assert full.indices() == (0, 1, 2, 3, 4)


def test_closed_neighborhood_of_set_examples():
    g2 = graph_power(make_cycle(7), 2)
    s = VertexSet.from_indices(7, [0, 6])
    assert set(closed_neighborhood_of_set(g2, s).indices()) == {4, 5, 6, 0, 1, 2}
    empty = VertexSet(7)
    assert len(closed_neighborhood_of_set(g2, empty)) == 0
    assert closed_neighborhood_of_set(g2, VertexSet.full(7)) == VertexSet.full(7)


def test_neighborhood_of_set_is_union_of_neighborhoods():
    rng = random.Random(23)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 9))
        mask = rng.randrange(1 << g.order)
        s = VertexSet(g.order, mask)
        got = set(closed_neighborhood_of_set(g, s).indices())
        assert got == closed_nbhd_of_set(g, s.indices())


def test_neighborhood_rejects_foreign_arguments():
    g = make_path(4)
    with pytest.raises(InvalidParameterError):
        closed_neighborhood(g, 4)
    with pytest.raises(InvalidParameterError):
        closed_neighborhood_of_set(g, VertexSet.from_indices(5, [0]))


# --- vertex sets ---


def test_vertex_set_algebra():
    a = VertexSet.from_indices(5, [0, 2])
    b = VertexSet.from_indices(5, [2, 4])
    assert (a | b).indices() == (0, 2, 4)
    assert (a & b).indices() == (2,)
    assert (a - b).indices() == (0,)
    assert len(a) == 2
    assert 2 in a and 1 not in a
    assert list(a) == [0, 2]
    assert a.with_vertex(1).indices() == (0, 1, 2)
    assert a.without_vertex(2).indices() == (0,)
    assert a.is_subset_of(a | b)
    assert not (a | b).is_subset_of(a)
    assert a.complement().indices() == (1, 3, 4)


def test_vertex_set_full_and_empty():
    assert VertexSet.full(4).mask == 0b1111
    assert VertexSet(4).indices() == ()
    assert VertexSet.full(4).complement() == VertexSet(4)


def test_vertex_set_rejects_universe_mismatch():
    with pytest.raises(InvalidParameterError):
        VertexSet.from_indices(3, [0]) | VertexSet.from_indices(4, [0])
    with pytest.raises(InvalidParameterError):
        VertexSet.from_indices(3, [0]) & VertexSet.from_indices(4, [0])


def test_vertex_set_rejects_bad_members():
    with pytest.raises(InvalidParameterError):
        VertexSet.from_indices(3, [3])
    with pytest.raises(InvalidParameterError):
        VertexSet(3, 1 << 3)
    with pytest.raises(InvalidParameterError):
        VertexSet(3, -1)


@pytest.mark.parametrize("build", [
    lambda: VertexSet.from_indices(3, [True]),
    lambda: VertexSet.from_indices(3, ["a"]),
    lambda: VertexSet.from_indices(3, [1.0]),
    lambda: VertexSet.from_indices(3.0, [1]),
    lambda: VertexSet(True, 1),
    lambda: VertexSet(3, True),
    lambda: VertexSet(3, 1.0),
    lambda: VertexSet.full(2.5),
    lambda: make_path(2.5),
    lambda: make_path(True),
    lambda: make_cycle(4.0),
    lambda: make_complete("3"),
    lambda: graph_power(make_path(3), 1.5),
    lambda: graph_power(make_path(3), True),
], ids=["from_indices-bool", "from_indices-str", "from_indices-float", "from_indices-universe",
        "universe-bool", "mask-bool", "mask-float", "full-float", "path-float", "path-bool",
        "cycle-float", "complete-str", "power-float", "power-bool"])
def test_vertex_sets_and_builders_refuse_numbers_that_are_not_ints(build):
    with pytest.raises(InvalidParameterError, match="must be an int"):
        build()


# --- serialization ---


def test_graph_json_shape_and_round_trip():
    doc = json.loads(graph_to_json(make_path(3)))
    assert doc == {"order": 3, "edges": [[0, 1], [1, 2]]}
    g = cartesian_product(make_path(3), make_cycle(4))
    back = graph_from_json(graph_to_json(g))
    assert back.order == g.order
    assert back.adjacency == g.adjacency


def test_graph_json_rejects_garbage():
    with pytest.raises(InvalidParameterError):
        graph_from_json('{"nope": 1}')


@pytest.mark.parametrize("text", [
    '{"order": 3, "edges": [["a", 1]]}',
    '{"order": 3, "edges": [[0, 1.0]]}',
    '{"order": true, "edges": []}',
    '{"order": 3, "edges": [[0, true]]}',
])
def test_graph_json_refuses_entries_that_are_not_ints(text):
    with pytest.raises(InvalidParameterError):
        graph_from_json(text)


@pytest.mark.parametrize("read", [
    lambda: graph_from_json('{"order": 3, "edges": [[0, 1]]'),
    lambda: set_from_json('[0,', 3),
], ids=["graph", "set"])
def test_json_readers_refuse_malformed_json(read):
    with pytest.raises(InvalidParameterError, match="not valid JSON") as info:
        read()
    assert info.value.__cause__ is None and info.value.__suppress_context__


def test_set_json_round_trip():
    s = VertexSet.from_indices(6, [5, 0, 3])
    assert set_to_json(s) == "[0, 3, 5]"
    assert set_from_json(set_to_json(s), 6) == s


def test_set_json_rejects_bad_payload():
    with pytest.raises(InvalidParameterError):
        set_from_json('{"not": "a list"}', 4)
    with pytest.raises(InvalidParameterError):
        set_from_json("[9]", 4)
    with pytest.raises(InvalidParameterError):
        set_from_json("[true]", 3)
