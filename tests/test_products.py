"""Product-graph counting: complete products, ladders, grids, MIS."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

import digicon._kernels as kernels
from digicon import (
    BinaryArray,
    BudgetExceededError,
    EnumerationBudget,
    InvalidParameterError,
    NotConvexError,
    NotImageError,
    VertexSet,
    cartesian_product,
    count_complete_product,
    count_digitally_convex,
    count_grid_p2,
    count_grid_via_arrays,
    count_mis_grid3,
    enumerate_digitally_convex,
    generate_grid_p2,
    make_complete,
    make_path,
    max_transform,
    min_transform,
    set_from_array,
    array_from_set,
)
from digicon import products
from digicon.products import _antidiagonal_index, _grid_cells, _grid_p2_codes, _image_codes
from oracles import (
    all_convex_masks_naive,
    is_convex_naive,
    is_mis_naive,
    min_transform_via_graph,
)

WORKED_A = BinaryArray(((1, 1, 0), (1, 1, 1), (0, 1, 1)))
WORKED_A_STAR = BinaryArray(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


@st.composite
def binary_arrays(draw, max_side=4):
    n = draw(st.integers(1, max_side))
    m = draw(st.integers(1, max_side))
    code = draw(st.integers(0, (1 << (n * m)) - 1))
    return BinaryArray.from_code(n, m, code)


# --- binary arrays ---


def test_array_code_round_trip():
    for code in range(1 << 6):
        a = BinaryArray.from_code(2, 3, code)
        assert a.rows == 2 and a.cols == 3
        assert a.code == code
    assert BinaryArray.from_code(2, 2, 9).to_lists() == [[1, 0], [0, 1]]


def test_array_validation():
    with pytest.raises(InvalidParameterError):
        BinaryArray(())
    with pytest.raises(InvalidParameterError):
        BinaryArray(((0, 1), (1,)))
    with pytest.raises(InvalidParameterError):
        BinaryArray(((2,),))
    with pytest.raises(InvalidParameterError):
        BinaryArray.from_code(2, 2, 16)
    with pytest.raises(InvalidParameterError):
        BinaryArray.from_code(0, 2, 0)


# --- transforms ---


def test_worked_array_example():
    assert min_transform(WORKED_A) == WORKED_A_STAR
    assert WORKED_A.code == 443
    assert WORKED_A_STAR.code == 273


def test_transforms_fix_constant_arrays():
    zeros = BinaryArray.from_code(3, 4, 0)
    ones = BinaryArray.from_code(3, 4, (1 << 12) - 1)
    assert min_transform(zeros) == zeros
    assert min_transform(ones) == ones
    assert max_transform(zeros) == zeros
    assert max_transform(ones) == ones


@pytest.mark.parametrize("n,m", [(1, 5), (5, 1), (2, 3), (3, 3)])
def test_min_transform_matches_graph_oracle(n, m):
    for code in range(1 << (n * m)):
        a = BinaryArray.from_code(n, m, code)
        assert min_transform(a) == min_transform_via_graph(a)


def test_transform_duality():
    rng = random.Random(5)
    flip = lambda a: BinaryArray.from_code(
        a.rows, a.cols, a.code ^ ((1 << (a.rows * a.cols)) - 1)
    )
    for _ in range(100):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = BinaryArray.from_code(n, m, rng.randrange(1 << (n * m)))
        assert max_transform(a) == flip(min_transform(flip(a)))


def test_transforms_past_the_int64_width():
    rng = random.Random(11)
    for _ in range(40):
        n, m = rng.randint(8, 12), rng.randint(8, 12)
        full = (1 << (n * m)) - 1
        a = BinaryArray.from_code(n, m, rng.randrange(full + 1))
        assert min_transform(a) == min_transform_via_graph(a)
        flipped = min_transform_via_graph(BinaryArray.from_code(n, m, full ^ a.code))
        assert max_transform(a).code == full ^ flipped.code


@given(binary_arrays())
def test_min_shrinks_and_max_grows(a):
    full = (1 << (a.rows * a.cols)) - 1
    smaller = min_transform(a).code
    bigger = max_transform(a).code
    assert smaller & a.code == smaller
    assert bigger & full == bigger
    assert a.code & bigger == a.code


@given(binary_arrays(), st.data())
def test_min_transform_is_monotone(a, data):
    extra = data.draw(st.integers(0, (1 << (a.rows * a.cols)) - 1))
    b = BinaryArray.from_code(a.rows, a.cols, a.code | extra)
    low = min_transform(a).code
    assert low & min_transform(b).code == low


# --- complete products ---


def test_complete_product_values():
    assert count_complete_product(1, 1) == 2
    assert count_complete_product(2, 2) == 6
    assert count_complete_product(3, 2) == 14
    assert count_complete_product(3, 3) == 38
    assert count_complete_product(5, 4) == (2**5 - 2) * (2**4 - 2) + 2


def test_complete_product_matches_brute_force_small():
    for n in range(1, 4):
        for m in range(1, 4):
            g = cartesian_product(make_complete(n), make_complete(m))
            assert count_complete_product(n, m) == count_digitally_convex(g)


def test_complete_product_sets_factor():
    """Proper nonempty convex sets of K_n x K_m are rectangles S1 x S2."""
    for n, m in [(2, 2), (3, 2), (3, 3)]:
        g = cartesian_product(make_complete(n), make_complete(m))
        for s in enumerate_digitally_convex(g):
            if len(s) in (0, n * m):
                continue
            rows = {v // m for v in s}
            cols = {v % m for v in s}
            assert set(s.indices()) == {r * m + c for r in rows for c in cols}


def test_complete_product_validation():
    with pytest.raises(InvalidParameterError):
        count_complete_product(0, 2)
    with pytest.raises(InvalidParameterError):
        count_complete_product(2, -1)


# --- ladders ---


def test_ladder_count_values():
    assert [count_grid_p2(n) for n in range(1, 7)] == [2, 6, 16, 38, 98, 244]


def test_ladder_count_matches_brute_force():
    for n in range(1, 8):
        g = cartesian_product(make_path(n), make_path(2))
        assert count_grid_p2(n) == count_digitally_convex(g)


def test_ladder_generation_matches_enumeration():
    for n in range(1, 8):
        g = cartesian_product(make_path(n), make_path(2))
        generated = [s.mask for s in generate_grid_p2(n)]
        streamed = [s.mask for s in enumerate_digitally_convex(g)]
        assert generated == streamed


def test_ladder_generation_base_case():
    assert [s.mask for s in generate_grid_p2(1)] == [0, 3]


def test_ladder_generation_internal_assertions_hold_deep():
    # the construction re-checks disjointness and family cardinalities
    # (1x, 3x, 2x of the three smaller ladders) on every call
    assert len(generate_grid_p2(12)) == count_grid_p2(12)


@pytest.mark.parametrize("corrupt, message", [
    (lambda d1, d2, d3: (d1[:-1], d2, d3), "first family miscounted"),
    (lambda d1, d2, d3: (d1, d2[:1] + d2[:-1], d3), "second family miscounted"),
    (lambda d1, d2, d3: (d1, d2, d3[:-1] + d1[:1]), "extension families overlap"),
])
def test_ladder_construction_checks_catch_a_broken_family(monkeypatch, corrupt, message):
    real = products._grid_p2_families
    monkeypatch.setattr(products, "_grid_p2_families", lambda n, *ladders: corrupt(*real(n, *ladders)))
    with pytest.raises(AssertionError, match=message):
        _grid_p2_codes(6)


def test_ladder_validation():
    with pytest.raises(InvalidParameterError):
        count_grid_p2(0)
    with pytest.raises(InvalidParameterError):
        generate_grid_p2(-1)


# --- grids via array images ---


def test_grid_count_values():
    assert count_grid_via_arrays(1, 1) == 2
    assert count_grid_via_arrays(1, 2) == 2
    assert count_grid_via_arrays(3, 2) == 16
    assert count_grid_via_arrays(2, 3) == 16
    assert count_grid_via_arrays(3, 3) == 66


def test_grid_count_equals_distinct_pure_python_images():
    """The numpy sweep must agree with a literal image-set construction."""
    for n, m in [(2, 2), (3, 4), (4, 3), (2, 5), (1, 7)]:
        images = {
            min_transform(BinaryArray.from_code(n, m, code)).code
            for code in range(1 << (n * m))
        }
        assert count_grid_via_arrays(n, m) == len(images)
        assert _image_codes(n, m) == sorted(images)


def test_image_codes_are_the_convex_masks():
    for n in range(1, 13):
        for m in range(1, 12 // n + 1):
            g = cartesian_product(make_path(n), make_path(m))
            assert _image_codes(n, m) == all_convex_masks_naive(g), (n, m)


def test_grid_count_matches_brute_force_small():
    for n, m in [(1, 4), (2, 4), (3, 3), (4, 2)]:
        g = cartesian_product(make_path(n), make_path(m))
        assert count_grid_via_arrays(n, m) == count_digitally_convex(g)


def test_grid_count_budget():
    with pytest.raises(BudgetExceededError) as exc:
        count_grid_via_arrays(6, 6)
    assert exc.value.required == 1 << 36
    assert "arrays" in str(exc.value)
    assert count_grid_via_arrays(2, 2, EnumerationBudget(max_subsets=16)) == 6
    with pytest.raises(BudgetExceededError):
        count_grid_via_arrays(2, 2, EnumerationBudget(max_subsets=15))


def test_grid_count_worker_determinism(monkeypatch):
    real_iter = kernels.iter_blocks
    monkeypatch.setattr(
        kernels, "iter_blocks", lambda total, block_size=0: real_iter(total, 1 << 9)
    )
    lone = count_grid_via_arrays(4, 4, EnumerationBudget(workers=1))
    pooled = count_grid_via_arrays(4, 4, EnumerationBudget(workers=4))
    assert lone == pooled


# --- array/set conversions ---


def test_worked_example_maps_to_the_diagonal_set():
    s = set_from_array(WORKED_A_STAR)
    assert set(s.indices()) == {0, 4, 8}
    assert s.universe == 9


def test_set_from_array_rejects_non_images():
    with pytest.raises(NotImageError):
        set_from_array(BinaryArray(((0, 1),)))


def test_array_from_set_round_trips_everything_small():
    for n, m in [(1, 3), (2, 2), (2, 3), (3, 3)]:
        g = cartesian_product(make_path(n), make_path(m))
        for s in enumerate_digitally_convex(g):
            canonical = array_from_set((n, m), s)
            assert min_transform(canonical).code == s.mask
            assert set_from_array(min_transform(canonical)) == s


def test_conversions_accept_exactly_the_convex_masks():
    for n, m in itertools.product(range(1, 4), repeat=2):
        g = cartesian_product(make_path(n), make_path(m))
        for code in range(1 << n * m):
            convex = is_convex_naive(g, [v for v in range(n * m) if code >> v & 1])
            try:
                array_from_set((n, m), VertexSet(n * m, code))
            except NotConvexError:
                assert not convex, (n, m, code)
            else:
                assert convex, (n, m, code)
            try:
                s = set_from_array(BinaryArray.from_code(n, m, code))
            except NotImageError:
                assert not convex, (n, m, code)
            else:
                assert convex and s.mask == code, (n, m, code)


def test_array_from_set_rejects_non_convex():
    with pytest.raises(NotConvexError):
        array_from_set((2, 2), VertexSet(4, 0b0011))


def test_array_set_conversion_validation():
    with pytest.raises(InvalidParameterError):
        array_from_set((2, 2), VertexSet(5))
    with pytest.raises(InvalidParameterError):
        array_from_set((0, 2), VertexSet(0))


# --- maximal independent sets in the 3d slab ---


def test_mis_count_values():
    assert count_mis_grid3(1, 1) == 2
    assert count_mis_grid3(2, 2) == 6
    assert count_mis_grid3(3, 2) == 16
    assert count_mis_grid3(3, 3) == 66


def test_mis_count_matches_naive_filter():
    for n, m in [(1, 1), (1, 2), (2, 2), (3, 1), (1, 5), (3, 2)]:
        slab = cartesian_product(
            cartesian_product(make_path(n), make_path(m)), make_path(2)
        )
        expected = sum(
            1
            for mask in range(1 << slab.order)
            if is_mis_naive(slab, [v for v in range(slab.order) if (mask >> v) & 1])
        )
        assert count_mis_grid3(n, m) == expected


def test_mis_count_budget():
    with pytest.raises(BudgetExceededError) as exc:
        count_mis_grid3(4, 4)
    assert exc.value.required == 1 << 32


def test_mis_count_width_is_checked_before_the_budget(monkeypatch):
    # P_8 x P_4 x P_2 has 64 vertices, beyond the int64 kernels at any budget
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep must not start")

    monkeypatch.setattr(kernels, "scan_blocks", no_sweep)
    with pytest.raises(InvalidParameterError):
        count_mis_grid3(8, 4, EnumerationBudget(max_subsets=1 << 64))


def test_mis_count_validation():
    with pytest.raises(InvalidParameterError):
        count_mis_grid3(0, 3)


# --- grid shapes for the sequence file ---


def test_grid_cells_are_the_shapes_up_to_a_size():
    assert list(_grid_cells(12)) == [(n, m) for n in range(1, 13) for m in range(1, 13) if n * m <= 12]
    assert list(_grid_cells(0)) == []


def test_antidiagonal_index_numbers_the_table_by_antidiagonals():
    # n + m = 2, then 3, ...; n ascending within each antidiagonal
    table = [(n, d - n) for d in range(2, 12) for n in range(1, d)]
    assert [_antidiagonal_index(n, m) for n, m in table] == list(range(1, len(table) + 1))
