"""The table-driven subset kernels against the definitions, and the bounded
block scheduler."""

import functools
import itertools
import random

import pytest

import digicon._kernels as kernels
from digicon import (
    EnumerationBudget,
    a_count,
    cartesian_product,
    count_digitally_convex,
    count_grid_via_arrays,
    count_mis_grid3,
    enumerate_B,
    graph_power,
    make_complete,
    make_cycle,
    make_path,
)
from oracles import is_convex_naive, is_mis_naive, random_graph


def _cases():
    for n, m in itertools.product(range(1, 4), range(1, 5)):
        yield f"grid-{n}x{m}", cartesian_product(make_path(n), make_path(m))
    for n, k in itertools.product(range(3, 11), range(1, 4)):
        yield f"cycle-{n}^{k}", graph_power(make_cycle(n), k)
    for n, m in itertools.product(range(1, 4), repeat=2):
        yield f"complete-{n}x{m}", cartesian_product(make_complete(n), make_complete(m))
    rng = random.Random(5)
    for i in range(6):
        yield f"random-{i}", random_graph(rng, rng.randint(1, 10))


CASES = dict(_cases())


@functools.lru_cache(maxsize=None)
def _expected(name):
    g = CASES[name]
    members = [[v for v in range(g.order) if code >> v & 1] for code in range(1 << g.order)]
    return ([is_convex_naive(g, s) for s in members],
            [is_mis_naive(g, s) for s in members])


@pytest.fixture
def fresh_tables():
    kernels._tables.cache_clear()
    yield
    kernels._tables.cache_clear()


@pytest.mark.parametrize("window_bits", [kernels.TABLE_BITS, 4])
@pytest.mark.parametrize("name", sorted(CASES))
def test_flags_match_the_definitions(monkeypatch, fresh_tables, name, window_bits):
    # a 4-bit window with 16-code spans runs the high-part constants and
    # the MIS reject of blocks whose high part is dependent
    monkeypatch.setattr(kernels, "TABLE_BITS", window_bits)
    masks = CASES[name].closed_masks
    convex, mis = [], []
    for lo, hi in kernels.iter_blocks(1 << len(masks), 1 << window_bits):
        convex += kernels.convex_flags(masks, lo, hi).tolist()
        mis += kernels.mis_flags(masks, lo, hi).tolist()
    assert (convex, mis) == _expected(name)


def test_span_across_a_window_is_refused(monkeypatch, fresh_tables):
    monkeypatch.setattr(kernels, "TABLE_BITS", 4)
    masks = cartesian_product(make_path(2), make_path(3)).closed_masks
    for kernel in (kernels.neighborhood_codes, kernels.convex_flags, kernels.mis_flags):
        with pytest.raises(ValueError, match="crosses a window"):
            kernel(masks, 8, 24)


def test_small_blocks_and_workers_keep_the_counts(monkeypatch):
    real_iter = kernels.iter_blocks
    monkeypatch.setattr(
        kernels, "iter_blocks", lambda total, block_size=0: real_iter(total, 1 << 7)
    )
    ring = graph_power(make_cycle(12), 2)
    for workers in (1, 4):
        budget = EnumerationBudget(workers=workers)
        assert count_mis_grid3(3, 3, budget) == 66
        assert count_digitally_convex(ring, budget) == 92
        assert count_grid_via_arrays(3, 4, budget) == 244
        strings = [s.code for s in enumerate_B(3, 12, budget)]
        assert strings == sorted(strings) and len(strings) == a_count(3, 12) == 92


def test_scan_runs_a_bounded_window_ahead(monkeypatch):
    monkeypatch.setattr(
        kernels, "iter_blocks",
        lambda total, block_size=0: ((i, i + 1) for i in range(10 ** 6)),
    )
    calls = []

    def block_fn(lo, hi):
        calls.append(lo)
        return lo

    stream = kernels.scan_blocks(10 ** 6, block_fn, workers=2)
    assert list(itertools.islice(stream, 3)) == [0, 1, 2]
    stream.close()
    assert len(calls) <= 3 + 2 * 2
