"""The table-driven subset kernels against the definitions, at both code
dtypes, and the bounded block scheduler."""

import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import digicon._kernels as kernels
from digicon import (
    BudgetExceededError,
    EnumerationBudget,
    InvalidParameterError,
    VertexSet,
    a_count,
    cartesian_product,
    cli,
    count_digitally_convex,
    count_grid_via_arrays,
    count_mis_grid3,
    digital_convex_hull,
    enumerate_B,
    graph_power,
    make_complete,
    make_cycle,
    make_path,
)
from digicon.cli import main
from digicon.convexity import _closure, _convex_codes, _neighborhood_mask
from digicon.products import _image_codes
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


# entry -> (run(wide, budget), its label, CLI arguments reaching it or None).
# A wide run needs codes of more than 62 bits; a narrow one sweeps 2^6 codes.
# The bijection routes sweep nothing (tests/test_cyclic.py has their budget).
SWEEPS = {
    "_convex_codes": (
        lambda wide, budget: _convex_codes(make_path(63 if wide else 6), budget), "subsets",
        lambda wide: ["enumerate", "--family", "path", "--n", "63" if wide else "6"]),
    "count_digitally_convex": (
        lambda wide, budget: count_digitally_convex(make_path(63 if wide else 6), budget),
        "subsets",
        lambda wide: ["count", "--family", "path", "--n", "63" if wide else "6",
                      "--method", "bruteforce"]),
    # 6 x 9 arrays are 54-bit codes, but shifting one by a row needs 63 bits
    "_image_codes": (
        lambda wide, budget: _image_codes(*((6, 9) if wide else (2, 3)), budget), "arrays",
        lambda wide: ["count", "--family", "path-grid", *(("--n", "6", "--m", "9") if wide
                                                           else ("--n", "2", "--m", "3"))]),
    "count_mis_grid3": (
        lambda wide, budget: count_mis_grid3(*((8, 4) if wide else (1, 3)), budget), "subsets",
        None),
}


@pytest.mark.parametrize("entry", SWEEPS)
def test_every_sweep_checks_the_width_then_the_budget_before_any_block(
        monkeypatch, capsys, entry):
    run, what, argv = SWEEPS[entry]

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep must not start")

    monkeypatch.setattr(kernels, "scan_blocks", no_sweep)
    for budget in (None, EnumerationBudget(max_subsets=1 << 64)):
        with pytest.raises(InvalidParameterError, match="at most 62-bit codes"):
            run(True, budget)
    with pytest.raises(BudgetExceededError, match=f"needs 64 {what} ") as exc:
        run(False, EnumerationBudget(max_subsets=63))
    assert (exc.value.required, exc.value.limit) == (64, 63)
    if argv is None:
        return
    # through the CLI: no budget makes the wide sweep run, so it is a usage
    # error that asks for no rerun
    for extra in ((), ("--max-subsets", str(1 << 64))):
        assert main([*argv(True), *extra]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "62" in err and "rerun" not in err
    assert main([*argv(False), "--max-subsets", "63"]) == 3
    assert "rerun with max_subsets >= 64" in capsys.readouterr().err


def _greedy_mis(g, first: int) -> int:
    """The bitmask of a maximal independent set holding vertex first."""
    mask = blocked = 0
    for v in [first, *range(g.order)]:
        if not blocked >> v & 1:
            mask |= 1 << v
            blocked |= g.closed_masks[v]
    return mask


@settings(max_examples=30, deadline=None)
@given(width=st.sampled_from([31, 32, 33]), seed=st.integers(0, 2 ** 16),
       p=st.sampled_from([0.05, 0.15, 0.4]))
def test_flags_at_the_dtype_boundary_match_python_ints(width, seed, p):
    # widths 31 and 32 run on uint32 codes, 33 on int64; every span holds
    # the top vertex, so its codes sit in the top half of the code space
    rng = random.Random(seed)
    g = random_graph(rng, width, p)
    top = 1 << width - 1
    seed_set = VertexSet(width, top | rng.getrandbits(width) & rng.getrandbits(width))
    # each span holds a set the flags must mark: an MIS, a hull, the full set
    targets = ((_greedy_mis(g, width - 1), "mis"), (digital_convex_hull(g, seed_set).mask, "convex"),
               ((1 << width) - 1, "convex"))
    for target, kind in targets:
        lo = target & ~63
        span = range(lo, lo + 64)
        ids, ns = kernels.neighborhood_codes(g.closed_masks, lo, lo + 64)
        assert ids.dtype == ns.dtype == kernels.code_dtype(width)
        assert ids.dtype == (np.uint32 if width <= 32 else np.int64)
        assert ids.tolist() == list(span)
        assert ns.tolist() == [_neighborhood_mask(g, c) for c in span]
        convex = kernels.convex_flags(g.closed_masks, lo, lo + 64).tolist()
        assert convex == [_closure(g, c) == c for c in span]
        mis = kernels.mis_flags(g.closed_masks, lo, lo + 64).tolist()
        assert mis == [is_mis_naive(g, [v for v in range(width) if c >> v & 1]) for c in span]
        assert {"mis": mis, "convex": convex}[kind][target - lo]


def test_blocks_lie_inside_one_table_window():
    assert kernels.BLOCK_SIZE < 1 << kernels.TABLE_BITS
    spans = list(kernels.iter_blocks(1 << 24))
    assert len(spans) == (1 << 24) // kernels.BLOCK_SIZE
    assert all(lo >> kernels.TABLE_BITS == hi - 1 >> kernels.TABLE_BITS for lo, hi in spans)


def test_counts_and_streams_over_blocks_smaller_than_a_window(capsys):
    # 2^20 codes: sixteen blocks over four table windows
    ring = graph_power(make_cycle(20), 2)
    argv = ["enumerate", "--family", "cycle-power", "--n", "20", "--k", "1",
            "--method", "bijection", "--format", "plain"]
    runs = []
    for workers in (1, 2, 8):
        budget = EnumerationBudget(workers=workers)
        assert cli.main([*argv, "--workers", str(workers)]) == 0
        runs.append((count_grid_via_arrays(4, 5, budget), count_digitally_convex(ring, budget),
                     capsys.readouterr().out))
    assert runs[0][:2] == (8706, a_count(3, 20))
    assert runs[0][2].count("\n") == a_count(2, 20)
    assert runs[1] == runs[0] and runs[2] == runs[0]
