"""The bit-sliced block kernels against the per-code definitions, at the
edges of a 64-bit word, of one block and of two, and on spans that hold
the top vertex; the per-sweep convexity plan against the per-block
formula it replaced; the bounded block scheduler; and the chunk walk
against filters of all codes."""

import functools
import itertools
import random

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
    count_digitally_convex,
    count_grid_via_arrays,
    count_mis_grid3,
    digital_convex_hull,
    graph_power,
    make_complete,
    make_cycle,
    make_path,
)
from digicon import cli, products
from digicon.cli import FAMILIES, main
from digicon.convexity import _closure, _convex_codes, _neighborhood_mask
from digicon.products import _closed_codes, _cross_masks, _image_codes
from oracles import (checked_masks, convex_bits_per_block, is_convex_naive, is_mis_naive,
                     random_graph)


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


def _bits(flags: int, size: int) -> list[bool]:
    return [flags >> i & 1 == 1 for i in range(size)]


# 18 is wider than every case, so one span holds all its codes; 4 splits
# them into 16-code blocks, which runs the high-part constants and the MIS
# reject of blocks whose high part is dependent
@pytest.mark.parametrize("span_bits", [18, 4])
@pytest.mark.parametrize("name", sorted(CASES))
def test_flags_match_the_definitions(name, span_bits):
    masks = CASES[name].closed_masks
    convex, mis = [], []
    for lo, hi in kernels.iter_blocks(1 << len(masks), 1 << span_bits):
        convex += kernels.convex_flags(masks, lo, hi).tolist()
        mis += kernels.mis_flags(masks, lo, hi).tolist()
        assert convex[lo:] == _bits(kernels.convex_bits(masks, lo, hi), hi - lo)
        assert mis[lo:] == _bits(kernels.mis_bits(masks, lo, hi), hi - lo)
    assert (convex, mis) == _expected(name)


def test_span_across_a_window_is_refused():
    # a kernel's span is one aligned block of 2^b codes: [8, 24) crosses 16
    masks = cartesian_product(make_path(2), make_path(3)).closed_masks
    for kernel in (kernels.neighborhood_codes, kernels.convex_bits, kernels.mis_bits,
                   kernels.convex_flags, kernels.mis_flags):
        for lo, hi in ((8, 24), (0, 48), (16, 16)):
            with pytest.raises(ValueError, match="not an aligned block"):
                kernel(masks, lo, hi)


def _mis_mask(g, code: int) -> bool:
    return is_mis_naive(g, [v for v in range(g.order) if code >> v & 1])


def _edge_graphs():
    """Graphs of 1..7 vertices, whose one block is shorter than a 64-bit
    word, and of 16 and 17, one full block and two."""
    rng = random.Random(7)
    for order in range(1, 8):
        yield f"path-{order}", make_path(order)
        yield f"random-{order}", random_graph(rng, order, 0.3)
    for order in (16, 17):
        yield f"random-{order}", random_graph(rng, order, 0.3)


EDGE_GRAPHS = dict(_edge_graphs())


@pytest.mark.parametrize("name", EDGE_GRAPHS)
def test_int_kernels_at_word_and_block_edges(name):
    g = EDGE_GRAPHS[name]
    masks = g.closed_masks
    blocks = list(kernels.iter_blocks(1 << g.order))
    assert len(blocks) == max(1, (1 << g.order) // kernels.BLOCK_SIZE)
    for lo, hi in blocks:
        covered = kernels.neighborhood_codes(masks, lo, hi)
        convex = kernels.convex_bits(masks, lo, hi)
        mis = kernels.mis_bits(masks, lo, hi)
        assert max(convex, mis).bit_length() <= hi - lo
        # every code of a small block; past one word, the codes by a block
        # edge and every fifth one
        for i in (i for i in range(hi - lo) if i < 64 or i >= hi - lo - 64 or i % 5 == 0):
            code = lo + i
            assert sum((c >> i & 1) << w for w, c in enumerate(covered)) == \
                _neighborhood_mask(g, code)
            assert convex >> i & 1 == (_closure(g, code) == code)
            assert mis >> i & 1 == _mis_mask(g, code)


# grids of 1..7 cells and of 16 and 17, like _edge_graphs
EDGE_GRIDS = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (1, 5), (5, 1), (2, 3), (3, 2), (1, 7),
              (7, 1), (4, 4), (2, 8), (8, 2), (1, 16), (1, 17), (17, 1)]


@pytest.mark.parametrize("n, m", EDGE_GRIDS)
def test_image_bits_at_word_and_block_edges(n, m):
    # the arrays sweep's flags against the per-code shift transform, the
    # independent oracle for the array theorem
    for lo, hi in kernels.iter_blocks(1 << n * m):
        images = kernels.convex_bits(_cross_masks(n, m), lo, hi)
        assert images.bit_length() <= hi - lo
        assert _bits(images, hi - lo) == [_closed_codes(n, m, c) == c
                                           for c in range(lo, hi)]


def test_cross_masks_are_the_grid_closed_neighbourhoods():
    for n, m in itertools.product(range(1, 9), repeat=2):
        assert _cross_masks(n, m) == cartesian_product(make_path(n), make_path(m)).closed_masks


def test_small_blocks_keep_the_counts(monkeypatch):
    real_iter = kernels.iter_blocks
    monkeypatch.setattr(
        kernels, "iter_blocks", lambda total, block_size=0: real_iter(total, 1 << 7)
    )
    ring = graph_power(make_cycle(12), 2)
    budget = EnumerationBudget()
    assert count_mis_grid3(3, 3, budget) == 66
    assert count_digitally_convex(ring, budget) == 92
    assert count_grid_via_arrays(3, 4, budget) == 244


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
    # every block runs on the calling thread, when it is asked for
    assert calls == [0, 1, 2]


# entry -> (run(wide, budget), its label, CLI arguments reaching it or None).
# A wide run needs codes of more than 62 bits; a narrow one sweeps 2^6 codes.
# The bijection routes sweep nothing (tests/test_cyclic.py has their budget,
# tests/test_products.py the ladder's).
SWEEPS = {
    "_convex_codes": (
        lambda wide, budget: _convex_codes(make_path(63 if wide else 6), budget), "subsets",
        lambda wide: ["enumerate", "--family", "path", "--n", "63" if wide else "6"]),
    "count_digitally_convex": (
        lambda wide, budget: count_digitally_convex(make_path(63 if wide else 6), budget),
        "subsets",
        lambda wide: ["count", "--family", "path", "--n", "63" if wide else "6",
                      "--method", "bruteforce"]),
    # 7 x 9 arrays are 63-bit codes
    "_image_codes": (
        lambda wide, budget: _image_codes(*((7, 9) if wide else (2, 3)), budget), "arrays",
        lambda wide: ["count", "--family", "path-grid", *(("--n", "7", "--m", "9") if wide
                                                           else ("--n", "2", "--m", "3"))]),
    "count_mis_grid3": (
        lambda wide, budget: count_mis_grid3(*((8, 4) if wide else (1, 3)), budget), "subsets",
        None),
    # a slab of 45,000 vertices, whose closed masks alone take over 200 MB
    "count_mis_grid3 150x150": (
        lambda wide, budget: count_mis_grid3(*((150, 150) if wide else (1, 3)), budget),
        "subsets", None),
    "path-grid bruteforce": (
        lambda wide, budget: FAMILIES["path-grid"][1]["bruteforce"][1](
            budget, **({"n": 7, "m": 9} if wide else {"n": 2, "m": 3})), "subsets",
        lambda wide: ["enumerate", "--family", "path-grid", "--method", "bruteforce",
                      *(("--n", "7", "--m", "9") if wide else ("--n", "2", "--m", "3"))]),
}


@pytest.mark.parametrize("entry", SWEEPS)
def test_every_sweep_checks_the_width_then_the_budget_before_any_block(
        monkeypatch, capsys, entry):
    run, what, argv = SWEEPS[entry]

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep must not start")

    def no_build(*args, **kwargs):
        raise AssertionError("a refused sweep must build nothing of its size")

    monkeypatch.setattr(kernels, "scan_blocks", no_sweep)
    # the graphs and cross masks of the routes, wherever they are built
    for module in (cli, products):
        for builder in ("cartesian_product", "make_path"):
            monkeypatch.setattr(module, builder, no_build)
    monkeypatch.setattr(products, "_cross_masks", no_build)
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


def test_a_budget_error_prints_a_count_past_the_digit_cap():
    # str(int) stops at 4300 digits; a refused count can be longer
    text, digits = str(BudgetExceededError(10**5000, 1, what="sets")), "1" + "0" * 5000
    assert text == f"needs {digits} sets but the budget allows 1; rerun with max_subsets >= {digits}"


def test_arrays_are_capped_at_the_swept_bits_like_bruteforce(capsys):
    # 6 x 9 arrays are 54-bit codes: within the width cap, past the budget
    for method in ("arrays", "bruteforce"):
        assert main(["count", "--family", "path-grid", "--n", "6", "--m", "9",
                     "--method", method]) == 3
        out, err = capsys.readouterr()
        assert out == "" and f"rerun with max_subsets >= {1 << 54}" in err


def _greedy_mis(g, first: int) -> int:
    """The bitmask of a maximal independent set holding vertex first."""
    mask = blocked = 0
    for v in [first, *range(g.order)]:
        if not blocked >> v & 1:
            mask |= 1 << v
            blocked |= g.closed_masks[v]
    return mask


@settings(max_examples=30, deadline=None)
@given(width=st.integers(31, 40), seed=st.integers(0, 2 ** 16),
       p=st.sampled_from([0.05, 0.15, 0.4]))
def test_flags_on_spans_holding_the_top_vertex_match_python_ints(width, seed, p):
    # every span holds the top vertex, so its codes sit in the top half of
    # the code space, past 2^30 and 2^32, and its high part is not empty
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
        assert lo & top
        covered = kernels.neighborhood_codes(g.closed_masks, lo, lo + 64)
        assert [sum((c >> i & 1) << w for w, c in enumerate(covered)) for i in range(64)] == \
            [_neighborhood_mask(g, c) for c in span]
        convex = _bits(kernels.convex_bits(g.closed_masks, lo, lo + 64), 64)
        assert convex == [_closure(g, c) == c for c in span]
        assert kernels.convex_flags(g.closed_masks, lo, lo + 64).tolist() == convex
        mis = _bits(kernels.mis_bits(g.closed_masks, lo, lo + 64), 64)
        assert mis == [is_mis_naive(g, [v for v in range(width) if c >> v & 1]) for c in span]
        assert kernels.mis_flags(g.closed_masks, lo, lo + 64).tolist() == mis
        assert {"mis": mis, "convex": convex}[kind][target - lo]


def test_blocks_lie_inside_one_table_window():
    # the planes are a table of 2^16-bit ints: each block is one aligned
    # window of 2^16 codes
    assert kernels.BLOCK_SIZE == 1 << 16
    spans = list(kernels.iter_blocks(1 << 24))
    assert len(spans) == (1 << 24) // kernels.BLOCK_SIZE
    assert all(lo >> 16 == hi - 1 >> 16 for lo, hi in spans)
    assert all(kernels.block(lo, hi)[0] == 16 for lo, hi in spans)
    assert all(p.bit_length() == 1 << 16 for p in kernels.planes(16))


def test_counts_over_several_blocks():
    # 2^20 codes: sixteen blocks
    ring = graph_power(make_cycle(20), 2)
    budget = EnumerationBudget()
    assert count_grid_via_arrays(4, 5, budget) == 8706
    assert count_digitally_convex(ring, budget) == a_count(3, 20)


# --- the per-sweep convexity plan against the per-block formula ---


def _oracle_graphs():
    """Random graphs of 17..20 vertices from sparse to dense, K_5 x K_5
    (every vertex has a high neighbour at every block size), the 4 x 5 and
    5 x 4 grids and C_20^2."""
    rng = random.Random(30)
    for order in range(17, 21):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            yield f"random-{order}-{p}", random_graph(rng, order, p)
    yield "complete-5x5", cartesian_product(make_complete(5), make_complete(5))
    yield "grid-4x5", cartesian_product(make_path(4), make_path(5))
    yield "grid-5x4", cartesian_product(make_path(5), make_path(4))
    yield "cycle-20^2", graph_power(make_cycle(20), 2)


ORACLE_GRAPHS = dict(_oracle_graphs())


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_convex_plan_matches_the_per_block_formula(name):
    # at each block size 2^4..2^16, the first and last block and up to 48
    # more, read in a shuffled order; the sizes are visited in a shuffled
    # order too, so the one cached plan is replaced at almost every size
    masks = ORACLE_GRAPHS[name].closed_masks
    rng = random.Random(name)
    sizes = list(range(4, 17))
    rng.shuffle(sizes)
    for b in sizes:
        count = 1 << len(masks) - b
        picked = {0, count - 1, *rng.sample(range(count), min(count, 48))}
        for k in rng.sample(sorted(picked), len(picked)):
            lo, hi = k << b, k + 1 << b
            assert kernels.convex_bits(masks, lo, hi) == convex_bits_per_block(masks, lo, hi), \
                (name, b, lo)


def test_convex_plan_follows_interleaved_sweeps():
    # two graphs at two block sizes, swept a block of each in turn: the
    # plan cache is switched at every block and each plan rebuilt many times
    sweeps = [(g.closed_masks, b) for g in (ORACLE_GRAPHS["grid-4x5"], ORACLE_GRAPHS["cycle-20^2"])
              for b in (12, 16)]
    counts = [0] * len(sweeps)
    blocks = [kernels.iter_blocks(1 << len(masks), 1 << b) for masks, b in sweeps]
    for spans in itertools.zip_longest(*blocks):
        for i, span in enumerate(spans):
            if span is not None:
                flags = kernels.convex_bits(sweeps[i][0], *span)
                assert flags == convex_bits_per_block(sweeps[i][0], *span), (i, span)
                counts[i] += flags.bit_count()
    assert counts == [8706, 8706, a_count(3, 20), a_count(3, 20)]


# --- the chunk walk, on automata that no route uses ---


def _no_adjacent_ones():
    """One position per step, the top one first: state 1 follows a one."""
    def steps(state, left):
        return [(1, 0, 0)] + ([(1, 1 << left - 1, 1)] if state == 0 else [])

    return steps, [True, True], 0


def _runs_of_three():
    """One run of 3 or more per step, read as a plain (not cyclic) string:
    state b starts a run of b, state 2 the first run, of either bit."""
    def steps(state, left):
        zeros = [(length, 0, 1) for length in range(left, 2, -1)] if state != 1 else []
        ones = [(length, (1 << length) - 1 << left - length, 0)
                for length in range(3, left + 1)] if state != 0 else []
        return zeros + ones  # ascending: 0-runs longest first, 1-runs shortest first

    return steps, [True] * 3, 2


def _runs_at_least_three(n, code):
    return all(len(list(run)) >= 3 for _, run in itertools.groupby(f"{code:0{n}b}"))


@pytest.mark.parametrize("automaton, keep", [
    (_no_adjacent_ones, lambda n, code: code & code >> 1 == 0),
    (_runs_of_three, _runs_at_least_three),
])
def test_walk_chunks_is_the_filter(automaton, keep):
    # every table depth from none to the whole word, steps of one position
    # and of many; the filter ascends, so the stream must too.  One walker's
    # tables serve every walk: a start inside the tables (left <= top) comes
    # first, then the whole word twice, which grows the tables it began
    steps, accepting, state = automaton()
    for n in range(1, 17):
        for top in {0, n // 2, n}:
            walk = kernels.walk_chunks(top, steps, accepting)
            for left in ([top // 2] if top > 1 else []) + [n, n]:
                expected = [code for code in range(1 << left) if keep(left, code)]
                assert checked_masks(walk((left, state, 0))) == expected, (n, top, left)


def test_walk_chunks_builds_a_row_when_first_read_and_keeps_it():
    # the tables may reach 16 positions, but a walk that reads them at
    # left = 3 builds rows 1..3 only, each state's steps asked once; a
    # second read of row 3 builds nothing, and a read of row 5 adds 4 and 5
    steps, accepting, state = _no_adjacent_ones()
    asked = []

    def counted(state, left):
        asked.append(left)
        return steps(state, left)

    walk = kernels.walk_chunks(16, counted, accepting)
    assert asked == []  # nothing is built on the call
    [(prefix, table)] = walk((3, state, 0))
    assert (prefix, table) == (0, [0b000, 0b001, 0b010, 0b100, 0b101])
    assert sorted(asked) == [1, 1, 2, 2, 3, 3]
    [(_, again)] = walk((3, state, 0))
    assert again is table  # the kept row itself, not a copy
    assert len(next(walk((5, state, 0)))[1]) == 13
    assert sorted(asked) == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]


def test_sweep_chunks_are_the_flagged_blocks_under_their_lo():
    # 2^20 codes of C_20^2 in 16 blocks: a chunk (lo, offsets) per block
    # that flags a code, offsets below 2^16, the codes ascending; 5 of the
    # blocks flag none and yield no chunk
    ring = graph_power(make_cycle(20), 2)
    chunks = list(kernels.iter_flagged(20, kernels.convex_bits, lambda: ring.closed_masks, None,
                                       "subsets"))
    flagged = [lo for lo in range(0, 1 << 20, 1 << 16)
               if kernels.convex_bits(ring.closed_masks, lo, lo + (1 << 16))]
    assert [lo for lo, _ in chunks] == flagged and len(flagged) == 11
    assert all(0 <= rest < 1 << 16 for _, offsets in chunks for rest in offsets)
    codes = checked_masks(chunks)
    assert codes == sorted(codes) and len(codes) == a_count(3, 20)
