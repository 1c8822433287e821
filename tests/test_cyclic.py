"""Block strings, their counting sequence, and the cycle-power bijection."""

import random
import subprocess
import sys
from itertools import compress

import pytest
from hypothesis import given, settings, strategies as st

from digicon import (
    BudgetExceededError,
    CyclicBinaryString,
    EnumerationBudget,
    InvalidParameterError,
    NotConvexError,
    NotMemberError,
    VertexSet,
    a_count,
    a_series,
    convex_set_from_string,
    count_cycle_power,
    count_digitally_convex,
    cyclic_blocks,
    enumerate_B,
    enumerate_digitally_convex,
    graph_power,
    is_member_B,
    make_cycle,
    string_from_convex_set,
)
from digicon.cyclic import (
    _a_recurrence,
    _block_chunks,
    _blocks_ok,
    _convex_set_chunks,
    _cyclic_runs,
    _dilated,
    _eroded,
    _q_poly,
)
from digicon import cyclic
from digicon.cli import main
from digicon.sequences import eval_recurrence
from oracles import (berkowitz, block_strings_by_bits, checked_masks, dilate_by_rotations,
                     erode_by_rotations, is_convex_naive, reverse_bits, run_length_automaton,
                     walk_traces)


def all_strings(n):
    return [CyclicBinaryString.from_code(n, code) for code in range(1 << n)]


def rotated(s, r):
    n = s.length
    return CyclicBinaryString(tuple(s.bits[(i - r) % n] for i in range(n)))


def _convex_set_codes(k, n, budget=None):
    """The set masks of the bijection stream, flattened and checked;
    budgeted on the call."""
    return checked_masks(_convex_set_chunks(k, n, budget))


# --- string plumbing ---


def test_string_text_code_round_trip():
    s = CyclicBinaryString.from_text("1110001")
    assert str(s) == "1110001"
    assert s.length == 7
    assert s.code == 0b1110001
    assert CyclicBinaryString.from_code(7, s.code) == s


def test_string_validation():
    with pytest.raises(InvalidParameterError):
        CyclicBinaryString.from_text("12")
    with pytest.raises(InvalidParameterError):
        CyclicBinaryString.from_text("")
    with pytest.raises(InvalidParameterError):
        CyclicBinaryString.from_code(3, 9)
    with pytest.raises(InvalidParameterError):
        CyclicBinaryString((0, 2))


# --- block profiles ---


@pytest.mark.parametrize(
    "text,runs",
    [
        ("0000", ((0, 4),)),
        ("1", ((1, 1),)),
        ("0101", ((0, 1), (1, 1), (0, 1), (1, 1))),
        ("1110001", ((1, 4), (0, 3))),
        ("1000001", ((1, 2), (0, 5))),
        ("0111110", ((0, 2), (1, 5))),
    ],
)
def test_block_profiles(text, runs):
    assert cyclic_blocks(CyclicBinaryString.from_text(text)).runs == runs


@pytest.mark.parametrize("n", range(1, 11))
def test_block_profile_invariants(n):
    for s in all_strings(n):
        runs = cyclic_blocks(s).runs
        assert sum(length for _, length in runs) == n
        bits = [b for b, _ in runs]
        for i in range(1, len(bits)):
            assert bits[i] != bits[i - 1]
        if len(bits) > 1:
            # cyclic alternation: the wrap-around pair differs too
            assert bits[0] != bits[-1]
            assert len(bits) % 2 == 0


# --- membership ---


@pytest.mark.parametrize(
    "k,text,member",
    [
        (3, "1110001", True),
        (3, "1111110", False),
        (2, "0101", False),
        (2, "0011", True),
        (5, "000", True),
        (5, "010", False),
        (4, "1111", True),
        (4, "0000", True),
    ],
)
def test_membership_examples(k, text, member):
    assert is_member_B(k, CyclicBinaryString.from_text(text)) == member


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("n", range(1, 11))
def test_membership_agrees_with_block_profile(k, n):
    """Single-pass membership vs the run-profile route.

    Short strings (n < k) only qualify when constant; otherwise every run
    must reach length k.
    """
    for s in all_strings(n):
        runs = cyclic_blocks(s).runs
        if n < k:
            expected = len(runs) == 1
        else:
            expected = all(length >= k for _, length in runs)
        assert is_member_B(k, s) == expected


@pytest.mark.parametrize("n", range(1, 15))
def test_block_test_matches_the_run_definition(n):
    """The opening test, on all 2^n codes as one list, against the run
    decomposition: all runs >= k, or a constant string when n < k, up to
    k = 18, past n."""
    codes = list(range(1 << n))
    runs = [_cyclic_runs(s.bits) for s in all_strings(n)]
    for k in range(2, 19):
        expected = [len(r) == 1 if n < k else all(length >= k for _, _, length in r)
                    for r in runs]
        assert _blocks_ok(k, n, codes) == expected, k


def strings_from_runs(rng, n, k, count):
    """count strings of length n, each as the bits of alternating runs of
    length >= k (n >= 2k), rotated at random; and count near-misses, each
    the same but with one run cut to k - 1 and another made that much
    longer."""
    members, misses = [], []
    for _ in range(count):
        runs = 2 * rng.randint(1, n // (2 * k))
        lengths = [k] * runs
        for _ in range(n - k * runs):
            lengths[rng.randrange(runs)] += 1
        cut, grown = rng.sample(range(runs), 2)
        short = lengths.copy()
        short[grown] += short[cut] - (k - 1)
        short[cut] = k - 1
        first, turn = rng.randint(0, 1), rng.randrange(n)
        for out, runs_of in ((members, lengths), (misses, short)):
            bits = [(first + i) % 2 for i, length in enumerate(runs_of) for _ in range(length)]
            out.append(bits[turn:] + bits[:turn])
    return members, misses


@settings(max_examples=60, deadline=None)
@given(n=st.integers(31, 130), seed=st.integers(0, 1 << 32))
def test_block_test_past_62_bits_matches_the_run_definition(n, seed):
    # strings built from their runs: members, and near-misses with one run
    # too short; the bits are read as codes, position 0 at the top bit
    rng = random.Random(seed)
    k = rng.randint(2, n // 2)
    members, misses = strings_from_runs(rng, n, k, 8)
    strings = members + misses
    expected = [all(length >= k for _, _, length in _cyclic_runs(bits)) for bits in strings]
    assert expected == [True] * 8 + [False] * 8
    codes = [int("".join(map(str, bits)), 2) for bits in strings]
    assert _blocks_ok(k, n, codes) == expected
    assert _blocks_ok(k, n, [0, (1 << n) - 1]) == [True, True]


def test_membership_rejects_small_k():
    with pytest.raises(InvalidParameterError):
        is_member_B(1, CyclicBinaryString.from_text("00"))


def test_members_are_closed_under_rotation():
    for k in (2, 3, 4):
        for n in range(1, 10):
            for s in enumerate_B(k, n):
                assert is_member_B(k, rotated(s, 1))
                assert is_member_B(k, rotated(s, 3))


# --- enumeration ---


@pytest.mark.parametrize("k", range(2, 9))
@pytest.mark.parametrize("n", range(1, 11))
def test_enumeration_is_the_membership_filter(k, n):
    got = [s.code for s in enumerate_B(k, n)]
    expected = [s.code for s in all_strings(n) if is_member_B(k, s)]
    assert got == expected
    assert got == sorted(set(got))


def walked(k, n):
    """The flattened chunks of the run walk: position-ordered ints."""
    return checked_masks(_block_chunks(k, n))


def oracle_revs(k, n):
    return [rev for _, rev in block_strings_by_bits(k, n)]


def test_walk_is_the_block_filter_on_ints():
    # the pruned walk against _blocks_ok over all 2^n codes, which
    # test_block_test_matches_the_run_definition ties to the runs
    for n in range(1, 17):
        codes = range(1 << n)
        for k in range(2, 9):
            assert [reverse_bits(n, rev) for rev in walked(k, n)] == \
                list(compress(codes, _blocks_ok(k, n, list(codes))))
    # past 62 bits, where no filter runs: a_count(k, n) members, ascending
    codes = [reverse_bits(100, rev) for rev in walked(34, 100)]
    assert codes == sorted(set(codes))
    assert len(codes) == a_count(34, 100)
    assert all(_blocks_ok(34, 100, codes))


@pytest.mark.parametrize("k", range(2, 9))
def test_run_walk_is_the_per_bit_walk(k):
    # pair for pair and in order, against the walk that adds one bit at a time
    for n in range(1, 21):
        assert walked(k, n) == oracle_revs(k, n), n


@pytest.mark.parametrize("k, n", [(21, 100), (34, 100), (30, 59), (30, 60), (30, 61), (15, 60),
                                  (15, 61)])
def test_run_walk_at_dense_k_and_past_62_bits_is_the_per_bit_walk(k, n):
    # n = 2k - 1, 2k and 2k + 1, where 29 first runs of each bit are shorter
    # than k and walked as rotations, and n = 4k, where four blocks just fit
    assert walked(k, n) == oracle_revs(k, n)


def test_chunks_are_nonempty_ascending_and_in_order():
    cases = [(k, n) for k in range(2, 9) for n in range(1, 21)] + [(21, 100), (34, 100)]
    for k, n in cases:
        below = -1
        for prefix, table in _block_chunks(k, n):
            codes = [reverse_bits(n, prefix | rest) for rest in table]
            assert codes, (k, n)
            assert codes[0] > below, (k, n)
            assert all(a < b for a, b in zip(codes, codes[1:])), (k, n)
            below = codes[-1]


def test_string_routes_with_k_at_least_n():
    # a rotation must be taken mod n: a shift by k >= n, or by a window of
    # more than n positions (k >= 2n), once went negative.  The set codes
    # are the sweep's masks, and past k = n only the two constant strings
    # have every block >= k
    for n in range(3, 10):
        for k in range(1, 2 * n + 3):
            swept = [s.mask for s in enumerate_digitally_convex(graph_power(make_cycle(n), k))]
            assert sorted(_convex_set_codes(k, n)) == swept, (n, k)
            if k > n:
                assert [s.code for s in enumerate_B(k, n)] == [0, (1 << n) - 1]


@pytest.mark.parametrize("n, ks", [(22, range(1, 23)), (40, (6, 7, 15)), (100, (20, 31, 33)),
                                   (60, (14, 29)), (61, (29,)), (90, (44,)), (200, (90,)),
                                   (201, (99,))])
def test_set_codes_erode_like_the_per_string_map(n, ks):
    # the walk places each block's vertices; the oracle ands in one rotation
    # per j.  Past n = 2k + 1 the first runs shorter than k + 1 are rotations,
    # and the last run of ones merges into the first
    for k in ks:
        expected = [erode_by_rotations(n, k, rev) for _, rev in block_strings_by_bits(k + 1, n)]
        assert list(_convex_set_codes(k, n)) == expected, k


def test_set_codes_run_no_window_pass(monkeypatch):
    def no_pass(*args):
        raise AssertionError("a window pass ran")

    monkeypatch.setattr(cyclic, "_eroded", no_pass)
    monkeypatch.setattr(cyclic, "_dilated", no_pass)
    for k in range(1, 5):
        for n in range(3, 15):
            expected = [erode_by_rotations(n, k, rev) for _, rev in block_strings_by_bits(k + 1, n)]
            assert list(_convex_set_codes(k, n)) == expected, (k, n)


@pytest.mark.parametrize("n", range(3, 13))
def test_window_passes_agree_with_the_per_rotation_oracles(n):
    # every mask, and every k up to 2n + 2, so that the windows wrap mod n
    # and reach past all n positions
    masks = list(range(1 << n))
    for k in range(1, 2 * n + 3):
        assert _eroded(k, n, masks) == [erode_by_rotations(n, k, mask) for mask in masks], k
        assert _dilated(k, n, masks) == [dilate_by_rotations(n, k, mask) for mask in masks], k
        assert _eroded(k, n, []) == _dilated(k, n, []) == []


@pytest.mark.parametrize("k", [20, 31, 33])
def test_window_passes_agree_with_the_oracles_past_62_bits(k):
    n = 100
    rng = random.Random(k)
    sparse = [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(40)]
    dense = [dilate_by_rotations(n, k, mask) for mask in sparse] + [rng.getrandbits(n)
                                                                    for _ in range(40)]
    assert _dilated(k, n, sparse) == dense[:40]
    assert _eroded(k, n, dense) == [erode_by_rotations(n, k, mask) for mask in dense]
    assert any(_eroded(k, n, dense[:40]))  # the windows do find all-one runs


def _fresh_python(script: str) -> str:
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_set_codes_stream_in_bounded_memory():
    # 710,647 sets of C_28 stream through suffix tables of at most 14
    # positions; the traced peak stays far below the stream's size
    peak = int(_fresh_python(
        "import tracemalloc\n"
        "from collections import deque\n"
        "from digicon._kernels import chunk_masks\n"
        "from digicon.cyclic import _convex_set_chunks\n"
        "tracemalloc.start()\n"
        "deque(chunk_masks(_convex_set_chunks(1, 28)), 0)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"))
    assert peak < 2_000_000, peak


def test_dense_k_walk_streams_in_bounded_memory():
    # 49,502 strings of 500 positions, every block >= 201: the tables of
    # 250 positions, 4 states each, take about 0.3 MiB traced (7.4 MiB
    # when the states held the first run's length)
    peak = int(_fresh_python(
        "import tracemalloc\n"
        "from collections import deque\n"
        "from digicon.cyclic import _block_chunks\n"
        "tracemalloc.start()\n"
        "deque(_block_chunks(201, 500), 0)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"))
    assert peak < 2_000_000, peak


@pytest.mark.parametrize("k", [1999, 1499])
def test_dense_k_first_mask_builds_only_the_rows_it_reads(k):
    # every block >= k + 1 of 6000 positions: the first string's first run
    # leaves k + 1 positions, so its walk reads the tables there and builds
    # no deeper row (tabulating every row up to 6000 - 2(k + 1) before the
    # first mask took 2.8 MiB traced at k = 1999, and about 3 s and 658 MB
    # max RSS at k = 1499)
    peak = int(_fresh_python(
        "import tracemalloc\n"
        "from digicon._kernels import chunk_masks\n"
        "from digicon.cyclic import _convex_set_chunks\n"
        "tracemalloc.start()\n"
        f"next(chunk_masks(_convex_set_chunks({k}, 6000)))\n"
        "print(tracemalloc.get_traced_memory()[1])\n"))
    assert peak < 4 << 20, peak


def test_cycle_power_work_is_bounded_by_n_not_k():
    # at n = 5 only the two constant strings have every block >= k + 1, and
    # neither the count nor the walk's tables may grow with k (at k = 10^5
    # they once took about 167 MB)
    peaks = _fresh_python(
        "import tracemalloc\n"
        "from collections import deque\n"
        "from digicon._kernels import chunk_masks\n"
        "from digicon.cyclic import _convex_set_chunks, count_cycle_power, enumerate_B\n"
        "tracemalloc.start()\n"
        "for run in (lambda: count_cycle_power(10**5, 5),\n"
        "            lambda: deque(chunk_masks(_convex_set_chunks(10**5, 5)), 0),\n"
        "            lambda: deque(enumerate_B(10**5, 5), 0)):\n"
        "    tracemalloc.reset_peak()\n"
        "    run()\n"
        "    print(tracemalloc.get_traced_memory()[1])\n")
    assert all(int(peak) < 1_000_000 for peak in peaks.split()), peaks
    assert count_cycle_power(10**5, 5) == 2
    assert list(_convex_set_codes(10**5, 5)) == [0, 31]
    assert [str(s) for s in enumerate_B(10**5, 5)] == ["00000", "11111"]


def test_walks_leave_no_garbage_for_the_cycle_collector():
    # with the collector off, what a walk allocates is freed only by
    # reference counts: tables caught in a reference cycle would stay
    held = int(_fresh_python(
        "import gc, tracemalloc\n"
        "from collections import deque\n"
        "from digicon.cyclic import _block_chunks, _convex_set_chunks\n"
        "gc.disable()\n"
        "tracemalloc.start()\n"
        "for k in range(2, 6):\n"
        "    for n in range(1, 15):\n"
        "        deque(_block_chunks(k, n), 0)\n"
        "        if n >= 3:\n"
        "            deque(_convex_set_chunks(k - 1, n), 0)\n"
        "print(tracemalloc.get_traced_memory()[0])\n"))
    assert held < 64 * 1024, held


def test_enumeration_counts_match_recurrence_small():
    for k in (2, 3, 4):
        for n in range(1, 13):
            assert sum(1 for _ in enumerate_B(k, n)) == a_count(k, n)


def test_enumeration_budget():
    # the budget caps the a_count(2, 5) = 12 members, not the 2^5 codes;
    # enumerate_B checks it on the first item, _convex_set_chunks on the call
    members = enumerate_B(2, 5, EnumerationBudget(max_subsets=11))
    with pytest.raises(BudgetExceededError) as exc:
        next(members)
    assert (exc.value.required, exc.value.limit) == (12, 11)
    assert "needs 12 strings " in str(exc.value)
    with pytest.raises(BudgetExceededError, match="needs 12 strings "):
        _convex_set_codes(1, 5, EnumerationBudget(max_subsets=11))
    assert len(list(enumerate_B(2, 5, EnumerationBudget(max_subsets=12)))) == 12
    assert len(list(_convex_set_codes(1, 5, EnumerationBudget(max_subsets=12)))) == 12


# route -> all its items for the strings of length n with blocks >= k
STRING_ROUTES = {
    "enumerate_B": lambda k, n, budget: [s.code for s in enumerate_B(k, n, budget)],
    "_convex_set_codes": lambda k, n, budget: list(_convex_set_codes(k - 1, n, budget)),
}


@pytest.mark.parametrize("route", STRING_ROUTES)
def test_string_routes_are_budgeted_by_their_exact_count(route):
    # the budget is checked against a_count(k, n), and no code width caps
    # the walk: 63 and 100 positions run like 6
    run = STRING_ROUTES[route]
    for k, n in ((2, 6), (21, 63), (34, 100)):
        count = a_count(k, n)
        with pytest.raises(BudgetExceededError) as exc:
            run(k, n, EnumerationBudget(max_subsets=count - 1))
        assert (exc.value.required, exc.value.limit) == (count, count - 1)
        assert len(run(k, n, EnumerationBudget(max_subsets=count))) == count


# --- the counting sequence ---


def test_count_initial_window(monkeypatch):
    # below the first interesting length everything is the two constants,
    # and below 4k the constants and the strings of two blocks: a_count
    # gives both with no recurrence, and the recurrence agrees
    for k in range(2, 40):
        terms = _a_recurrence(k)
        for i in range(1, 2 * k):
            assert a_count(k, i) == eval_recurrence(terms, i) == 2, (k, i)
        for j in range(2 * k, 4 * k):
            assert a_count(k, j) == eval_recurrence(terms, j) == 2 + j * (j - 2 * k + 1), (k, j)
        # four blocks fit from 4k on, so the two-block count falls short there
        assert a_count(k, 4 * k) > 2 + 4 * k * (2 * k + 1)
    # the sum over block counts against the recurrence, on both sides of
    # the switch to the recurrence at n = 2k(2k + 1), where n // 2k > 2k
    for k, ns in ((2, range(12, 40)), (3, range(30, 60)), (5, (100, 109, 110, 130))):
        terms = _a_recurrence(k)
        assert [a_count(k, n) for n in ns] == [eval_recurrence(terms, n) for n in ns], k
    # the sum is answered without building the order-2k recurrence
    monkeypatch.setattr(cyclic, "_a_recurrence", None)
    assert a_count(1_000_001, 2_100_000) == count_cycle_power(1_000_000, 2_100_000) == 209997900002
    assert a_count(1_000_001, 4_000_004) == count_cycle_power(1_000_000, 4_000_004) == 8000022000016


def test_count_known_values():
    assert [a_count(2, n) for n in range(1, 12)] == [
        2, 2, 2, 6, 12, 20, 30, 46, 74, 122, 200,
    ]
    assert a_count(3, 7) == 16


def test_count_satisfies_its_recurrence():
    for k in (2, 3, 4):
        for n in range(2 * k + 3, 41):
            assert a_count(k, n) == (
                2 * a_count(k, n - 1) - a_count(k, n - 2) + a_count(k, n - 2 * k)
            )


def test_count_validation():
    with pytest.raises(InvalidParameterError):
        a_count(1, 5)
    with pytest.raises(InvalidParameterError):
        a_count(2, 0)


def test_series_prefix_matches_counts():
    series = a_series(2, 11)
    assert series[0] == 0
    assert [series[n] for n in range(1, 12)] == [a_count(2, n) for n in range(1, 12)]
    assert len(series) == 12


@pytest.mark.parametrize("k", range(2, 13))
def test_recurrence_is_certified_by_the_run_length_automaton(k):
    """det(I - x A_k) is the paper's denominator, its power sums are the
    counts, and the recurrence, its initial terms and the series all come
    from that one polynomial."""
    automaton = run_length_automaton(k)
    paper = [1, -2, 1] + [0] * (2 * k - 3) + [-1]
    dense = [0] * (2 * k + 1)
    for i, c in _q_poly(k):
        dense[i] += c
    assert berkowitz(automaton) == paper == dense
    traces = walk_traces(automaton, 39)
    assert [a_count(k, n) for n in range(1, 40)] == traces[1:]
    rec = _a_recurrence(k)
    assert rec.first_recurrent_index == 2 * k + 1
    assert rec.initial_terms == {n: traces[n] for n in range(1, 2 * k + 1)}
    assert rec.taps == ((1, 2), (2, -1), (2 * k, 1))
    assert a_series(k, 39).coefficients == (0, *traces[1:])


def test_series_validation():
    with pytest.raises(InvalidParameterError):
        a_series(1, 10)
    with pytest.raises(InvalidParameterError):
        a_series(2, -1)


# --- bijection with cycle powers ---


def test_worked_bijection_example():
    """S = {v1, v7} in the squared 7-cycle maps to 1110001 and back."""
    s = VertexSet.from_indices(7, [0, 6])
    image = string_from_convex_set(2, 7, s)
    assert str(image) == "1110001"
    assert cyclic_blocks(image).runs == ((1, 4), (0, 3))
    assert convex_set_from_string(2, 7, image) == s


def test_bijection_constants():
    assert str(string_from_convex_set(2, 7, VertexSet(7))) == "0000000"
    assert str(string_from_convex_set(2, 7, VertexSet.full(7))) == "1111111"
    assert convex_set_from_string(2, 7, CyclicBinaryString.from_text("0" * 7)) == VertexSet(7)
    assert convex_set_from_string(2, 7, CyclicBinaryString.from_text("1" * 7)) == VertexSet.full(7)


def test_bijection_rejects_non_convex_set():
    with pytest.raises(NotConvexError):
        string_from_convex_set(2, 7, VertexSet.from_indices(7, [0, 3]))


def test_bijection_rejects_non_member_string():
    with pytest.raises(NotMemberError):
        convex_set_from_string(2, 7, CyclicBinaryString.from_text("0101010"))


def test_bijection_validation():
    with pytest.raises(InvalidParameterError):
        string_from_convex_set(0, 7, VertexSet(7))
    with pytest.raises(InvalidParameterError):
        string_from_convex_set(2, 2, VertexSet(2))
    with pytest.raises(InvalidParameterError):
        # string length must agree with n
        convex_set_from_string(2, 8, CyclicBinaryString.from_text("1111111"))


def test_bijection_round_trips_and_image():
    for k in (1, 2):
        for n in range(3, 12):
            g = graph_power(make_cycle(n), k)
            family = {s.code for s in enumerate_B(k + 1, n)}
            seen = set()
            for s in enumerate_digitally_convex(g):
                w = string_from_convex_set(k, n, s)
                assert convex_set_from_string(k, n, w) == s
                seen.add(w.code)
            assert seen == family  # surjective, and injective by cardinality
            for w in enumerate_B(k + 1, n):
                back = convex_set_from_string(k, n, w)
                assert string_from_convex_set(k, n, back) == w


def test_string_maps_keep_their_input_lists():
    n, k = 11, 2
    codes = list(range(1 << n))
    assert _eroded(k, n, codes) == [erode_by_rotations(n, k, c) for c in codes]
    _dilated(k, n, codes)
    _blocks_ok(k + 1, n, codes)
    assert codes == list(range(1 << n))


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([31, 32, 33]), k=st.integers(1, 6), back=st.integers(1, 1 << 24))
def test_string_maps_near_the_top_code_agree_with_the_oracles(n, k, back):
    # 64 codes of 31 to 33 positions, the span near the top
    lo = (1 << n) - 64 * back
    span = list(range(lo, lo + 64))
    runs = [_cyclic_runs(CyclicBinaryString.from_code(n, c).bits) for c in span]
    members = [all(length >= k + 1 for _, _, length in r) for r in runs]
    assert _blocks_ok(k + 1, n, span) == members
    assert _eroded(k, n, span) == [erode_by_rotations(n, k, c) for c in span]


def test_set_codes_are_the_bijection():
    for k in (1, 2, 3):
        for n in range(3, 13):
            expected = [convex_set_from_string(k, n, w).mask for w in enumerate_B(k + 1, n)]
            assert list(_convex_set_codes(k, n, EnumerationBudget())) == expected


def test_bijection_streams_are_the_same_for_any_workers(capsys):
    # the walk runs no blocks, so --workers changes nothing
    argv = ["enumerate", "--family", "cycle-power", "--n", "20", "--k", "1",
            "--method", "bijection", "--format", "plain"]
    outs = []
    for workers in (1, 2, 8):
        assert main([*argv, "--workers", str(workers)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0].count("\n") == a_count(2, 20)
    assert outs[1] == outs[0] and outs[2] == outs[0]
    strings = [s.code for s in enumerate_B(3, 12, EnumerationBudget())]
    assert strings == sorted(strings) and len(strings) == a_count(3, 12) == 92


def test_bijection_commutes_with_rotation():
    """Relabelling the cycle by +1 rotates the image string by +1."""
    for k in (1, 2):
        for n in range(3, 10):
            g = graph_power(make_cycle(n), k)
            for s in enumerate_digitally_convex(g):
                shifted = VertexSet.from_indices(n, [(v + 1) % n for v in s])
                assert is_digitally_convex_via_string(k, n, shifted)
                assert string_from_convex_set(k, n, shifted) == rotated(
                    string_from_convex_set(k, n, s), 1
                )


def test_string_side_convexity_test_matches_the_graph():
    """The string-side test accepts exactly the convex sets, also for
    n <= 2k+1, where C_n^k is complete and only the empty and full sets are."""
    for k in (1, 2, 3, 4):
        for n in range(3, 11):
            g = graph_power(make_cycle(n), k)
            for mask in range(1 << n):
                s = VertexSet(n, mask)
                assert is_digitally_convex_via_string(k, n, s) == is_convex_naive(g, s.indices())


def is_digitally_convex_via_string(k, n, s):
    try:
        string_from_convex_set(k, n, s)
        return True
    except NotConvexError:
        return False


# --- cycle power counts ---


def test_cycle_power_count_examples():
    assert count_cycle_power(1, 3) == 2
    assert count_cycle_power(1, 10) == 122
    assert count_cycle_power(2, 5) == 2
    assert count_cycle_power(2, 7) == 16


def test_cycle_power_count_is_shifted_string_count():
    for k in (1, 2, 3, 4):
        for n in range(3, 25):
            assert count_cycle_power(k, n) == a_count(k + 1, n)


def test_cycle_power_count_matches_brute_force():
    for k in (1, 2, 3):
        for n in range(3, 13):
            g = graph_power(make_cycle(n), k)
            assert count_cycle_power(k, n) == count_digitally_convex(g)


def test_cycle_power_count_validation():
    with pytest.raises(InvalidParameterError):
        count_cycle_power(0, 5)
    with pytest.raises(InvalidParameterError):
        count_cycle_power(1, 2)
