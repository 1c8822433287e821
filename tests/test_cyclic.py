"""Block strings, their counting sequence, and the cycle-power bijection."""

import numpy as np
import pytest

import digicon._kernels as kernels
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
    _blocks_ok,
    _convex_set_codes,
    _cyclic_runs,
    _erode,
    _q_poly,
    _reverse,
)
from oracles import berkowitz, is_convex_naive, run_length_automaton, walk_traces


def all_strings(n):
    return [CyclicBinaryString.from_code(n, code) for code in range(1 << n)]


def rotated(s, r):
    n = s.length
    return CyclicBinaryString(tuple(s.bits[(i - r) % n] for i in range(n)))


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


@pytest.mark.parametrize("n", range(1, 13))
def test_block_test_matches_the_run_definition(n):
    """The rotation test, on one int and on an int64 array, against the
    run decomposition: all runs >= k, or a constant string when n < k."""
    codes = np.arange(1 << n, dtype=np.int64)
    runs = [_cyclic_runs(s.bits) for s in all_strings(n)]
    for k in range(2, 9):
        expected = [len(r) == 1 if n < k else all(length >= k for _, _, length in r)
                    for r in runs]
        assert [_blocks_ok(n, k, code) for code in range(1 << n)] == expected
        assert _blocks_ok(n, k, codes).tolist() == expected


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


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("n", range(1, 11))
def test_enumeration_is_the_membership_filter(k, n):
    got = [s.code for s in enumerate_B(k, n)]
    expected = [s.code for s in all_strings(n) if is_member_B(k, s)]
    assert got == expected
    assert got == sorted(set(got))


def test_enumeration_counts_match_recurrence_small():
    for k in (2, 3, 4):
        for n in range(1, 13):
            assert sum(1 for _ in enumerate_B(k, n)) == a_count(k, n)


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError) as exc:
        list(enumerate_B(2, 5, EnumerationBudget(max_subsets=16)))
    assert exc.value.required == 32
    assert "strings" in str(exc.value)
    assert len(list(enumerate_B(2, 5, EnumerationBudget(max_subsets=32)))) == 12


def test_string_sweep_wider_than_62_bits_is_a_parameter_error(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep must not start")

    monkeypatch.setattr(kernels, "scan_blocks", no_sweep)
    with pytest.raises(InvalidParameterError):
        next(enumerate_B(2, 63, EnumerationBudget(max_subsets=1 << 63)))


# --- the counting sequence ---


def test_count_initial_window():
    # below the first interesting length everything is the two constants
    for k in (2, 3, 4, 5, 6):
        for i in range(1, 2 * k):
            assert a_count(k, i) == 2, (k, i)
    # the three seeded values beyond the constant window
    for k in (2, 3, 4, 5):
        for j in (2 * k, 2 * k + 1, 2 * k + 2):
            assert a_count(k, j) == 2 + j * (j - 2 * k + 1), (k, j)


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
    assert berkowitz(automaton) == paper == _q_poly(k)
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


def test_string_maps_on_arrays_agree_with_ints_and_keep_their_input():
    n, k = 11, 2
    codes = np.arange(1 << n, dtype=np.int64)
    before = codes.copy()
    assert _reverse(n, codes).tolist() == [int(f"{c:0{n}b}"[::-1], 2) for c in range(1 << n)]
    assert _erode(n, k, codes).tolist() == [_erode(n, k, c) for c in range(1 << n)]
    assert (codes == before).all()


def test_set_codes_are_the_bijection_over_several_blocks(monkeypatch):
    real_iter = kernels.iter_blocks
    monkeypatch.setattr(kernels, "iter_blocks", lambda total, block_size=0: real_iter(total, 1 << 5))
    for k in (1, 2, 3):
        for n in range(3, 13):
            expected = [convex_set_from_string(k, n, w).mask for w in enumerate_B(k + 1, n)]
            for workers in (1, 3):
                assert list(_convex_set_codes(k, n, EnumerationBudget(workers=workers))) == expected


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
