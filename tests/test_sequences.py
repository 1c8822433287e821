"""Recurrence evaluation, series expansion, and sequence-file comparison."""

import decimal
import json
import tracemalloc
from dataclasses import FrozenInstanceError
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

import digicon.sequences as sequences
from digicon import (
    BfileParseError,
    EmptyOverlapError,
    InvalidParameterError,
    LinearRecurrence,
    PowerSeries,
    compare_with_bfile,
    count_grid_p2,
    eval_recurrence,
    expand_rational,
    parse_bfile,
)
from digicon.sequences import _exact
from digicon.cyclic import _a_recurrence, _q_poly, _series_fraction
from digicon.products import _GRID_P2_RECURRENCE
from oracles import cycle_count_by_lucas, recurrence_terms_naive


# --- recurrence evaluation ---


def test_identity_recurrence_is_constant():
    rec = LinearRecurrence(taps=((1, 1),), initial_terms={0: 7}, first_recurrent_index=1)
    assert eval_recurrence(rec, 0) == 7
    assert eval_recurrence(rec, 100) == 7


def test_three_term_ladder_recurrence():
    rec = LinearRecurrence(
        taps=((1, 1), (2, 3), (3, 2)),
        initial_terms={1: 2, 2: 6, 3: 16},
        first_recurrent_index=4,
    )
    assert eval_recurrence(rec, 4) == 38
    assert eval_recurrence(rec, 5) == 98
    assert eval_recurrence(rec, 6) == 244


def test_recurrence_big_integers_stay_exact():
    fib = LinearRecurrence(
        taps=((1, 1), (2, 1)), initial_terms={0: 0, 1: 1}, first_recurrent_index=2
    )
    f300 = eval_recurrence(fib, 300)
    f299 = eval_recurrence(fib, 299)
    f298 = eval_recurrence(fib, 298)
    assert f300 == f299 + f298
    assert f300 > 10**60


def test_recurrence_rejects_index_below_range():
    rec = LinearRecurrence(taps=((1, 1),), initial_terms={1: 2}, first_recurrent_index=2)
    with pytest.raises(InvalidParameterError):
        eval_recurrence(rec, 0)


def test_recurrence_rejects_gap_in_initials():
    rec = LinearRecurrence(
        taps=((1, 1),), initial_terms={1: 2, 3: 4}, first_recurrent_index=4
    )
    with pytest.raises(InvalidParameterError):
        eval_recurrence(rec, 2)


def test_recurrence_rejects_missing_back_reference():
    rec = LinearRecurrence(
        taps=((3, 1),), initial_terms={1: 1, 2: 1}, first_recurrent_index=3
    )
    with pytest.raises(InvalidParameterError, match="term 3 needs undefined back-reference 0"):
        eval_recurrence(rec, 3)


def test_recurrence_memory_does_not_grow_with_n():
    # a term of count_grid_p2(20000) is 3.3 kB, so keeping every term would take about 35 MB
    tracemalloc.start()
    try:
        count_grid_p2(20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


FIBONACCI = LinearRecurrence(taps=((1, 1), (2, 1)), initial_terms={0: 0, 1: 1},
                             first_recurrent_index=2)
IDENTITY = LinearRecurrence(taps=((1, 1),), initial_terms={0: 7}, first_recurrent_index=1)
TAP_SETS = {
    **{f"blocks>={k}": _a_recurrence(k) for k in range(2, 13)},
    "ladder": _GRID_P2_RECURRENCE,
    "fibonacci": FIBONACCI,
    "identity": IDENTITY,
}


@pytest.mark.parametrize("name", list(TAP_SETS))
def test_doubling_matches_forward_oracle(name):
    rec = TAP_SETS[name]
    terms = recurrence_terms_naive(rec, 2000)
    first = rec.first_recurrent_index
    span = max(off for off, _ in rec.taps)
    window = [terms[first + i] for i in range(span)]
    for n in range(first, 2001):
        coefficients = sequences._x_power_mod(rec.taps, span, n - first)
        assert sum(c * t for c, t in zip(coefficients, window)) == terms[n], n
    # the library's own choice of path, past the initial band and the warm-up
    for n in [*range(min(terms), first + 2 * span), *range(first + 2 * span, 2001, 37)]:
        assert eval_recurrence(rec, n) == terms[n], n


@given(st.data())
def test_doubling_matches_forward_oracle_on_random_recurrences(data):
    """Repeated offsets, zero coefficients and gaps in the taps, and initial
    terms at and past the first recurrent index."""
    taps = tuple(data.draw(st.lists(st.tuples(st.integers(1, 6), st.integers(-3, 3)),
                                    min_size=1, max_size=5)))
    span = max(off for off, _ in taps)
    first = data.draw(st.integers(span, span + 3))
    initial = {i: data.draw(st.integers(-9, 9)) for i in range(first - span, first + 2)}
    rec = LinearRecurrence(taps=taps, initial_terms=initial, first_recurrent_index=first)
    terms = recurrence_terms_naive(rec, 600)
    window = [terms[first + i] for i in range(span)]
    e = data.draw(st.integers(0, 600 - first))
    coefficients = sequences._x_power_mod(rec.taps, span, e)
    assert sum(c * t for c, t in zip(coefficients, window)) == terms[first + e]
    assert eval_recurrence(rec, first + e) == terms[first + e]


def test_cost_rule_doubles_a_short_recurrence_at_large_n(monkeypatch):
    calls = []
    jump = sequences._x_power_mod
    monkeypatch.setattr(sequences, "_x_power_mod", lambda *a: calls.append(a) or jump(*a))
    n = 10**5
    assert eval_recurrence(_a_recurrence(2), n) == cycle_count_by_lucas(n)
    assert calls == [(_a_recurrence(2).taps, 4, n - 5)]


def test_cost_rule_steps_a_wide_recurrence_forward(monkeypatch):
    def refuse(*args):
        raise AssertionError("a span-120 recurrence at n = 5000 should step forward")

    monkeypatch.setattr(sequences, "_x_power_mod", refuse)
    rec = _a_recurrence(60)
    assert eval_recurrence(rec, 5000) == recurrence_terms_naive(rec, 5000)[5000]


def test_recurrence_validation():
    with pytest.raises(InvalidParameterError):
        LinearRecurrence(taps=(), initial_terms={0: 1}, first_recurrent_index=1)
    with pytest.raises(InvalidParameterError):
        LinearRecurrence(taps=((0, 1),), initial_terms={0: 1}, first_recurrent_index=1)
    with pytest.raises(InvalidParameterError):
        LinearRecurrence(taps=((1, 1),), initial_terms={}, first_recurrent_index=1)


def test_recurrence_is_frozen():
    rec = LinearRecurrence(taps=((1, 1),), initial_terms={0: 7}, first_recurrent_index=1)
    with pytest.raises(FrozenInstanceError):
        rec.taps = ((1, 2),)
    with pytest.raises(FrozenInstanceError):
        rec.first_recurrent_index = 5


# --- power series ---


def test_power_series_basics():
    series = PowerSeries((1, 2, 3))
    assert len(series) == 3
    assert series[2] == 3


def test_expand_geometric_series():
    assert tuple(expand_rational([1], [1, -1], 6).coefficients) == (1,) * 7


def test_expand_squared_geometric_counts():
    got = expand_rational([1], [1, -2, 1], 6)
    assert [got[i] for i in range(7)] == [1, 2, 3, 4, 5, 6, 7]


def test_expand_handles_minus_one_constant():
    got = expand_rational([1], [-1, 1], 4)
    assert tuple(got.coefficients) == (-1, -1, -1, -1, -1)


def test_expand_accepts_power_series_input():
    num = PowerSeries((0, 2, -2, 0, 4))
    den = PowerSeries((1, -2, 1, 0, -1))
    got = expand_rational(num, den, 6)
    assert [got[i] for i in range(7)] == [0, 2, 2, 2, 6, 12, 20]


def test_expand_zero_terms_is_the_constant():
    assert tuple(expand_rational([3], [1, -1], 0).coefficients) == (3,)


def test_expand_validation():
    with pytest.raises(InvalidParameterError):
        expand_rational([1], [2], 3)
    with pytest.raises(InvalidParameterError):
        expand_rational([1], [], 3)
    with pytest.raises(InvalidParameterError):
        expand_rational([1], [1, -1], -1)


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    st.lists(st.integers(-9, 9), min_size=0, max_size=5),
    st.sampled_from([1, -1]),
)
def test_expansion_satisfies_the_convolution_identity(num, den_tail, lead):
    """den * expansion == num through the requested order."""
    den = [lead] + den_tail
    series = expand_rational(num, den, 25)
    for i in range(26):
        acc = sum(den[j] * series[i - j] for j in range(min(i, len(den) - 1) + 1))
        expected = num[i] if i < len(num) else 0
        assert acc == expected


@given(st.data())
def test_expansion_matches_recurrence_evaluation(data):
    """A rational series and its companion recurrence give the same terms."""
    offsets = sorted(data.draw(st.sets(st.integers(1, 4), min_size=1, max_size=3)))
    taps = tuple(
        (o, data.draw(st.integers(-3, 3).filter(lambda c: c != 0))) for o in offsets
    )
    depth = max(offsets)
    initials = {i: data.draw(st.integers(-5, 5)) for i in range(depth)}
    rec = LinearRecurrence(taps=taps, initial_terms=initials, first_recurrent_index=depth)
    den = [1] + [0] * depth
    for o, c in taps:
        den[o] -= c
    num = [
        sum(den[j] * initials.get(i - j, 0) for j in range(min(i, depth) + 1))
        for i in range(depth)
    ] or [initials.get(0, 0)]
    series = expand_rational(num, den, 30)
    for n in range(31):
        assert series[n] == eval_recurrence(rec, n)


@given(
    st.lists(st.integers(-99, 99), min_size=0, max_size=6),
    st.lists(st.integers(-9, 9), min_size=0, max_size=5),
    st.sampled_from([1, -1]),
)
def test_long_division_in_exact_decimal_prints_the_integer_expansion(num, den_tail, lead):
    """The same division on Decimal numerators, under a context that traps
    any rounding, gives the ints' strings: no '-0', no exponent."""
    den = [lead] + den_tail
    with decimal.localcontext(_exact()):
        got = [str(c) for c in sequences._long_division(enumerate(map(Decimal, num)),
                                                        enumerate(den), 40)]
    assert got == [str(c) for c in expand_rational(num, den, 40).coefficients]


def test_long_division_checks_on_the_call():
    with pytest.raises(InvalidParameterError, match="terms must be >= 0, got -1"):
        sequences._long_division([(0, 1)], [(0, 1), (1, -1)], -1)
    with pytest.raises(InvalidParameterError, match="constant term"):
        sequences._long_division([(0, 1)], [(0, 2)], 3)
    with pytest.raises(InvalidParameterError, match="constant term"):
        sequences._long_division([(0, 1)], [(1, 1)], 3)


def test_long_division_keeps_a_window_not_the_series():
    # the k = 3 cycle-power series: 20,001 coefficients of up to 3,321
    # digits, about 33 million digits in all, of which the window keeps 6
    num, den = _series_fraction(3)
    terms = sequences._long_division([(i, Decimal(c)) for i, c in num], den, 20000)
    with decimal.localcontext(_exact()):
        tracemalloc.start()
        try:
            for last in terms:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(str(last)) == 3321
    assert peak < 1 << 16


def test_long_division_at_large_k_keeps_a_window_of_terms_not_of_k():
    # Q_k has degree 2k, but only the taps up to x^terms can meet a
    # coefficient already made: the fraction and the division hold a few
    # terms, where dense lists of 2k + 1 coefficients took 322 MB at k = 10^6
    tracemalloc.start()
    try:
        coefficients = list(sequences._long_division(*_series_fraction(10 ** 6), 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coefficients == [0, 2, 2, 2]
    assert peak < 1 << 20


def test_series_fraction_is_the_sparse_form_of_q():
    for k in range(2, 9):
        num, den = _series_fraction(k)
        q = _q_poly(k)
        assert den == [(i, c) for i, c in enumerate(q) if c]
        assert num == [(i, -i * c) for i, c in enumerate(q) if i and c]


# --- b-file parsing ---


def test_parse_bfile_from_lines():
    lines = [
        "# header comment",
        "",
        "1 2",
        "  2 6   ",
        "3 16  # trailing note",
    ]
    assert parse_bfile(lines) == [(1, 2), (2, 6), (3, 16)]


def test_parse_bfile_from_path(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("# c\n1 5\n2 -7\n")
    assert parse_bfile(path) == [(1, 5), (2, -7)]
    assert parse_bfile(str(path)) == [(1, 5), (2, -7)]


def test_parse_bfile_reports_line_numbers():
    with pytest.raises(BfileParseError) as exc:
        parse_bfile(["1 2", "3 x"])
    assert exc.value.line_number == 2
    assert "line 2" in str(exc.value)

    with pytest.raises(BfileParseError) as exc:
        parse_bfile(["1 2 3"])
    assert exc.value.line_number == 1

    with pytest.raises(BfileParseError) as exc:
        parse_bfile(["7"])
    assert exc.value.line_number == 1


@given(st.text(alphabet="0123456789_+- x\u0663\u0967", max_size=12))
def test_a_value_reads_as_int_reads_it(text):
    try:
        expected = int(text)
    except ValueError:
        with pytest.raises(ValueError):
            sequences._exact_int(text)
    else:
        assert sequences._exact_int(text) == expected


@pytest.mark.parametrize("digits", [641, 4301, 5000, 20011])
def test_parse_bfile_reads_values_of_any_length(digits):
    value = (10 ** digits - 1) // 9 * 7  # digits sevens
    text = "7" * digits
    assert parse_bfile([f"1 {text}", f"2 -{text}", f"3 +{text[:-1]}_7"]) == \
        [(1, value), (2, -value), (3, value)]
    for bad in (f"{text}x", f"{text}__7", f"_{text}", f"{text}.0", f"{text}e5"):
        with pytest.raises(BfileParseError, match="line 2: fields must be integers"):
            parse_bfile(["1 2", f"2 {bad}"])


def test_parse_bfile_rejects_duplicate_index():
    with pytest.raises(BfileParseError) as exc:
        parse_bfile(["1 2", "# skip", "1 3"])
    assert exc.value.line_number == 3
    assert "duplicate" in str(exc.value)


# --- comparison reports ---


def test_compare_all_match():
    report = compare_with_bfile([(1, 2), (2, 6)], ["1 2", "2 6"])
    assert report.matched == 2
    assert report.all_match
    assert report.mismatches == []
    assert report.only_left == []
    assert report.only_right == []


def test_compare_single_perturbation():
    values = [(1, 2), (2, 6), (3, 16)]
    report = compare_with_bfile(values, ["1 2", "2 7", "3 16"])
    assert not report.all_match
    assert report.matched == 2
    assert report.mismatches == [(2, 7, 6)]  # index, file value, computed value


def test_compare_tracks_one_sided_indices():
    report = compare_with_bfile([(1, 2), (5, 9)], ["1 2", "8 3"])
    assert report.only_left == [5]
    assert report.only_right == [8]
    assert report.matched == 1


def test_compare_accepts_mapping_values():
    report = compare_with_bfile({1: 2, 2: 6}, ["1 2", "2 6"])
    assert report.all_match


def test_compare_requires_overlap():
    with pytest.raises(EmptyOverlapError):
        compare_with_bfile([(1, 2)], ["9 9"])
    with pytest.raises(EmptyOverlapError):
        compare_with_bfile([(1, 2)], ["# nothing but comments"])


def test_report_serializes_values_of_any_length():
    value = (10 ** 5000 - 1) // 9 * 7
    report = compare_with_bfile([(1, 2), (2, -value)], [f"1 {'7' * 5000}", "2 6"])
    assert json.loads(report.to_json())["mismatches"] == [
        {"index": 1, "expected": "7" * 5000, "found": "2"},
        {"index": 2, "expected": "6", "found": "-" + "7" * 5000}]


def test_report_serializes_counts_as_strings():
    report = compare_with_bfile([(1, 2), (2, 7)], ["1 2", "2 6"])
    doc = json.loads(report.to_json())
    assert doc["matched"] == 1
    assert doc["mismatches"] == [{"index": 2, "expected": "6", "found": "7"}]
