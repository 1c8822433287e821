"""Command-line behaviour: formats, exit codes, budgets, determinism."""

import bisect
import decimal
import gc
import itertools
import json
import os
import random
import re
import subprocess
import sys
import weakref
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

import digicon
import digicon._kernels as kernels
import digicon.convexity as convexity
import digicon.products as products
import digicon.sequences as sequences
from digicon import (
    CyclicBinaryString,
    EnumerationBudget,
    VertexSet,
    a_count,
    a_series,
    cartesian_product,
    cli,
    convex_set_from_string,
    count_cycle_power,
    count_grid_p2,
    count_grid_via_arrays,
    enumerate_B,
    enumerate_digitally_convex,
    generate_grid_p2,
    graph_power,
    make_complete,
    make_cycle,
    make_path,
    set_to_json,
)
from digicon._kernels import chunk_masks
from digicon.cli import FAMILIES, main
from oracles import checked_masks, cycle_count_by_lucas


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- count ---


@pytest.mark.parametrize("argv", [
    ("--family", "cycle", "--n", "10"),
    # a value after "=", flags in any order, and a repeated flag's last value
    ("--family=cycle", "--n=10"),
    ("--n", "10", "--family", "cycle"),
    ("--family", "cycle", "--n", "5", "--n", "10"),
    ("--family", "cycle", "--n", "1_000", "--n=10"),
])
def test_count_cycle_recurrence(capsys, argv):
    assert run_cli(capsys, "count", *argv) == (0, "122\n", "")


def test_count_methods_agree_for_grids(capsys):
    outputs = set()
    for method in ("bruteforce", "arrays"):
        code, out, _ = run_cli(
            capsys, "count", "--family", "path-grid", "--n", "4", "--m", "3",
            "--method", method,
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_count_ladder_recurrence_method(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--family", "path-grid", "--n", "6", "--m", "2",
        "--method", "recurrence",
    )
    assert (code, out) == (0, "244\n")


def test_count_jsonl_record(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--family", "cycle-power", "--n", "7", "--k", "2",
        "--format", "jsonl",
    )
    assert code == 0
    assert json.loads(out) == {
        "family": "cycle-power",
        "params": {"n": 7, "k": 2},
        "method": "recurrence",
        "count": "16",
    }


# the count default is the family's first method, enumerate's is bruteforce
COUNT_DEFAULTS = {
    "path": "bruteforce",
    "cycle": "recurrence",
    "complete": "formula",
    "cycle-power": "recurrence",
    "complete-product": "formula",
    "path-grid": "arrays",
}
SMALL = {
    "path": ("--n", "5"),
    "cycle": ("--n", "7"),
    "complete": ("--n", "3"),
    "cycle-power": ("--n", "8", "--k", "2"),
    "complete-product": ("--n", "2", "--m", "3"),
    "path-grid": ("--n", "3", "--m", "2"),
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_method_defaults(capsys, family):
    code, out, _ = run_cli(capsys, "count", "--family", family, *SMALL[family], "--format", "jsonl")
    assert code == 0
    assert json.loads(out)["method"] == COUNT_DEFAULTS[family]
    streams = []
    for method in ((), ("--method", "bruteforce")):
        code, out, _ = run_cli(capsys, "enumerate", "--family", family, *SMALL[family], *method)
        assert code == 0
        streams.append(out)
    assert streams[0] == streams[1]


@pytest.mark.parametrize("family,method", [
    (family, method)
    for family, (_, methods) in FAMILIES.items()
    for method, (_, enumerate_route) in methods.items()
    if enumerate_route is not None
])
def test_count_equals_enumerated_lines(capsys, family, method):
    code, counted, _ = run_cli(capsys, "count", "--family", family, *SMALL[family],
                               "--method", method)
    assert code == 0
    code, streamed, _ = run_cli(capsys, "enumerate", "--family", family, *SMALL[family],
                                "--method", method)
    assert code == 0
    assert int(counted) == len(streamed.splitlines())


def test_counts_past_the_int_string_digit_limit_print_exactly(capsys):
    code, out, _ = run_cli(capsys, "count", "--family", "cycle", "--n", "30000")
    assert code == 0
    assert len(out.strip()) > 4300
    assert Decimal(out) == count_cycle_power(1, 30000)


def test_million_vertex_cycle_counts_by_doubling(capsys):
    code, out, _ = run_cli(capsys, "count", "--family", "cycle", "--n", "1000000")
    assert code == 0
    assert len(out.strip()) == 208988
    assert int(out[-41:]) == cycle_count_by_lucas(10**6, 10**40)


@st.composite
def wide_ints(draw):
    bits = draw(st.sampled_from([0, 1, 4095, 4096, 4097, 8193, 20000, 70000]))
    value = draw(st.integers(0, (1 << bits) - 1)) | draw(st.sampled_from([0, 1 << bits]))
    return value * draw(st.sampled_from([1, -1]))


@given(wide_ints())
def test_split_decimal_conversion_is_exact(value):
    # what count and the oeis lines print: str(int) up to _PLAIN_BITS bits
    assert sequences._int_text(value) == str(sequences._to_decimal(value)) == str(Decimal(value))


LAST_COEFFICIENT = {
    "plain": lambda out: json.loads(out)[-1],
    "csv": lambda out: out.splitlines()[-1].split(",")[1],
    "jsonl": lambda out: json.loads(out.splitlines()[-1])["coefficient"],
}


@pytest.mark.parametrize("fmt", list(LAST_COEFFICIENT))
def test_series_coefficients_past_the_digit_limit_print_exactly(capsys, fmt):
    # k = 2 first passes 4300 digits near x^20600
    code, out, _ = run_cli(capsys, "series", "--k", "2", "--terms", "20700", "--format", fmt)
    assert code == 0
    printed = LAST_COEFFICIENT[fmt](out)
    assert len(printed) > 4300
    assert Decimal(printed) == a_count(2, 20700)


def test_count_csv_record(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--family", "complete-product", "--n", "3", "--m", "2",
        "--format", "csv",
    )
    assert code == 0
    assert out == "family,params,method,count\ncomplete-product,n=3;m=2,formula,14\n"


# --- usage errors ---


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--family", "complete-product", "--n", "0", "--m", "2"),
        ("count", "--family", "cycle", "--n", "10", "--k", "2"),
        ("count", "--family", "cycle"),
        ("count", "--family", "path", "--n", "5", "--method", "recurrence"),
        ("count", "--family", "path-grid", "--n", "4", "--m", "3", "--method", "recurrence"),
        ("count", "--family", "cycle", "--n", "2"),
        ("enumerate", "--family", "path", "--n", "5", "--format", "csv"),
        ("series", "--k", "1", "--terms", "5"),
        ("verify", "--suite", "grid-p2", "--max-n", "0"),
    ],
    ids=[
        "zero-param",
        "extraneous-param",
        "missing-param",
        "method-wrong-family",
        "ladder-recurrence-needs-m2",
        "cycle-too-short",
        "csv-enumerate",
        "series-small-k",
        "verify-bad-bound",
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err != ""


@pytest.mark.parametrize("argv", [("count", "--family", "path", "--n", "3"),
                                  ("enumerate", "--family", "path", "--n", "3"),
                                  ("verify", "--suite", "grid-p2"), ("oeis",)],
                         ids=["count", "enumerate", "verify", "oeis"])
def test_workers_below_one_exit_2(capsys, argv):
    # the CLI checks --workers, which reaches no library call, after the cap
    assert run_cli(capsys, *argv, "--workers", "0") == (
        2, "", "error: workers must be >= 1, got 0\n")
    assert run_cli(capsys, *argv, "--max-subsets", "0", "--workers", "0") == (
        2, "", "error: max_subsets must be >= 1, got 0\n")


FAMILY_CHOICES = "'path', 'cycle', 'complete', 'cycle-power', 'complete-product', 'path-grid'"


@pytest.mark.parametrize("argv, last", [
    (("count", "--family", "hypercube", "--n", "3"), "digicon count: error: argument --family: "
     f"invalid choice: 'hypercube' (choose from {FAMILY_CHOICES})"),
    (("count", "--family=", "--n", "3"),
     f"digicon count: error: argument --family: invalid choice: '' (choose from {FAMILY_CHOICES})"),
    (("count", "--family", "path", "--n", "3", "--method", "magic"),
     "digicon count: error: argument --method: invalid choice: 'magic' "
     "(choose from 'bruteforce', 'arrays', 'recurrence', 'bijection', 'formula')"),
    (("verify", "--suite", "every"), "digicon verify: error: argument --suite: invalid choice: "
     "'every' (choose from 'cyclic-strings', 'cycle-power-bijection', 'complete-product', "
     "'grid-p2', 'grid-arrays', 'oeis', 'all')"),
    (("bogus",), "digicon: error: argument command: invalid choice: 'bogus' "
     "(choose from 'count', 'enumerate', 'series', 'verify', 'oeis')"),
    (("count", "--family", "cycle", "--n", "x"),
     "digicon count: error: argument --n: invalid int value: 'x'"),
    (("count", "--family", "cycle", "--n="), "digicon count: error: argument --n: invalid int value: ''"),
    (("count", "--family", "cycle", "--n"), "digicon count: error: argument --n: expected one argument"),
    (("count", "--family", "cycle", "--n", "--m", "2"),
     "digicon count: error: argument --n: expected one argument"),
    (("count", "--family", "cycle", "--n", "-x"),
     "digicon count: error: argument --n: expected one argument"),
    (("count", "--family", "cycle", "--n", "10", "--bogus", "1"),
     "digicon: error: unrecognized arguments: --bogus 1"),
    (("series", "--k", "2", "--terms", "5", "--workers", "2"),
     "digicon: error: unrecognized arguments: --workers 2"),
    (("series", "--k", "2", "--terms", "5", "--max-subsets", "2"),
     "digicon: error: unrecognized arguments: --max-subsets 2"),
    # no prefix abbreviations: --fam is no flag of count
    (("count", "--fam", "cycle", "--n", "10"),
     "digicon count: error: the following arguments are required: --family"),
    (("series",), "digicon series: error: the following arguments are required: --k, --terms"),
    ((), "digicon: error: the following arguments are required: command"),
])
def test_parser_usage_errors_exit_2(capsys, argv, last):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert (exc.value.code, out, err.splitlines()[-1]) == (2, "", last)
    assert err.startswith("usage: digicon")


@pytest.mark.parametrize("argv, words", [
    (["-h"], ["count", "enumerate", "series", "verify", "oeis"]),
    (["count", "--help"], ["--family", *FAMILIES, "--n", "--m", "--k", "--method",
                           *(method for _, methods in FAMILIES.values() for method in methods),
                           "--workers", "--max-subsets", "--format", "jsonl", "csv", "plain"]),
    (["verify", "-h"], ["--suite", *cli._SUITES, "all", "--max-n", "--max-k", "--max-cells",
                        "--bfile", "--workers", "--max-subsets"]),
    # help as soon as it is read, whatever follows
    (["enumerate", "--family", "cycle", "-h", "--n", "x"], ["enumerate", "--family", *FAMILIES]),
])
def test_help_names_every_command_flag_and_choice(capsys, argv, words):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    assert set(words) <= set(re.findall(r"[-\w]+", out))


# --- enumerate ---


def test_enumerate_jsonl_streams_zero_based_sets(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--family", "path-grid", "--n", "3", "--m", "2",
        "--format", "jsonl",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 16
    assert lines[0] == "[]"
    masks = [sum(1 << v for v in json.loads(line)) for line in lines]
    assert masks == [s.mask for s in generate_grid_p2(3)]


def test_enumerate_defaults_to_jsonl(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--family", "path", "--n", "3")
    assert code == 0
    assert out == "[]\n[0]\n[2]\n[0, 1, 2]\n"


def test_enumerate_plain_is_one_based(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--family", "path", "--n", "3", "--format", "plain"
    )
    assert code == 0
    assert out == "\n1\n3\n1 2 3\n"


def test_enumerate_bijection_method_yields_the_same_family(capsys):
    # the two methods stream in different (but each deterministic) orders:
    # bruteforce ascends by subset mask, bijection by string code
    streams = []
    for method in ("bruteforce", "bijection"):
        code, out, _ = run_cli(
            capsys, "enumerate", "--family", "cycle-power", "--n", "9", "--k", "2",
            "--format", "jsonl", "--method", method,
        )
        assert code == 0
        streams.append(out.splitlines())
    assert len(streams[0]) == len(streams[1])
    assert sorted(streams[0]) == sorted(streams[1])


def plain(s: VertexSet) -> str:
    return " ".join(str(v + 1) for v in s.indices())


@st.composite
def universes_and_masks(draw):
    # universes past one byte boundary and past 62 bits, empty and full sets included
    universe = draw(st.integers(0, 70))
    full = (1 << universe) - 1
    return universe, draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))


@given(universes_and_masks())
def test_line_format_matches_the_set_serialisers(case):
    universe, mask = case
    s = VertexSet(universe, mask)
    # a one-set stream, the mask as its table's entry or as the prefix of
    # the empty entry: the line of a generator's first chunk
    for chunks in ([(0, [mask])], [(mask, [0])]):
        assert list(cli._format_lines(universe, "jsonl", chunks)) == [json.dumps(list(s.indices()))]
        assert list(cli._format_lines(universe, "plain", chunks)) == [plain(s)]


def _stream_masks(universe: int, rng) -> list[int]:
    """Masks of the universe, ascending, with runs that share a high part
    (mask >> 8), masks with an empty low byte or an empty high part, sparse
    masks of one to three runs (mostly zero bytes, as at dense k), and the
    empty and full sets."""
    full = (1 << universe) - 1
    picks = {0, full, full & 0xFF, full & ~0xFF, full & 0x81}
    for _ in range(40):
        mask = rng.getrandbits(max(universe, 1)) & full
        picks |= {mask, mask & ~0xFF, mask & 0xFF, mask ^ (1 & full), mask | (0xFF & full)}
    for _ in range(40):
        mask = 0
        for _ in range(rng.randint(1, 3)):
            mask |= (1 << rng.randint(1, universe // 20 + 1)) - 1 << rng.randrange(universe)
        picks.add(mask & full)
    return sorted(picks)


def _chunked(masks: list[int], lo: int, hi: int) -> list:
    """The masks as chunks whose tables hold their bits lo..hi - 1 and whose
    prefixes hold the rest, below the table's bits, above them or both; a
    run of masks with one prefix is one chunk, and tables with equal
    entries are one list object, read by every chunk that holds them."""
    middle = (1 << hi) - (1 << lo)
    chunks, tables = [], {}
    for mask in masks:
        if chunks and chunks[-1][0] == mask & ~middle:
            chunks[-1][1].append(mask & middle)
        else:
            chunks.append((mask & ~middle, [mask & middle]))
    return [(prefix, tables.setdefault(tuple(table), table)) for prefix, table in chunks]


def _expected(universe: int, masks) -> dict:
    """Each format's serialised lines of the masks' sets, joined."""
    sets = [VertexSet(universe, mask) for mask in masks]
    return {fmt: "\n".join(map(line, sets)) for fmt, line in (("jsonl", set_to_json),
                                                              ("plain", plain))}


def _assert_lines(universe: int, chunks: list, expected: dict | None = None) -> None:
    """Each format's stream of the chunks, through one generator, is the
    serialisers' lines of their sets, in order."""
    expected = expected or _expected(universe, checked_masks(chunks))
    for fmt, text in expected.items():
        assert "\n".join(cli._format_lines(universe, fmt, iter(chunks))) == text, fmt


@pytest.mark.parametrize("universe", [*range(1, 18), 24, 26, 70, 3000])
def test_line_format_streams_match_the_set_serialisers(universe):
    rng = random.Random(universe)
    ascending = _stream_masks(universe, rng)
    shuffled = ascending * 2
    rng.shuffle(shuffled)
    low, high = sorted(rng.sample(range(universe + 1), 2))
    for masks in (ascending, shuffled, ascending[::-1]):
        # the prefix above the table's bits, below them and on both sides;
        # a mask with no bit in the table's span is an empty entry
        expected = _expected(universe, masks)
        for lo, hi in ((0, high), (low, universe), (low, high)):
            chunks = _chunked(masks, lo, hi)
            assert checked_masks(chunks) == masks
            _assert_lines(universe, chunks, expected)
    # one table object read by many chunks, its empty entry first, in the
    # middle and absent
    for table in ([0, 0b01, 0b11, 0b100], [0b01, 0, 0b11], [0b10, 0b11]):
        table = [rest << low for rest in table if rest << low >> hi == 0]
        prefixes = sorted({mask & ~((1 << hi) - (1 << low)) for mask in ascending})[:16]
        if len(table) > 1:
            _assert_lines(universe, [(prefix, table) for prefix in prefixes * 3])


def test_line_format_at_80000_positions():
    # 10,000 bytes of labels, a shared table in the middle read under
    # prefixes at both ends, and the empty and full sets
    universe = 80000
    full = (1 << universe) - 1
    table = [0, 1 << 40000, 0b101 << 40020, (1 << 40100) - (1 << 40000)]
    prefixes = [1, 1 << 79999, 0b11 << 50000 | 0b11, full ^ ((1 << 40200) - (1 << 39990))]
    _assert_lines(universe, [(0, [0]), *((prefix, table) for prefix in prefixes), (0, [full]),
                             (full, [0])])


# one CLI run with stdout discarded, in a fresh interpreter, then the
# traced peak of the run in bytes
TRACED_PEAK_SCRIPT = """
import os, sys, tracemalloc
from digicon.cli import main
sys.stdout = open(os.devnull, "w")
tracemalloc.start()
assert main(sys.argv[1:]) == 0
print(tracemalloc.get_traced_memory()[1], file=sys.stderr)
"""


def _traced_peak(*argv: str) -> int:
    proc = subprocess.run([sys.executable, "-c", TRACED_PEAK_SCRIPT, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr)


def test_the_two_sets_of_80000_positions_make_only_their_fragments():
    # C_80000^40000 has two convex sets, the empty and the full one; making
    # every byte fragment of 10,000 positions first took 5.2 s and 240 MB,
    # and a fragment dict with an attribute dict per position 12 MB
    assert _traced_peak("enumerate", "--family", "cycle-power", "--n", "80000", "--k", "40000",
                        "--method", "bijection") < 10 << 20


def test_the_arrays_stream_holds_a_sweep_block_at_a_time():
    # the 83,074 images of the 5 x 5 arrays, handed over block by block like
    # the bruteforce stream (1.1 MB traced), not collected first (4.1 MB)
    assert _traced_peak("enumerate", "--family", "path-grid", "--n", "5", "--m", "5",
                        "--method", "arrays") < 2 << 20


@pytest.mark.parametrize("kept", [1, 3, 64])
def test_line_format_keeps_tables_up_to_its_bound(monkeypatch, kept):
    # 300 tables of three entries, each read by two chunks and then dropped
    # by the stream: the formatter holds the tables it has read, and their
    # texts, only until they hold _KEPT_ENTRIES entries, so no more than
    # that stay alive; every line is still the set's
    monkeypatch.setattr(cli, "_KEPT_ENTRIES", kept)

    class Table(list):  # a list that a weak reference can follow
        pass

    read, masks, alive = [], [], []

    def chunks():
        for i in range(300):
            table = Table([0, 1 + i % 7, 8 + i % 5 << 3])
            read.append(weakref.ref(table))
            for prefix in (i << 8, i + 300 << 8):
                masks.extend(prefix | rest for rest in table)
                yield prefix, table

    lines = []
    for text in cli._format_lines(18, "plain", chunks()):
        lines += text.split("\n")
        alive.append(sum(ref() is not None for ref in read))
    assert lines == [plain(VertexSet(18, mask)) for mask in masks]
    assert max(alive) <= kept // 3 + 3, max(alive)


# the library's objects for each enumerate route, in the route's order: the
# sweeps and the array images ascend by mask, the bijection by string code
LIBRARY_SETS = {
    ("path", "bruteforce"): lambda n: enumerate_digitally_convex(make_path(n)),
    ("path", "arrays"): lambda n: enumerate_digitally_convex(make_path(n)),
    ("cycle", "bruteforce"): lambda n: enumerate_digitally_convex(make_cycle(n)),
    ("cycle", "bijection"): lambda n: (convex_set_from_string(1, n, s) for s in enumerate_B(2, n)),
    ("complete", "bruteforce"): lambda n: enumerate_digitally_convex(make_complete(n)),
    ("cycle-power", "bruteforce"):
        lambda n, k: enumerate_digitally_convex(graph_power(make_cycle(n), k)),
    ("cycle-power", "bijection"):
        lambda n, k: (convex_set_from_string(k, n, s) for s in enumerate_B(k + 1, n)),
    ("complete-product", "bruteforce"):
        lambda n, m: enumerate_digitally_convex(cartesian_product(make_complete(n), make_complete(m))),
    ("path-grid", "arrays"):
        lambda n, m: enumerate_digitally_convex(cartesian_product(make_path(n), make_path(m))),
    ("path-grid", "bruteforce"):
        lambda n, m: enumerate_digitally_convex(cartesian_product(make_path(n), make_path(m))),
    ("path-grid", "recurrence"): lambda n, m: generate_grid_p2(n),
}
# streams of more than one batch of lines
LONG = {"cycle": {"n": 16}, "cycle-power": {"n": 16, "k": 2}, "path-grid": {"n": 8, "m": 2}}


def enumerate_cases():
    routes = [(family, method) for family, (_, methods) in FAMILIES.items()
              for method, (_, route) in methods.items() if route is not None]
    assert sorted(routes) == sorted(LIBRARY_SETS)
    cases = []
    for family, method in routes:
        flags = SMALL[family]
        small = {flag.lstrip("-"): int(value) for flag, value in zip(flags[::2], flags[1::2])}
        cases += [(family, method, params) for params in (small, LONG.get(family)) if params]
    return cases


@pytest.mark.parametrize("family, method, params", enumerate_cases())
def test_enumerate_prints_the_library_sets(capsys, family, method, params):
    sets = list(LIBRARY_SETS[family, method](**params))
    expected = {"jsonl": "".join(f"{set_to_json(s)}\n" for s in sets),
                "plain": "".join(f"{plain(s)}\n" for s in sets)}
    argv = ["enumerate", "--family", family, "--method", method]
    for name, value in params.items():
        argv += [f"--{name}", str(value)]
    for fmt, workers in itertools.product(expected, ("1", "2")):
        assert run_cli(capsys, *argv, "--format", fmt, "--workers", workers) == (0, expected[fmt], "")


@pytest.mark.parametrize("family, method, params", enumerate_cases())
def test_enumerate_routes_hand_the_cli_python_ints(family, method, params):
    # chunks (prefix, table): an int prefix and a nonempty list of ints
    universe, chunks = FAMILIES[family][1][method][1](EnumerationBudget(), **params)
    chunks = list(chunks)
    assert type(universe) is int and chunks
    assert all(type(prefix) is int and type(table) is list and table
               and all(type(rest) is int for rest in table) for prefix, table in chunks)
    assert checked_masks(chunks)


# the least value of each parameter of each family's graph
LEAST = {
    "path": {"n": 1},
    "cycle": {"n": 3},
    "complete": {"n": 1},
    "cycle-power": {"n": 3, "k": 1},
    "complete-product": {"n": 1, "m": 1},
    "path-grid": {"n": 1, "m": 1},
}
GOOD = {"n": 4, "m": 2, "k": 1}


def bad_parameters():
    """Each family with each of its parameters one below its least value
    (the others at a good value), after the first cases kept from when
    only the cycle families were checked this way."""
    assert list(LEAST) == list(FAMILIES)
    cases = [
        (("--family", "cycle", "--n", "1"), "n must be >= 3, got 1"),
        (("--family", "cycle", "--n", "2"), "n must be >= 3, got 2"),
        (("--family", "cycle-power", "--n", "1", "--k", "2"), "n must be >= 3, got 1"),
        (("--family", "cycle-power", "--n", "2", "--k", "3"), "n must be >= 3, got 2"),
        (("--family", "cycle-power", "--n", "5", "--k", "0"), "k must be >= 1, got 0"),
        # a negative int is a value, which the parameter check refuses
        (("--family", "cycle", "--n", "-3"), "n must be >= 3, got -3"),
    ]
    for family, least in LEAST.items():
        for bad in least:
            values = {name: least[name] - 1 if name == bad else max(GOOD[name], least[name])
                      for name in least}
            argv = ["--family", family]
            for name, value in values.items():
                argv += [f"--{name}", str(value)]
            cases.append((tuple(argv), f"{bad} must be >= {least[bad]}, got {least[bad] - 1}"))
    return cases


@pytest.mark.parametrize("params, message", bad_parameters())
def test_bijection_checks_parameters_like_the_recurrence(capsys, params, message):
    # every count and enumerate route of the family, by every method,
    # checks the parameters one way before it builds a graph or sweeps
    routes = [
        (command, method)
        for method, pair in FAMILIES[params[1]][1].items()
        for command, route in zip(("count", "enumerate"), pair)
        if route is not None
    ]
    runs = {(command, method): run_cli(capsys, command, *params, "--method", method)
            for command, method in routes}
    assert len(runs) == len(routes) >= 3
    assert runs == dict.fromkeys(runs, (2, "", f"error: {message}\n"))


# --- series ---


def test_series_plain_prints_decimal_strings(capsys):
    code, out, _ = run_cli(capsys, "series", "--k", "2", "--terms", "5")
    assert code == 0
    assert json.loads(out) == ["0", "2", "2", "2", "6", "12"]


def test_series_csv(capsys):
    code, out, _ = run_cli(capsys, "series", "--k", "3", "--terms", "3", "--format", "csv")
    assert code == 0
    assert out == "n,coefficient\n0,0\n1,2\n2,2\n3,2\n"


def test_series_jsonl(capsys):
    code, out, _ = run_cli(capsys, "series", "--k", "2", "--terms", "2", "--format", "jsonl")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records == [
        {"n": 0, "coefficient": "0"},
        {"n": 1, "coefficient": "2"},
        {"n": 2, "coefficient": "2"},
    ]


# for k = 2..8, the fewest terms whose last coefficient has more bits than
# the CLI converts to decimal directly (64 more, so that several do)
SERIES_TERMS = {k: bisect.bisect_left(range(1 << 15), sequences._PLAIN_BITS + 65, lo=1,
                                      key=lambda n: a_count(k, n).bit_length())
                for k in range(2, 9)}

SERIES_FORMATS = {
    None: lambda cs: json.dumps(cs) + "\n",
    "plain": lambda cs: json.dumps(cs) + "\n",
    "csv": lambda cs: "n,coefficient\n" + "".join(f"{n},{c}\n" for n, c in enumerate(cs)),
    "jsonl": lambda cs: "".join(json.dumps({"n": n, "coefficient": c}) + "\n"
                                for n, c in enumerate(cs)),
}


@pytest.mark.parametrize("k, terms", list(SERIES_TERMS.items()))
def test_series_stream_equals_the_integer_expansion(capsys, k, terms):
    coefficients = [str(c) for c in a_series(k, terms).coefficients]
    assert int(coefficients[-1]).bit_length() > sequences._PLAIN_BITS
    for fmt, render in SERIES_FORMATS.items():
        code, out, err = run_cli(capsys, "series", "--k", str(k), "--terms", str(terms),
                                 *(("--format", fmt) if fmt else ()))
        assert (code, err) == (0, "")
        assert out == render(coefficients), fmt


@pytest.mark.parametrize("terms", [0, 1, 600])
@pytest.mark.parametrize("k", range(2, 9))
def test_series_plain_is_the_json_list_of_the_coefficients(capsys, k, terms):
    # terms past _PLAIN_BITS are in test_series_stream_equals_the_integer_expansion
    code, out, _ = run_cli(capsys, "series", "--k", str(k), "--terms", str(terms))
    assert (code, out) == (0, json.dumps([str(c) for c in a_series(k, terms).coefficients]) + "\n")


@pytest.mark.parametrize("k", range(2, 9))
def test_series_in_every_format_is_the_string_count(capsys, k):
    # coefficient n is a_count(k, n), by the recurrence, past the x^{2k} tap
    coefficients = ["0", *(str(a_count(k, n)) for n in range(1, 41))]
    for fmt, render in SERIES_FORMATS.items():
        code, out, _ = run_cli(capsys, "series", "--k", str(k), "--terms", "40",
                               *(("--format", fmt) if fmt else ()))
        assert (code, out) == (0, render(coefficients)), fmt


def test_series_at_large_k_prints_its_few_terms(capsys):
    assert run_cli(capsys, "series", "--k", "1000000", "--terms", "3") == (
        0, '["0", "2", "2", "2"]\n', "")


# one CLI run with stdout discarded, then its peak RSS in kB: VmHWM, which
# (unlike ru_maxrss) starts afresh at exec, so the forking test process's
# own size is not counted
PEAK_RSS_SCRIPT = """
import os, sys
from digicon.cli import main
sys.stdout = open(os.devnull, "w")
code = main(sys.argv[1:])
sys.stdout.flush()
peak = next(line for line in open("/proc/self/status") if line.startswith("VmHWM:"))
print(code, peak.split()[1], file=sys.stderr)
"""


def _peak_rss_kb(*argv: str) -> int:
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS_SCRIPT, *argv],
                          capture_output=True, text=True, timeout=120)
    code, peak = proc.stderr.split()
    assert code == "0"
    return int(peak)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_series_plain_streams_in_the_memory_of_csv():
    # collecting the 20,000 coefficients, of up to 3,300 digits, before one
    # json.dumps took about 100 MB more than csv
    argv = ("series", "--k", "3", "--terms", "20000")
    plain, csv = _peak_rss_kb(*argv), _peak_rss_kb(*argv, "--format", "csv")
    assert plain <= csv + 2048, (plain, csv)


@pytest.mark.parametrize("fmt", list(SERIES_FORMATS))
@pytest.mark.parametrize("k, terms, message", [
    ("1", "5", "k must be >= 2, got 1"),
    ("2", "-1", "terms must be >= 0, got -1"),
    # k is checked first
    ("1", "-1", "k must be >= 2, got 1"),
])
def test_series_parameter_errors_print_nothing_to_stdout(capsys, fmt, k, terms, message):
    code, out, err = run_cli(capsys, "series", "--k", k, "--terms", terms,
                             *(("--format", fmt) if fmt else ()))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_series_leaves_the_decimal_context_as_it_was(capsys):
    before = decimal.getcontext().copy()
    assert run_cli(capsys, "series", "--k", "3", "--terms", "600", "--format", "csv")[0] == 0
    after = decimal.getcontext()
    assert (after.prec, after.traps, after.Emax) == (before.prec, before.traps, before.Emax)


# --- verify ---


def test_verify_suite_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "cycle-power-bijection", "--max-n", "8", "--max-k", "2"
    )
    assert code == 0
    assert "all" in out.splitlines()[-1]
    assert "passed" in out.splitlines()[-1]
    assert all(line.startswith("ok") for line in out.splitlines()[:-1])


def test_verify_all_runs_every_suite_trimmed(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "all",
        "--max-n", "4", "--max-k", "2", "--max-cells", "4",
    )
    assert code == 0
    for suite in ("cyclic-strings", "cycle-power-bijection", "complete-product",
                  "grid-p2", "grid-arrays", "oeis"):
        assert f"[{suite}]" in out


@pytest.mark.parametrize("suite, flag, value, least", [
    ("cyclic-strings", "--max-k", 1, 2),
    ("cycle-power-bijection", "--max-n", 2, 3),
    ("all", "--max-k", 1, 2),
    ("all", "--max-n", 2, 3),
])
def test_verify_refuses_bounds_that_check_nothing(capsys, suite, flag, value, least):
    # cyclic-strings has no k below 2 and cycle-power-bijection no n below
    # 3: "all 0 cases passed" would look like success.  The refusal comes
    # before any suite runs, so under all no suite prints a line
    code, out, err = run_cli(capsys, "verify", "--suite", suite, flag, str(value))
    named = {"--max-k": "cyclic-strings", "--max-n": "cycle-power-bijection"}[flag]
    assert (code, out) == (2, "")
    assert f"suite {named} needs {flag} >= {least}" in err
    assert run_cli(capsys, "verify", "--suite", named, flag, str(least))[0] == 0


def test_verify_cycle_power_suite_catches_a_lost_bijection_set(monkeypatch, capsys):
    # the strings column is the bijection route, not the recurrence again
    # (its first chunk is the empty set's alone)
    real = cli._convex_set_chunks
    monkeypatch.setattr(cli, "_convex_set_chunks",
                        lambda k, n, budget=None: itertools.islice(real(k, n, budget), 1, None))
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "cycle-power-bijection", "--max-k", "1", "--max-n", "5"
    )
    assert code == 1
    assert "FAIL [cycle-power-bijection] cycle-power k=1 n=3: " \
           "bruteforce 2, recurrence 2, strings 1" in out


def test_verify_grid_p2_runs_the_shipped_ladder_stream(monkeypatch, capsys):
    # the generated column is the path-grid recurrence stream that enumerate prints
    count, stream = FAMILIES["path-grid"][1]["recurrence"]

    def first_dropped(budget, **params):
        universe, chunks = stream(budget, **params)
        return universe, [(0, list(itertools.islice(chunk_masks(chunks), 1, None)))]

    monkeypatch.setitem(FAMILIES["path-grid"][1], "recurrence", (count, first_dropped))
    code, out, _ = run_cli(capsys, "verify", "--suite", "grid-p2", "--max-n", "3")
    assert code == 1
    assert "FAIL [grid-p2] ladder n=1: bruteforce 2, recurrence 2, generated 1\n" in out


def test_verify_cycle_power_compares_the_bijection_sets(monkeypatch, capsys):
    # {0, 1} is a convex set of C_5 and {0, 2} is not: the swapped stream
    # keeps its length, so only the comparison of the sets catches it
    count, stream = FAMILIES["cycle-power"][1]["bijection"]
    sets = set(chunk_masks(stream(None, n=5, k=1)[1]))
    assert 0b11 in sets and 0b101 not in sets

    def swapped(budget, **params):
        universe, chunks = stream(budget, **params)
        return universe, [(0, [0b101 if mask == 0b11 else mask for mask in chunk_masks(chunks)])]

    monkeypatch.setitem(FAMILIES["cycle-power"][1], "bijection", (count, swapped))
    code, out, _ = run_cli(capsys, "verify", "--suite", "cycle-power-bijection",
                           "--max-k", "1", "--max-n", "5")
    total = count_cycle_power(1, 5)
    assert code == 1
    assert out.splitlines()[2:] == [
        f"FAIL [cycle-power-bijection] cycle-power k=1 n=5: "
        f"bruteforce {total}, recurrence {total}, strings {total}, sets differ",
        "1 of 3 cases failed",
    ]


def test_verify_cycle_power_round_trip_fails_a_set_that_is_not_convex(monkeypatch, capsys):
    # {0, 2} of C_5 dilates to the ones of 0, 1, 2 and 3, whose block of one
    # 0 is too short: a FAIL line and exit 1, not a usage error that loses
    # the lines of the cases that passed
    count, stream = FAMILIES["cycle-power"][1]["bruteforce"]

    def swapped(budget, **params):
        universe, chunks = stream(budget, **params)
        return universe, [(0, [0b101 if mask == 0b11 else mask for mask in chunk_masks(chunks)])]

    monkeypatch.setitem(FAMILIES["cycle-power"][1], "bruteforce", (count, swapped))
    code, out, err = run_cli(capsys, "verify", "--suite", "cycle-power-bijection",
                             "--max-k", "1", "--max-n", "5")
    total = count_cycle_power(1, 5)
    assert (code, err) == (1, "")
    assert out.splitlines()[2:] == [
        f"FAIL [cycle-power-bijection] cycle-power k=1 n=5: "
        f"bruteforce {total}, recurrence {total}, strings {total}, sets differ, round trip failed",
        "1 of 3 cases failed",
    ]


def test_verify_cycle_power_round_trip_catches_a_short_dilation(monkeypatch, capsys):
    # the suite's dilation one position short (at k = 1, no pass at all):
    # the strings column, placed by the string walk, still agrees
    real = cli._dilated
    monkeypatch.setattr(cli, "_dilated", lambda k, n, masks: real(k - 1, n, masks))
    code, out, _ = run_cli(capsys, "verify", "--suite", "cycle-power-bijection",
                           "--max-k", "1", "--max-n", "5")
    assert code == 1
    assert out.splitlines() == [
        "ok   [cycle-power-bijection] cycle-power k=1 n=3: bruteforce 2, recurrence 2, strings 2",
        *(f"FAIL [cycle-power-bijection] cycle-power k=1 n={n}: bruteforce {total}, "
          f"recurrence {total}, strings {total}, round trip failed"
          for n, total in ((4, count_cycle_power(1, 4)), (5, count_cycle_power(1, 5)))),
        "2 of 3 cases failed",
    ]


def test_verify_and_oeis_build_no_vertex_sets_or_strings(monkeypatch, capsys):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"verify built a {type(self).__name__}")

    monkeypatch.setattr(VertexSet, "__init__", refuse)
    monkeypatch.setattr(CyclicBinaryString, "__init__", refuse)
    assert run_cli(capsys, "verify", "--suite", "all")[0] == 0
    assert run_cli(capsys, "oeis")[0] == 0


def test_verify_and_oeis_build_no_sets_or_ladders_outside_the_routes(monkeypatch, capsys):
    def wrapper(*args, **kwargs):
        raise AssertionError("verify called an object-level wrapper, not a route")

    # wherever the package binds them
    for module in (digicon, cli, convexity, products):
        for name in ("enumerate_digitally_convex", "generate_grid_p2"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    assert run_cli(capsys, "verify", "--suite", "all")[0] == 0
    assert run_cli(capsys, "oeis")[0] == 0


def test_a_budget_error_prints_none_of_its_suites_lines(capsys):
    # cycle-power-bijection passes n = 3..9 before n = 10 needs 1024
    # subsets; the suite runs whole before any of its lines is printed
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--max-subsets", "1000")
    lines = out.splitlines()
    assert code == 3
    assert len(lines) == 56
    assert all(line.startswith("ok   [cyclic-strings] strings ") for line in lines)
    assert err == ("error: needs 1024 subsets but the budget allows 1000; "
                   "rerun with max_subsets >= 1024\n")


def test_verify_oeis_suite_catches_perturbation(tmp_path, capsys):
    bad = tmp_path / "b.txt"
    bad.write_text("1 2\n2 2\n3 2\n4 4\n5 7\n")  # true (2,2) value is 6
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "oeis", "--max-cells", "4", "--bfile", str(bad)
    )
    assert code == 1
    assert "FAIL" in out


# --- oeis ---


def test_oeis_default_snapshot_matches(capsys):
    code, out, _ = run_cli(capsys, "oeis")
    assert code == 0
    doc = json.loads(out)
    assert doc["matched"] == 66
    assert doc["mismatches"] == []
    assert doc["only_left"] == []
    assert doc["only_right"] == []


def test_oeis_partial_run_keeps_matching(capsys):
    code, out, _ = run_cli(capsys, "oeis", "--max-cells", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["matched"] == 14
    assert doc["only_right"] != []


def test_oeis_exit_1_on_mismatch(tmp_path, capsys):
    bad = tmp_path / "b.txt"
    bad.write_text("1 2\n2 2\n3 999\n")
    code, out, _ = run_cli(capsys, "oeis", "--max-cells", "2", "--bfile", str(bad))
    assert code == 1
    doc = json.loads(out)
    assert doc["mismatches"] == [{"index": 3, "expected": "999", "found": "2"}]


LONG_VALUE = "7" * 5000  # past the 4300 digits that int(str) takes by default


def test_oeis_reads_a_value_past_the_int_digit_cap(tmp_path, capsys):
    path = tmp_path / "b.txt"
    # index 3 is the 2 x 1 grid, outside --max-cells 1
    path.write_text(f"1 2\n3 {LONG_VALUE}\n")
    code, out, _ = run_cli(capsys, "oeis", "--max-cells", "1", "--bfile", str(path))
    assert code == 0
    assert json.loads(out) == {"matched": 1, "mismatches": [], "only_left": [],
                               "only_right": [3]}


@pytest.mark.parametrize("sign", ["", "-"])
def test_a_mismatch_past_the_int_digit_cap_prints_its_exact_digits(tmp_path, capsys, sign):
    value = sign + LONG_VALUE
    path = tmp_path / "b.txt"
    path.write_text(f"1 {value}\n")
    code, out, err = run_cli(capsys, "oeis", "--max-cells", "1", "--bfile", str(path))
    assert (code, err) == (1, "")
    assert json.loads(out)["mismatches"] == [{"index": 1, "expected": value, "found": "2"}]
    code, out, err = run_cli(capsys, "verify", "--suite", "oeis", "--max-cells", "1",
                             "--bfile", str(path))
    assert (code, err) == (1, "")
    assert f"FAIL [oeis] index 1: expected {value}, found 2\n" in out


def test_oeis_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "b.txt"
    bad.write_text("1 2\nnot numbers\n")
    code, _, err = run_cli(capsys, "oeis", "--max-cells", "2", "--bfile", str(bad))
    assert code == 2
    assert "line 2" in err


def test_oeis_empty_overlap_exits_2(tmp_path, capsys):
    bad = tmp_path / "b.txt"
    bad.write_text("900 1\n")
    code, _, err = run_cli(capsys, "oeis", "--max-cells", "2", "--bfile", str(bad))
    assert code == 2


@pytest.mark.parametrize("argv", [("oeis",), ("verify", "--suite", "oeis")])
@pytest.mark.parametrize("unreadable", ["missing.txt", "."])
def test_unreadable_sequence_file_exits_2(tmp_path, capsys, monkeypatch, argv, unreadable):
    def no_count(*args, **kwargs):
        raise AssertionError("the file is read before any grid count")

    monkeypatch.setattr(cli, "count_grid_via_arrays", no_count)
    path = tmp_path / unreadable
    code, out, err = run_cli(capsys, *argv, "--max-cells", "2", "--bfile", str(path))
    assert code == 2
    assert out == ""
    assert "cannot read the sequence file" in err


@pytest.mark.parametrize("argv", [("oeis",), ("verify", "--suite", "oeis")])
def test_non_utf8_sequence_file_exits_2(tmp_path, capsys, monkeypatch, argv):
    def no_count(*args, **kwargs):
        raise AssertionError("the file is read before any grid count")

    monkeypatch.setattr(cli, "count_grid_via_arrays", no_count)
    path = tmp_path / "b.txt"
    path.write_bytes(b"\xff\xfe1 2\n")
    code, out, err = run_cli(capsys, *argv, "--max-cells", "2", "--bfile", str(path))
    assert code == 2
    assert out == ""
    assert "cannot read the sequence file" in err


# --- budgets ---


def test_budget_exceeded_exits_3(capsys):
    code, _, err = run_cli(capsys, "count", "--family", "path", "--n", "30")
    assert code == 3
    assert "1073741824" in err


@pytest.mark.parametrize("argv", [
    ("enumerate", "--family", "path-grid", "--n", "20000", "--m", "2", "--method", "recurrence"),
    ("enumerate", "--family", "cycle", "--n", "30000", "--method", "bijection"),
    ("count", "--family", "cycle-power", "--n", "30000", "--k", "1", "--method", "bijection"),
])
def test_a_refused_count_past_4300_digits_exits_3(capsys, argv):
    # str(int) refuses these counts; the message prints them in full
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: needs ") and err.count("\n") == 1
    assert "Traceback" not in err
    required = err.split()[2]
    assert required.isdigit() and len(required) > 4300
    assert err.endswith(f"rerun with max_subsets >= {required}\n")


def test_an_answer_too_large_to_build_exits_3(capsys, monkeypatch):
    # 2^(10^20) has too many digits for an int: OverflowError
    code, out, err = run_cli(capsys, "count", "--family", "complete-product",
                             "--n", "100000000000000000000", "--m", "2")
    assert (code, out, err) == (3, "", "error: too many digits in integer\n")

    # a MemoryError, raised here rather than provoked: an answer that does
    # fit in an int could still take gigabytes
    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(digicon.cli, "count_complete_product", no_memory)
    code, out, err = run_cli(capsys, "count", "--family", "complete-product", "--n", "3", "--m", "2")
    assert (code, out, err) == (3, "", "error: MemoryError\n")


# parameters of each family's graph at a given order: n, or n x m
def _order_params(family: str, order: int) -> tuple[str, ...]:
    if family in ("complete-product", "path-grid"):
        return ("--n", str(order // 2), "--m", "2")
    return ("--n", str(order), *(("--k", "2") if family == "cycle-power" else ()))


BRUTEFORCE_FAMILIES = [family for family, (_, methods) in FAMILIES.items()
                       if "bruteforce" in methods]


@pytest.mark.parametrize("command", ["count", "enumerate"])
@pytest.mark.parametrize("family", BRUTEFORCE_FAMILIES)
@pytest.mark.parametrize("order, code, message", [
    (64, 2, "exhaustive sweep supports at most 62-bit codes, got 64"),
    (6000, 2, "exhaustive sweep supports at most 62-bit codes, got 6000"),
    (30, 3, "needs 1073741824 subsets but the budget allows 67108864; "
            "rerun with max_subsets >= 1073741824"),
])
def test_bruteforce_is_refused_before_the_graph_is_built(monkeypatch, capsys, command, family,
                                                         order, code, message):
    def no_graph(*args):
        raise AssertionError("the graph was built")

    for builder in ("make_path", "make_cycle", "make_complete", "cartesian_product", "graph_power"):
        monkeypatch.setattr(cli, builder, no_graph)
    result = run_cli(capsys, command, "--family", family, *_order_params(family, order),
                     "--method", "bruteforce")
    assert result == (code, "", f"error: {message}\n")


def test_max_subsets_flag_sets_the_ceiling(capsys):
    code, _, err = run_cli(
        capsys, "count", "--family", "path", "--n", "10", "--max-subsets", "512"
    )
    assert code == 3
    assert "1024" in err
    code, out, _ = run_cli(
        capsys, "count", "--family", "path", "--n", "10",
        "--max-subsets", "1024", "--workers", "4",
    )
    assert (code, out) == (0, "110\n")


def test_bijection_is_budgeted_by_its_count(capsys):
    # the count of strings, not 2^n codes: 20 sets of C_6 need a budget of
    # 20, and the 100-cycle's 22 digits are refused before any walk
    argv = ("count", "--family", "cycle", "--n", "6", "--method", "bijection")
    code, _, err = run_cli(capsys, *argv, "--max-subsets", "19")
    assert code == 3
    assert "needs 20 strings " in err and "rerun with max_subsets >= 20" in err
    assert run_cli(capsys, *argv, "--max-subsets", "20") == (0, "20\n", "")
    code, out, err = run_cli(capsys, "count", "--family", "cycle", "--n", "100",
                             "--method", "bijection")
    assert (code, out) == (3, "")
    assert count_cycle_power(1, 100) == 792070839848372253126
    assert "rerun with max_subsets >= 792070839848372253126" in err


def test_ladder_stream_is_budgeted_by_its_count(capsys):
    # the 16-ladder's 2,440,982 sets are refused before any ladder is built
    argv = ("enumerate", "--family", "path-grid", "--n", "16", "--m", "2",
            "--method", "recurrence")
    for cap in ("10", "2440981"):
        code, out, err = run_cli(capsys, *argv, "--max-subsets", cap)
        assert (code, out) == (3, "")
        assert "needs 2440982 sets " in err and "rerun with max_subsets >= 2440982" in err
    # a budget of exactly the count streams every set: checked on the
    # 10-ladder, whose full stream is fast enough for every run
    argv = ("enumerate", "--family", "path-grid", "--n", "10", "--m", "2",
            "--method", "recurrence", "--format", "plain")
    code, full, _ = run_cli(capsys, *argv)
    assert code == 0 and full.count("\n") == count_grid_p2(10)
    assert run_cli(capsys, *argv, "--max-subsets", str(count_grid_p2(10))) == (0, full, "")
    code, out, err = run_cli(capsys, *argv, "--max-subsets", str(count_grid_p2(10) - 1))
    assert (code, out) == (3, "")


@pytest.mark.parametrize("extra", [(), ("--max-subsets", str(1 << 64))])
def test_grid_too_wide_for_the_kernels_exits_2_at_any_budget(capsys, extra):
    # an 8 x 8 array sweep needs 64-bit codes: no budget can make it run
    code, out, err = run_cli(capsys, "count", "--family", "path-grid", "--n", "8", "--m", "8",
                             *extra)
    assert (code, out) == (2, "")
    assert "62" in err
    assert "rerun" not in err


def test_env_var_budget(monkeypatch, capsys):
    monkeypatch.setenv("DIGICON_MAX_SUBSETS", "4")
    code, _, err = run_cli(capsys, "count", "--family", "path", "--n", "5")
    assert code == 3
    assert "32" in err
    # an explicit flag beats the environment
    monkeypatch.setenv("DIGICON_MAX_SUBSETS", "4")
    code, out, _ = run_cli(
        capsys, "count", "--family", "path", "--n", "5", "--max-subsets", "32"
    )
    assert (code, out) == (0, "10\n")


def test_env_var_must_be_a_positive_integer(monkeypatch, capsys):
    monkeypatch.setenv("DIGICON_MAX_SUBSETS", "banana")
    code, _, err = run_cli(capsys, "count", "--family", "path", "--n", "5")
    assert code == 2


# --- determinism ---


def test_enumerate_bytes_identical_across_workers(monkeypatch, capsys):
    real_iter = kernels.iter_blocks
    monkeypatch.setattr(
        kernels, "iter_blocks", lambda total, block_size=0: real_iter(total, 1 << 8)
    )
    for route in (("--family", "path-grid", "--n", "6", "--m", "2"),
                  ("--family", "cycle-power", "--n", "12", "--k", "1", "--method", "bijection")):
        outputs = []
        for workers in ("1", "8"):
            code, out, _ = run_cli(
                capsys, "enumerate", *route, "--format", "jsonl", "--workers", workers,
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


def test_count_bytes_identical_across_workers(capsys):
    outputs = set()
    for workers in ("1", "8"):
        code, out, _ = run_cli(
            capsys, "count", "--family", "path-grid", "--n", "5", "--m", "3",
            "--method", "arrays", "--workers", workers,
        )
        assert code == 0
        outputs.add(out)
    assert outputs == {f"{count_grid_via_arrays(5, 3)}\n"}


# --- process-level entry points ---


@pytest.mark.parametrize("argv,lines", [
    # about 200 kB, more than a pipe holds: a write meets the closed end mid-stream
    (("enumerate", "--family", "path-grid", "--n", "5", "--m", "4", "--method", "arrays"), 1),
    # one short line, still buffered when the handler returns
    (("count", "--family", "cycle", "--n", "10"), 0),
])
def test_closed_stdout_ends_the_stream_quietly(argv, lines):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "digicon", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    for _ in range(lines):
        proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc")
def test_closed_stdout_leaves_no_descriptor_open(monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            assert main(["enumerate", "--family", "cycle", "--n", "12", "--method", "bijection"]) == 0
        assert len(os.listdir("/proc/self/fd")) == before


BUDGET_ERROR = ("error: needs 1073741824 arrays but the budget allows 67108864; "
                "rerun with max_subsets >= 1073741824\n")


@pytest.mark.parametrize("argv,code,out,err", [
    (("count", "--family", "cycle", "--n", "10"), 0, b"122\n", ""),
    (("oeis", "--max-cells", "2", "--bfile", "{bfile}"), 1,
     b'{"matched": 2, "mismatches": [{"index": 3, "expected": "999", "found": "2"}], '
     b'"only_left": [], "only_right": []}\n', ""),
    (("count", "--family", "complete-product", "--n", "0", "--m", "2"), 2, b"",
     "error: n must be >= 1, got 0\n"),
    (("count", "--family", "nope"), 2, b"",
     "digicon count: error: argument --family: invalid choice: 'nope' (choose from "),
    (("count", "--family", "path-grid", "--n", "5", "--m", "6"), 3, b"", BUDGET_ERROR),
], ids=["ok", "mismatch", "parameter", "usage", "budget"])
def test_process_exit_codes(tmp_path, argv, code, out, err):
    """Each exit code through python -m digicon, the process entry point:
    the code, the stdout bytes and the stderr text (for a usage error, the
    text of its last line up to the list of choices)."""
    bfile = tmp_path / "b.txt"
    bfile.write_text("1 2\n2 2\n3 999\n")
    env = {key: value for key, value in os.environ.items() if key != "DIGICON_MAX_SUBSETS"}
    proc = subprocess.run(
        [sys.executable, "-m", "digicon", *(a.format(bfile=bfile) for a in argv)],
        capture_output=True, env=env,
    )
    stderr = proc.stderr.decode()
    if argv[-1] == "nope":
        stderr = stderr.splitlines()[-1][:len(err)]
    assert (proc.returncode, proc.stdout, stderr) == (code, out, err)


def test_profiled_entry_point_still_prints_its_stats():
    # the entry point leaves through sys.exit, which the profiler catches
    # before it prints its table
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "digicon", "count", "--family", "cycle",
         "--n", "10"],
        capture_output=True, text=True,
    )
    first, stats = proc.stdout.split("\n", 1)
    assert (proc.returncode, first, proc.stderr) == (0, "122", "")
    assert "function calls" in stats and "Ordered by" in stats


def test_main_never_freezes(capsys):
    before = gc.get_freeze_count()
    assert run_cli(capsys, "count", "--family", "cycle", "--n", "10") == (0, "122\n", "")
    assert run_cli(capsys, "count", "--family", "path-grid", "--n", "5", "--m", "6")[0] == 3
    assert gc.get_freeze_count() == before


@pytest.fixture
def unfreeze():
    yield
    gc.unfreeze()


@pytest.mark.parametrize("argv,code", [
    (["count", "--family", "cycle", "--n", "10"], 0),
    (["count", "--family", "path-grid", "--n", "5", "--m", "6"], 3),
])
def test_run_exits_with_mains_code_after_freezing(monkeypatch, capsys, unfreeze, argv, code):
    seen = []

    def main_then_count_frozen(argv=None):
        result = main(argv)
        seen.append((argv, gc.get_freeze_count()))
        return result

    before = gc.get_freeze_count()
    monkeypatch.setattr(sys, "argv", ["digicon", *argv])
    monkeypatch.setattr(cli, "main", main_then_count_frozen)
    with pytest.raises(SystemExit) as info:
        cli.run()
    assert info.value.code == code
    # main ran on sys.argv and froze nothing; run froze the heap after it
    assert seen == [(None, before)]
    assert gc.get_freeze_count() > before
