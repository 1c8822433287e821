"""Command-line behaviour: formats, exit codes, budgets, determinism."""

import itertools
import json
import os
import subprocess
import sys
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

import digicon._kernels as kernels
from digicon import (
    PowerSeries,
    VertexSet,
    cartesian_product,
    cli,
    convex_set_from_string,
    count_cycle_power,
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
from digicon.cli import FAMILIES, main
from oracles import cycle_count_by_lucas


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- count ---


def test_count_cycle_recurrence(capsys):
    code, out, err = run_cli(capsys, "count", "--family", "cycle", "--n", "10")
    assert (code, out) == (0, "122\n")


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


LAST_COEFFICIENT = {
    "plain": lambda out: json.loads(out)[-1],
    "csv": lambda out: out.splitlines()[-1].split(",")[1],
    "jsonl": lambda out: json.loads(out.splitlines()[-1])["coefficient"],
}


@pytest.mark.parametrize("fmt", list(LAST_COEFFICIENT))
def test_series_coefficients_past_the_digit_limit_print_exactly(monkeypatch, capsys, fmt):
    # k = 2 first passes 4300 digits near x^20600; a stand-in series keeps the test small
    huge = 7 ** 6000
    monkeypatch.setattr(cli, "a_series", lambda k, terms: PowerSeries((1, huge)))
    code, out, _ = run_cli(capsys, "series", "--k", "2", "--terms", "1", "--format", fmt)
    assert code == 0
    printed = LAST_COEFFICIENT[fmt](out)
    assert len(printed) > 4300
    assert Decimal(printed) == huge


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


def test_unknown_family_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--family", "hypercube", "--n", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--workers", "--max-subsets"])
def test_series_takes_no_sweep_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["series", "--k", "2", "--terms", "5", flag, "2"])
    assert exc.value.code == 2


def test_unknown_method_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--family", "path", "--n", "3", "--method", "magic"])
    assert exc.value.code == 2


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
    assert cli._line_format(universe, "jsonl")(mask) == json.dumps(list(s.indices()))
    assert cli._line_format(universe, "plain")(mask) == plain(s)


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


@pytest.mark.parametrize("extra", [(), ("--max-subsets", str(1 << 64))])
def test_grid_too_wide_for_the_kernels_exits_2_at_any_budget(capsys, extra):
    # an 8 x 8 array sweep shifts 72-bit codes: no budget can make it run
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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "digicon", "count", "--family", "cycle", "--n", "10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "122\n"


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


def test_console_script_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "digicon", "count", "--family", "complete-product",
         "--n", "0", "--m", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr != ""
