"""Command-line behaviour: formats, exit codes, budgets, determinism."""

import json
import os
import subprocess
import sys
from decimal import Decimal

import pytest

import digicon._kernels as kernels
from digicon import PowerSeries, cli, count_cycle_power, count_grid_via_arrays, generate_grid_p2
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


@pytest.mark.parametrize(
    "params, message",
    [
        (("--family", "cycle", "--n", "1"), "n must be >= 3, got 1"),
        (("--family", "cycle", "--n", "2"), "n must be >= 3, got 2"),
        (("--family", "cycle-power", "--n", "1", "--k", "2"), "n must be >= 3, got 1"),
        (("--family", "cycle-power", "--n", "2", "--k", "3"), "n must be >= 3, got 2"),
        (("--family", "cycle-power", "--n", "5", "--k", "0"), "k must be >= 1, got 0"),
    ],
)
def test_bijection_checks_parameters_like_the_recurrence(capsys, params, message):
    # every count and enumerate route, bruteforce included, checks the
    # parameters one way before it builds a graph or sweeps
    runs = {
        (command, method): run_cli(capsys, command, *params, "--method", method)
        for method, routes in FAMILIES[params[1]][1].items()
        for command, route in zip(("count", "enumerate"), routes)
        if route is not None
    }
    assert len(runs) == 5
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
