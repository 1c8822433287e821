"""No route imports numpy or the thread pool, not even a sweep on more
than one worker; dataclasses, inspect, json and decimal load only with the
routes that read or write JSON or print a very wide integer.

Each check runs in a fresh interpreter, since this one has loaded numpy
already.  A first line of sys.modules["numpy"] = None makes any later
import of numpy raise ImportError.
"""

import ast
import contextlib
import io
import json
import subprocess
import sys

import numpy
import pytest

import digicon
from digicon.cli import main

# every route that needs no sweep: recurrences, formulas, the ladder, the
# bijection and series
NO_SWEEP_ROUTES = [
    ["count", "--family", "cycle", "--n", "300", "--method", "recurrence"],
    ["count", "--family", "cycle-power", "--n", "200", "--k", "3", "--method", "recurrence"],
    ["count", "--family", "complete", "--n", "7", "--method", "formula"],
    ["count", "--family", "complete-product", "--n", "3", "--m", "5", "--method", "formula"],
    ["count", "--family", "path-grid", "--n", "60", "--m", "2", "--method", "recurrence"],
    ["enumerate", "--family", "path-grid", "--n", "7", "--m", "2", "--method", "recurrence"],
    ["enumerate", "--family", "path-grid", "--n", "5", "--m", "2", "--method", "recurrence",
     "--format", "plain"],
    ["count", "--family", "cycle", "--n", "20", "--method", "bijection"],
    ["count", "--family", "cycle-power", "--n", "100", "--k", "33", "--method", "bijection"],
    ["enumerate", "--family", "cycle-power", "--n", "20", "--k", "1", "--method", "bijection",
     "--format", "plain"],
    ["series", "--k", "3", "--terms", "50"],
    ["series", "--k", "2", "--terms", "30", "--format", "csv"],
]

# every sweep route: count and enumerate by brute force for each family,
# the arrays route, the verify suites and the b-file check, and a stream on
# two workers
FAMILY_PARAMS = {
    "path": ["--n", "7"],
    "cycle": ["--n", "8"],
    "complete": ["--n", "5"],
    "cycle-power": ["--n", "9", "--k", "2"],
    "complete-product": ["--n", "3", "--m", "3"],
    "path-grid": ["--n", "3", "--m", "3"],
}
SWEEP_ROUTES = [
    *([command, "--family", family, *params, "--method", "bruteforce"]
      for family, params in FAMILY_PARAMS.items() for command in ("count", "enumerate")),
    *([command, "--family", family, *params, "--method", "arrays"]
      for family, params in (("path", ["--n", "9"]), ("path-grid", ["--n", "3", "--m", "4"]))
      for command in ("count", "enumerate")),
    ["enumerate", "--family", "path-grid", "--n", "2", "--m", "3", "--method", "arrays",
     "--format", "plain"],
    ["verify", "--suite", "all"],
    ["oeis"],
    ["enumerate", "--family", "cycle-power", "--n", "18", "--k", "2", "--workers", "2"],
]

BLOCK_NUMPY = 'import sys\nsys.modules["numpy"] = None\n'

RUN_ROUTES = """\
import contextlib, io, json
import digicon, digicon.cli
loaded = sorted(m for m in ("numpy", "concurrent.futures") if sys.modules.get(m) is not None)
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = digicon.cli.main(argv)
    runs.append([code, out.getvalue()])
library = {library}
after = sorted(m for m in ("numpy", "concurrent.futures") if sys.modules.get(m) is not None)
print(json.dumps({{"loaded": loaded, "runs": runs, "library": library, "after": after}}))
"""
# library calls with no sweep, the cyclic string API among them; evaluated
# with digicon imported, in the blocked interpreter and in this one
NO_SWEEP_LIBRARY = """[digicon.count_cycle_power(2, 500), digicon.count_grid_p2(200),
           [s.mask for s in digicon.generate_grid_p2(8)],
           digicon.is_member_B(3, digicon.CyclicBinaryString.from_text("1110001")),
           str(digicon.string_from_convex_set(2, 7, digicon.VertexSet.from_indices(7, [0, 6]))),
           digicon.convex_set_from_string(2, 7, digicon.CyclicBinaryString.from_text("1110001")).mask,
           [str(s) for s in list(digicon.enumerate_B(3, 12))]]"""


def _python(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True)


def _in_process(argv) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [code, out.getvalue()]


def test_non_sweep_routes_run_without_numpy():
    proc = _python(BLOCK_NUMPY + RUN_ROUTES.format(library=NO_SWEEP_LIBRARY),
                   json.dumps(NO_SWEEP_ROUTES))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    # importing digicon and its CLI loads neither numpy nor the thread pool
    assert result["loaded"] == []
    for argv, run in zip(NO_SWEEP_ROUTES, result["runs"], strict=True):
        assert run == _in_process(argv), argv
        assert run[0] == 0 and run[1], argv
    assert result["library"] == eval(NO_SWEEP_LIBRARY)
    assert result["library"][3:6] == [True, "1110001", 0b1000001]


def test_import_leaves_numpy_and_the_pool_unloaded_until_a_sweep_runs():
    script = (
        "import sys\n"
        "import digicon, digicon.cli\n"
        "print(sorted(m for m in ('numpy', 'concurrent.futures') if m in sys.modules))\n"
        "digicon.cli.main(['count', '--family', 'path', '--n', '5', '--method', 'bruteforce'])\n"
        "print(sorted(m for m in ('numpy', 'concurrent.futures') if m in sys.modules))\n"
        "import numpy\n"
        "print(digicon.products.np is numpy)\n"
    )
    proc = _python(script)
    assert proc.returncode == 0, proc.stderr
    count = digicon.count_digitally_convex(digicon.make_path(5))
    assert proc.stdout.splitlines() == ["[]", str(count), "[]", "True"]


def test_sweep_routes_run_without_numpy():
    library = "[digicon.count_mis_grid3(3, 3), digicon.count_mis_grid3(2, 4)]"
    proc = _python(BLOCK_NUMPY + RUN_ROUTES.format(library=library), json.dumps(SWEEP_ROUTES))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["loaded"] == []
    for argv, run in zip(SWEEP_ROUTES, result["runs"], strict=True):
        assert run == _in_process(argv), argv
        assert run[0] == 0 and run[1], argv
    assert result["library"] == [digicon.count_mis_grid3(3, 3), digicon.count_mis_grid3(2, 4)]
    # the routes ran, --workers 2 included, and loaded no thread pool
    assert "concurrent.futures" not in result["after"]


def test_products_np_is_numpy():
    # perfbench/tracer.py reads and rebinds products.np
    assert digicon.products.np is numpy
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        digicon.products.nonesuch


def test_fresh_interpreters_stream_the_same_bytes_for_one_and_two_workers():
    # each run is a fresh interpreter whose first sweep is a 16-block sweep
    # of 2^20 subsets
    argv = [sys.executable, "-m", "digicon", "enumerate", "--family", "cycle-power",
            "--n", "20", "--k", "2"]
    one = subprocess.run([*argv, "--workers", "1"], capture_output=True)
    assert one.returncode == 0, one.stderr
    assert one.stdout.count(b"\n") == digicon.count_cycle_power(2, 20)
    for _ in range(5):
        two = subprocess.run([*argv, "--workers", "2"], capture_output=True)
        assert two.returncode == 0, two.stderr
        assert two.stdout == one.stdout


# modules that importing digicon does not need, nor any route that reads or
# writes no JSON and prints no int wider than 4096 bits; dataclasses would
# pull in inspect, ast and dis
LAZY = ("dataclasses", "inspect", "json", "decimal")

BLOCK_LAZY = f"import sys\nfor name in {LAZY!r}:\n    sys.modules[name] = None\n"

# reads its routes from a literal and prints the runs with repr, so that it
# needs no json itself
RUN_LITERAL = """\
import contextlib, io
import digicon
from digicon.cyclic import count_cycle_power
import digicon.cli
runs = []
for argv in {routes!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = digicon.cli.main(argv)
    runs.append([code, out.getvalue()])
print(repr([count_cycle_power(2, 300), runs]))
"""

PLAIN_ROUTES = [
    ["count", "--family", "cycle", "--n", "10"],
    ["count", "--family", "cycle-power", "--n", "200", "--k", "3", "--format", "csv"],
    ["count", "--family", "path-grid", "--n", "3", "--m", "3", "--format", "plain"],
    ["enumerate", "--family", "path-grid", "--n", "5", "--m", "2", "--method", "recurrence",
     "--format", "plain"],
    ["verify", "--suite", "grid-p2"],
]


def test_plain_routes_run_without_dataclasses_inspect_json_or_decimal():
    proc = _python(BLOCK_LAZY + RUN_LITERAL.format(routes=PLAIN_ROUTES))
    assert proc.returncode == 0, proc.stderr
    value, runs = ast.literal_eval(proc.stdout)
    assert value == digicon.count_cycle_power(2, 300)
    for argv, run in zip(PLAIN_ROUTES, runs, strict=True):
        assert run == _in_process(argv), argv
        assert run[0] == 0 and run[1], argv
    assert runs[0][1] == "122\n"


# what a route may load; inspect is left to the blocked run above, since
# importlib.resources, through which oeis reads its file, imports inspect
# itself from Python 3.12 on
LOADABLE = ("dataclasses", "json", "decimal")

LOADED_BY = """\
import contextlib, io, sys
import digicon.cli
lazy = {lazy!r}
before = [m for m in lazy if m in sys.modules]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = digicon.cli.main(sys.argv[1:])
print(repr([before, [m for m in lazy if m in sys.modules], code, out.getvalue()]))
"""

# a route, and the modules it loads of LOADABLE
LOADING_ROUTES = [
    (["count", "--family", "cycle", "--n", "10"], []),
    (["count", "--family", "cycle", "--n", "10", "--format", "jsonl"], ["json"]),
    (["series", "--k", "3", "--terms", "20", "--format", "csv"], ["decimal"]),
    (["oeis", "--max-cells", "6"], ["json"]),
    # 4166 bits: wider than sequences._PLAIN_BITS, so printed via decimal
    (["count", "--family", "cycle", "--n", "6000"], ["decimal"]),
]


@pytest.mark.parametrize("argv, loads", LOADING_ROUTES, ids=[" ".join(a) for a, _ in LOADING_ROUTES])
def test_a_route_loads_json_or_decimal_only_when_it_needs_them(argv, loads):
    proc = _python(LOADED_BY.format(lazy=LOADABLE), *argv)
    assert proc.returncode == 0, proc.stderr
    before, after, code, out = ast.literal_eval(proc.stdout)
    # importing digicon.cli loads none of them
    assert before == []
    assert after == loads
    assert [code, out] == _in_process(argv)



# every name the package exported when its __init__ imported all of its
# modules, by the module that defines it
EXPORTED = {
    "_kernels": ["DEFAULT_MAX_SUBSETS", "EnumerationBudget"],
    "convexity": ["count_digitally_convex", "digital_convex_hull", "enumerate_digitally_convex",
                  "has_private_neighbor", "is_digitally_convex"],
    "cyclic": ["BlockProfile", "CyclicBinaryString", "a_count", "a_series",
               "convex_set_from_string", "count_cycle_power", "cyclic_blocks", "enumerate_B",
               "is_member_B", "string_from_convex_set"],
    "errors": ["BfileParseError", "BudgetExceededError", "EmptyOverlapError",
               "InvalidParameterError", "NotConvexError", "NotImageError", "NotMemberError"],
    "graphs": ["Graph", "VertexSet", "cartesian_product", "closed_neighborhood",
               "closed_neighborhood_of_set", "graph_from_json", "graph_power", "graph_to_json",
               "make_complete", "make_cycle", "make_path", "set_from_json", "set_to_json"],
    "products": ["BinaryArray", "array_from_set", "count_complete_product", "count_grid_p2",
                 "count_grid_via_arrays", "count_mis_grid3", "generate_grid_p2", "max_transform",
                 "min_transform", "set_from_array"],
    "sequences": ["ComparisonReport", "LinearRecurrence", "PowerSeries", "compare_with_bfile",
                  "eval_recurrence", "expand_rational", "parse_bfile"],
}

LAZY_PACKAGE = """\
import importlib, sys
import digicon
loaded = sorted(m for m in sys.modules if m.startswith("digicon."))
listed = dir(digicon)
exported = {exported!r}
same = [name for module, names in exported.items() for name in names
        if getattr(digicon, name) is getattr(importlib.import_module("digicon." + module), name)]
print(repr([loaded, digicon.__version__, same, sorted(set(same) - set(listed))]))
"""


def test_import_loads_no_module_until_a_name_is_read():
    proc = _python(LAZY_PACKAGE.format(exported=EXPORTED))
    assert proc.returncode == 0, proc.stderr
    loaded, version, same, unlisted = ast.literal_eval(proc.stdout)
    assert loaded == []
    assert version == digicon.__version__ == "0.1.0"
    # each name resolves to its module's object, and dir() lists it
    assert same == [name for names in EXPORTED.values() for name in names]
    assert unlisted == []


def test_the_package_resolves_its_modules_and_refuses_unknown_names():
    for module in EXPORTED:
        assert getattr(digicon, module) is sys.modules["digicon." + module]
        assert module in dir(digicon)
    from digicon import graphs, make_path
    assert make_path is graphs.make_path
    with pytest.raises(AttributeError, match="has no attribute 'nonesuch'"):
        digicon.nonesuch
    with pytest.raises(ImportError):
        from digicon import nonesuch  # noqa: F401
