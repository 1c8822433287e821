"""numpy and the thread pool are imported only by the routes that sweep.

Each check runs in a fresh interpreter, since this one has loaded numpy
already.  A first line of sys.modules["numpy"] = None makes any later
import of numpy raise ImportError.
"""

import contextlib
import io
import json
import subprocess
import sys

import numpy
import pytest

import digicon
from digicon.cli import main

# every route that needs no sweep: recurrences, formulas, the ladder and series
NO_SWEEP_ROUTES = [
    ["count", "--family", "cycle", "--n", "300", "--method", "recurrence"],
    ["count", "--family", "cycle-power", "--n", "200", "--k", "3", "--method", "recurrence"],
    ["count", "--family", "complete", "--n", "7", "--method", "formula"],
    ["count", "--family", "complete-product", "--n", "3", "--m", "5", "--method", "formula"],
    ["count", "--family", "path-grid", "--n", "60", "--m", "2", "--method", "recurrence"],
    ["enumerate", "--family", "path-grid", "--n", "7", "--m", "2", "--method", "recurrence"],
    ["enumerate", "--family", "path-grid", "--n", "5", "--m", "2", "--method", "recurrence",
     "--format", "plain"],
    ["series", "--k", "3", "--terms", "50"],
    ["series", "--k", "2", "--terms", "30", "--format", "csv"],
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
library = [digicon.count_cycle_power(2, 500), digicon.count_grid_p2(200),
           [s.mask for s in digicon.generate_grid_p2(8)]]
print(json.dumps({"loaded": loaded, "runs": runs, "library": library}))
"""


def _python(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True)


def _in_process(argv) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [code, out.getvalue()]


def test_non_sweep_routes_run_without_numpy():
    proc = _python(BLOCK_NUMPY + RUN_ROUTES, json.dumps(NO_SWEEP_ROUTES))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    # importing digicon and its CLI loads neither numpy nor the thread pool
    assert result["loaded"] == []
    for argv, run in zip(NO_SWEEP_ROUTES, result["runs"], strict=True):
        assert run == _in_process(argv), argv
        assert run[0] == 0 and run[1], argv
    assert result["library"] == [digicon.count_cycle_power(2, 500), digicon.count_grid_p2(200),
                                 [s.mask for s in digicon.generate_grid_p2(8)]]


def test_import_leaves_numpy_and_the_pool_unloaded_until_a_sweep_runs():
    script = (
        "import sys\n"
        "import digicon, digicon.cli\n"
        "print(sorted(m for m in ('numpy', 'concurrent.futures') if m in sys.modules))\n"
        "digicon.cli.main(['count', '--family', 'path', '--n', '5', '--method', 'bruteforce'])\n"
        "import numpy\n"
        "print(digicon.products.np is numpy)\n"
    )
    proc = _python(script)
    assert proc.returncode == 0, proc.stderr
    count = digicon.count_digitally_convex(digicon.make_path(5))
    assert proc.stdout.splitlines() == ["[]", str(count), "True"]


def test_a_sweep_without_numpy_fails_with_an_import_error():
    script = BLOCK_NUMPY + (
        "import digicon\n"
        "try:\n"
        "    digicon.count_digitally_convex(digicon.make_path(5))\n"
        "except ImportError:\n"
        "    print('ImportError')\n"
    )
    proc = _python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ImportError\n"


def test_products_np_is_numpy():
    # perfbench/tracer.py reads and rebinds products.np
    assert digicon.products.np is numpy
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        digicon.products.nonesuch


def test_first_numpy_use_on_a_pool_streams_like_one_worker():
    # each run is a fresh interpreter whose first numpy use is a 16-block
    # sweep of 2^20 subsets on two workers
    argv = [sys.executable, "-m", "digicon", "enumerate", "--family", "cycle-power",
            "--n", "20", "--k", "2"]
    one = subprocess.run([*argv, "--workers", "1"], capture_output=True)
    assert one.returncode == 0, one.stderr
    assert one.stdout.count(b"\n") == digicon.count_cycle_power(2, 20)
    for _ in range(5):
        two = subprocess.run([*argv, "--workers", "2"], capture_output=True)
        assert two.returncode == 0, two.stderr
        assert two.stdout == one.stdout
