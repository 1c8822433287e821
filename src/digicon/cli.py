"""Command-line front end: exact counts, enumeration streams, series
expansion, verification suites, and sequence-file comparison.

Exit codes: 0 success, 1 verification mismatch, 2 usage or parameter error,
3 enumeration budget exceeded.  Counts are always printed as decimal
strings; enumeration uses JSON Lines by default.  All output is
deterministic for a fixed request, regardless of --workers.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from decimal import Decimal
from importlib import resources
from operator import getitem
from pathlib import Path

from .convexity import (
    DEFAULT_MAX_SUBSETS,
    EnumerationBudget,
    _convex_codes,
    count_digitally_convex,
    enumerate_digitally_convex,
)
from .cyclic import (
    _convex_set_codes,
    a_count,
    a_series,
    convex_set_from_string,
    count_cycle_power,
    enumerate_B,
    string_from_convex_set,
)
from .errors import (
    BfileParseError,
    BudgetExceededError,
    EmptyOverlapError,
    InvalidParameterError,
    NotConvexError,
    NotImageError,
    NotMemberError,
)
from .graphs import cartesian_product, graph_power, make_complete, make_cycle, make_path
from .products import (
    _antidiagonal_index,
    _grid_cells,
    _grid_p2_codes,
    _image_codes,
    count_complete_product,
    count_grid_p2,
    count_grid_via_arrays,
    generate_grid_p2,
)
from .sequences import ComparisonReport, compare_with_bfile


def _sweep(graph):
    """Count and enumerate routes over every subset of graph(**params)."""
    def enumerate_route(budget, **p):
        g = graph(**p)
        return g.order, _convex_codes(g, budget)

    return (lambda budget, **p: count_digitally_convex(graph(**p), budget), enumerate_route)


def _streamed(enumerate_route):
    """Count and enumerate routes where the count is the length of the stream."""
    return (lambda budget, **p: sum(1 for _ in enumerate_route(budget, **p)[1]), enumerate_route)


def _cycle_graph(n: int, k: int | None = None):
    return make_cycle(n) if k is None else graph_power(make_cycle(n), k)


def _ladder_length(n: int, m: int) -> int:
    if m != 2:
        raise InvalidParameterError("method recurrence for path-grid needs --m 2")
    return n


# family -> ({parameter: least value}, {method: (count route, enumerate route or None)}).
# The least values are checked before any route runs.  The first method is
# the count default; enumerate defaults to bruteforce.  An enumerate route
# returns the universe and a stream of set bitmasks.  Routes look library
# functions up when called, never at import, so a function rebound on its
# module (by a profiler, say) is the one that runs.
FAMILIES = {
    "path": ({"n": 1}, {
        "bruteforce": _sweep(lambda n: make_path(n)),
        # with the row-major cell order, an image code is its convex set's bitmask
        "arrays": (lambda budget, n: count_grid_via_arrays(n, 1, budget),
                   lambda budget, n: (n, _image_codes(n, 1, budget))),
    }),
    "cycle": ({"n": 3}, {
        "recurrence": (lambda budget, n: count_cycle_power(1, n), None),
        "bruteforce": _sweep(_cycle_graph),
        # the block-string bijection: strings with blocks >= 2 <-> convex sets of C_n
        "bijection": _streamed(lambda budget, n: (n, _convex_set_codes(1, n, budget))),
    }),
    "complete": ({"n": 1}, {
        # N[S] is every vertex for nonempty S, so only the empty and full sets are convex
        "formula": (lambda budget, n: 2, None),
        "bruteforce": _sweep(lambda n: make_complete(n)),
    }),
    "cycle-power": ({"n": 3, "k": 1}, {
        "recurrence": (lambda budget, n, k: count_cycle_power(k, n), None),
        "bruteforce": _sweep(_cycle_graph),
        "bijection": _streamed(lambda budget, n, k: (n, _convex_set_codes(k, n, budget))),
    }),
    "complete-product": ({"n": 1, "m": 1}, {
        "formula": (lambda budget, n, m: count_complete_product(n, m), None),
        "bruteforce": _sweep(lambda n, m: cartesian_product(make_complete(n), make_complete(m))),
    }),
    "path-grid": ({"n": 1, "m": 1}, {
        "arrays": (lambda budget, n, m: count_grid_via_arrays(n, m, budget),
                   lambda budget, n, m: (n * m, _image_codes(n, m, budget))),
        "bruteforce": _sweep(lambda n, m: cartesian_product(make_path(n), make_path(m))),
        "recurrence": (lambda budget, n, m: count_grid_p2(_ladder_length(n, m)),
                       lambda budget, n, m: (2 * n, _grid_p2_codes(_ladder_length(n, m)))),
    }),
}


def _route(args, command: str):
    """Check parameters and method; return them and the route for "count" or "enumerate"."""
    family = args.family
    least, methods = FAMILIES[family]
    for name in least:
        if getattr(args, name) is None:
            raise InvalidParameterError(f"family {family} needs --{name}")
    for name in ("n", "m", "k"):
        if name not in least and getattr(args, name) is not None:
            raise InvalidParameterError(f"family {family} does not take --{name}")
    method = args.method or (next(iter(methods)) if command == "count" else "bruteforce")
    routes = methods.get(method, (None, None))
    route = routes[0] if command == "count" else routes[1]
    if route is None:
        raise InvalidParameterError(f"family {family} cannot {command} by method {method}")
    params = {name: getattr(args, name) for name in least}
    for name, value in params.items():
        if value < least[name]:
            raise InvalidParameterError(f"{name} must be >= {least[name]}, got {value}")
    return params, method, route


def _budget_from(args) -> EnumerationBudget:
    cap = args.max_subsets
    env = os.environ.get("DIGICON_MAX_SUBSETS")
    if cap is None and env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise InvalidParameterError(
                f"DIGICON_MAX_SUBSETS must be an integer, got {env!r}") from None
    return EnumerationBudget(DEFAULT_MAX_SUBSETS if cap is None else cap, args.workers)


def _cmd_count(args) -> int:
    params, method, count = _route(args, "count")
    # exact at any size, where str(int) stops at 4300 digits by default
    value = str(Decimal(count(_budget_from(args), **params)))
    if args.format == "csv":
        print("family,params,method,count")
        joined = ";".join(f"{k}={v}" for k, v in params.items())
        print(f"{args.family},{joined},{method},{value}")
    elif args.format == "jsonl":
        print(json.dumps({"family": args.family, "params": params, "method": method,
                          "count": value}))
    else:
        print(value)
    return 0


# lines per print: about what fills the 8 KiB stdout buffer, so that a
# stream's first line goes out no later than with one print per line
_BATCH_LINES = 256


def _line_format(universe: int, fmt: str):
    """mask -> its line, as set_to_json (jsonl) or the 1-based plain form
    prints VertexSet(universe, mask): frag[j][byte] holds the joined labels
    of the set bits of byte j, and a line joins one per byte of the mask."""
    first, sep, left, right = (1, " ", "", "") if fmt == "plain" else (0, ", ", "[", "]")
    width = (universe + 7) // 8
    frag = [[sep.join(str(8 * j + bit + first) for bit in range(8) if byte >> bit & 1)
             for byte in range(256)] for j in range(width)]
    join = sep.join

    def line(mask: int) -> str:
        return f"{left}{join(filter(None, map(getitem, frag, mask.to_bytes(width, 'little'))))}{right}"

    return line


def _cmd_enumerate(args) -> int:
    params, _, enumerate_masks = _route(args, "enumerate")
    if args.format == "csv":
        raise InvalidParameterError("enumerate emits jsonl or plain, not csv")
    universe, masks = enumerate_masks(_budget_from(args), **params)
    lines = map(_line_format(universe, args.format), masks)
    while batch := list(itertools.islice(lines, _BATCH_LINES)):
        print("\n".join(batch))
    return 0


def _cmd_series(args) -> int:
    coefficients = [str(Decimal(c)) for c in a_series(args.k, args.terms).coefficients]
    if args.format == "csv":
        print("n,coefficient")
        for i, c in enumerate(coefficients):
            print(f"{i},{c}")
    elif args.format == "jsonl":
        for i, c in enumerate(coefficients):
            print(json.dumps({"n": i, "coefficient": c}))
    else:
        print(json.dumps(coefficients))
    return 0


def _suite_cyclic_strings(max_k: int, max_n: int, budget) -> list:
    cases = []
    for k in range(2, max_k + 1):
        series = a_series(k, max_n)
        for n in range(1, max_n + 1):
            enumerated = sum(1 for _ in enumerate_B(k, n, budget))
            counted = a_count(k, n)
            ok = enumerated == counted == series[n]
            cases.append((f"strings k={k} n={n}", ok,
                          f"enumerated {enumerated}, recurrence {counted}, series {series[n]}"))
    return cases


def _suite_cycle_power(max_k: int, max_n: int, budget) -> list:
    cases = []
    for k in range(1, max_k + 1):
        for n in range(3, max_n + 1):
            graph = graph_power(make_cycle(n), k)
            brute = list(enumerate_digitally_convex(graph, budget))
            recurrence = count_cycle_power(k, n)
            via_strings = a_count(k + 1, n)
            ok = len(brute) == recurrence == via_strings
            detail = f"bruteforce {len(brute)}, recurrence {recurrence}, strings {via_strings}"
            if any(convex_set_from_string(k, n, string_from_convex_set(k, n, s)) != s
                   for s in brute):
                ok = False
                detail += ", round trip failed"
            cases.append((f"cycle-power k={k} n={n}", ok, detail))
    return cases


def _suite_fast_route(label: str, family: str, cells, budget) -> list:
    """The family's default count route against the exhaustive sweep."""
    routes = FAMILIES[family][1]
    methods = (next(iter(routes)), "bruteforce")
    cases = []
    for n, m in cells:
        counts = [routes[method][0](budget, n=n, m=m) for method in methods]
        cases.append((f"{label} {n}x{m}", counts[0] == counts[1],
                      f"{methods[0]} {counts[0]}, bruteforce {counts[1]}"))
    return cases


def _suite_grid_p2(max_n: int, budget) -> list:
    cases = []
    for n in range(1, max_n + 1):
        ladder = cartesian_product(make_path(n), make_path(2))
        brute = list(enumerate_digitally_convex(ladder, budget))
        generated = generate_grid_p2(n)
        counted = count_grid_p2(n)
        ok = len(brute) == counted and list(generated) == brute
        cases.append((f"ladder n={n}", ok,
                      f"bruteforce {len(brute)}, recurrence {counted}, generated {len(generated)}"))
    return cases


def _oeis_report(bfile, max_cells: int, budget) -> ComparisonReport:
    """Grid counts for every n x m with n*m <= max_cells, in antidiagonal
    order, compared against the sequence file (default: bundled snapshot).

    The file is read before any count, so an unreadable one costs no sweep.
    """
    path = resources.files("digicon") / "data" / "A217637.txt" if bfile is None else Path(bfile)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"cannot read the sequence file: {exc}") from None
    values = [
        (_antidiagonal_index(n, m), count_grid_via_arrays(n, m, budget))
        for n, m in _grid_cells(max_cells)
    ]
    return compare_with_bfile(values, lines)


def _suite_oeis(bfile, max_cells: int, budget) -> list:
    report = _oeis_report(bfile, max_cells, budget)
    cases = [("sequence-file overlap", report.all_match,
              f"matched {report.matched}, mismatches {len(report.mismatches)}")]
    for index, expected, found in report.mismatches:
        cases.append((f"index {index}", False, f"expected {expected}, found {found}"))
    return cases


def _checked_bound(value, flag: str):
    if value is not None and value < 1:
        raise InvalidParameterError(f"{flag} must be a positive integer, got {value}")
    return value


# suite -> its cases, from the checked bounds (None for the suite's default)
_SUITES = {
    "cyclic-strings": lambda a, budget: _suite_cyclic_strings(a.max_k or 5, a.max_n or 14, budget),
    "cycle-power-bijection": lambda a, budget: _suite_cycle_power(a.max_k or 3, a.max_n or 12, budget),
    "complete-product": lambda a, budget: _suite_fast_route(
        "complete-product", "complete-product",
        itertools.product(range(1, (a.max_n or 4) + 1), repeat=2), budget),
    "grid-p2": lambda a, budget: _suite_grid_p2(a.max_n or 8, budget),
    "grid-arrays": lambda a, budget: _suite_fast_route(
        "grid", "path-grid", _grid_cells(a.max_cells or 16), budget),
    "oeis": lambda a, budget: _suite_oeis(a.bfile, a.max_cells or 20, budget),
}


def _cmd_verify(args) -> int:
    budget = _budget_from(args)
    _checked_bound(args.max_k, "--max-k")
    _checked_bound(args.max_n, "--max-n")
    _checked_bound(args.max_cells, "--max-cells")
    chosen = list(_SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    total = 0
    for name in chosen:
        for case, ok, detail in _SUITES[name](args, budget):
            total += 1
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} [{name}] {case}: {detail}")
    if failures:
        print(f"{failures} of {total} cases failed")
        return 1
    print(f"all {total} cases passed")
    return 0


def _cmd_oeis(args) -> int:
    budget = _budget_from(args)
    report = _oeis_report(args.bfile, _checked_bound(args.max_cells, "--max-cells"), budget)
    print(report.to_json())
    return 0 if report.all_match else 1


def _add_budget(sub):
    sub.add_argument("--workers", type=int, default=1, help="worker threads for sweeps")
    sub.add_argument("--max-subsets", type=int, default=None,
                     help=f"sweep size cap (default {DEFAULT_MAX_SUBSETS}, env DIGICON_MAX_SUBSETS)")


def _add_family_command(commands, name: str, handler, text: str):
    sub = commands.add_parser(name, help=text)
    sub.add_argument("--family", required=True, choices=tuple(FAMILIES))
    for param in ("--n", "--m", "--k"):
        sub.add_argument(param, type=int, default=None)
    sub.add_argument("--method", default=None, choices=tuple(
        dict.fromkeys(method for _, methods in FAMILIES.values() for method in methods)))
    _add_budget(sub)
    sub.add_argument("--format", choices=("jsonl", "csv", "plain"), default=None)
    sub.set_defaults(handler=handler)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digicon",
        description="Exact enumeration of digitally convex sets of graphs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    _add_family_command(commands, "count", _cmd_count,
                        "count digitally convex sets of a graph family")
    _add_family_command(commands, "enumerate", _cmd_enumerate,
                        "stream the digitally convex sets themselves")

    series = commands.add_parser("series", help="expand the block-string counting series")
    series.add_argument("--k", type=int, required=True, help="minimum block length, >= 2")
    series.add_argument("--terms", type=int, required=True, help="highest exponent to expand")
    series.add_argument("--format", choices=("jsonl", "csv", "plain"), default=None)
    series.set_defaults(handler=_cmd_series)

    verify = commands.add_parser("verify", help="cross-validate counts between independent methods")
    verify.add_argument("--suite", required=True,
                        choices=(*_SUITES, "all"))
    verify.add_argument("--max-n", type=int, default=None)
    verify.add_argument("--max-k", type=int, default=None)
    verify.add_argument("--max-cells", type=int, default=None)
    verify.add_argument("--bfile", default=None, help="sequence file for the oeis suite")
    _add_budget(verify)
    verify.set_defaults(handler=_cmd_verify)

    oeis = commands.add_parser("oeis", help="compare grid counts against a sequence file")
    oeis.add_argument("--bfile", default=None, help="path to the sequence file (default: bundled snapshot)")
    oeis.add_argument("--max-cells", type=int, default=20, help="largest n*m to compute")
    _add_budget(oeis)
    oeis.set_defaults(handler=_cmd_oeis)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout must fail here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: end quietly, and send what is still
        # buffered to devnull so that the final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidParameterError, NotConvexError, NotMemberError, NotImageError,
            BfileParseError, EmptyOverlapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
