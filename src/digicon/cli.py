"""Command-line front end: exact counts, enumeration streams, series
expansion, verification suites, and sequence-file comparison.

Exit codes: 0 success, 1 verification mismatch, 2 usage or parameter error,
3 enumeration budget exceeded or an answer too large to build.  Counts are
always printed as decimal strings; enumeration uses JSON Lines by default.
All output is deterministic for a fixed request, regardless of --workers.

``main(argv)`` is the in-process API: it runs one command and returns its
exit code.  ``run()`` is the process entry point (``python -m digicon`` and
the ``digicon`` script): it runs ``main`` on ``sys.argv``, then freezes the
heap with ``gc.freeze()`` so that the interpreter's exit collections skip
every object the process made, and exits with ``main``'s code.
"""

from __future__ import annotations

import functools
import gc
import itertools
import operator
import os
import sys
import types

from ._kernels import (DEFAULT_MAX_SUBSETS, EnumerationBudget, _byte_bits, check_budget,
                       chunk_masks, convex_bits, count_flagged, iter_flagged)
from .cyclic import (
    _block_chunks,
    _blocks_ok,
    _convex_set_chunks,
    _dilated,
    _eroded,
    _series_fraction,
    a_count,
    a_series,
    count_cycle_power,
)
from .errors import (
    BfileParseError,
    BudgetExceededError,
    EmptyOverlapError,
    InvalidParameterError,
    NotConvexError,
    NotImageError,
    NotMemberError,
    _int,
)
from .graphs import cartesian_product, graph_power, make_complete, make_cycle, make_path
from .products import (
    _antidiagonal_index,
    _grid_cells,
    _image_chunks,
    _ladder_chunks,
    count_complete_product,
    count_grid_p2,
    count_grid_via_arrays,
)
from .sequences import ComparisonReport, _exact, _int_text, _long_division, compare_with_bfile


def _sweep(graph, order=lambda n, **_: n):
    """Count and enumerate routes over every subset of graph(**params), of
    order(**params) vertices, built only once the sweep passes its check."""
    return (lambda budget, **p: count_flagged(order(**p), convex_bits,
                                              lambda: graph(**p).closed_masks, budget, "subsets"),
            lambda budget, **p: (order(**p), iter_flagged(
                order(**p), convex_bits, lambda: graph(**p).closed_masks, budget, "subsets")))


def _streamed(enumerate_route):
    """Count and enumerate routes where the count is the sum of the stream's table lengths."""
    return (lambda budget, **p: sum(len(t) for _, t in enumerate_route(budget, **p)[1]), enumerate_route)


def _cycle_graph(n: int, k: int | None = None):
    return make_cycle(n) if k is None else graph_power(make_cycle(n), k)


def _ladder_length(n: int, m: int) -> int:
    if m != 2:
        raise InvalidParameterError("method recurrence for path-grid needs --m 2")
    return n


# family -> ({parameter: least value}, {method: (count route, enumerate route or None)}).
# The least values are checked before any route runs.  The first method is
# the count default; enumerate defaults to bruteforce.  An enumerate route
# returns the universe and a stream of chunks (prefix, table) of set bitmasks.
# Routes look library functions up when called, never at import, so a
# function rebound on its module (by a profiler, say) is the one that runs.
FAMILIES = {
    "path": ({"n": 1}, {
        "bruteforce": _sweep(lambda n: make_path(n)),
        # with the row-major cell order, an image code is its convex set's bitmask
        "arrays": (lambda budget, n: count_grid_via_arrays(n, 1, budget),
                   lambda budget, n: (n, _image_chunks(n, 1, budget))),
    }),
    "cycle": ({"n": 3}, {
        "recurrence": (lambda budget, n: count_cycle_power(1, n), None),
        "bruteforce": _sweep(_cycle_graph),
        # the block-string bijection: strings with blocks >= 2 <-> convex sets of C_n
        "bijection": _streamed(lambda budget, n: (n, _convex_set_chunks(1, n, budget))),
    }),
    "complete": ({"n": 1}, {
        # N[S] is every vertex for nonempty S, so only the empty and full sets are convex
        "formula": (lambda budget, n: 2, None),
        "bruteforce": _sweep(lambda n: make_complete(n)),
    }),
    "cycle-power": ({"n": 3, "k": 1}, {
        "recurrence": (lambda budget, n, k: count_cycle_power(k, n), None),
        "bruteforce": _sweep(_cycle_graph),
        "bijection": _streamed(lambda budget, n, k: (n, _convex_set_chunks(k, n, budget))),
    }),
    "complete-product": ({"n": 1, "m": 1}, {
        "formula": (lambda budget, n, m: count_complete_product(n, m), None),
        "bruteforce": _sweep(lambda n, m: cartesian_product(make_complete(n), make_complete(m)),
                             lambda n, m: n * m),
    }),
    "path-grid": ({"n": 1, "m": 1}, {
        "arrays": (lambda budget, n, m: count_grid_via_arrays(n, m, budget),
                   lambda budget, n, m: (n * m, _image_chunks(n, m, budget))),
        "bruteforce": _sweep(lambda n, m: cartesian_product(make_path(n), make_path(m)),
                             lambda n, m: n * m),
        "recurrence": (lambda budget, n, m: count_grid_p2(_ladder_length(n, m)),
                       lambda budget, n, m: (2 * n, _ladder_chunks(_ladder_length(n, m), budget))),
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
    params = {name: _int(getattr(args, name), name, low) for name, low in least.items()}
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
    budget = EnumerationBudget(DEFAULT_MAX_SUBSETS if cap is None else cap)
    _int(args.workers, "workers", 1)
    return budget


def _cmd_count(args) -> int:
    params, method, count = _route(args, "count")
    value = _int_text(count(_budget_from(args), **params))
    if args.format == "csv":
        print("family,params,method,count")
        joined = ";".join(f"{k}={v}" for k, v in params.items())
        print(f"{args.family},{joined},{method},{value}")
    elif args.format == "jsonl":
        import json
        print(json.dumps({"family": args.family, "params": params, "method": method,
                          "count": value}))
    else:
        print(value)
    return 0


# characters per print: about what fills the 8 KiB stdout buffer, so that a
# stream's first line goes out no later than with one print per line, and a
# batch of long lines (big coefficients) holds no more than that
_BATCH_CHARS = 8192
# lines per text of a chunk's lines, and table entries a stream keeps at
# once (the 14-ladder's 11 tables hold 5,008)
_BATCH_LINES, _KEPT_ENTRIES = 256, 1 << 13


def _batches(texts, sep: str):
    """A stream of strings joined by sep in batches of about _BATCH_CHARS characters."""
    batch, size = [], 0
    for text in texts:
        batch.append(text)
        if (size := size + len(text)) >= _BATCH_CHARS:
            yield sep.join(batch)
            batch, size = [], 0
    if batch:
        yield sep.join(batch)


def _print_lines(lines) -> None:
    """Print a stream of lines, or of texts of several lines, a batch of them per print."""
    for text in _batches(lines, "\n"):
        print(text)


def _format_lines(universe: int, fmt: str, chunks):
    """The lines of VertexSet(universe, prefix | rest) for rest in table, for
    each chunk (prefix, table), as set_to_json (jsonl) or 1-based (plain), in
    texts of up to _BATCH_LINES lines.  An entry's text is its low byte's
    fragment and its higher bytes' joined fragments, joined again only when
    those change.  The prefix's bits lie below the table's, above them or
    both, so a chunk's lines are its entries' texts joined with the prefix's.
    A table's first read keeps the table (so its id stays its own), a second
    its texts, until the tables kept hold _KEPT_ENTRIES entries."""
    first, sep, left, right = (1, " ", "", "") if fmt == "plain" else (0, ", ", "[", "]")
    join, compress, getitem, bits = sep.join, itertools.compress, operator.getitem, _byte_bits()

    class Fragments(dict):  # byte -> the joined labels of its set bits from base, made on first use
        __slots__ = ("base",)  # no attribute dict for each of the positions

        def __init__(self, base):
            self.base = base

        def __missing__(self, byte):
            text = self[byte] = join(str(self.base + i) for i in bits[byte])
            return text

    frag = [Fragments(8 * j + first) for j in range(max(1, (universe + 7) // 8))]
    kept, held = {}, 0  # id(table) -> [table, its texts once read twice]; their entries

    def labels(mask, frag=frag):  # the joined labels of mask, bit 0 at frag[0]
        if mask < 256:
            return frag[0][mask] if mask else ""
        data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
        return join(map(getitem, compress(frag, data), compress(data, data)))

    def texts(table, skip):  # runs of entry texts, the empty entry's None; skip bytes are 0
        low_frag, high_frag, last = frag[skip], frag[skip + 1:], -1
        for i in range(0, len(table), _BATCH_LINES):
            run, part = [], table[i:i + _BATCH_LINES]
            for rest in [rest >> 8 * skip for rest in part] if skip else part:
                if rest >> 8 != last:
                    last = rest >> 8
                    text = labels(last, high_frag)
                    tail = sep + text if text else ""
                if low := rest & 255:
                    run.append(low_frag[low] + tail)
                elif rest:
                    run.append(text)
                else:  # the empty entry: a run of its own
                    yield from (run, None) if run else (None,)
                    run = []
            if run:
                yield run

    for prefix, table in chunks:
        if len(table) == 1:
            yield left + labels(prefix | table[0]) + right
            continue
        low = table[0] or table[1]  # the prefix's bits below it are below every entry
        if not low & 255:  # the entries' lowest bit, under which texts skip whole bytes
            low = functools.reduce(operator.or_, table)
        low, skip = (low & -low) - 1, (low & -low or 1).bit_length() - 1 >> 3  # -1, 0 if all 0
        if (got := kept.get(id(table))) is None:
            if held > _KEPT_ENTRIES:
                kept, held = {}, 0
            held += len(table)
            got = kept[id(table)] = [table, None]
        elif got[1] is None:  # equal texts of other tables are kept once
            got[1] = [run and [*map(sys.intern, run)] for run in texts(table, skip)]
        under, over = labels(prefix & low), labels(prefix & ~low)
        pre, post = f"{left}{under}{sep}" if under else left, f"{sep}{over}{right}" if over else right
        glue = f"{post}\n{pre}"
        for run in got[1] or texts(table, skip):
            yield f"{pre}{glue.join(run)}{post}" if run else left + join(filter(None, (under, over))) + right


def _cmd_enumerate(args) -> int:
    params, _, enumerate_chunks = _route(args, "enumerate")
    if args.format == "csv":
        raise InvalidParameterError("enumerate emits jsonl or plain, not csv")
    universe, chunks = enumerate_chunks(_budget_from(args), **params)
    _print_lines(_format_lines(universe, args.format, chunks))
    return 0


def _cmd_series(args) -> int:
    """The series coefficients, each printed as it is computed: the long
    division runs on Decimals under _exact(), where str is linear at any size
    and any rounding raises, and keeps min(2k, terms) coefficients."""
    import decimal
    numerator, denominator = _series_fraction(args.k)
    numerator = [(i, decimal.Decimal(c)) for i, c in numerator]
    coefficients = map(str, _long_division(numerator, denominator, args.terms))
    # the context is entered here, around the whole stream: a generator
    # that entered it would leak it to the caller at every yield
    with decimal.localcontext(_exact()):
        if args.format == "csv":
            print("n,coefficient")
            _print_lines(itertools.starmap("{},{}".format, enumerate(coefficients)))
        elif args.format == "jsonl":
            _print_lines(itertools.starmap('{{"n": {}, "coefficient": "{}"}}'.format,
                                           enumerate(coefficients)))
        else:  # the JSON list of the coefficient strings, on one line
            print("[", end="")
            for i, text in enumerate(_batches(map('"{}"'.format, coefficients), ", ")):
                print(f", {text}" if i else text, end="")
            print("]")
    return 0


def _run(command: str, family: str, method: str | None, budget, **params):
    """What `count` or `enumerate` (command) gives for the family by method
    (None: the count default): a count, or the list of set bitmasks."""
    methods = FAMILIES[family][1]
    count, stream = methods[method or next(iter(methods))]
    return count(budget, **params) if command == "count" else list(chunk_masks(stream(budget, **params)[1]))


def _case(label: str, values: dict, *checks: tuple[bool, str]) -> tuple:
    """A verify case from named route values, counts or mask lists shown by
    their length: ok when they all agree and every (holds, note) check
    holds; a failed check appends its note to the detail."""
    shown = {name: v if isinstance(v, int) else len(v) for name, v in values.items()}
    return (label, len(set(shown.values())) == 1 and all(holds for holds, _ in checks),
            ", ".join(f"{name} {value}" for name, value in shown.items())
            + "".join(note for holds, note in checks if not holds))


def _walked(k: int, n: int, budget) -> int:
    """The number of strings the walk of enumerate_B(k, n) yields, under the
    same budget, with no string built."""
    check_budget(a_count(k, n), budget, "strings")
    return sum(len(table) for _, table in _block_chunks(k, n))


def _suite_cyclic_strings(max_k: int, max_n: int, budget) -> list:
    series = {k: a_series(k, max_n) for k in range(2, max_k + 1)}
    return [_case(f"strings k={k} n={n}", {"enumerated": _walked(k, n, budget),
                                           "recurrence": a_count(k, n), "series": series[k][n]})
            for k, n in itertools.product(series, range(1, max_n + 1))]


def _suite_cycle_power(max_k: int, max_n: int, budget) -> list:
    """Each case's brute-force sets against the recurrence and the bijection
    stream, and the round trip of the whole list on int masks: dilated to
    their ones, every string's blocks >= k + 1, and eroded back to the list."""
    cases = []
    for k, n in itertools.product(range(1, max_k + 1), range(3, max_n + 1)):
        brute = _run("enumerate", "cycle-power", "bruteforce", budget, n=n, k=k)
        values = {"bruteforce": brute,
                  "recurrence": _run("count", "cycle-power", "recurrence", budget, n=n, k=k),
                  "strings": _run("enumerate", "cycle-power", "bijection", budget, n=n, k=k)}
        ones = _dilated(k, n, brute)
        round_trip = all(_blocks_ok(k + 1, n, ones)) and _eroded(k, n, ones) == brute
        cases.append(_case(f"cycle-power k={k} n={n}", values,
                           (sorted(values["strings"]) == brute, ", sets differ"),
                           (round_trip, ", round trip failed")))
    return cases


def _suite_fast_route(label: str, family: str, cells, budget) -> list:
    """The family's default count route against the exhaustive sweep."""
    fast = next(iter(FAMILIES[family][1]))
    return [_case(f"{label} {n}x{m}", {method: _run("count", family, method, budget, n=n, m=m)
                                       for method in (fast, "bruteforce")}) for n, m in cells]


def _suite_grid_p2(max_n: int, budget) -> list:
    cases = []
    for n in range(1, max_n + 1):
        brute = _run("enumerate", "path-grid", "bruteforce", budget, n=n, m=2)
        values = {"bruteforce": brute,
                  "recurrence": _run("count", "path-grid", "recurrence", budget, n=n, m=2),
                  "generated": _run("enumerate", "path-grid", "recurrence", budget, n=n, m=2)}
        cases.append(_case(f"ladder n={n}", values, (values["generated"] == brute, "")))
    return cases


def _oeis_report(bfile, max_cells: int, budget) -> ComparisonReport:
    """Grid counts for every n x m with n*m <= max_cells, in antidiagonal
    order, compared against the sequence file (default: bundled snapshot).

    The file is read before any count, so an unreadable one costs no sweep.
    """
    # imported here, not for every route: pathlib brings urllib.parse and
    # ipaddress, and from Python 3.12 on importlib.resources loads inspect
    from importlib import resources
    from pathlib import Path
    path = resources.files("digicon") / "data" / "A217637.txt" if bfile is None else Path(bfile)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"cannot read the sequence file: {exc}") from None
    values = [(_antidiagonal_index(n, m), _run("count", "path-grid", None, budget, n=n, m=m))
              for n, m in _grid_cells(max_cells)]
    return compare_with_bfile(values, lines)


def _suite_oeis(bfile, max_cells: int, budget) -> list:
    report = _oeis_report(bfile, max_cells, budget)
    return [("sequence-file overlap", report.all_match,
             f"matched {report.matched}, mismatches {len(report.mismatches)}"),
            *((f"index {index}", False,
               f"expected {_int_text(expected)}, found {_int_text(found)}")
              for index, expected, found in report.mismatches)]


def _checked_bound(value, flag: str):
    if value is not None and value < 1:
        raise InvalidParameterError(f"{flag} must be a positive integer, got {value}")
    return value


# suite -> ({flag: least value}, its cases from the checked bounds, None for
# the suite's default).  Below its least values a suite would check nothing,
# so every chosen suite's are checked before any suite runs.
_SUITES = {
    "cyclic-strings": ({"--max-k": 2}, lambda a, budget: _suite_cyclic_strings(
        a.max_k or 5, a.max_n or 14, budget)),
    "cycle-power-bijection": ({"--max-n": 3}, lambda a, budget: _suite_cycle_power(
        a.max_k or 3, a.max_n or 12, budget)),
    "complete-product": ({}, lambda a, budget: _suite_fast_route(
        "complete-product", "complete-product",
        itertools.product(range(1, (a.max_n or 4) + 1), repeat=2), budget)),
    "grid-p2": ({}, lambda a, budget: _suite_grid_p2(a.max_n or 8, budget)),
    "grid-arrays": ({}, lambda a, budget: _suite_fast_route(
        "grid", "path-grid", _grid_cells(a.max_cells or 16), budget)),
    "oeis": ({}, lambda a, budget: _suite_oeis(a.bfile, a.max_cells or 20, budget)),
}


def _cmd_verify(args) -> int:
    budget = _budget_from(args)
    _checked_bound(args.max_k, "--max-k")
    _checked_bound(args.max_n, "--max-n")
    _checked_bound(args.max_cells, "--max-cells")
    chosen = list(_SUITES) if args.suite == "all" else [args.suite]
    for name in chosen:
        for flag, least in _SUITES[name][0].items():
            value = getattr(args, flag[2:].replace("-", "_"))
            if value is not None and value < least:
                raise InvalidParameterError(
                    f"suite {name} needs {flag} >= {least} to check anything, got {value}")
    failures = total = 0
    for name in chosen:
        for case, ok, detail in _SUITES[name][1](args, budget):
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


_FORMATS = ("jsonl", "csv", "plain")
# flag -> (int, str or the tuple of its choices; its default, ... if required)
_BUDGET = {"--workers": (int, 1), "--max-subsets": (int, None)}
_FAMILY_FLAGS = {"--family": (tuple(FAMILIES), ...), **dict.fromkeys(("--n", "--m", "--k"), (int, None)),
                 "--method": (tuple(dict.fromkeys(m for _, ms in FAMILIES.values() for m in ms)), None),
                 **_BUDGET, "--format": (_FORMATS, None)}
# command -> (handler, its flags in synopsis order)
_COMMANDS = {
    "count": (_cmd_count, _FAMILY_FLAGS),
    "enumerate": (_cmd_enumerate, _FAMILY_FLAGS),
    "series": (_cmd_series, {"--k": (int, ...), "--terms": (int, ...), "--format": (_FORMATS, None)}),
    "verify": (_cmd_verify, {"--suite": ((*_SUITES, "all"), ...), **dict.fromkeys(
        ("--max-n", "--max-k", "--max-cells"), (int, None)), "--bfile": (str, None), **_BUDGET}),
    "oeis": (_cmd_oeis, {"--bfile": (str, None), "--max-cells": (int, 20), **_BUDGET}),
}


def _synopsis(command: str) -> str:
    words = [f"digicon {command}"]
    for flag, (kind, default) in _COMMANDS[command][1].items():
        word = f"{flag} {{{','.join(kind)}}}" if isinstance(kind, tuple) else f"{flag} {flag[2:].upper()}"
        words.append(word if default is ... else f"[{word}]")
    return " ".join(words)


def _exit(command: str | None, message: str | None = None):
    """Exit 0 after the synopsis of command (None: of every command) on stdout;
    or, given a message, exit 2 after a usage line and the message on stderr."""
    if message is None:
        print(*(f"usage: {_synopsis(name)}" for name in ([command] if command else _COMMANDS)), sep="\n")
        raise SystemExit(0)
    print(f"usage: {_synopsis(command) if command else 'digicon COMMAND [--flag VALUE]...'}\n"
          f"digicon{' ' + command if command else ''}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse(argv: list):
    """The handler and arguments of `COMMAND [--flag VALUE | --flag=VALUE]...`:
    exact flag names, a repeated flag's last value, int values read by int().
    Help exits 0, a usage error 2 in the wording of Python 3.11's option parser."""
    command, *tokens = argv or [None]
    if command not in _COMMANDS:
        choose = ", ".join(map(repr, _COMMANDS))
        _exit(None, None if command in ("-h", "--help") else
              f"argument command: invalid choice: {command!r} (choose from {choose})"
              if command and command[:1] != "-" else "the following arguments are required: command")
    handler, flags = _COMMANDS[command]
    values, unknown, tokens = {flag: default for flag, (_, default) in flags.items()}, [], iter(tokens)
    for token in tokens:
        if token in ("-h", "--help"):
            _exit(command)
        flag, inline, value = token.partition("=")
        if flag not in flags:
            unknown.append(token)
            continue
        # the next token, if any, is the value unless it starts with "-" and is no negative int
        if not inline and (value := next(tokens, "-"))[:1] == "-" and not value[1:].isdecimal():
            _exit(command, f"argument {flag}: expected one argument")
        kind, _ = flags[flag]
        if kind not in (int, str) and value not in kind:
            _exit(command, f"argument {flag}: invalid choice: {value!r} (choose from "
                           f"{', '.join(map(repr, kind))})")
        try:
            values[flag] = int(value) if kind is int else value
        except ValueError:
            _exit(command, f"argument {flag}: invalid int value: {value!r}")
    if missing := [flag for flag, value in values.items() if value is ...]:
        _exit(command, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        _exit(None, f"unrecognized arguments: {' '.join(unknown)}")
    return handler, types.SimpleNamespace(**{f[2:].replace("-", "_"): v for f, v in values.items()})


def main(argv=None) -> int:
    """Run one command on argv (default sys.argv[1:]) and return its exit
    code; a usage error raises SystemExit(2), a help request SystemExit(0).
    It never freezes the heap, so a long-lived process may call it again and
    again."""
    handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        code = handler(args)
        sys.stdout.flush()  # a closed stdout must fail here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: end quietly, and send what is still
        # buffered to devnull so that the final flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (BudgetExceededError, OverflowError, MemoryError) as exc:  # too large to run
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    except (InvalidParameterError, NotConvexError, NotMemberError, NotImageError,
            BfileParseError, EmptyOverlapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    """Run main on sys.argv and exit the process with its code.

    The output is flushed when main returns, so all that is left is the
    interpreter's finalization; frozen objects are skipped by its exit
    collections.  atexit handlers still run.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
