"""Digest what the digicon CLI prints over a fixed matrix of invocations,
or compare two such digests.

    python3 tools/stdout_digest.py [--src DIR] --out FILE
    python3 tools/stdout_digest.py --compare A B

The first form runs every invocation of the matrix in this process through
``digicon.cli.main``, with ``digicon`` imported from DIR (default: the
``src`` directory of this checkout), and writes to FILE, as JSON,
``{argv: [exit code, stdout sha256, last stderr line]}``.  The matrix is
every family x method (and the default method) x format (and the default
format), for ``count`` and ``enumerate``, at small sizes and at each
parameter one below its least value; plus, per family, ``count`` and
``enumerate`` at the first size with ``--workers`` 2, 8 and 0 (accepted and
ignored, then a usage error); plus
``verify --suite all``, ``oeis`` and ``series``; plus each verify suite
alone at bounds other than its defaults, ``verify --suite all`` under a
budget of 1000 subsets, and ``oeis --max-cells 22``; plus single runs of
``series --k 2 --terms 6500`` in each format, of ``series --k 1000000
--terms 3`` (a denominator of degree two million), of the ladder streams
at 1, 2, 3, 4, 13 and 14 columns, and of the bijection streams of
``cycle-power --k 4`` at 9, 10, 19 and 20 positions, ``cycle-power --k
29`` at 59, 60 and 61, ``cycle-power --n 60 --k 14``, ``cycle-power --n 40
--k 6``, ``cycle-power --n 5 --k 7``, ``cycle-power --n 60 --k 25``,
``cycle-power --n 100 --k 20`` (54,352 sets, string codes past 62 bits),
``cycle-power --n 201 --k 99`` and ``cycle-power --n 300 --k 140`` (codes
past 62 bits, a last run of ones merging into the first run and first
runs walked as rotations), ``cycle-power --n 100 --k 30`` and ``cycle-power
--n 1000 --k 500`` (dense k, walk tables shallower than n // 2),
``cycle-power --n 200 --k 54`` (18,202 sets, blocks of 55, between n / 4
and n / 3, where each shorter first run reads a deeper row of the walk
tables, built then), ``cycle-power --n 20000 --k 10000`` (the empty and the
full set of 20,000 positions, whose lines make the byte fragments of 2,500
positions, each on first use) and ``cycle --n 24``, each in jsonl and plain;
plus the sweep streams of 20 vertices, sixteen blocks each, where the high
members change the convexity terms from block to block: ``path-grid --n 4
--m 5`` by ``bruteforce`` and by ``arrays``, ``complete-product --n 4 --m
5`` by ``bruteforce`` (17 of its 20 vertices have a high neighbour) and
``cycle-power --n 20 --k 2`` by the default method, each in jsonl and plain.
The sweep-size cap is the default one: ``DIGICON_MAX_SUBSETS`` is unset
while the matrix runs.

To check that a change keeps the output bytes, digest the parent's source
(``--src PARENT/src``) and the change's, then compare.  ``--compare`` prints
every invocation whose entries differ or that only one file has, and exits
1 if any exit code or stdout digest differs or an invocation is missing; a
difference in the last stderr line alone, such as a reworded parameter
message, is printed but exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

METHODS = {
    "path": ("bruteforce", "arrays"),
    "cycle": ("recurrence", "bruteforce", "bijection"),
    "complete": ("formula", "bruteforce"),
    "cycle-power": ("recurrence", "bruteforce", "bijection"),
    "complete-product": ("formula", "bruteforce"),
    "path-grid": ("arrays", "bruteforce", "recurrence"),
}

# small sizes (streams of several batches of lines and sweeps of several
# sweep blocks among them), then each parameter one below its least value
SIZES = {
    "path": ((5,), (16,), (0,)),
    "cycle": ((7,), (19,), (2,)),
    "complete": ((3,), (0,)),
    "cycle-power": ((8, 2), (19, 3), (2, 1), (5, 0)),
    "complete-product": ((2, 3), (0, 2), (2, 0)),
    "path-grid": ((3, 2), (4, 3), (8, 2), (0, 2), (2, 0)),
}
PARAMS = {"cycle-power": ("--n", "--k")}

VERIFY_BOUNDS = {
    "cyclic-strings": ("--max-k", "3", "--max-n", "18"),
    "cycle-power-bijection": ("--max-k", "4", "--max-n", "13"),
    "complete-product": ("--max-n", "5"),
    "grid-p2": ("--max-n", "10"),
    "grid-arrays": ("--max-cells", "20"),
    "oeis": ("--max-cells", "12"),
}


def matrix() -> list[list[str]]:
    """Every invocation, as an argv list."""
    runs = []
    for family, methods in METHODS.items():
        flags = PARAMS.get(family, ("--n", "--m"))
        for size, command, method, fmt in itertools.product(
                SIZES[family], ("count", "enumerate"), (None, *methods),
                (None, "jsonl", "csv", "plain")):
            argv = [command, "--family", family]
            for flag, value in zip(flags, size):
                argv += [flag, str(value)]
            if method:
                argv += ["--method", method]
            if fmt:
                argv += ["--format", fmt]
            runs.append(argv)
        # --workers is accepted and ignored, and below 1 it exits 2
        first = [arg for flag, value in zip(flags, SIZES[family][0]) for arg in (flag, str(value))]
        for command, workers in itertools.product(("count", "enumerate"), (2, 8, 0)):
            runs.append([command, "--family", family, *first, "--workers", str(workers)])
    runs.append(["verify", "--suite", "all"])
    runs.append(["oeis"])
    # each suite alone at bounds other than its defaults, a budget that one
    # suite passes and the next exceeds, and grids past the oeis default
    for suite, bounds in VERIFY_BOUNDS.items():
        runs.append(["verify", "--suite", suite, *bounds])
    runs.append(["verify", "--suite", "all", "--max-subsets", "1000"])
    runs.append(["oeis", "--max-cells", "22"])
    for k, fmt in itertools.product((2, 3), (None, "jsonl", "csv", "plain")):
        runs.append(["series", "--k", str(k), "--terms", "40"] + (["--format", fmt] if fmt else []))
    # one run each at a size the loops above do not reach: coefficients past
    # the bits the CLI converts to decimal directly, and a large k
    for fmt in (None, "jsonl", "csv", "plain"):
        runs.append(["series", "--k", "2", "--terms", "6500"] + (["--format", fmt] if fmt else []))
    runs.append(["series", "--k", "1000000", "--terms", "3"])
    # ladder streams: 1, 2, 3 and 4 columns, where the prefix walk meets the
    # tables of the bottom n // 2 columns at once or after a step or two,
    # and the 13- and 14-ladders (154,078 and 386,974 sets); 3 columns is a
    # path-grid size above
    for n, fmt in itertools.product((1, 2, 4, 13, 14), ("jsonl", "plain")):
        runs.append(["enumerate", "--family", "path-grid", "--n", str(n), "--m", "2",
                     "--method", "recurrence", "--format", fmt])
    # bijection streams at the edges of its chunks and of the line widths:
    # blocks of 5 where two and four of them just fit or just do not, blocks
    # of 30 where two just do not, just fit and fit with one to spare (29
    # first runs of each bit walked as rotations), blocks of 15 where four
    # just fit, codes past 32 bits, k >= n, a dense k, codes past 62 bits in
    # 13-byte masks, dense k past 62 bits with rotated first runs and merging
    # last runs, dense k whose tables stop short of n // 2 (at 100 - 2 * 31
    # positions) or hold only the empty ending (the two constant strings of
    # 1000 positions), blocks of 55 between n / 4 and n / 3 of 200 positions,
    # where each shorter first run reads a deeper row of the tables, built
    # then, the two sets of 20,000 positions, and 103,684 strings of 24
    # positions
    block_edges = [("cycle-power", "--n", str(n), "--k", "4") for n in (9, 10, 19, 20)]
    block_edges += [("cycle-power", "--n", str(n), "--k", "29") for n in (59, 60, 61)]
    block_edges.append(("cycle-power", "--n", "60", "--k", "14"))
    for params, fmt in itertools.product(
            (*block_edges, ("cycle-power", "--n", "40", "--k", "6"),
             ("cycle-power", "--n", "5", "--k", "7"), ("cycle-power", "--n", "60", "--k", "25"),
             ("cycle-power", "--n", "100", "--k", "20"), ("cycle-power", "--n", "201", "--k", "99"),
             ("cycle-power", "--n", "300", "--k", "140"), ("cycle-power", "--n", "100", "--k", "30"),
             ("cycle-power", "--n", "1000", "--k", "500"), ("cycle-power", "--n", "200", "--k", "54"),
             ("cycle-power", "--n", "20000", "--k", "10000"), ("cycle", "--n", "24")),
            ("jsonl", "plain")):
        runs.append(["enumerate", "--family", *params, "--method", "bijection", "--format", fmt])
    # sweep streams of 2^20 codes, sixteen blocks whose high members vary
    # the convexity terms block by block: the 4 x 5 grid by both sweeps,
    # K_4 x K_5, where 17 of the 20 vertices have a high neighbour, and
    # C_20^2 by the default method
    multi_block = [("path-grid", "--n", "4", "--m", "5", "--method", "bruteforce"),
                   ("path-grid", "--n", "4", "--m", "5", "--method", "arrays"),
                   ("complete-product", "--n", "4", "--m", "5", "--method", "bruteforce"),
                   ("cycle-power", "--n", "20", "--k", "2")]
    for params, fmt in itertools.product(multi_block, ("jsonl", "plain")):
        runs.append(["enumerate", "--family", *params, "--format", fmt])
    return runs


def run(main, argv: list[str]) -> list:
    """[exit code, stdout sha256, last stderr line] of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
    errors = err.getvalue().splitlines()
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest(), errors[-1] if errors else ""]


def digest(src: Path) -> dict[str, list]:
    sys.path.insert(0, str(src))
    import digicon.cli

    if not Path(digicon.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: digicon is already imported from {digicon.cli.__file__}, not {src}")
    os.environ.pop("DIGICON_MAX_SUBSETS", None)
    return {" ".join(argv): run(digicon.cli.main, argv) for argv in matrix()}


def compare(a: dict, b: dict) -> int:
    """Print the differences; 1 if any exit code or stdout differs or an
    invocation is missing, else 0."""
    failed = differ = 0
    for argv in dict.fromkeys([*a, *b]):
        if argv not in a or argv not in b:
            print(f"only in {'B' if argv in b else 'A'}: {argv}")
            failed += 1
            continue
        if a[argv] == b[argv]:
            continue
        differ += 1
        failed += a[argv][:2] != b[argv][:2]
        changes = [f"{field} {x!r} -> {y!r}"
                   for field, x, y in zip(("exit", "stdout", "stderr"), a[argv], b[argv]) if x != y]
        print(f"{argv}: {'; '.join(changes)}")
    print(f"{differ} of {len(a)} invocations differ, {failed} in exit code, stdout or presence")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the digicon source to run")
    parser.add_argument("--out", type=Path, help="where to write the digest")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two digest files instead")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        return compare(a, b)
    if args.out is None:
        parser.error("give --out FILE, or --compare A B")
    digests = digest(args.src)
    args.out.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {args.out}: {len(digests)} invocations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
