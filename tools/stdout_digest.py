"""Digest what the digicon CLI prints over a fixed matrix of invocations,
or compare two such digests.

    python3 tools/stdout_digest.py [--src DIR] --out FILE
    python3 tools/stdout_digest.py --compare A B

The first form runs every invocation of the matrix in this process through
``digicon.cli.main``, with ``digicon`` imported from DIR (default: the
``src`` directory of this checkout), and writes to FILE, as JSON,
``{argv: [exit code, stdout sha256, last stderr line]}``.  The matrix is
every family x method (and the default method) x format (and the default
format) x ``--workers`` 1, 2 and 8, for ``count`` and ``enumerate``, at small
sizes and at each parameter one below its least value; plus
``verify --suite all``, ``oeis`` and ``series``.  The sweep-size cap is the
default one: ``DIGICON_MAX_SUBSETS`` is unset while the matrix runs.

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
# 2^18-code blocks among them), then each parameter one below its least value
SIZES = {
    "path": ((5,), (16,), (0,)),
    "cycle": ((7,), (19,), (2,)),
    "complete": ((3,), (0,)),
    "cycle-power": ((8, 2), (19, 3), (2, 1), (5, 0)),
    "complete-product": ((2, 3), (0, 2), (2, 0)),
    "path-grid": ((3, 2), (4, 3), (8, 2), (0, 2), (2, 0)),
}
PARAMS = {"cycle-power": ("--n", "--k")}


def matrix() -> list[list[str]]:
    """Every invocation, as an argv list."""
    runs = []
    for family, methods in METHODS.items():
        flags = PARAMS.get(family, ("--n", "--m"))
        for size, command, method, fmt, workers in itertools.product(
                SIZES[family], ("count", "enumerate"), (None, *methods),
                (None, "jsonl", "csv", "plain"), (1, 2, 8)):
            argv = [command, "--family", family]
            for flag, value in zip(flags, size):
                argv += [flag, str(value)]
            if method:
                argv += ["--method", method]
            if fmt:
                argv += ["--format", fmt]
            runs.append(argv + ["--workers", str(workers)])
    runs.append(["verify", "--suite", "all"])
    runs.append(["oeis"])
    for k, fmt in itertools.product((2, 3), (None, "jsonl", "csv", "plain")):
        runs.append(["series", "--k", str(k), "--terms", "40"] + (["--format", fmt] if fmt else []))
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
