"""Collect the benchmark run records of a parent and a change into one file.

    python3 tools/bench_record.py LABEL --parent DIR --change DIR --runs NAME [NAME ...]

DIR is a checkout in which ``perfbench/run.py`` wrote its run records to
``DIR/.perfbench_out/``.  Each NAME is a record file name there, such as
``bigint-seq-full-seed31-trace0.json``, and must exist on both sides.  The
tool writes ``BENCH_<LABEL>.json`` at the root of this repository: for each
side, the commit, source digest and ``nproc`` that the records were stamped
with, and the records themselves, unchanged.  It runs and recomputes
nothing: the numbers are exactly those ``perfbench/run.py`` measured.

A change measured before it is committed still carries its parent's commit;
its ``src_sha256`` is what tells the two sides apart.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAMP = ("commit", "src_sha256", "nproc")


def side(checkout: str, names: list[str]) -> dict:
    """The named records of one checkout, under the stamp they all share."""
    out_dir = Path(checkout) / ".perfbench_out"
    records = {}
    for name in names:
        try:
            records[name] = json.loads((out_dir / name).read_text())
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: cannot read run record {out_dir / name}: {exc}") from None
    stamps = {tuple(record["env"][key] for key in STAMP) for record in records.values()}
    if len(stamps) != 1:
        raise SystemExit(f"error: the records under {out_dir} come from {len(stamps)} different checkouts")
    return {**dict(zip(STAMP, stamps.pop())), "records": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the output, BENCH_<label>.json")
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--runs", nargs="+", required=True, help="record file names, on both sides")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[\w-]+", args.label):
        parser.error(f"label must be letters, digits, '_' or '-', got {args.label!r}")
    bench = {"label": args.label,
             "parent": side(args.parent, args.runs),
             "change": side(args.change, args.runs)}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out.name}: {len(args.runs)} runs per side")
    return 0


if __name__ == "__main__":
    sys.exit(main())
