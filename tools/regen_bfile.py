"""Regenerate the bundled grid-count sequence snapshot.

Writes src/digicon/data/A217637.txt: the numbers of digitally convex sets
of P_n x P_m for every cell with n*m <= 20, laid out by antidiagonals with
the standard index (n+m-1)(n+m-2)/2 + n, so (1,1) -> 1, (1,2) -> 2,
(2,1) -> 3, and so on.  Values come from the exhaustive subset sweep on
the grid graph.  That sweep and the array-image route that `digicon oeis`
runs are not independent: both run the same convexity kernel on equal
closed masks.  What is independent is the committed snapshot itself,
fixed numbers that a later change to either route is compared against;
and, in the `grid-arrays` verify suite, the two derivations of the masks
(the grid graph's closed neighbourhoods, and the crosses from the array
transform).  Cells beyond the n*m cap are simply absent, which the parser
and comparison tolerate.

Run from the repository root:  PYTHONPATH=src python3 tools/regen_bfile.py
"""

from pathlib import Path

from digicon import cartesian_product, count_digitally_convex, make_path
from digicon.products import _antidiagonal_index, _grid_cells

MAX_CELLS = 20
OUT = Path(__file__).resolve().parent.parent / "src" / "digicon" / "data" / "A217637.txt"


def main():
    rows = sorted((_antidiagonal_index(n, m),
                   count_digitally_convex(cartesian_product(make_path(n), make_path(m))), n, m)
                  for n, m in _grid_cells(MAX_CELLS))
    with OUT.open("w") as fh:
        fh.write("# Numbers of digitally convex sets of P_n x P_m, read by antidiagonals:\n")
        fh.write("# index (n+m-1)(n+m-2)/2 + n; computed by exhaustive subset enumeration\n")
        fh.write(f"# for every cell with n*m <= {MAX_CELLS} (larger cells are absent).\n")
        for index, value, n, m in rows:
            fh.write(f"{index} {value}  # ({n},{m})\n")
    print(f"wrote {len(rows)} entries to {OUT}")


if __name__ == "__main__":
    main()
