"""Ladders by recurrence, grids by array images.

Two independent routes to the same numbers:

  * P_n x P_2 satisfies f(n) = f(n-1) + 3 f(n-2) + 2 f(n-3), and the
    library also *generates* the ladder's convex sets, streamed in
    ascending order from an automaton that reads the ladder a column at a
    time and checks its own count against the recurrence.
  * P_n x P_m counts equal the number of distinct images of n x m binary
    arrays under the min-over-closed-neighbourhood transform.

This script shows the worked 3 x 3 array example, then cross-checks the
routes against plain subset sweeps.
"""

from digicon import (
    BinaryArray,
    cartesian_product,
    count_digitally_convex,
    count_grid_p2,
    count_grid_via_arrays,
    generate_grid_p2,
    make_path,
    min_transform,
    set_from_array,
)


def show(a):
    for row in a.cells:
        print("   " + " ".join(str(x) for x in row))


def main():
    a = BinaryArray(((1, 1, 0), (1, 1, 1), (0, 1, 1)))
    print("A:")
    show(a)
    star = min_transform(a)
    print("A* (minimum over each closed neighbourhood):")
    show(star)
    s = set_from_array(star)
    print(f"A* is the indicator of the convex set {sorted(s.indices())} of P_3 x P_3\n")

    print("ladder counts, recurrence vs automaton stream vs sweep:")
    print(f"{'n':>4} {'recurrence':>11} {'streamed':>10} {'sweep':>8}")
    for n in range(1, 9):
        built = len(generate_grid_p2(n))
        swept = count_digitally_convex(cartesian_product(make_path(n), make_path(2)))
        assert count_grid_p2(n) == built == swept
        print(f"{n:>4} {count_grid_p2(n):>11} {built:>10} {swept:>8}")
    print()

    print("grid counts, array images vs sweep (all cells with nm <= 12):")
    print(f"{'n':>4} {'m':>3} {'images':>8} {'sweep':>8}")
    for n in range(1, 13):
        for m in range(1, 13):
            if n * m > 12 or n * m < 2:
                continue
            images = count_grid_via_arrays(n, m)
            swept = count_digitally_convex(
                cartesian_product(make_path(n), make_path(m))
            )
            assert images == swept
            print(f"{n:>4} {m:>3} {images:>8} {swept:>8}")


if __name__ == "__main__":
    main()
