"""Digitally convex sets of Cartesian products: closed formula for products
of complete graphs, recurrence plus constructive generation for the n x 2
ladder, and the binary-array route for general n x m grids.

The grid route rests on the fact that the distinct images of n x m binary
arrays under the minimum-over-closed-neighbourhood transform are exactly the
indicator arrays of the digitally convex sets of P_n x P_m.  With the
row-major cell order (i, j) -> i*m + j, an image's bit code is literally the
vertex bitmask of its convex set, and the images are the codes equal to
their closure min(max(x)).  That closure is the convexity closure
V & ~N[V & ~N[S]] with each N[c] the cross of cell c, so the sweep is the
convexity kernel on the cross masks, which come from the max transform of
one cell; the per-code min(max(x)) == x stays as its test oracle.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from operator import lt

from . import _kernels
from ._kernels import EnumerationBudget, check_budget
from .convexity import _closure
from .errors import FrozenRecord, InvalidParameterError, NotConvexError, NotImageError
from .graphs import VertexSet, cartesian_product, make_path
from .sequences import LinearRecurrence, eval_recurrence


def __getattr__(name):
    # no route imports numpy; products.np still resolves for
    # perfbench/tracer.py, which reads and rebinds it
    if name == "np":
        import numpy
        return numpy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class BinaryArray(FrozenRecord):
    """An n x m array of 0/1 cells; cell (i, j) maps to bit i*cols + j."""

    _fields = ("cells",)

    def __init__(self, cells: tuple[tuple[int, ...], ...]):
        cells = tuple(tuple(int(x) for x in row) for row in cells)
        if len(cells) < 1 or len(cells[0]) < 1:
            raise InvalidParameterError("array dimensions must be positive")
        width = len(cells[0])
        for row in cells:
            if len(row) != width:
                raise InvalidParameterError("rows must all have the same length")
            if any(x not in (0, 1) for x in row):
                raise InvalidParameterError("cells must be 0 or 1")
        object.__setattr__(self, "cells", cells)

    @property
    def rows(self) -> int:
        return len(self.cells)

    @property
    def cols(self) -> int:
        return len(self.cells[0])

    @classmethod
    def from_code(cls, n: int, m: int, code: int) -> "BinaryArray":
        """Decode a row-major bit integer (bit i*m + j holds cell (i, j))."""
        _check_dims(n, m)
        if not 0 <= code < 1 << (n * m):
            raise InvalidParameterError(f"code {code} out of range for {n} x {m}")
        return cls(tuple(
            tuple(code >> (i * m + j) & 1 for j in range(m)) for i in range(n)
        ))

    @property
    def code(self) -> int:
        """Row-major bit integer; bit i*cols + j holds cell (i, j)."""
        value = 0
        for i, row in enumerate(self.cells):
            for j, x in enumerate(row):
                value |= x << (i * self.cols + j)
        return value

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.cells]


def min_transform(a: BinaryArray) -> BinaryArray:
    """Each output cell is the minimum over the cell and its existing
    horizontal and vertical neighbours (boundary cells just have fewer)."""
    return BinaryArray.from_code(a.rows, a.cols, _min_codes(a.rows, a.cols, a.code))


def max_transform(a: BinaryArray) -> BinaryArray:
    """Each output cell is the maximum over the cell and its existing
    horizontal and vertical neighbours: the complement of the minimum
    transform of the complement."""
    full = (1 << a.rows * a.cols) - 1
    eroded = _min_codes(a.rows, a.cols, full ^ a.code)
    return BinaryArray.from_code(a.rows, a.cols, full ^ eroded)


@lru_cache(maxsize=8)
def _grid_field_masks(n: int, m: int) -> tuple[int, ...]:
    """Bitmasks of the full grid and its four boundary lines."""
    full = (1 << n * m) - 1
    row_first = (1 << m) - 1
    row_last = row_first << (n - 1) * m
    col_first = sum(1 << i * m for i in range(n))
    col_last = col_first << m - 1
    return full, row_first, row_last, col_first, col_last


def _min_codes(n: int, m: int, code: int) -> int:
    """Minimum transform of one row-major bit code below 2^(n*m).

    Neighbour fields come from bit shifts; positions whose neighbour falls
    off the grid are forced to 1 (the identity for min), which also voids
    the bits that shifting drags across row boundaries.  Every field is
    ANDed with code, so the result stays below 2^(n*m).
    """
    _, row_first, row_last, col_first, col_last = _grid_field_masks(n, m)
    return (code & (code << m | row_first) & (code >> m | row_last)
            & (code << 1 | col_first) & (code >> 1 | col_last))


def _check_dims(n: int, m: int) -> None:
    if n < 1 or m < 1:
        raise InvalidParameterError(f"dimensions must be positive, got ({n}, {m})")


def count_complete_product(n: int, m: int) -> int:
    """Number of digitally convex sets of K_n x K_m: 2 + (2^n - 2)(2^m - 2).

    Besides the empty and full sets, the convex sets are exactly the
    products of a proper nonempty subset of each factor.
    """
    _check_dims(n, m)
    return 2 + ((1 << n) - 2) * ((1 << m) - 2)


_GRID_P2_RECURRENCE = LinearRecurrence(
    taps=((1, 1), (2, 3), (3, 2)),
    initial_terms={1: 2, 2: 6, 3: 16},
    first_recurrent_index=4,
)


def count_grid_p2(n: int) -> int:
    """Number of digitally convex sets of the n x 2 ladder:
    f(n) = f(n-1) + 3 f(n-2) + 2 f(n-3) with f(1), f(2), f(3) = 2, 6, 16."""
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    return eval_recurrence(_GRID_P2_RECURRENCE, n)


def _vbit(i: int) -> int:
    # top cell of 1-based column i in the row-major n x 2 labelling
    return 1 << 2 * (i - 1)


def _ubit(i: int) -> int:
    # bottom cell of 1-based column i
    return 1 << 2 * (i - 1) + 1


def _column(i: int) -> int:
    # both cells of 1-based column i
    return _vbit(i) | _ubit(i)


def _grid_p2_families(n: int, a1: list[int], a2: list[int],
                      a3: list[int]) -> tuple[list[int], list[int], list[int]]:
    """The three extension families for the n x 2 ladder, as bitmasks, from
    the convex sets a1, a2, a3 of the (n-1)-, (n-2)- and (n-3)-ladders.

    Every convex set of the n-ladder arises exactly once: from the
    (n-1)-ladder unchanged or stretched by the full last column; from the
    (n-2)-ladder with three one-cell extensions picked by which of the two
    last-column cells are present; or from the (n-3)-ladder with two
    extensions.  The caller checks disjointness and sizes.
    """
    v, u = _vbit, _ubit
    last, stretch = _column(n - 1), _column(n)
    d1 = [mask | stretch if mask & last else mask for mask in a1]
    # the (n-2)-ladder extensions, indexed by the cells of columns n-3 and
    # n-2 (bits v, u, v, u of mask >> 2(n-4)); an empty column n-2 takes
    # its third extension from column n-3, and none when column n-3 is
    # full, which no convex set is, so the family size check catches it
    extensions = []
    for cells in range(16):
        v3, u3, v2, u2 = (cells >> bit & 1 for bit in range(4))
        if v2 or u2:
            extensions.append((v(n - 1), u(n - 1),
                               0 if v2 and u2 else v(n) if v2 else u(n)))
        elif v3 and u3:
            extensions.append(())
        else:
            extensions.append((v(n), u(n),
                               v(n - 1) if v3 else u(n - 1) if u3 else _column(n)))
    d2 = [mask | e for mask in a2 for e in extensions[mask >> 2 * (n - 4) & 15]]
    first, filled, empty = _column(n - 3), (v(n - 2) | v(n), u(n - 2) | u(n)), (v(n - 1), u(n - 1))
    d3 = [mask | e for mask in a3 for e in (filled if mask & first else empty)]
    return d1, d2, d3


def _grid_p2_codes(n: int, budget: EnumerationBudget | None = None) -> list[int]:
    """The bitmasks of the digitally convex sets of the n x 2 ladder, ascending.

    Budgeted by its exact count on the call, before any ladder is built.
    Ladders up to n = 3 are the codes (at most 64) equal to their closure,
    tested one at a time with no sweep; each longer one is assembled
    constructively from the three before it: the three families are
    concatenated into one list and sorted in place (timsort merges their
    ascending runs), and one pass over neighbours proves that the sorted
    list strictly ascends, so no set repeats.  The family sizes (1x, 3x, 2x
    the three smaller counts), that no set repeats (naming the family that
    repeats one), and the total against count_grid_p2 are all checked at
    every length, so a construction bug raises instead of miscounting.
    """
    check_budget(count_grid_p2(n), budget, "sets")  # count_grid_p2 checks n >= 1
    ladders = []
    for i in range(1, min(n, 3) + 1):
        g = cartesian_product(make_path(i), make_path(2))
        ladders.append([c for c in range(1 << 2 * i) if _closure(g, c) == c])
    for k in range(4, n + 1):
        a3, a2, a1 = ladders
        d1, d2, d3 = _grid_p2_families(k, a1, a2, a3)
        families = ((d1, count_grid_p2(k - 1), "first"),
                    (d2, 3 * count_grid_p2(k - 2), "second"),
                    (d3, 2 * count_grid_p2(k - 3), "third"))
        for family, size, which in families:
            if len(family) != size:
                raise AssertionError(f"{which} family miscounted at n={k}")
        combined = d1 + d2
        combined += d3
        combined.sort()
        if not all(map(lt, combined, islice(combined, 1, None))):
            # a repeat within one family, or a set in two: name which
            for family, _, which in families:
                if len(set(family)) != len(family):
                    raise AssertionError(f"{which} family miscounted at n={k}")
            raise AssertionError(f"extension families overlap at n={k}")
        if len(combined) != count_grid_p2(k):
            raise AssertionError(f"family total disagrees with the recurrence at n={k}")
        ladders = [a2, a1, combined]
    return ladders[-1]


# maxsize=0 keeps no ladder alive once the caller drops it; the wrapper only
# keeps cache_clear, which perfbench/tracer.py calls before each op
@lru_cache(maxsize=0)
def generate_grid_p2(n: int, budget: EnumerationBudget | None = None) -> tuple[VertexSet, ...]:
    """All digitally convex sets of the n x 2 ladder, ascending by bitmask:
    the sets of _grid_p2_codes(n, budget), budgeted by their count."""
    return tuple(VertexSet(2 * n, mask) for mask in _grid_p2_codes(n, budget))


def _closed_codes(n: int, m: int, code: int) -> int:
    """min(max(code)), the closure of one row-major bit code.  Min and max
    are an erosion/dilation adjunction, so the min images are its fixed
    points."""
    full = _grid_field_masks(n, m)[0]
    return _min_codes(n, m, full ^ _min_codes(n, m, full ^ code))


@lru_cache(maxsize=8)
def _cross_masks(n: int, m: int) -> tuple[int, ...]:
    """For each cell c = i*m + j, the mask of its cross (itself and its grid
    neighbours): the max transform of the one-cell array c."""
    full = _grid_field_masks(n, m)[0]
    return tuple(full ^ _min_codes(n, m, full ^ 1 << c) for c in range(n * m))


def _image_codes(n: int, m: int, budget: EnumerationBudget | None = None) -> list[int]:
    """The images of the minimum transform over all n x m arrays, ascending:
    the codes that convex_bits keeps on the cross masks, each met once."""
    _check_dims(n, m)
    return list(_kernels.iter_flagged(n * m, _kernels.convex_bits, lambda: _cross_masks(n, m),
                                      budget, "arrays"))


def count_grid_via_arrays(n: int, m: int, budget: EnumerationBudget | None = None) -> int:
    """Number of minimum-transform images of n x m binary arrays (the codes
    equal to their closure), which equals the number of digitally convex
    sets of P_n x P_m."""
    _check_dims(n, m)
    return _kernels.count_flagged(n * m, _kernels.convex_bits, lambda: _cross_masks(n, m),
                                  budget, "arrays")


def set_from_array(astar: BinaryArray) -> VertexSet:
    """The vertex set whose indicator is the given image array.

    Valid inputs are exactly the images of the minimum transform: the
    arrays equal to their closure (maximum transform, then minimum).
    """
    if _closed_codes(astar.rows, astar.cols, astar.code) != astar.code:
        raise NotImageError(
            "array is not a minimum-transform image, so its cells are not a digitally convex set"
        )
    return VertexSet(astar.rows * astar.cols, astar.code)


def array_from_set(dims: tuple[int, int], s: VertexSet) -> BinaryArray:
    """The canonical preimage of a digitally convex set of P_n x P_m: the
    maximum transform of its indicator array.  Its minimum transform gives
    the indicator back; a set is convex iff its code is its closure."""
    n, m = dims
    _check_dims(n, m)
    if s.universe != n * m:
        raise InvalidParameterError(f"set universe {s.universe} != {n}*{m}")
    if _closed_codes(n, m, s.mask) != s.mask:
        raise NotConvexError(f"set {list(s.indices())} is not digitally convex in the {n} x {m} grid")
    return max_transform(BinaryArray.from_code(n, m, s.mask))


def _grid_cells(max_cells: int):
    """Every grid shape (n, m) with n*m <= max_cells, n ascending, then m."""
    for n in range(1, max_cells + 1):
        for m in range(1, max_cells // n + 1):
            yield n, m


def _antidiagonal_index(n: int, m: int) -> int:
    """The 1-based index of the n x m grid in the antidiagonal reading of
    the table T(n, m) (n + m = 2, then 3, ...; n ascending within each),
    the order in which the grid-count sequence file lists its terms."""
    d = n + m
    return (d - 1) * (d - 2) // 2 + n


def count_mis_grid3(n: int, m: int, budget: EnumerationBudget | None = None) -> int:
    """Number of maximal independent sets of P_n x P_m x P_2, by the subset
    sweep: observed (and for small m known) to equal the number of
    digitally convex sets of P_n x P_m."""
    _check_dims(n, m)
    return _kernels.count_flagged(2 * n * m, _kernels.mis_bits, lambda: cartesian_product(
        cartesian_product(make_path(n), make_path(m)), make_path(2)).closed_masks, budget, "subsets")
