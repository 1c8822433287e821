"""Digitally convex sets of Cartesian products: closed formula for products
of complete graphs, recurrence plus constructive generation for the n x 2
ladder, and the binary-array route for general n x m grids.

The grid route rests on the fact that the distinct images of n x m binary
arrays under the minimum-over-closed-neighbourhood transform are exactly the
indicator arrays of the digitally convex sets of P_n x P_m.  With the
row-major cell order (i, j) -> i*m + j, an image's bit code is literally the
vertex bitmask of its convex set, and the images are the codes equal to
their closure min(max(x)), so the sweep flags them without a dedupe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

from . import _kernels
from ._kernels import EnumerationBudget
from .convexity import _closure
from .errors import InvalidParameterError, NotConvexError, NotImageError
from .graphs import VertexSet, cartesian_product, make_path
from .sequences import LinearRecurrence, eval_recurrence


def __getattr__(name):
    # numpy is imported only by the sweeps; products.np still resolves for
    # perfbench/tracer.py, which reads and rebinds it
    if name == "np":
        import numpy
        return numpy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class BinaryArray:
    """An n x m array of 0/1 cells; cell (i, j) maps to bit i*cols + j."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(tuple(int(x) for x in row) for row in self.cells))
        if len(self.cells) < 1 or len(self.cells[0]) < 1:
            raise InvalidParameterError("array dimensions must be positive")
        width = len(self.cells[0])
        for row in self.cells:
            if len(row) != width:
                raise InvalidParameterError("rows must all have the same length")
            if any(x not in (0, 1) for x in row):
                raise InvalidParameterError("cells must be 0 or 1")

    @property
    def rows(self) -> int:
        return len(self.cells)

    @property
    def cols(self) -> int:
        return len(self.cells[0])

    @classmethod
    def from_code(cls, n: int, m: int, code: int) -> "BinaryArray":
        """Decode a row-major bit integer (bit i*m + j holds cell (i, j))."""
        if n < 1 or m < 1:
            raise InvalidParameterError(f"dimensions must be positive, got {n} x {m}")
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
    return BinaryArray.from_code(a.rows, a.cols, _min_codes(a.rows, a.cols, _exact(a.code))[0])


def max_transform(a: BinaryArray) -> BinaryArray:
    """Each output cell is the maximum over the cell and its existing
    horizontal and vertical neighbours: the complement of the minimum
    transform of the complement."""
    full = (1 << a.rows * a.cols) - 1
    eroded = _min_codes(a.rows, a.cols, _exact(full ^ a.code))[0]
    return BinaryArray.from_code(a.rows, a.cols, full ^ eroded)


def _exact(code: int):
    """One Python int as a one-element object array, whose ufuncs do exact
    Python-int arithmetic: the form the array code paths take an int in."""
    import numpy as np

    return np.array([code], dtype=object)


@lru_cache(maxsize=8)
def _grid_field_masks(n: int, m: int, kind=int) -> tuple:
    """Bitmasks of the full grid and its four boundary lines, as kind: the
    scalar type of a sweep's codes, so they are cast once per sweep."""
    full = (1 << n * m) - 1
    row_first = (1 << m) - 1
    row_last = row_first << (n - 1) * m
    col_first = sum(1 << i * m for i in range(n))
    col_last = col_first << m - 1
    return tuple(map(kind, (full, row_first, row_last, col_first, col_last)))


def _min_codes(n: int, m: int, codes, out=None, tmp=None):
    """Minimum transform of an array of row-major bit codes below 2^(n*m),
    written to out with tmp as scratch (new arrays if not given).

    The arrays share one dtype: code_dtype(n*m) in a sweep (n*m + m <= 62
    for int64), or object for Python ints of any size (see _exact).
    Neighbour fields come from bit shifts; positions whose neighbour falls
    off the grid are forced to 1 (the identity for min), which also voids
    the bits that shifting drags across row boundaries.  Every field is
    ANDed with codes, so the result stays below 2^(n*m).
    """
    import numpy as np

    out = np.empty_like(codes) if out is None else out
    tmp = np.empty_like(codes) if tmp is None else tmp
    _, row_first, row_last, col_first, col_last = _grid_field_masks(n, m, codes.dtype.type)
    np.left_shift(codes, m, out=out)
    out |= row_first
    out &= codes
    for shift, by, edge in ((np.right_shift, m, row_last), (np.left_shift, 1, col_first),
                            (np.right_shift, 1, col_last)):
        shift(codes, by, out=tmp)
        tmp |= edge
        out &= tmp
    return out


def count_complete_product(n: int, m: int) -> int:
    """Number of digitally convex sets of K_n x K_m: 2 + (2^n - 2)(2^m - 2).

    Besides the empty and full sets, the convex sets are exactly the
    products of a proper nonempty subset of each factor.
    """
    if n < 1 or m < 1:
        raise InvalidParameterError(f"dimensions must be positive, got ({n}, {m})")
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


def _grid_p2_codes(n: int) -> list[int]:
    """The bitmasks of the digitally convex sets of the n x 2 ladder, ascending.

    Ladders up to n = 3 are the codes (at most 64) equal to their closure,
    tested one at a time with no sweep; each longer one is assembled
    constructively from the three before it.  The family sizes
    (1x, 3x, 2x the three smaller counts), their pairwise disjointness,
    and the total against count_grid_p2 are all checked at every length,
    so a construction bug raises instead of miscounting.
    """
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    ladders = []
    for i in range(1, min(n, 3) + 1):
        g = cartesian_product(make_path(i), make_path(2))
        ladders.append([c for c in range(1 << 2 * i) if _closure(g, c) == c])
    for k in range(4, n + 1):
        a3, a2, a1 = ladders
        d1, d2, d3 = _grid_p2_families(k, a1, a2, a3)
        for family, size, which in ((d1, count_grid_p2(k - 1), "first"),
                                    (d2, 3 * count_grid_p2(k - 2), "second"),
                                    (d3, 2 * count_grid_p2(k - 3), "third")):
            if len(family) != size or len(set(family)) != size:
                raise AssertionError(f"{which} family miscounted at n={k}")
        combined = {*d1, *d2, *d3}
        if len(combined) != len(d1) + len(d2) + len(d3):
            raise AssertionError(f"extension families overlap at n={k}")
        if len(combined) != count_grid_p2(k):
            raise AssertionError(f"family total disagrees with the recurrence at n={k}")
        ladders = [a2, a1, sorted(combined)]
    return ladders[-1]


# maxsize=0 keeps no ladder alive once the caller drops it; the wrapper only
# keeps cache_clear, which perfbench/tracer.py calls before each op
@lru_cache(maxsize=0)
def generate_grid_p2(n: int) -> tuple[VertexSet, ...]:
    """All digitally convex sets of the n x 2 ladder, ascending by bitmask:
    the sets of _grid_p2_codes(n), which checks every ladder it builds."""
    return tuple(VertexSet(2 * n, mask) for mask in _grid_p2_codes(n))


def _closed_codes(n: int, m: int, codes):
    """min(max(codes)) for an array that _min_codes takes, as a new array.
    Min and max are an erosion/dilation adjunction, so the min images are
    its fixed points.  The three work arrays are one allocation, which
    keeps a sweep's blocks on the same pages (see the _kernels docstring)."""
    import numpy as np

    full = _grid_field_masks(n, m, codes.dtype.type)[0]
    closed, dilated, tmp = np.empty((3, len(codes)), codes.dtype)
    np.bitwise_xor(codes, full, out=closed)
    _min_codes(n, m, closed, dilated, tmp)
    dilated ^= full
    return _min_codes(n, m, dilated, closed, tmp)


def _image_codes(n: int, m: int, budget: EnumerationBudget | None = None) -> list[int]:
    """The images of the minimum transform over all n x m arrays, ascending:
    the codes equal to their closure, so no image is met twice."""
    if n < 1 or m < 1:
        raise InvalidParameterError(f"dimensions must be positive, got ({n}, {m})")
    import numpy as np

    def closed(lo, hi):
        codes = np.arange(lo, hi, dtype=_kernels.code_dtype(n * m))
        return _closed_codes(n, m, codes) == codes

    # shifting a code up by one row needs n*m + m bits in int64; a uint32
    # shift just drops the bits past the grid
    return list(_kernels.iter_flagged(n * m, closed, budget, "arrays", width=n * m + m))


def count_grid_via_arrays(n: int, m: int, budget: EnumerationBudget | None = None) -> int:
    """Number of minimum-transform images of n x m binary arrays (the codes
    equal to their closure), which equals the number of digitally convex
    sets of P_n x P_m."""
    return len(_image_codes(n, m, budget))


def set_from_array(astar: BinaryArray) -> VertexSet:
    """The vertex set whose indicator is the given image array.

    Valid inputs are exactly the images of the minimum transform: the
    arrays equal to their closure (maximum transform, then minimum).
    """
    if _closed_codes(astar.rows, astar.cols, _exact(astar.code))[0] != astar.code:
        raise NotImageError(
            "array is not a minimum-transform image, so its cells are not a digitally convex set"
        )
    return VertexSet(astar.rows * astar.cols, astar.code)


def array_from_set(dims: tuple[int, int], s: VertexSet) -> BinaryArray:
    """The canonical preimage of a digitally convex set of P_n x P_m: the
    maximum transform of its indicator array.  Its minimum transform gives
    the indicator back; a set is convex iff its code is its closure."""
    n, m = dims
    if n < 1 or m < 1:
        raise InvalidParameterError(f"dimensions must be positive, got ({n}, {m})")
    if s.universe != n * m:
        raise InvalidParameterError(f"set universe {s.universe} != {n}*{m}")
    if _closed_codes(n, m, _exact(s.mask))[0] != s.mask:
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
    """Number of maximal independent sets of P_n x P_m x P_2, by brute force.

    Observed (and for small m known) to equal the number of digitally
    convex sets of P_n x P_m.  A block whose high vertices (past the
    kernel's table) already hold two adjacent members is rejected whole,
    without a vector op; the sweep still covers every subset.
    """
    if n < 1 or m < 1:
        raise InvalidParameterError(f"dimensions must be positive, got ({n}, {m})")
    box = cartesian_product(cartesian_product(make_path(n), make_path(m)), make_path(2))
    return _kernels.count_flagged(box.order, partial(_kernels.mis_flags, box.closed_masks),
                                  budget, "subsets")
