"""Digitally convex sets of Cartesian products: closed formula for products
of complete graphs, recurrence plus constructive generation for the n x 2
ladder, and the binary-array route for general n x m grids.

The grid route rests on the fact that the distinct images of n x m binary
arrays under the minimum-over-closed-neighbourhood transform are exactly the
indicator arrays of the digitally convex sets of P_n x P_m.  With the
row-major cell order (i, j) -> i*m + j, an image's bit code is literally the
vertex bitmask of its convex set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .convexity import (
    EnumerationBudget,
    _checked_budget,
    enumerate_digitally_convex,
    is_digitally_convex,
)
from .errors import InvalidParameterError, NotConvexError, NotImageError
from .graphs import VertexSet, cartesian_product, make_path
from .sequences import LinearRecurrence, eval_recurrence


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
    return BinaryArray.from_code(a.rows, a.cols, _min_codes(a.rows, a.cols, a.code))


def max_transform(a: BinaryArray) -> BinaryArray:
    """Each output cell is the maximum over the cell and its existing
    horizontal and vertical neighbours: the complement of the minimum
    transform of the complement."""
    full = (1 << a.rows * a.cols) - 1
    return BinaryArray.from_code(a.rows, a.cols, full ^ _min_codes(a.rows, a.cols, full ^ a.code))


def _grid_field_masks(n: int, m: int) -> tuple[int, int, int, int, int]:
    """Bitmasks of the full grid and its four boundary lines."""
    full = (1 << n * m) - 1
    row_first = (1 << m) - 1
    row_last = row_first << (n - 1) * m
    col_first = sum(1 << i * m for i in range(n))
    col_last = col_first << m - 1
    return full, row_first, row_last, col_first, col_last


def _min_codes(n: int, m: int, codes):
    """Minimum transform on row-major bit codes: an int64 array (each code
    below 2^(n*m) and n*m + m <= 62) or one Python int of any size.

    Neighbour fields come from bit shifts; positions whose neighbour falls
    off the grid are forced to 1 (the identity for min), which also voids
    the bits that shifting drags across row boundaries.
    """
    full, row_first, row_last, col_first, col_last = _grid_field_masks(n, m)
    up = (codes << m) | row_first
    down = (codes >> m) | row_last
    left = (codes << 1) | col_first
    right = (codes >> 1) | col_last
    return codes & up & down & left & right & full


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


def _grid_p2_families(n: int) -> tuple[list[int], list[int], list[int]]:
    """The three extension families for the n x 2 ladder, as bitmasks.

    Every convex set of the n-ladder arises exactly once: from the
    (n-1)-ladder unchanged or stretched by the full last column; from the
    (n-2)-ladder with three one-cell extensions picked by which of the two
    last-column cells are present; or from the (n-3)-ladder with two
    extensions.  The caller checks disjointness and sizes.
    """
    d1 = []
    for s in generate_grid_p2(n - 1):
        mask = s.mask
        if mask & (_vbit(n - 1) | _ubit(n - 1)):
            d1.append(mask | _vbit(n) | _ubit(n))
        else:
            d1.append(mask)
    d2 = []
    for s in generate_grid_p2(n - 2):
        mask = s.mask
        has_v = bool(mask & _vbit(n - 2))
        has_u = bool(mask & _ubit(n - 2))
        if has_v and has_u:
            d2 += [mask, mask | _vbit(n - 1), mask | _ubit(n - 1)]
        elif has_v:
            d2 += [mask | _vbit(n), mask | _vbit(n - 1), mask | _ubit(n - 1)]
        elif has_u:
            d2 += [mask | _vbit(n - 1), mask | _ubit(n - 1), mask | _ubit(n)]
        else:
            d2 += [mask | _vbit(n), mask | _ubit(n)]
            has_v3 = bool(mask & _vbit(n - 3))
            has_u3 = bool(mask & _ubit(n - 3))
            if has_v3 and has_u3:
                # a convex set cannot fill column n-3 while skipping column n-2
                raise AssertionError(f"impossible ladder case at n={n}, mask={mask:#x}")
            if has_v3:
                d2.append(mask | _vbit(n - 1))
            elif has_u3:
                d2.append(mask | _ubit(n - 1))
            else:
                d2.append(mask | _vbit(n) | _ubit(n))
    d3 = []
    for s in generate_grid_p2(n - 3):
        mask = s.mask
        if mask & (_vbit(n - 3) | _ubit(n - 3)):
            d3 += [mask | _vbit(n - 2) | _vbit(n), mask | _ubit(n - 2) | _ubit(n)]
        else:
            d3 += [mask | _vbit(n - 1), mask | _ubit(n - 1)]
    return d1, d2, d3


@lru_cache(maxsize=None)
def generate_grid_p2(n: int) -> tuple[VertexSet, ...]:
    """All digitally convex sets of the n x 2 ladder, ascending by bitmask.

    Ladders up to n = 3 come from the exhaustive sweep; longer ones are
    assembled constructively from the three shorter families.  The family
    sizes (1x, 3x, 2x the three smaller counts), their pairwise
    disjointness, and the total against count_grid_p2 are all checked at
    runtime, so a construction bug raises instead of miscounting.
    """
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if n <= 3:
        ladder = cartesian_product(make_path(n), make_path(2))
        return tuple(enumerate_digitally_convex(ladder))
    d1, d2, d3 = _grid_p2_families(n)
    sets1, sets2, sets3 = set(d1), set(d2), set(d3)
    if len(sets1) != len(d1) or len(d1) != count_grid_p2(n - 1):
        raise AssertionError(f"first family miscounted at n={n}")
    if len(sets2) != len(d2) or len(d2) != 3 * count_grid_p2(n - 2):
        raise AssertionError(f"second family miscounted at n={n}")
    if len(sets3) != len(d3) or len(d3) != 2 * count_grid_p2(n - 3):
        raise AssertionError(f"third family miscounted at n={n}")
    combined = sets1 | sets2 | sets3
    if len(combined) != len(d1) + len(d2) + len(d3):
        raise AssertionError(f"extension families overlap at n={n}")
    if len(combined) != count_grid_p2(n):
        raise AssertionError(f"family total disagrees with the recurrence at n={n}")
    return tuple(VertexSet(2 * n, mask) for mask in sorted(combined))


def _image_codes(n: int, m: int, budget: EnumerationBudget | None = None) -> list[int]:
    """Sorted distinct images of the minimum transform over all n x m arrays."""
    if n < 1 or m < 1:
        raise InvalidParameterError(f"dimensions must be positive, got ({n}, {m})")
    # shifting a code up by one row needs n*m + m bits
    budget = _checked_budget(n * m, n * m + m, budget, "arrays")

    def block(lo, hi):
        codes = np.arange(lo, hi, dtype=np.int64)
        return np.unique(_min_codes(n, m, codes))

    images: set[int] = set()
    for uniq in _kernels.scan_blocks(1 << n * m, block, budget.workers):
        images.update(uniq.tolist())
    return sorted(images)


def count_grid_via_arrays(n: int, m: int, budget: EnumerationBudget | None = None) -> int:
    """Number of distinct minimum-transform images of n x m binary arrays,
    which equals the number of digitally convex sets of P_n x P_m."""
    return len(_image_codes(n, m, budget))


def set_from_array(astar: BinaryArray) -> VertexSet:
    """The vertex set whose indicator is the given image array.

    Valid inputs are exactly the fixed images of the minimum transform; the
    check runs the canonical round trip (maximum transform, then minimum)
    and demands the input back.
    """
    if min_transform(max_transform(astar)) != astar:
        raise NotImageError(
            "array is not a minimum-transform image, so its cells are not a digitally convex set"
        )
    return VertexSet(astar.rows * astar.cols, astar.code)


def array_from_set(dims: tuple[int, int], s: VertexSet) -> BinaryArray:
    """The canonical preimage of a digitally convex set of P_n x P_m: the
    maximum transform of its indicator array.  Its minimum transform gives
    the indicator back."""
    n, m = dims
    if n < 1 or m < 1:
        raise InvalidParameterError(f"dimensions must be positive, got ({n}, {m})")
    if s.universe != n * m:
        raise InvalidParameterError(f"set universe {s.universe} != {n}*{m}")
    grid = cartesian_product(make_path(n), make_path(m))
    if not is_digitally_convex(grid, s):
        raise NotConvexError(f"set {list(s.indices())} is not digitally convex in the {n} x {m} grid")
    return max_transform(BinaryArray.from_code(n, m, s.mask))


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
    budget = _checked_budget(box.order, box.order, budget, "subsets")
    masks = box.closed_masks

    def block(lo, hi):
        return int(_kernels.mis_flags(masks, lo, hi).sum())

    return sum(_kernels.scan_blocks(1 << box.order, block, budget.workers))
