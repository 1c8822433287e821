"""Digitally convex sets of Cartesian products: closed formula for products
of complete graphs, recurrence plus a column automaton stream for the n x 2
ladder, and the binary-array route for general n x m grids.

The ladder's sets are listed with no sweep and no shorter ladder kept.  A
cell is free when it lies outside N[S], and S is convex iff every
non-member has a free cell in its N[v]; whether a cell is free depends only
on its own column and the two beside it, so the columns, read from the top
(the most significant bits) down, drive a 24-state automaton (_ladder_step),
every state of which can finish in any number of columns.  _ladder_chunks
checks its count against the recurrence and walks it like the cycle-power
strings, on walk_chunks: each prefix of the top columns yields the shared
table of the ways to finish the bottom columns, built when first read.

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

from collections.abc import Iterator
from functools import lru_cache
from itertools import chain

from . import _kernels
from ._kernels import EnumerationBudget, check_budget, chunk_masks, walk_chunks
from .errors import FrozenRecord, InvalidParameterError, NotConvexError, NotImageError, _int, _ints
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
        cells = tuple(_ints(row, "cell") for row in cells)
        if len(cells) < 1 or len(cells[0]) < 1:
            raise InvalidParameterError("array dimensions must be positive")
        width = len(cells[0])
        for row in cells:
            if len(row) != width:
                raise InvalidParameterError("rows must all have the same length")
            if {*row} - {0, 1}:
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
        if not 0 <= _int(code, "code") < 1 << (n * m):
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
    _int(n, "n", 1)
    _int(m, "m", 1)


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
    return eval_recurrence(_GRID_P2_RECURRENCE, _int(n, "n", 1))


_SWAP = (0, 2, 1, 3)  # a column's letter with its two cells exchanged


def _ladder_step(state: tuple[int, int, int, int], letter: int) -> tuple[int, int, int, int] | None:
    """The ladder automaton's state after the next column down, or None
    when that column leaves a cell above uncovered or can never finish.

    The columns are read from the top one (the most significant bits)
    down, each as a letter of two bits, bit j for row j.  A cell is free
    when it lies outside N[S], and S is convex iff every non-member has a
    free cell in its N[v].  After columns n..c the state is (S_{c+1}, S_c,
    free_{c+1}, pending_{c+1}): pending holds the non-members of column
    c+1 that no free cell of columns c+2 and c+1 covers, so each needs the
    free cell below it.  The letter S_{c-1} fixes free_c, the cells of
    column c outside N[S].  A member in column c-1 frees neither of its
    cells, so a pending cell and a nonzero letter can never finish.
    """
    above, column, free_above, pending_above = state
    free = 3 & ~(column | _SWAP[column] | above | letter)
    pending = 3 & ~column & ~(free_above | free | _SWAP[free])
    if pending_above & ~free or pending and letter:
        return None
    return column, letter, free, pending


def _ladder_automaton() -> tuple[list[list[tuple[int, int]]], list[bool]]:
    """The reachable states of _ladder_step, numbered from the four start
    states: state x is (0, x, 0, 0), the top column x under a virtual empty
    column with no free cells.  Returns steps[i], the (letter, next state)
    pairs of state i with the letters ascending, and accepting[i]: the
    virtual empty column below, which has no free cells either, leaves
    nothing pending."""
    states = [(0, letter, 0, 0) for letter in range(4)]
    index = {state: i for i, state in enumerate(states)}
    steps = []
    for state in states:  # grows as new states are reached
        row = []
        for letter in range(4):
            after = _ladder_step(state, letter)
            if after is not None:
                if after not in index:
                    index[after] = len(states)
                    states.append(after)
                row.append((letter, index[after]))
        steps.append(row)
    accepting = [(last := _ladder_step(state, 0)) is not None and not last[3] for state in states]
    return steps, accepting


def _ladder_chunks(n: int, budget: EnumerationBudget | None = None) -> Iterator[tuple]:
    """The bitmasks of the digitally convex sets of the n x 2 ladder in
    chunks (prefix, table); flattened, they ascend.

    Budgeted by the exact count on the call.  Then the automaton's count of
    the words of n columns from the four start states must equal
    count_grid_p2(n), an independent check of the paper's recurrence; both
    checks come before the first mask.  Every state can finish, and
    walk_chunks streams the words, lowest letter first, with the ways to
    finish d <= n // 2 columns tabulated per state when first read.
    """
    check_budget(count := count_grid_p2(n), budget, "sets")  # count_grid_p2 checks n >= 1
    steps, accepting = _ladder_automaton()
    counts = [int(ok) for ok in accepting]
    for _ in range(1, n):
        counts = [sum(counts[after] for _, after in row) for row in steps]
    if sum(counts[:4]) != count:
        raise AssertionError(f"column automaton disagrees with the recurrence at n={n}")
    # the steps with d columns left, each letter placed in column d - 1
    placed = [None] + [[[(1, letter << 2 * d - 2, after) for letter, after in row]
                        for row in steps] for d in range(1, n)]
    walk = walk_chunks(n // 2, lambda state, d: placed[d][state], accepting)
    return chain.from_iterable(map(walk, [(n - 1, x, x << 2 * n - 2) for x in range(4)]))


# maxsize=0 keeps no ladder alive once the caller drops it; the wrapper only
# keeps cache_clear, which perfbench/tracer.py calls before each op
@lru_cache(maxsize=0)
def generate_grid_p2(n: int, budget: EnumerationBudget | None = None) -> tuple[VertexSet, ...]:
    """All digitally convex sets of the n x 2 ladder, ascending by bitmask:
    the sets of _ladder_chunks(n, budget), budgeted by their count."""
    return tuple(VertexSet(2 * n, mask) for mask in chunk_masks(_ladder_chunks(n, budget)))


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


def _image_chunks(n: int, m: int, budget: EnumerationBudget | None = None):
    """The images of the minimum transform over all n x m arrays, ascending,
    in chunks (lo, offsets), one per sweep block that flags one: the codes
    that convex_bits keeps on the cross masks, each met once.  Checked on
    the call, like iter_flagged."""
    _check_dims(n, m)
    return _kernels.iter_flagged(n * m, _kernels.convex_bits, lambda: _cross_masks(n, m), budget,
                                 "arrays")


def _image_codes(n: int, m: int, budget: EnumerationBudget | None = None) -> list[int]:
    """The codes of _image_chunks(n, m, budget), as one list."""
    return list(chunk_masks(_image_chunks(n, m, budget)))


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
    sweep: the number of digitally convex sets of P_n x P_m, since every
    bipartite G has #convex(G) = #MIS(G x P_2) (proof in ``convexity``)."""
    _check_dims(n, m)
    return _kernels.count_flagged(2 * n * m, _kernels.mis_bits, lambda: cartesian_product(
        cartesian_product(make_path(n), make_path(m)), make_path(2)).closed_masks, budget, "subsets")
