"""Slow reference implementations used to cross-check the fast routes.

Everything here sticks to plain Python sets, dicts and explicit loops so
the logic follows the definitions as directly as possible. None of these
functions share code with the library paths they are used to judge; that
independence is the whole point.
"""

import functools
from collections import deque

from digicon import BinaryArray, Graph, cartesian_product, count_grid_p2, make_path


def closed_nbhd(g: Graph, v: int) -> set:
    return {v} | set(g.adjacency[v])


def closed_nbhd_of_set(g: Graph, vertices) -> set:
    out = set()
    for v in vertices:
        out |= closed_nbhd(g, v)
    return out


def has_private_neighbor_naive(g, v, inside) -> bool:
    others = set(inside) - {v}
    return bool(closed_nbhd(g, v) - closed_nbhd_of_set(g, others))


def is_convex_naive(g, inside) -> bool:
    inside = set(inside)
    return all(
        has_private_neighbor_naive(g, v, inside)
        for v in range(g.order)
        if v not in inside
    )


def all_convex_masks_naive(g) -> list:
    """Masks of every digitally convex subset of g, ascending."""
    found = []
    for mask in range(1 << g.order):
        members = [v for v in range(g.order) if (mask >> v) & 1]
        if is_convex_naive(g, members):
            found.append(mask)
    return found


def hull_naive(g, seed) -> set:
    """Hull as the intersection of every convex superset.

    This leans on closure under intersection instead of the fixpoint
    completion the library uses, so the two routes are independent.
    """
    seed = set(seed)
    acc = set(range(g.order))
    for mask in all_convex_masks_naive(g):
        members = {v for v in range(g.order) if (mask >> v) & 1}
        if seed <= members:
            acc &= members
    return acc


def is_mis_naive(g, members) -> bool:
    """Maximal independent set test straight from the definition."""
    members = set(members)
    for u in members:
        if members & set(g.adjacency[u]):
            return False
    return closed_nbhd_of_set(g, members) == set(range(g.order))


def bfs_distances(g, src) -> dict:
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in g.adjacency[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def power_edges_naive(g, d) -> list:
    """Edges of the d-th power: pairs at distance 1..d in g."""
    out = []
    for u in range(g.order):
        dist = bfs_distances(g, u)
        for w, dw in dist.items():
            if u < w and 1 <= dw <= d:
                out.append((u, w))
    return sorted(out)


def graph_from_edge_list(order, edges, family=None) -> Graph:
    """A graph from its edge list, through neighbour sets and sorted rows
    into the public Graph(order, adjacency) constructor."""
    nbrs = [set() for _ in range(order)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(order, tuple(tuple(sorted(s)) for s in nbrs), family)


def path_by_edges(n) -> Graph:
    return graph_from_edge_list(n, [(i, i + 1) for i in range(n - 1)], f"P_{n}")


def cycle_by_edges(n) -> Graph:
    return graph_from_edge_list(n, [(i, (i + 1) % n) for i in range(n)], f"C_{n}")


def complete_by_edges(n) -> Graph:
    return graph_from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)], f"K_{n}")


def power_by_bfs(g, d) -> Graph:
    """The d-th power of g, joining the pairs that a BFS finds within distance d."""
    tag = f"{g.family}^{d}" if g.family else None
    return graph_from_edge_list(g.order, power_edges_naive(g, d), tag)


def product_by_edges(g, h) -> Graph:
    """The Cartesian product, (a, b) at a * h.order + b, from the factors' edges."""
    m = h.order
    edges = [(a * m + b, a * m + b2) for a in range(g.order) for b, b2 in h.edges()]
    edges += [(a * m + b, a2 * m + b) for a, a2 in g.edges() for b in range(m)]
    tag = f"{g.family} x {h.family}" if g.family and h.family else None
    return graph_from_edge_list(g.order * m, edges, tag)


def min_transform_via_graph(a: BinaryArray) -> BinaryArray:
    """Min over closed neighbourhoods, computed through the grid graph."""
    g = cartesian_product(make_path(a.rows), make_path(a.cols))
    flat = [a.cells[i][j] for i in range(a.rows) for j in range(a.cols)]
    picked = [min(flat[u] for u in closed_nbhd(g, p)) for p in range(g.order)]
    rows = tuple(
        tuple(picked[i * a.cols + j] for j in range(a.cols))
        for i in range(a.rows)
    )
    return BinaryArray(rows)


@functools.cache
def _planes(b):
    """For each v < b, the 2^b-bit int whose bit i is bit v of i: 2^v zeros
    then 2^v ones, that pair of runs repeated 2^(b-v-1) times."""
    size = 1 << b
    return tuple(((1 << (1 << v)) - 1 << (1 << v)) * (((1 << size) - 1) // ((1 << (2 << v)) - 1))
                 for v in range(b))


def convex_bits_per_block(closed_masks, lo, hi) -> int:
    """The int whose bit i says whether the code lo + i is digitally convex,
    for an aligned block [lo, hi) of 2^b codes, with every vertex term
    rebuilt for the block (the sweep kernel's first formula).

    covered_w, the codes whose N[S] holds w, is all ones when a high member
    of the block (a vertex >= b set in lo) is a closed neighbour of w, else
    the OR of the planes of w's low closed neighbours.  A vertex u outside
    S is swallowed by the codes that lack u and cover all of N[u]; the
    convex codes are those that swallow no such u."""
    size = hi - lo
    b = size.bit_length() - 1
    assert size == 1 << b and lo % size == 0, (lo, hi)
    full, planes, order = (1 << size) - 1, _planes(b), len(closed_masks)
    covered = []
    for mask in closed_masks:
        cover = 0
        for v in range(b):
            if mask >> v & 1:
                cover |= planes[v]
        covered.append(full if mask >> b << b & lo else cover)
    bad = 0
    for u, mask in enumerate(closed_masks):
        if u >= b and lo >> u & 1:
            continue  # a high member is in every code of the block
        swallowed = full ^ planes[u] if u < b else full
        for w in range(order):
            if mask >> w & 1:
                swallowed &= covered[w]
        bad |= swallowed
    return full ^ bad


def random_graph(rng, order, p=0.4) -> Graph:
    edges = [
        (u, v)
        for u in range(order)
        for v in range(u + 1, order)
        if rng.random() < p
    ]
    return Graph.from_edges(order, edges)


def recurrence_terms_naive(rec, n) -> dict:
    """Every defined term of the recurrence up to index n, by stepping
    forward one term at a time and keeping them all."""
    terms = {i: v for i, v in rec.initial_terms.items() if i < rec.first_recurrent_index}
    for i in range(rec.first_recurrent_index, n + 1):
        total = 0
        for off, c in rec.taps:
            if i - off not in terms:
                raise ValueError(f"term {i} needs undefined back-reference {i - off}")
            total += c * terms[i - off]
        terms[i] = total
    return terms


def berkowitz(matrix) -> list:
    """Coefficients of det(tI - A), leading 1 first, for a square integer
    matrix, with no division (Berkowitz 1984).  Read from the constant term
    up, the same list is det(I - xA).

    The leading (r+1) x (r+1) block [[A_r, C], [R, a]] has characteristic
    polynomial T * p_r, where T is the lower-triangular Toeplitz matrix with
    first column 1, -a, -RC, -R A_r C, ..., -R A_r^(r-1) C.
    """
    poly = [1]
    for r in range(len(matrix)):
        row = matrix[r][:r]
        vec = [matrix[i][r] for i in range(r)]
        column = [1, -matrix[r][r]]
        for _ in range(r):
            column.append(-sum(x * y for x, y in zip(row, vec)))
            vec = [sum(matrix[i][j] * vec[j] for j in range(r)) for i in range(r)]
        poly = [
            sum(column[i - j] * poly[j] for j in range(len(poly)) if 0 <= i - j < len(column))
            for i in range(r + 2)
        ]
    return poly


def run_length_automaton(k) -> list:
    """Adjacency matrix of the 2k states (bit, run length capped at k), state
    index bit * k + run - 1: (b, r) steps to (b, min(r + 1, k)), and (b, k)
    also steps to (1 - b, 1)."""
    size = 2 * k
    matrix = [[0] * size for _ in range(size)]
    for bit in (0, 1):
        for run in range(1, k + 1):
            state = bit * k + run - 1
            matrix[state][bit * k + min(run + 1, k) - 1] = 1
            if run == k:
                matrix[state][(1 - bit) * k] = 1
    return matrix


def walk_traces(matrix, n_max) -> list:
    """trace(A^n) for n = 0..n_max, by repeated multiplication."""
    size = len(matrix)
    power = [[int(i == j) for j in range(size)] for i in range(size)]
    traces = []
    for _ in range(n_max + 1):
        traces.append(sum(power[i][i] for i in range(size)))
        power = [[sum(row[t] * matrix[t][j] for t in range(size) if row[t]) for j in range(size)]
                 for row in power]
    return traces


def cycle_count_by_lucas(n, modulus=None):
    """Convex sets of C_n, i.e. strings with every cyclic block >= 2, from
    Q_2 = (1 - x - x^2)(1 - x + x^2): the Lucas number L_n plus the power sum
    of the sixth roots of unity e^(+-i pi/3); reduced mod modulus if given."""
    def pair(m):
        # (L_m, L_m+1) by halving: L_2j = L_j^2 - 2(-1)^j, L_2j+1 = L_j L_j+1 - (-1)^j
        if m == 0:
            return 2, 1
        a, b = pair(m // 2)
        sign = -1 if m // 2 % 2 else 1
        even, odd = a * a - 2 * sign, a * b - sign
        if modulus:
            even, odd = even % modulus, odd % modulus
        return (odd, even + odd) if m % 2 else (even, odd)

    value = pair(n)[0] + (2, 1, -1, -2, -1, 1)[n % 6]
    return value % modulus if modulus else value


def block_strings_by_bits(k, n):
    """(code, reversed code) of each length-n string whose cyclic blocks are
    all >= k, in increasing code order, by a depth-first walk that adds one
    bit at a time.

    Positions are walked most significant first and 0 before 1, on an
    explicit stack.  A prefix is its first bit f, the length h of its first
    run (0 while that run is open), and its current bit c and run length r,
    with h and r capped at k.  The walk enters only prefixes that can be
    completed.  An open first run can stay open to the end.  Otherwise at
    least k - r - h more positions are needed if c = f (the last run wraps
    into the first), and 2k - r - h if not (the current run reaches k, then
    a run of f makes the first one up to k).
    """
    # (position, code, reversed code, f, h, c, r) of the prefixes still to walk
    stack = [(1, 1, 1, 1, 0, 1, 1), (1, 0, 0, 0, 0, 0, 1)]
    while stack:
        pos, code, rev, f, h, c, r = stack.pop()
        if pos == n:
            yield code, rev
        elif h and r < k:  # a run after the first goes on to length k or to the end
            m = min(k - r, n - pos)
            ones = -c & (1 << m) - 1
            stack.append((pos + m, code << m | ones, rev | ones << pos, f, h, c, r + m))
        else:
            for b in (1, 0):  # 1 is pushed first, so 0 is walked first
                hb, rb = (h, min(r + 1, k)) if b == c else (h or r, 1)
                if not hb or n - pos - 1 >= (1 if b == f else 2) * k - rb - hb:
                    stack.append((pos + 1, code << 1 | b, rev | b << pos, f, hb, b, rb))


def _rotate(n, code, d):
    """An n-bit code rotated cyclically, bit i moving to bit i + d (mod n)."""
    d %= n
    return (code << d | code >> n - d) & (1 << n) - 1


def erode_by_rotations(n, k, ones):
    """The vertices x whose positions x..x+k (mod n) are all ones, bit p
    holding position p: the ones and'ed with their rotation by -j for each
    j = 1..k, one rotation at a time (rotations repeat after n)."""
    mask = ones
    for j in range(1, min(k, n - 1) + 1):
        mask &= _rotate(n, ones, -j)
    return mask


def dilate_by_rotations(n, k, members):
    """The positions covered when each member x sets x..x+k (mod n): the
    members or'ed with their rotation by +j for each j = 1..k."""
    ones = members
    for j in range(1, min(k, n - 1) + 1):
        ones |= _rotate(n, members, j)
    return ones


def reverse_bits(n, value):
    """An n-bit int read backwards, bit i moving to bit n-1-i: a string's
    position-ordered int (bit p holds position p) to its code (position 0 at
    the top bit), and back."""
    return int(f"{value:0{n}b}"[::-1], 2)


def _column_bits(i):
    """The top cell, the bottom cell and both cells of 1-based column i in
    the row-major n x 2 labelling."""
    v, u = 1 << 2 * (i - 1), 1 << 2 * (i - 1) + 1
    return v, u, v | u


def ladder_families(n, a1, a2, a3):
    """The paper's three extension families for the n x 2 ladder, as
    bitmasks, from the convex sets a1, a2, a3 of the (n-1)-, (n-2)- and
    (n-3)-ladders.

    Every convex set of the n-ladder arises exactly once: from the
    (n-1)-ladder unchanged or stretched by the full last column; from the
    (n-2)-ladder with three one-cell extensions picked by which of the two
    last-column cells are present; or from the (n-3)-ladder with two
    extensions.  ladder_by_families checks disjointness and sizes.
    """
    v3, u3, column3 = _column_bits(n - 3)
    v2, u2, column2 = _column_bits(n - 2)
    v1, u1, column1 = _column_bits(n - 1)
    v0, u0, column0 = _column_bits(n)
    d1 = [mask | column0 if mask & column1 else mask for mask in a1]
    d2 = []
    for mask in a2:
        if mask & column2:
            # the last column's cells decide: v, u, and the cell of column n
            # under a one-cell last column (none under a full one)
            top, bottom = mask & v2, mask & u2
            third = 0 if top and bottom else v0 if top else u0
            d2 += [mask | v1, mask | u1, mask | third]
        elif mask & column3 == column3:
            pass  # no convex set ends in a full column then an empty one
        else:
            third = v1 if mask & v3 else u1 if mask & u3 else column0
            d2 += [mask | v0, mask | u0, mask | third]
    filled, empty = (v2 | v0, u2 | u0), (v1, u1)
    d3 = [mask | e for mask in a3 for e in (filled if mask & column3 else empty)]
    return d1, d2, d3


def ladder_by_families(n):
    """The bitmasks of the convex sets of the n x 2 ladder, ascending, by
    the paper's construction: ladders up to n = 3 by the naive sweep, each
    longer one from ladder_families of the three before it.  At every
    length the family sizes (1x, 3x, 2x the three smaller counts), that no
    set repeats (naming the family that repeats one), and the total against
    count_grid_p2 are checked, so a construction bug raises."""
    ladders = [all_convex_masks_naive(cartesian_product(make_path(i), make_path(2)))
               for i in range(1, min(n, 3) + 1)]
    for k in range(4, n + 1):
        a3, a2, a1 = ladders
        d1, d2, d3 = ladder_families(k, a1, a2, a3)
        families = ((d1, count_grid_p2(k - 1), "first"),
                    (d2, 3 * count_grid_p2(k - 2), "second"),
                    (d3, 2 * count_grid_p2(k - 3), "third"))
        for family, size, which in families:
            if len(family) != size or len(set(family)) != size:
                raise AssertionError(f"{which} family miscounted at n={k}")
        combined = sorted({*d1, *d2, *d3})
        if len(combined) != len(d1) + len(d2) + len(d3):
            raise AssertionError(f"extension families overlap at n={k}")
        if len(combined) != count_grid_p2(k):
            raise AssertionError(f"family total disagrees with the recurrence at n={k}")
        ladders = [a2, a1, combined]
    return ladders[-1]


def checked_masks(chunks) -> list:
    """The masks of a stream of chunks (prefix, table), flattened with loops,
    after checking each chunk for what the line format relies on: the table
    is a nonempty list, and no bit of the prefix lies between the lowest and
    the highest bit of the table's entries."""
    masks = []
    for prefix, table in chunks:
        assert type(table) is list and table, (prefix, table)
        span = 0
        for rest in table:
            span |= rest
        inside = (1 << span.bit_length()) - (span & -span) if span else 0
        assert prefix & inside == 0, (prefix, table)
        masks += [prefix | rest for rest in table]
    return masks
