"""Slow reference implementations used to cross-check the fast routes.

Everything here sticks to plain Python sets, dicts and explicit loops so
the logic follows the definitions as directly as possible. None of these
functions share code with the library paths they are used to judge; that
independence is the whole point.
"""

from collections import deque

from digicon import BinaryArray, Graph, cartesian_product, make_path


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
