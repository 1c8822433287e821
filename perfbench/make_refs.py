"""Derive the stored reference of every benchmark op and write references.json.

Each reference is the exact stdout an op must print, kept as its SHA-256,
byte and line counts, plus the expected exit code and the count it states.
Every reference is derived from two independent routes that must agree
before it is written:

* grid counts: array images against the brute-force sweep, and against the
  bundled A217637 snapshot where n*m <= 20;
* the slab MIS count: the MIS sweep against the grid's convex-set count;
* cycle-power counts and streams: the subset sweep against block strings
  generated here, with their own run check and their own string-to-set map;
* the ladder stream: the constructive generation against the sweep;
* big recurrence values: the library against a closed form (cycles, via
  Lucas numbers) or a companion-matrix power written here (ladders);
* the series: long division against the recurrence iterated here;
* verify: every case line of the command reports agreeing routes;
* oeis: array counts against the snapshot, compared here.

The references hold the answers, not what the current code prints: an op
whose code is wrong fails against them.  Run from the repository root:

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import digicon  # noqa: E402
from workloads import SCALES, all_ops  # noqa: E402

if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

BIG = digicon.EnumerationBudget(max_subsets=1 << 30)
# the ladder recurrence f(n) = f(n-1) + 3f(n-2) + 2f(n-3) from f(1..3) = 2, 6, 16
LADDER = (((1, 1), (2, 3), (3, 2)), {1: 2, 2: 6, 3: 16})
SNAPSHOT = ROOT / "src" / "digicon" / "data" / "A217637.txt"


def agree(what, **routes):
    values = list(routes.values())
    if any(v != values[0] for v in values):
        shown = {k: str(v)[:60] for k, v in routes.items()}
        raise SystemExit(f"{what}: routes disagree: {shown}")
    return values[0], sorted(routes)


def snapshot():
    entries = {}
    for line in SNAPSHOT.read_text().splitlines():
        text = line.split("#", 1)[0].split()
        if text:
            entries[int(text[0])] = int(text[1])
    return entries


def antidiagonal(n, m):
    d = n + m
    return (d - 1) * (d - 2) // 2 + n


def grid_count(n, m):
    routes = {
        "arrays": digicon.count_grid_via_arrays(n, m, BIG),
        "bruteforce": digicon.count_digitally_convex(
            digicon.cartesian_product(digicon.make_path(n), digicon.make_path(m)), BIG),
    }
    if n * m <= 20:
        routes["A217637"] = snapshot()[antidiagonal(n, m)]
    return agree(f"grid {n}x{m}", **routes)


def block_strings(n, k):
    """Length-n strings (position 0 = most significant bit) whose cyclic
    runs all have length >= k, in increasing code order, as bit tuples."""
    for code in range(1 << n):
        bits = tuple(code >> (n - 1 - i) & 1 for i in range(n))
        if len(set(bits)) == 1:
            yield bits
            continue
        if n < k:
            continue
        cut = next(i for i in range(n) if bits[i] != bits[i - 1])
        rotated = bits[cut:] + bits[:cut]
        if all(len(list(run)) >= k for _, run in itertools.groupby(rotated)):
            yield bits


def string_to_mask(bits, power):
    """Vertices of the convex set of C_n^power whose indicator string is bits:
    a run of L ones starting at p gives p .. p+L-power-1 (mod n)."""
    n = len(bits)
    if all(bits):
        return (1 << n) - 1
    if not any(bits):
        return 0
    mask = 0
    cut = next(i for i in range(n) if bits[i] != bits[i - 1])
    pos = cut
    for bit, run in itertools.groupby(bits[cut:] + bits[:cut]):
        length = len(list(run))
        if bit:
            for t in range(length - power):
                mask |= 1 << (pos + t) % n
        pos += length
    return mask


def cycle_power_masks(n, power):
    """Convex sets of C_n^power via block strings, in string-code order."""
    return [string_to_mask(bits, power) for bits in block_strings(n, power + 1)]


def lucas(n):
    # fast doubling on Fibonacci pairs: L_n = F_{n-1} + F_{n+1}
    def fib(i):
        if i == 0:
            return 0, 1
        a, b = fib(i >> 1)
        c = a * (2 * b - a)
        d = a * a + b * b
        return (d, c + d) if i & 1 else (c, d)
    f, g = fib(n)
    return 2 * g - f


def cycle_count(n):
    """Convex sets of C_n: the block-string recurrence factors as
    (x^2 - x - 1)(x^2 - x + 1), so the count is L_n plus a period-6 term."""
    return lucas(n) + (2, 1, -1, -2, -1, 1)[n % 6]


def companion_power(taps, initial, n):
    """Term n of f(i) = sum c * f(i - o) for o, c in taps, from consecutive
    initial terms {i: f(i)}, by squaring the companion matrix."""
    order = max(o for o, _ in taps)
    first = max(initial) + 1
    if n < first:
        return initial[n]
    row = [0] * order
    for o, c in taps:
        row[o - 1] = c
    step = [row] + [[int(j == i) for j in range(order)] for i in range(order - 1)]

    def mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(order)) for j in range(order)]
                for i in range(order)]

    result = [[int(i == j) for j in range(order)] for i in range(order)]
    e = n - first + 1
    while e:
        if e & 1:
            result = mul(result, step)
        step = mul(step, step)
        e >>= 1
    state = [initial[first - 1 - i] for i in range(order)]
    return sum(result[0][j] * state[j] for j in range(order))


def block_string_terms(k, terms):
    """a(k, 0..terms) by iterating f(n) = 2f(n-1) - f(n-2) + f(n-2k) here,
    from its initial band: 2 up to n = 2k-1, then 2 + n(n-2k+1) to n = 2k+2."""
    f = [0] + [2] * (2 * k - 1) + [2 + j * (j - 2 * k + 1) for j in range(2 * k, 2 * k + 3)]
    while len(f) <= terms:
        n = len(f)
        f.append(2 * f[n - 1] - f[n - 2] + f[n - 2 * k])
    return f[: terms + 1]


def masks_to_json_lines(masks, universe):
    return "".join(json.dumps([v for v in range(universe) if m >> v & 1]) + "\n" for m in masks)


def masks_to_plain_lines(masks, universe):
    return "".join(" ".join(str(v + 1) for v in range(universe) if m >> v & 1) + "\n"
                   for m in masks)


def run_cli(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "digicon", *argv], capture_output=True,
                          env=env, check=False)
    return proc.returncode, proc.stdout.decode()


def derive(op):
    """(stdout text, stated count, route names) for one op; every op is
    expected to exit 0."""
    if op.call is not None:
        _, function, args = op.call
        if function == "count_mis_grid3":
            n, m = args
            grid, _ = grid_count(n, m)
            value, routes = agree(f"slab {n}x{m}", mis=digicon.count_mis_grid3(n, m, BIG),
                                  grid_convex_sets=grid)
        elif function == "count_cycle_power":
            k, n = args
            value, routes = agree(f"cycle {n}", recurrence=digicon.count_cycle_power(k, n),
                                  lucas_closed_form=cycle_count(n))
        else:
            (n,) = args
            small = [digicon.count_digitally_convex(
                digicon.cartesian_product(digicon.make_path(i), digicon.make_path(2)))
                for i in range(1, 9)]
            agree("ladder recurrence vs sweep", sweep=small,
                  recurrence=[companion_power(*LADDER, i) for i in range(1, 9)])
            value, routes = agree(f"ladder {n}", recurrence=digicon.count_grid_p2(n),
                                  companion_matrix=companion_power(*LADDER, n))
        return f"{value}\n", value, routes

    args = dict(zip(op.argv[1::2], op.argv[2::2])) if op.argv[0] != "verify" else {}
    command = op.argv[0]
    if command == "count":
        n = int(args["--n"])
        if args["--family"] == "path-grid":
            value, routes = grid_count(n, int(args["--m"]))
        elif args["--family"] == "cycle":
            value, routes = agree(f"cycle {n}", recurrence=digicon.count_cycle_power(1, n),
                                  lucas_closed_form=cycle_count(n))
        else:
            k = int(args["--k"])
            graph = digicon.graph_power(digicon.make_cycle(n), k)
            value, routes = agree(f"cycle-power {n} {k}",
                                  bruteforce=digicon.count_digitally_convex(graph, BIG),
                                  recurrence=digicon.count_cycle_power(k, n),
                                  series=digicon.a_series(k + 1, n)[n],
                                  block_strings=len(cycle_power_masks(n, k)))
        return f"{value}\n", value, routes
    if command == "enumerate":
        n = int(args["--n"])
        if args["--family"] == "path-grid":
            ladder = digicon.cartesian_product(digicon.make_path(n), digicon.make_path(2))
            masks, routes = agree(
                f"ladder stream {n}",
                generation=[s.mask for s in digicon.generate_grid_p2(n)],
                bruteforce=[s.mask for s in digicon.enumerate_digitally_convex(ladder, BIG)])
            return masks_to_json_lines(masks, 2 * n), len(masks), routes
        k = int(args["--k"])
        strings = cycle_power_masks(n, k)
        graph = digicon.graph_power(digicon.make_cycle(n), k)
        swept = [s.mask for s in digicon.enumerate_digitally_convex(graph, BIG)]
        if args.get("--method") == "bijection":
            # the bijection streams in string order; the sweep in mask order
            library = [s.mask for s in (digicon.convex_set_from_string(k, n, b)
                                        for b in digicon.enumerate_B(k + 1, n, BIG))]
            masks, routes = agree(f"bijection stream {n} {k}", block_strings=strings,
                                  library_bijection=library)
            agree("bijection set", strings=sorted(masks), bruteforce=swept)
            return masks_to_plain_lines(masks, n), len(masks), routes + ["bruteforce"]
        masks, routes = agree(f"cycle-power stream {n} {k}", bruteforce=swept,
                              block_strings=sorted(strings))
        return masks_to_json_lines(masks, n), len(masks), routes
    if command == "series":
        k, terms = int(args["--k"]), int(args["--terms"])
        coefficients, routes = agree(f"series {k} {terms}",
                                     long_division=list(digicon.a_series(k, terms).coefficients),
                                     recurrence=block_string_terms(k, terms))
        agree("series vs strings", strings=[len(list(block_strings(n, k))) for n in range(1, 15)],
              series=coefficients[1:15])
        text = "n,coefficient\n" + "".join(f"{i},{c}\n" for i, c in enumerate(coefficients))
        return text, len(coefficients), routes
    if command == "oeis":
        max_cells = int(args["--max-cells"])
        computed = {antidiagonal(n, m): digicon.count_grid_via_arrays(n, m)
                    for n in range(1, max_cells + 1) for m in range(1, max_cells // n + 1)}
        known = snapshot()
        shared = sorted(computed.keys() & known.keys())
        agree("oeis", arrays=[computed[i] for i in shared], A217637=[known[i] for i in shared])
        text = json.dumps({"matched": len(shared), "mismatches": [],
                           "only_left": sorted(computed.keys() - known.keys()),
                           "only_right": sorted(known.keys() - computed.keys())}) + "\n"
        return text, len(shared), ["arrays", "A217637"]
    # verify: each case line is itself an agreement of two or three routes
    code, text = run_cli(op.argv)
    lines = text.splitlines()
    if code != 0 or not all(line.startswith("ok ") for line in lines[:-1]):
        raise SystemExit(f"{op.label}: a verify case failed:\n{text}")
    cases = len(lines) - 1
    if lines[-1] != f"all {cases} cases passed":
        raise SystemExit(f"{op.label}: unexpected summary {lines[-1]!r}")
    return text, cases, ["verify cases"]


def main():
    out = {}
    for scale in SCALES:
        refs = {}
        for op in all_ops(scale):
            if op.ref in refs:
                continue
            text, count, routes = derive(op)
            data = text.encode()
            refs[op.ref] = {
                "exit": 0,
                "count": str(count),
                "lines": data.count(b"\n"),
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
                "routes": routes,
            }
            print(f"{scale:5} {op.ref}: {len(data)} bytes via {' = '.join(routes)}", flush=True)
        out[scale] = refs
    (HERE / "references.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
