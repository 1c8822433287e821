"""The benchmark's workloads: which operations each one runs, and the seeded
plan that orders them.

An operation (op) is either a ``digicon`` CLI invocation or, where the CLI has
no route, one library call whose result is printed in decimal.  Every op runs
in a fresh interpreter in the untraced pass and in one shared interpreter in
the traced pass.  Each op names the reference it must reproduce byte for byte
(``references.json``); ops that share a reference must also print identical
bytes to each other.

Each workload exists at two scales: ``full`` is what the benchmark measures,
``smoke`` is a reduced-size copy of the same op mix for the self-check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("sweep-count", "stream-enum", "bigint-seq", "small-verify")
SCALES = ("full", "smoke")


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``argv`` holds the CLI arguments after ``digicon``; a library op instead
    has ``call`` = (module, function, args) and an empty ``argv``.
    ``graphs`` lists the graphs the op's route builds, as specs for
    ``graph_expr``; the set-up measurement builds them without sweeping.
    ``threads`` is the number of CPUs the op asks for.
    """

    ref: str
    argv: tuple[str, ...] = ()
    call: tuple | None = None
    graphs: tuple[tuple, ...] = ()
    threads: int = 1

    @property
    def label(self) -> str:
        if self.call is not None:
            module, function, args = self.call
            return f"lib {function}{tuple(args)}"
        return "digicon " + " ".join(self.argv)


def _cli(ref: str, *argv, graphs=(), threads=1) -> Op:
    return Op(ref=ref, argv=tuple(str(a) for a in argv), graphs=tuple(graphs), threads=threads)


def _lib(ref: str, module: str, function: str, *args, graphs=()) -> Op:
    return Op(ref=ref, call=(module, function, tuple(args)), graphs=tuple(graphs))


def _count_grid(n, m, method):
    graphs = [("grid", n, m)] if method == "bruteforce" else []
    return _cli(f"count path-grid {n}x{m} {method}", "count", "--family", "path-grid",
                "--n", n, "--m", m, "--method", method, graphs=graphs)


def _mis(n, m):
    return _lib(f"count_mis_grid3 {n}x{m}", "products", "count_mis_grid3", n, m,
                graphs=[("slab", n, m)])


def _count_cycle_power_bf(n, k):
    return _cli(f"count cycle-power n={n} k={k} bruteforce", "count", "--family", "cycle-power",
                "--n", n, "--k", k, "--method", "bruteforce", graphs=[("cycle-power", n, k)])


def _sweep_count(p):
    # slots: each slot is a tuple of variants; a 2-tuple is a grid op marked
    # with a dagger in the notes, run as the grid or its transpose
    return [
        (_count_grid(p["arrays"], p["arrays"], "arrays"),),
        (_count_grid(*p["bf"], "bruteforce"), _count_grid(*reversed(p["bf"]), "bruteforce")),
        (_count_cycle_power_bf(p["cp"], 2),),
        (_mis(*p["mis"]), _mis(*reversed(p["mis"]))),
    ]


def _stream_enum(p):
    n, cp = p["ladder"], p["cp"]
    ladder = _cli(f"enumerate path-grid {n}x2 recurrence", "enumerate", "--family", "path-grid",
                  "--n", n, "--m", 2, "--method", "recurrence",
                  graphs=[("grid", i, 2) for i in range(1, 4)])
    bijection = _cli(f"enumerate cycle-power n={p['bij']} k=1 bijection plain", "enumerate",
                     "--family", "cycle-power", "--n", p["bij"], "--k", 1,
                     "--method", "bijection", "--format", "plain")
    # one reference for both worker counts: the streams must be byte-identical
    ref = f"enumerate cycle-power n={cp} k=2"
    by_workers = [
        _cli(ref, "enumerate", "--family", "cycle-power", "--n", cp, "--k", 2,
             "--workers", w, graphs=[("cycle-power", cp, 2)], threads=w)
        for w in (1, 2)
    ]
    return [(ladder,), (bijection,)] + [(op,) for op in by_workers]


def _bigint_seq(p):
    return [
        (_lib(f"count_cycle_power 1 {p['cycle_power']}", "cyclic", "count_cycle_power",
              1, p["cycle_power"]),),
        (_lib(f"count_grid_p2 {p['ladder']}", "products", "count_grid_p2", p["ladder"]),),
        (_cli(f"series k=3 terms={p['terms']} csv", "series", "--k", 3, "--terms", p["terms"],
              "--format", "csv"),),
        (_cli(f"count cycle n={p['cycle']}", "count", "--family", "cycle", "--n", p["cycle"]),),
    ]


def verify_graphs(max_k_cp: int, max_n_cp: int, suite_all: bool) -> list[tuple]:
    """Graphs the verify suites build, each once.

    With ``suite_all`` this is every suite at its CLI defaults; otherwise only
    the cycle-power-bijection suite with the given bounds.
    """
    graphs = {("cycle-power", n, k) for k in range(1, max_k_cp + 1) for n in range(3, max_n_cp + 1)}
    if suite_all:
        graphs |= {("complete-product", n, m) for n in range(1, 5) for m in range(1, 5)}
        graphs |= {("grid", n, 2) for n in range(1, 9)}
        graphs |= {("grid", n, m) for n in range(1, 17) for m in range(1, 16 // n + 1)}
    return sorted(graphs)


def _small_verify(p):
    return [
        (_cli("verify " + p["all"][0], "verify", "--suite", *p["all"], graphs=p["all_graphs"]),),
        (_cli(f"verify cycle-power-bijection k<={p['cp'][0]} n<={p['cp'][1]}", "verify",
              "--suite", "cycle-power-bijection", "--max-k", p["cp"][0], "--max-n", p["cp"][1],
              graphs=verify_graphs(*p["cp"], False)),),
        (_cli(f"oeis cells<={p['oeis']}", "oeis", "--max-cells", p["oeis"]),),
    ]


_PARAMS = {
    "sweep-count": (_sweep_count, {
        "full": {"arrays": 5, "bf": (4, 6), "cp": 22, "mis": (3, 4)},
        "smoke": {"arrays": 3, "bf": (2, 3), "cp": 9, "mis": (1, 2)},
    }),
    "stream-enum": (_stream_enum, {
        "full": {"ladder": 13, "bij": 20, "cp": 22},
        "smoke": {"ladder": 5, "bij": 8, "cp": 9},
    }),
    "bigint-seq": (_bigint_seq, {
        "full": {"cycle_power": 100000, "ladder": 60000, "terms": 8000, "cycle": 30000},
        "smoke": {"cycle_power": 100, "ladder": 50, "terms": 20, "cycle": 40},
    }),
    "small-verify": (_small_verify, {
        "full": {"all": ("all",), "all_graphs": verify_graphs(3, 12, True), "cp": (5, 14),
                 "oeis": 20},
        "smoke": {"all": ("complete-product", "--max-n", "2"),
                  "all_graphs": [("complete-product", n, m) for n in (1, 2) for m in (1, 2)],
                  "cp": (1, 5), "oeis": 4},
    }),
}


def slots(workload: str, scale: str = "full") -> list[tuple[Op, ...]]:
    """Every op slot of a workload; a slot with two entries is a grid and its transpose."""
    build, params = _PARAMS[workload]
    return build(params[scale])


def all_ops(scale: str) -> list[Op]:
    """Every op variant of every workload at one scale."""
    return [op for w in WORKLOADS for slot in slots(w, scale) for op in slot]


def plan(workload: str, seed: int, scale: str = "full") -> list[Op]:
    """The seeded op sequence of one pass: the seed picks the order of the
    slots and, for each two-variant slot, the grid or its transpose."""
    rng = random.Random(f"{workload}:{seed}")
    chosen = [rng.choice(slot) for slot in slots(workload, scale)]
    rng.shuffle(chosen)
    return chosen


def graph_expr(spec) -> str:
    """One graph spec as a call on the ``digicon.graphs`` builders, in Python source."""
    kind, *args = spec
    if kind == "grid":
        n, m = args
        return f"cartesian_product(make_path({n}), make_path({m}))"
    if kind == "slab":
        n, m = args
        return f"cartesian_product(cartesian_product(make_path({n}), make_path({m})), make_path(2))"
    if kind == "cycle-power":
        n, k = args
        return f"graph_power(make_cycle({n}), {k})"
    if kind == "complete-product":
        n, m = args
        return f"cartesian_product(make_complete({n}), make_complete({m}))"
    raise ValueError(f"unknown graph spec {spec!r}")
