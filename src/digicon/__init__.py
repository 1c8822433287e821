"""Exact enumeration of digitally convex sets of graphs.

A vertex set S is digitally convex when every vertex outside S keeps a
private neighbour: some vertex of its closed neighbourhood that N[S]
misses.  The package provides the brute-force enumeration oracle together
with the fast routes for specific families (cycle powers via constrained
cyclic strings, products of complete graphs via a closed formula, ladders
via a recurrence and a column automaton stream, grids via binary-array
transforms), and tools to cross-validate all of them.

Importing the package loads none of its modules: each public name, and
each module, is imported the first time it is read (PEP 562), so a program
that builds graphs pays for ``graphs`` and not for the sweeps.
"""

import importlib

__version__ = "0.1.0"

# the modules whose attributes the package re-exports, each with its names
_EXPORTS = {
    "_kernels": ("DEFAULT_MAX_SUBSETS", "EnumerationBudget"),
    "convexity": ("count_digitally_convex", "digital_convex_hull", "enumerate_digitally_convex",
                  "has_private_neighbor", "is_digitally_convex"),
    "cyclic": ("BlockProfile", "CyclicBinaryString", "a_count", "a_series",
               "convex_set_from_string", "count_cycle_power", "cyclic_blocks", "enumerate_B",
               "is_member_B", "string_from_convex_set"),
    "errors": ("BfileParseError", "BudgetExceededError", "EmptyOverlapError",
               "InvalidParameterError", "NotConvexError", "NotImageError", "NotMemberError"),
    "graphs": ("Graph", "VertexSet", "cartesian_product", "closed_neighborhood",
               "closed_neighborhood_of_set", "graph_from_json", "graph_power", "graph_to_json",
               "make_complete", "make_cycle", "make_path", "set_from_json", "set_to_json"),
    "products": ("BinaryArray", "array_from_set", "count_complete_product", "count_grid_p2",
                 "count_grid_via_arrays", "count_mis_grid3", "generate_grid_p2", "max_transform",
                 "min_transform", "set_from_array"),
    "sequences": ("ComparisonReport", "LinearRecurrence", "PowerSeries", "compare_with_bfile",
                  "eval_recurrence", "expand_rational", "parse_bfile"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
