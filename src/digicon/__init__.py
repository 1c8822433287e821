"""Exact enumeration of digitally convex sets of graphs.

A vertex set S is digitally convex when every vertex outside S keeps a
private neighbour: some vertex of its closed neighbourhood that N[S]
misses.  The package provides the brute-force enumeration oracle together
with the fast routes for specific families (cycle powers via constrained
cyclic strings, products of complete graphs via a closed formula, ladders
via a recurrence and a column automaton stream, grids via binary-array
transforms), and tools to cross-validate all of them.
"""

from ._kernels import DEFAULT_MAX_SUBSETS, EnumerationBudget
from .convexity import (
    count_digitally_convex,
    digital_convex_hull,
    enumerate_digitally_convex,
    has_private_neighbor,
    is_digitally_convex,
)
from .cyclic import (
    BlockProfile,
    CyclicBinaryString,
    a_count,
    a_series,
    convex_set_from_string,
    count_cycle_power,
    cyclic_blocks,
    enumerate_B,
    is_member_B,
    string_from_convex_set,
)
from .errors import (
    BfileParseError,
    BudgetExceededError,
    EmptyOverlapError,
    InvalidParameterError,
    NotConvexError,
    NotImageError,
    NotMemberError,
)
from .graphs import (
    Graph,
    VertexSet,
    cartesian_product,
    closed_neighborhood,
    closed_neighborhood_of_set,
    graph_from_json,
    graph_power,
    graph_to_json,
    make_complete,
    make_cycle,
    make_path,
    set_from_json,
    set_to_json,
)
from .products import (
    BinaryArray,
    array_from_set,
    count_complete_product,
    count_grid_p2,
    count_grid_via_arrays,
    count_mis_grid3,
    generate_grid_p2,
    max_transform,
    min_transform,
    set_from_array,
)
from .sequences import (
    ComparisonReport,
    LinearRecurrence,
    PowerSeries,
    compare_with_bfile,
    eval_recurrence,
    expand_rational,
    parse_bfile,
)

__version__ = "0.1.0"
