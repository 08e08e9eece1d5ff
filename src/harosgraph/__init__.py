"""Exact-arithmetic toolkit for Haros graphs.

Haros graphs represent the unit interval: each reduced fraction p/q labels
a graph built from a two-node seed by mediant-driven concatenation.  This
package constructs the graphs explicitly, computes their degree
distributions by three independent routes (explicit construction, a
continued-fraction closed form, and a piecewise-linear interval form), and
cross-verifies the routes over Farey sequences.
"""

from .distribution import (
    DegreeDistribution,
    cf_form_distribution,
    degree_distribution_oracle,
    interval_form_distribution,
    interval_form_value,
    sweep,
    sweep_row_count,
)
from .errors import (
    AdjacencyError,
    HarosError,
    NotRationalError,
    ResourceLimitError,
)
from .exact import (
    ContinuedFraction,
    cf_expand,
    continuant,
    convergents,
    suffix_continuants,
)
from .graphs import (
    HarosGraph,
    build,
    concat,
    identify_boundary,
    initial_graph,
    iter_identified_counts,
)
from .tree import (
    BracketSide,
    EnclosingBracket,
    SymbolicPath,
    farey_parents,
    iter_farey_pairs,
    level_index,
    locate_for_degree,
    mediant,
    replay_path,
    symbolic_path,
    tree_children,
    tree_level,
)

__version__ = "0.1.0"

__all__ = [
    "AdjacencyError",
    "BracketSide",
    "ContinuedFraction",
    "DegreeDistribution",
    "EnclosingBracket",
    "HarosError",
    "HarosGraph",
    "NotRationalError",
    "ResourceLimitError",
    "SymbolicPath",
    "build",
    "cf_expand",
    "cf_form_distribution",
    "concat",
    "continuant",
    "convergents",
    "degree_distribution_oracle",
    "farey_parents",
    "identify_boundary",
    "initial_graph",
    "interval_form_distribution",
    "interval_form_value",
    "iter_farey_pairs",
    "iter_identified_counts",
    "level_index",
    "locate_for_degree",
    "mediant",
    "replay_path",
    "suffix_continuants",
    "sweep",
    "sweep_row_count",
    "symbolic_path",
    "tree_children",
    "tree_level",
]
