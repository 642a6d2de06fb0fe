"""Enhanced power graphs of finite groups.

Construct finite groups from explicit multiplication tables, build their
enhanced power graphs (x ~ y iff some cyclic subgroup contains both),
decide the graph properties the characterization theorems talk about, and
verify those theorems over rosters of concrete groups.
"""

from .analysis import (
    PropertyReport,
    analyze,
    bipartite_coloring,
    component_reps,
    cone_vertices,
    find_cycle,
    find_missing_edge,
    odd_degree_vertex,
)
from .cayley_io import ingest_cayley, parse_cayley_text
from .epg import EpgBundle, adjacent_oracle, build_bundle, build_deleted, build_epg
from .errors import (
    CayleyParseError,
    CayleyValidationError,
    GroupError,
    GroupParameterError,
    GroupSizeError,
    SpecSyntaxError,
)
from .groups import (
    DEFAULT_MAX_ORDER,
    FiniteGroup,
    has_unique_minimal_subgroup,
    is_generalized_quaternion,
    is_simple,
    normal_closure,
    prime_subgroup_counts,
)
from .planarity import planarity_verdict
from .simplegraph import SimpleGraph, to_dot, to_edgelist_lines, to_json_dict
from .specs import GroupSpec, parse_spec
from .theorems import (
    CHECKS,
    CHECKS_BY_ID,
    TheoremCheck,
    TheoremReport,
    roster_generate,
    run_all,
)

__all__ = [
    "CHECKS",
    "CHECKS_BY_ID",
    "CayleyParseError",
    "CayleyValidationError",
    "DEFAULT_MAX_ORDER",
    "EpgBundle",
    "FiniteGroup",
    "GroupError",
    "GroupParameterError",
    "GroupSizeError",
    "GroupSpec",
    "PropertyReport",
    "SimpleGraph",
    "SpecSyntaxError",
    "TheoremCheck",
    "TheoremReport",
    "adjacent_oracle",
    "analyze",
    "bipartite_coloring",
    "build_bundle",
    "build_deleted",
    "build_epg",
    "component_reps",
    "cone_vertices",
    "find_cycle",
    "find_missing_edge",
    "has_unique_minimal_subgroup",
    "ingest_cayley",
    "is_generalized_quaternion",
    "is_simple",
    "normal_closure",
    "odd_degree_vertex",
    "parse_cayley_text",
    "parse_spec",
    "planarity_verdict",
    "prime_subgroup_counts",
    "roster_generate",
    "run_all",
    "to_dot",
    "to_edgelist_lines",
    "to_json_dict",
]
