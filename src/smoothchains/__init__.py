"""Reflection arrangements and saturated Bruhat chains for smooth permutations.

The package decides smoothness of a permutation two independent ways
(pattern avoidance of 3412 and 4231; reflection count below the element
equal to its length), builds a compatible arrangement of the reflections
below a smooth element, verifies that the arrangement multiplies back to
the element while walking saturated chains in Bruhat order from both
ends, enumerates all compatible arrangements, and explores the
elementary-move graph on them.  A type D module runs the analogous
conjectured statements over signed permutation groups.
"""

from .admissible import (
    AdmissibleSet,
    all_elements23,
    c23,
    c_t,
    find_wedges,
    format_element,
    invert_set,
    is_admissible,
    is_smooth_length,
    is_smooth_pattern,
    parse_element,
    realize,
    restrict,
)
from .bruhat import (
    chain_text,
    chain_to_dot,
    is_cover,
    leq,
    rank_matrix,
)
from .orders import (
    NotSmoothError,
    SmoothnessReport,
    VerificationReport,
    construct_compatible_order,
    elementary_neighbors,
    enumerate_compatible_orders,
    graph_connected,
    is_compatible,
    order_graph,
    order_graph_dot,
    order_verdicts,
    smoothness_report,
    verify_order,
)
from .permutations import (
    compose,
    contains_pattern,
    format_window,
    identity,
    inverse,
    length,
    mu,
    parse,
    pattern_witness,
    transposition_window,
)
from .type_d import (
    WeylGroupD,
    positive_roots,
    simple_roots,
    weyl_group,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleSet",
    "NotSmoothError",
    "SmoothnessReport",
    "VerificationReport",
    "WeylGroupD",
    "all_elements23",
    "c23",
    "c_t",
    "chain_text",
    "chain_to_dot",
    "compose",
    "construct_compatible_order",
    "contains_pattern",
    "elementary_neighbors",
    "enumerate_compatible_orders",
    "find_wedges",
    "format_element",
    "format_window",
    "graph_connected",
    "identity",
    "inverse",
    "invert_set",
    "is_admissible",
    "is_compatible",
    "is_cover",
    "is_smooth_length",
    "is_smooth_pattern",
    "length",
    "leq",
    "mu",
    "order_graph",
    "order_graph_dot",
    "order_verdicts",
    "parse",
    "parse_element",
    "pattern_witness",
    "positive_roots",
    "rank_matrix",
    "realize",
    "restrict",
    "simple_roots",
    "smoothness_report",
    "transposition_window",
    "verify_order",
    "weyl_group",
]
