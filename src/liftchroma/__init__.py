"""Random lifts of regular graphs: exact colouring counts, moment sums,
concentration thresholds, and the numeric machinery to verify them."""

from .base_graph import (
    BaseGraph,
    adjacency_spectrum,
    make_complete_graph,
    make_cycle_graph,
    make_petersen_graph,
)
from .coloring import (
    EquitableSpec,
    chromatic_number,
    count_proper_colorings,
    count_strongly_equitable,
    is_k_colorable,
)
from .lift import (
    Lift,
    LiftedGraph,
    count_cycles,
    enumerate_lifts,
    expand,
    sample_lift,
    verify_covering,
)
from .thresholds import WindowClassification, WindowKind, c_q, classify, ell_threshold, k_d, u_threshold

__version__ = "0.1.0"

__all__ = [
    "BaseGraph",
    "adjacency_spectrum",
    "make_complete_graph",
    "make_cycle_graph",
    "make_petersen_graph",
    "EquitableSpec",
    "chromatic_number",
    "count_proper_colorings",
    "count_strongly_equitable",
    "is_k_colorable",
    "Lift",
    "LiftedGraph",
    "count_cycles",
    "enumerate_lifts",
    "expand",
    "sample_lift",
    "verify_covering",
    "WindowClassification",
    "WindowKind",
    "c_q",
    "classify",
    "ell_threshold",
    "k_d",
    "u_threshold",
    "__version__",
]
