"""Acyclic edge coloring of planar graphs with a max-degree-plus-ten palette.

The package splits into a structural side and a coloring side.  On the
structural side, `find_configuration` locates one of the four unavoidable
low-degree patterns every planar graph contains, and `audit_triangulation`
re-derives that unavoidability on embedded triangulations by exact
rational discharging.  On the coloring side, `acolor` constructs an
acyclic edge coloring using at most max degree + 10 colors by peeling
configuration edges and extending the coloring back across them, while
`exact_chi_a` provides brute-force ground truth at small scale.
"""

__version__ = "0.1.0"

from .colorer import (
    ExtensionContext,
    ReductionTrace,
    TraceStep,
    acolor,
    choose_reduction_edge,
    extend_at_edge,
    move_swap_pair,
    replay_trace,
    try_free_color,
)
from .coloring import (
    BichromaticPath,
    CycleWitness,
    PartialEdgeColoring,
    ValidationReport,
    exists_critical_path,
    find_bichromatic_cycle,
    maximal_bichromatic_path,
    validate_acyclic,
)
from .discharge import (
    AuditReport,
    ChargeLedger,
    RuleApplicability,
    Transfer,
    apply_discharging,
    audit_triangulation,
    classify_rule,
    initial_charges,
    vertex_transfers,
)
from .embedding import (
    FaceSet,
    RotationSystem,
    generate_apollonian,
    parse_rotation,
    format_rotation,
    trace_faces,
)
from .errors import (
    AecolorError,
    ConfigurationPresentError,
    EdgeListParseError,
    ExtensionFailed,
    ImproperColoringError,
    InvalidRotationError,
    MoveRejected,
    NonPlanarEmbeddingError,
    NotPlanarEvidence,
)
from .graphs import Graph, format_edge_list, parse_edge_list
from .oracle import (
    EXHAUSTED,
    Exhausted,
    SearchBudget,
    bichromatic_cycle_exists_brute,
    enumerate_cycles,
    exact_chi_a,
    is_acyclically_k_colorable,
    search_acyclic_coloring,
)
from .scanner import Configuration, classify_vertex, find_configuration

__all__ = [
    "AecolorError",
    "AuditReport",
    "BichromaticPath",
    "ChargeLedger",
    "Configuration",
    "ConfigurationPresentError",
    "CycleWitness",
    "EXHAUSTED",
    "EdgeListParseError",
    "Exhausted",
    "ExtensionContext",
    "ExtensionFailed",
    "FaceSet",
    "Graph",
    "ImproperColoringError",
    "InvalidRotationError",
    "MoveRejected",
    "NonPlanarEmbeddingError",
    "NotPlanarEvidence",
    "PartialEdgeColoring",
    "ReductionTrace",
    "RotationSystem",
    "RuleApplicability",
    "SearchBudget",
    "TraceStep",
    "Transfer",
    "ValidationReport",
    "acolor",
    "apply_discharging",
    "audit_triangulation",
    "bichromatic_cycle_exists_brute",
    "choose_reduction_edge",
    "classify_rule",
    "classify_vertex",
    "enumerate_cycles",
    "exact_chi_a",
    "exists_critical_path",
    "extend_at_edge",
    "find_bichromatic_cycle",
    "find_configuration",
    "format_edge_list",
    "format_rotation",
    "generate_apollonian",
    "initial_charges",
    "is_acyclically_k_colorable",
    "maximal_bichromatic_path",
    "move_swap_pair",
    "parse_edge_list",
    "parse_rotation",
    "replay_trace",
    "search_acyclic_coloring",
    "trace_faces",
    "try_free_color",
    "validate_acyclic",
    "vertex_transfers",
]
