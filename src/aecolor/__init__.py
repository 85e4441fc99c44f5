"""Acyclic edge coloring of planar graphs with a max-degree-plus-ten palette.

The package splits into a structural side and a coloring side.  On the
structural side, `find_configuration` locates one of the four unavoidable
low-degree patterns every planar graph contains, and `audit_triangulation`
re-derives that unavoidability on embedded triangulations by exact
rational discharging.  On the coloring side, `acolor` constructs an
acyclic edge coloring using at most max degree + 10 colors by peeling
configuration edges and extending the coloring back across them, while
`exact_chi_a` provides brute-force ground truth at small scale.

`import aecolor` loads no submodule.  Each exported name resolves on first
use, by importing the one submodule that defines it (PEP 562), so a CLI
call or a script pays only for the modules it touches.
"""

__version__ = "0.1.0"

# each submodule and the names the package exports from it
_EXPORTS = {
    "colorer": (
        "ExtensionContext",
        "ReductionTrace",
        "TraceStep",
        "acolor",
        "choose_reduction_edge",
        "extend_at_edge",
        "replay_trace",
    ),
    "coloring": (
        "BichromaticPath",
        "CycleWitness",
        "PartialEdgeColoring",
        "ValidationReport",
        "exists_critical_path",
        "find_bichromatic_cycle",
        "maximal_bichromatic_path",
        "validate_acyclic",
    ),
    "discharge": (
        "AuditReport",
        "ChargeLedger",
        "RuleApplicability",
        "Transfer",
        "apply_discharging",
        "audit_triangulation",
        "classify_rule",
        "initial_charges",
        "vertex_transfers",
    ),
    "embedding": (
        "FaceSet",
        "RotationSystem",
        "generate_apollonian",
        "parse_rotation",
        "format_rotation",
        "trace_faces",
    ),
    "errors": (
        "AecolorError",
        "ConfigurationPresentError",
        "EdgeListParseError",
        "ExtensionFailed",
        "ImproperColoringError",
        "InvalidRotationError",
        "NonPlanarEmbeddingError",
        "NotPlanarEvidence",
    ),
    "graphs": ("Graph", "format_edge_list", "parse_edge_list"),
    "oracle": (
        "EXHAUSTED",
        "Exhausted",
        "SearchBudget",
        "bichromatic_cycle_exists_brute",
        "enumerate_cycles",
        "exact_chi_a",
        "is_acyclically_k_colorable",
        "search_acyclic_coloring",
    ),
    "scanner": ("Configuration", "classify_vertex", "find_configuration"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # called only for names not yet in the module dict; the first lookup
    # runs `from .module import name` and caches the object here
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(module, globals(), None, (name,), 1), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
