"""Exception types shared across the package."""

from __future__ import annotations


class AecolorError(Exception):
    """Base class for every error raised by this package."""


class EdgeListParseError(AecolorError, ValueError):
    """Malformed edge-list input; carries the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InvalidRotationError(AecolorError, ValueError):
    """A rotation system that is not a permutation of each vertex's neighbors."""


class NonPlanarEmbeddingError(AecolorError):
    """Face tracing produced an Euler count other than 2 (positive genus)."""


class ImproperColoringError(AecolorError, ValueError):
    """Two equal colors meet at a vertex, or an operation requires properness."""


class ConfigurationPresentError(AecolorError):
    """Discharging was asked to run on a graph violating a rule precondition."""

    def __init__(self, vertex: int, message: str = ""):
        super().__init__(message or f"vertex {vertex} violates a discharging precondition")
        self.vertex = vertex


class NotPlanarEvidence(AecolorError):
    """Constructive evidence that the input graph cannot be planar.

    Raised when an exhaustive scan finds no reducible low-degree vertex
    pattern, or when full backtracking proves a palette of at least
    max degree plus ten colors insufficient for the subgraph it searched.
    Either outcome is impossible for a planar graph.
    """


class ExtensionFailed(AecolorError):
    """Every extension tier failed for one edge and proved nothing.

    The whole-subgraph search ran out of budget, or proved too small a
    palette below max degree plus ten, which refutes nothing.
    """
