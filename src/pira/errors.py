"""Exception types shared across the package."""


class PiraError(Exception):
    """Base class for all package-specific errors."""


class GraphBuildError(PiraError):
    """Raised when a graph cannot be constructed (dangling edge, edge pair
    that is not a sequence of two ids, bad node spec)."""


class DanglingEdgeError(GraphBuildError):
    """An edge endpoint names no node.

    Carries the edge kind (``"wrote"`` or ``"cite"``), the edge's 0-based
    position in its edge list, and the kind (``"author"`` or ``"paper"``) and
    id of the unknown endpoint.
    """

    def __init__(self, message: str, edges: str, position: int, kind: str, ext_id: str):
        super().__init__(message)
        self.edges = edges
        self.position = position
        self.kind = kind
        self.ext_id = ext_id


class NodeSpecError(GraphBuildError):
    """A node spec fails a check: not a sequence of 2 or 3 fields, an id or
    name that is not a str, an empty id or name, a tab or line break, an id
    starting with U+FEFF, a DBLP flag that is not a bool, 0 or 1, or an id
    listed twice.

    Carries the node kind (``"author"`` or ``"paper"``) and the spec's
    0-based position in its node list; for a repeated id, the later one.
    """

    def __init__(self, message: str, kind: str, position: int):
        super().__init__(message)
        self.kind = kind
        self.position = position


class DatasetError(PiraError):
    """Raised for dataset file problems. Carries the offending path and line."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        super().__init__(message)
        self.path = path
        self.line = line


class MissingFileError(DatasetError):
    """An expected dataset file does not exist."""


class ParseError(DatasetError):
    """A dataset line does not conform to its format."""


class ConvergenceError(PiraError):
    """An iterative solver did not reach its tolerance within the iteration cap."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual
