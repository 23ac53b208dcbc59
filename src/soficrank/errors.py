"""Exception types shared across the package, and the one reader of input files.

The CLI maps these onto exit codes: parse errors exit 2, resource limits
exit 3, internal inconsistencies exit 4, and any other failed check exit 1.
"""

from pathlib import Path
from typing import Optional


class SoficRankError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(SoficRankError):
    """Malformed instance file, graph file, or group table."""


def read_utf8(path, data: Optional[bytes] = None) -> str:
    """The UTF-8 text of the file at path, or of `data`, its bytes, when the caller has read them.

    A file that cannot be read or is not UTF-8 raises ParseError naming path.
    """
    try:
        return (Path(path).read_bytes() if data is None else data).decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}")


def content_lines(text: str) -> list[str]:
    """The stripped lines of text that are neither blank nor full-line # comments."""
    return [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]


class ResourceLimitError(SoficRankError):
    """A configured size limit (ball elements, vertices) was exceeded."""


class InternalInconsistency(SoficRankError):
    """An inequality guaranteed by theory failed to hold.

    Raising this always indicates a bug in the implementation, never an
    expected outcome of an experiment.
    """


class CheckFailedError(SoficRankError):
    """A requested verification did not hold on the given input."""


class AlphabetMismatch(CheckFailedError):
    """Graph label alphabet does not match the group's generator set.

    Raised by digraph.read_graph_file before it allocates a graph, it also
    carries the file header's vertex_count and num_labels.
    """

    def __init__(self, message: str, vertex_count: Optional[int] = None, num_labels: Optional[int] = None):
        self.vertex_count = vertex_count
        self.num_labels = num_labels
        super().__init__(message)


class CardinalityViolation(CheckFailedError):
    """The good-vertex set is smaller than (1 - epsilon) * |V|."""


class BallMismatch(CheckFailedError):
    """Some required vertex neighborhood is not isomorphic to the Cayley ball."""

    def __init__(self, vertex: int, message: str = ""):
        self.vertex = vertex
        super().__init__(message or f"neighborhood at vertex {vertex} is not isomorphic to the Cayley ball")


class PreconditionDensity(CheckFailedError):
    """Fewer than half the vertices were supplied as good vertices."""


class ApproximationTooCoarse(CheckFailedError):
    """The approximation's verified radius is below the required 2*r0 + 1."""


class KernelSearchExhausted(CheckFailedError):
    """No kernel vector was found up to the search bound (required for an upper-bound run)."""
