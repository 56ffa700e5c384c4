"""Exception hierarchy shared by all seppaths modules.

Every domain error is a subclass of :class:`SepPathError`.  The CLI prints
``type(exc).__name__: message`` on stderr and exits 1, so the class names
are part of the user-facing contract.
"""


class SepPathError(Exception):
    """Base class for all domain errors raised by this package."""


# ---- tree parsing / validation ----

class BadToken(SepPathError):
    """A line of an input document could not be parsed."""


class DuplicateEdge(SepPathError):
    """The same edge appears twice in an edge list."""


class HasCycle(SepPathError):
    """The edge list contains a cycle (including self-loops)."""


class NotConnected(SepPathError):
    """The edge list does not describe a connected graph."""


class UnknownVertex(SepPathError):
    """A vertex id does not exist in the host tree or graph."""


class UnknownElement(SepPathError):
    """A vertex or edge does not exist in the host tree or graph."""


class NotALeaf(SepPathError):
    """The given vertex is required to be a leaf but is not."""


class InvalidPath(SepPathError):
    """A vertex sequence is not a path of the host (repeats or non-edges)."""


# ---- construction preconditions ----

class PreconditionViolated(SepPathError):
    """A construction was called on a tree outside its hypotheses."""


class TreeTooSmall(SepPathError):
    """The tree has fewer vertices than the operation supports."""


class UnsupportedTree(SepPathError):
    """The tree falls outside the vertex-system construction's precondition."""


class NotConsecutive(SepPathError):
    """The given vertices do not form a consecutive run along one path."""


class InternalClassificationError(SepPathError):
    """A construction produced an unverified family; a case analysis bug.

    Raised instead of silently returning a family that failed its
    post-construction separation/covering check.
    """


# ---- exact search ----

class TooLarge(SepPathError):
    """The instance exceeds a configured size cap: the exact solver's, or
    the random-graph experiment's vertex count."""


class Timeout(SepPathError):
    """The exact solver exceeded its wall-clock budget.

    ``lower_bound``, when set, is a certified lower bound on the optimum:
    the size under search when time ran out, every smaller one refuted.
    """

    def __init__(self, message: str, lower_bound: int | None = None):
        super().__init__(message)
        self.lower_bound = lower_bound


class Infeasible(SepPathError):
    """No family over the candidate paths separates the target at all: the
    guard at the end of ``min_separating``'s size loop.

    Unreachable, since the candidates always hold a working family: the
    single-edge paths give every edge its own path, and the length-0 paths,
    present whenever a target is a vertex, every vertex.
    """


# ---- signature tables ----

class NotSeparating(SepPathError):
    """The path system does not separate the target set (witness pair)."""


class NotCovering(SepPathError):
    """The path system does not cover the target set (witness element)."""
