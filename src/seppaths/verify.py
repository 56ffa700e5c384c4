"""Ground-truth checking: incidence signatures, separation, covering, kissing.

Works for any host exposing ``vertices``, ``has_vertex``, ``has_edge`` — both
trees and the random-graph module's graphs.  An element is either a vertex id
(int) or an edge ((min, max) tuple).

``signatures`` walks each path once, looking its vertices and consecutive
edges up among the targets, so a check costs O(total path length + targets)
rather than O(paths x targets).  Membership tests (``path_contains``,
``kisses``) likewise scan the path's own vertex sequence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import BadToken, InvalidPath, UnknownElement
from .trees import Edge, PathInTree, Tree, edge

Element = int | Edge


def element_key(s: Element):
    """Sort key putting vertices (by id) before edges (by (min, max))."""
    if isinstance(s, int):
        return (0, s, s)
    return (1, s[0], s[1])


def format_element(s: Element) -> str:
    return str(s) if isinstance(s, int) else f"({s[0]},{s[1]})"


class TargetKind(enum.Enum):
    EDGES = "edges"
    VERTICES = "vertices"
    VERTICES_AND_INTERIOR_EDGES = "v-and-interior"
    CUSTOM = "custom"


@dataclass(frozen=True)
class TargetSet:
    """A set of host elements to separate and cover."""

    kind: TargetKind
    elements: tuple[Element, ...]

    @staticmethod
    def edges(host) -> "TargetSet":
        els = tuple(sorted(host.edges, key=element_key))
        return TargetSet(TargetKind.EDGES, els)

    @staticmethod
    def vertices(host) -> "TargetSet":
        els = tuple(sorted(host.vertices))
        return TargetSet(TargetKind.VERTICES, els)

    @staticmethod
    def vertices_and_interior_edges(tree: Tree) -> "TargetSet":
        leafset = {v for v in tree.vertices if tree.degree(v) == 1}
        interior = [e for e in tree.edges if e[0] not in leafset and e[1] not in leafset]
        els = tuple(sorted([*tree.vertices, *interior], key=element_key))
        return TargetSet(TargetKind.VERTICES_AND_INTERIOR_EDGES, els)

    @staticmethod
    def custom(host, elements: Iterable[Element]) -> "TargetSet":
        els = {host_element(host, s) for s in elements}
        return TargetSet(TargetKind.CUSTOM, tuple(sorted(els, key=element_key)))

    def __len__(self) -> int:
        return len(self.elements)


def host_element(host, s: Element) -> Element:
    """s as an element of the host, edges normalized to (min, max);
    UnknownElement if the host lacks it."""
    if isinstance(s, int):
        if not host.has_vertex(s):
            raise UnknownElement(f"vertex {s} not in host")
        return s
    if not host.has_edge(*s):
        raise UnknownElement(f"edge {tuple(s)} not in host")
    return edge(*s)


@dataclass(frozen=True)
class PathSystem:
    """An ordered family of paths tied to one host tree or graph."""

    host: object
    paths: tuple[PathInTree, ...]

    def __post_init__(self) -> None:
        for p in self.paths:
            for v in p.vertices:
                if not self.host.has_vertex(v):
                    raise InvalidPath(f"path {p} uses unknown vertex {v}")
            for i in range(len(p.vertices) - 1):
                u, v = p.vertices[i], p.vertices[i + 1]
                if not self.host.has_edge(u, v):
                    raise InvalidPath(f"path {p}: {u} and {v} are not adjacent")

    def __len__(self) -> int:
        return len(self.paths)

    @property
    def size(self) -> int:
        return len(self.paths)

    def lint(self) -> list[str]:
        """Non-fatal warnings; currently flags duplicate paths."""
        warnings = []
        seen: dict[tuple[int, ...], int] = {}
        for i, p in enumerate(self.paths):
            key = min(p.vertices, tuple(reversed(p.vertices)))
            if key in seen:
                warnings.append(f"path {i} duplicates path {seen[key]}")
            else:
                seen[key] = i
        return warnings


def make_system(host, paths: Iterable[Sequence[int] | PathInTree]) -> PathSystem:
    norm = tuple(
        p if isinstance(p, PathInTree) else PathInTree(tuple(p)) for p in paths
    )
    return PathSystem(host, norm)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a separation or covering check, with a witness on failure."""

    ok: bool
    label: str
    witness: tuple[Element, ...] = field(default=())

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return self.label
        args = ",".join(format_element(s) for s in self.witness)
        return f"{self.label}({args})"


def path_contains(p: PathInTree, s: Element) -> bool:
    """Whether the vertex, or the edge in either orientation, lies on p."""
    vs = p.vertices
    if isinstance(s, int):
        return s in vs
    x, y = s
    try:
        i = vs.index(x)
    except ValueError:
        return False
    return (i > 0 and vs[i - 1] == y) or (i + 1 < len(vs) and vs[i + 1] == y)


def incidence(fs: PathSystem, s: Element) -> frozenset[int]:
    """The signature of s: indices of the paths that contain it."""
    s = host_element(fs.host, s)
    return frozenset(i for i, p in enumerate(fs.paths) if path_contains(p, s))


def signatures(fs: PathSystem, ts: TargetSet) -> dict[Element, frozenset[int]]:
    """Signature of every target element, computed in one sweep.

    Each path is walked once and each of its vertices and edges looked up
    among the targets: O(total path length + targets).
    """
    sig: dict[Element, set[int]] = {s: set() for s in ts.elements}
    for i, p in enumerate(fs.paths):
        for s in p.elements():
            hit = sig.get(s)
            if hit is not None:
                hit.add(i)
    return {s: frozenset(ix) for s, ix in sig.items()}


def _separation(sig: dict[Element, frozenset[int]], ts: TargetSet) -> Verdict:
    groups: dict[frozenset[int], list[Element]] = {}
    for s in ts.elements:  # elements are stored sorted
        groups.setdefault(sig[s], []).append(s)
    colliding = [g for g in groups.values() if len(g) > 1]
    if not colliding:
        return Verdict(True, "Separates")
    first = min(colliding, key=lambda g: element_key(g[0]))
    return Verdict(False, "NotSeparated", (first[0], first[1]))


def _covering(sig: dict[Element, frozenset[int]], ts: TargetSet) -> Verdict:
    for s in ts.elements:
        if not sig[s]:
            return Verdict(False, "NotCovered", (s,))
    return Verdict(True, "Covers")


def separates(fs: PathSystem, ts: TargetSet) -> Verdict:
    """Separates, or NotSeparated(s,t) with the first colliding pair.

    The witness is the lexicographically least pair (vertices before edges),
    i.e. the least element with a non-unique signature and the next element
    sharing its signature.
    """
    return _separation(signatures(fs, ts), ts)


def covers(fs: PathSystem, ts: TargetSet) -> Verdict:
    """Covers, or NotCovered(s) with the first element of empty signature."""
    return _covering(signatures(fs, ts), ts)


def check_signatures(sig: dict[Element, frozenset[int]], ts: TargetSet) -> Verdict:
    """The verdict of ``check`` on an already computed signature map."""
    sep = _separation(sig, ts)
    if not sep:
        return sep
    cov = _covering(sig, ts)
    if not cov:
        return cov
    return Verdict(True, "SeparatesAndCovers")


def check(fs: PathSystem, ts: TargetSet) -> Verdict:
    """Separates and covers, from one signature sweep.

    A failure is reported as ``separates`` or ``covers`` would report it,
    separation first.
    """
    return check_signatures(signatures(fs, ts), ts)


def kisses(p: PathInTree, e: Edge) -> bool:
    """True iff exactly one endpoint of the edge lies on the path."""
    x, y = e
    return (x in p.vertices) != (y in p.vertices)


# ---- path-system text format ----

def parse_paths(host, text: str) -> PathSystem:
    """One path per line as space-separated vertex ids; '#' comments."""
    paths = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            seq = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise BadToken(f"line {lineno}: non-integer token in {raw!r}") from None
        try:
            paths.append(PathInTree(seq))
        except InvalidPath as exc:
            raise InvalidPath(f"line {lineno}: {exc}") from None
    return PathSystem(host, tuple(paths))


def serialize_paths(fs: PathSystem) -> str:
    return "".join(" ".join(str(v) for v in p.vertices) + "\n" for p in fs.paths)
