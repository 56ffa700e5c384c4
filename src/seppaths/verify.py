"""Ground-truth checking: incidence signatures, separation, covering, kissing.

Works for any host exposing ``vertices``, ``edges``, ``has_vertex`` and
``has_edge``: both trees and the random-graph module's graphs.  An element
is either a vertex id (int) or an edge ((min, max) tuple).

``signatures`` walks each path once, looking its vertices and consecutive
edges up among the targets: the exact table, in O(total path length +
targets).  ``check``, ``separates`` and ``covers`` share one routine, which
on a tree host first tries to certify from one hash sweep in O(n + paths):
each path gets a fixed random word, and each target element the sum of the
words of the paths through it, found from path ends, offline LCAs and
subtree sums without walking any path.  Equal path sets give equal sums and
the empty set sums to zero, so distinct nonzero sums prove the verdict
exactly.  When the sums do not certify (a collision, a zero, or a family
that really fails), the verdict and its witness come from the exact table
(``check_signatures``), so a hash can never accept a failing family.  Graph
hosts always use the exact table.  The same certified sums let
``faults.decoder`` decode probe reports without the table.  Membership
tests (``path_contains``, ``kisses``) scan the path's own vertex sequence.

A ``PathSystem`` whose paths take fewer steps in all than the host has
edges walks each path vertex by vertex, then step by step, which names its
first fault.  Any other validates each path with one subset test of its
steps against the host's edges in both orientations (a length-0 path only
needs its vertex in the host), and walks only a path that fails.  The
package's own families skip validation only through ``built_system``,
which checks them.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import BadToken, InternalClassificationError, InvalidPath, UnknownElement
from .trees import Edge, PathInTree, Tree, edge, profile

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
        els = tuple(sorted(host.edges))
        return TargetSet(TargetKind.EDGES, els)

    @staticmethod
    def vertices(host) -> "TargetSet":
        return TargetSet(TargetKind.VERTICES, host.vertices)  # already a sorted tuple

    @staticmethod
    def vertices_and_interior_edges(tree: Tree) -> "TargetSet":
        # both parts are sorted, and element_key puts vertices before edges
        els = tree.vertices + profile(tree).interior_edges
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
        host = self.host
        steps = sum(len(p.vertices) for p in self.paths) - len(self.paths)
        if steps < len(host.edges):  # a few steps: walk them, not the host
            for p in self.paths:
                _walk(host, p)
            return
        arcs = set(host.edges)  # every host edge, in both orientations
        arcs.update([(v, u) for u, v in host.edges])
        for p in self.paths:
            vs = p.vertices
            if not (arcs.issuperset(zip(vs, vs[1:])) if len(vs) > 1 else host.has_vertex(vs[0])):
                _walk(host, p)  # a failing path: name its first fault

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


def _walk(host, p: PathInTree) -> None:
    """Check p vertex by vertex, then step by step; InvalidPath names the
    first unknown vertex, else the first step between non-adjacent ones."""
    for v in p.vertices:
        if not host.has_vertex(v):
            raise InvalidPath(f"path {p} uses unknown vertex {v}")
    for u, v in zip(p.vertices, p.vertices[1:]):
        if not host.has_edge(u, v):
            raise InvalidPath(f"path {p}: {u} and {v} are not adjacent")


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
    among the targets: O(total path length + targets).  Vertex targets look
    up the vertices alone, and no edge is built.
    """
    sig: dict[Element, set[int]] = {s: set() for s in ts.elements}
    vertices_only = ts.kind is TargetKind.VERTICES
    for i, p in enumerate(fs.paths):
        for s in p.vertices if vertices_only else p.elements():
            hit = sig.get(s)
            if hit is not None:
                hit.add(i)
    return {s: frozenset(ix) for s, ix in sig.items()}


_WORD_SEED = 0x5E9A7B5


def _path_words(count: int) -> list[int]:
    """One fixed, nonzero 61-bit word per path index."""
    rng = random.Random(_WORD_SEED)
    return [rng.getrandbits(61) | 1 for _ in range(count)]


def _tree_hashes(fs: PathSystem, ts: TargetSet) -> list[int]:
    """For each target element, the sum of the words of the paths through
    it, on a tree host; O(n + paths), reading only each path's two ends.

    Rooted as in ``Tree.rooted``, a path with ends a, b and LCA l adds its
    word w at a and at b and -2w at l, and w to the LCA sum of l.  The
    subtree sum at c then counts w exactly when the path uses the edge from
    c to its parent, and the subtree sum plus the LCA sum of c exactly when
    the path passes through c.  The LCAs come from Tarjan's offline
    algorithm, run in the same postorder pass that adds up the subtree sums.
    The sums are exact integers, so with positive words a sum is 0 exactly
    when no path passes; an element not in the host also sums to 0.
    """
    t = fs.host
    parent, _ = t.rooted()
    order = t.rooted_order()  # a preorder: reversed, it is a postorder
    n, m = len(order), len(fs.paths)
    pos = {v: k for k, v in enumerate(order)}
    parent_pos = [pos[parent[v]] for v in order]
    parent_pos.append(n)  # slot n stands for every element outside the host
    words = _path_words(m)
    below = [0] * (n + 1)  # subtree sums
    meet = [0] * (n + 1)  # words of the paths whose LCA is this vertex
    head = [-1] * n  # the path ends at each vertex, as linked lists:
    nxt = [-1] * (2 * m)  # end 2i + j is end j of path i
    for i, p in enumerate(fs.paths):
        vs = p.vertices
        a, b = pos[vs[0]], pos[vs[-1]]
        w = words[i]
        below[a] += w
        below[b] += w
        e = 2 * i
        nxt[e], head[a] = head[a], e
        nxt[e + 1], head[b] = head[b], e + 1
    up = list(range(n))  # union-find: a finished vertex links towards its parent
    first = [-1] * m  # the end of each path that finished first
    for u in range(n - 1, -1, -1):
        e = head[u]
        while e >= 0:
            i = e >> 1
            e = nxt[e]
            x = first[i]
            if x < 0:
                first[i] = u
                continue
            while up[x] != x:  # the least unfinished ancestor of x: the LCA
                up[x] = x = up[up[x]]
            w = words[i]
            below[x] -= 2 * w
            meet[x] += w
        s = below[u]
        meet[u] += s
        v = parent_pos[u]
        below[v] += s  # at the root, its own parent, this sum is never read again
        up[u] = v
    hashes = []
    for s in ts.elements:
        if isinstance(s, int):
            hashes.append(meet[pos.get(s, n)])
        else:
            i, j = pos.get(s[0], n), pos.get(s[1], n)
            if i > j:
                i, j = j, i
            hashes.append(below[j] if parent_pos[j] == i else 0)  # j is the child
    return hashes


def _certified_sums(
    fs: PathSystem, ts: TargetSet, separation: bool = True, covering: bool = True
) -> list[int] | None:
    """The tree hash sums of the target elements, in ``ts.elements`` order,
    when they prove the asked-for properties: pairwise distinct sums prove
    separation, nonzero sums covering.  None on graph hosts and whenever the
    sums do not settle it."""
    if not isinstance(fs.host, Tree):
        return None
    hashes = _tree_hashes(fs, ts)
    seen = set(hashes)
    if (separation and len(seen) != len(hashes)) or (covering and 0 in seen):
        return None
    return hashes


# the pass label for each (separation, covering) request
_PASSES = {(True, True): "SeparatesAndCovers", (True, False): "Separates", (False, True): "Covers"}


def check_signatures(
    sig: dict[Element, frozenset[int]], ts: TargetSet,
    separation: bool = True, covering: bool = True,
) -> Verdict:
    """The exact verdict on an already computed signature map, for the
    asked-for properties, separation first.

    NotSeparated(s,t) names the lexicographically least colliding pair
    (vertices before edges): the least element with a non-unique signature
    and the next element sharing it.  NotCovered(s) names the first element
    of empty signature.
    """
    if separation:
        groups: dict[frozenset[int], list[Element]] = {}
        for s in ts.elements:  # elements are stored sorted
            groups.setdefault(sig[s], []).append(s)
        colliding = [g for g in groups.values() if len(g) > 1]
        if colliding:
            first = min(colliding, key=lambda g: element_key(g[0]))
            return Verdict(False, "NotSeparated", (first[0], first[1]))
    if covering:
        for s in ts.elements:
            if not sig[s]:
                return Verdict(False, "NotCovered", (s,))
    return Verdict(True, _PASSES[separation, covering])


def _verdict(fs: PathSystem, ts: TargetSet, separation: bool, covering: bool) -> Verdict:
    """One sweep: a pass when the tree hash sums certify the asked-for
    properties, else the exact table's verdict."""
    if _certified_sums(fs, ts, separation, covering) is not None:
        return Verdict(True, _PASSES[separation, covering])
    return check_signatures(signatures(fs, ts), ts, separation, covering)


def separates(fs: PathSystem, ts: TargetSet) -> Verdict:
    """Separates, or NotSeparated(s,t) with the least colliding pair."""
    return _verdict(fs, ts, separation=True, covering=False)


def covers(fs: PathSystem, ts: TargetSet) -> Verdict:
    """Covers, or NotCovered(s) with the first element of empty signature."""
    return _verdict(fs, ts, separation=False, covering=True)


def check(fs: PathSystem, ts: TargetSet) -> Verdict:
    """SeparatesAndCovers, or the failure ``separates`` or ``covers`` would
    report, separation first."""
    return _verdict(fs, ts, separation=True, covering=True)


def built_system(
    host, paths: Iterable[PathInTree], label: str, *targets: TargetSet, cover: bool = True
) -> PathSystem:
    """A family the package built itself on this host (say by
    ``unique_path``), made without re-checking every step of every path and
    returned only once ``check`` (``separates`` when ``cover`` is False)
    passes it against each target.  The first failure raises
    InternalClassificationError("<label>: <verdict>")."""
    fs = object.__new__(PathSystem)
    object.__setattr__(fs, "host", host)
    object.__setattr__(fs, "paths", tuple(paths))
    test = check if cover else separates
    for target in targets:
        verdict = test(fs, target)
        if not verdict:
            raise InternalClassificationError(f"{label}: {verdict}")
    return fs


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
            seq = tuple(map(int, line.split()))
        except ValueError:
            raise BadToken(f"line {lineno}: non-integer token in {raw!r}") from None
        try:
            paths.append(PathInTree(seq))
        except InvalidPath as exc:
            raise InvalidPath(f"line {lineno}: {exc}") from None
    return PathSystem(host, tuple(paths))


def serialize_paths(fs: PathSystem) -> str:
    return "".join(" ".join(str(v) for v in p.vertices) + "\n" for p in fs.paths)
