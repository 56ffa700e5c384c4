"""Trees, structural profiles with their bare paths, and traversals.

Vertices are non-negative integers.  A tree's vertex set is exactly the set
of ids it was built with; ids need not be contiguous (the constructions'
reductions keep the surviving ids of the original tree).  Edges are stored
as ``(min, max)`` tuples throughout the package.  ``Tree`` and the
random-graph module's ``Graph`` share one base, ``Host``.
"""

from __future__ import annotations

import heapq
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import (
    BadToken,
    DuplicateEdge,
    HasCycle,
    InvalidPath,
    NotALeaf,
    NotConnected,
    TreeTooSmall,
    UnknownVertex,
)

Edge = tuple[int, int]


def edge(u: int, v: int) -> Edge:
    """Normalize an unordered vertex pair to the canonical (min, max) form."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class PathInTree:
    """A path given by its vertex sequence; a single vertex is a legal path.

    Validity against a host (consecutive vertices adjacent) is checked where
    paths meet hosts, e.g. in PathSystem.
    """

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise InvalidPath("a path needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidPath(f"repeated vertex in path {self.vertices}")

    @classmethod
    def _walked(cls, vertices: tuple[int, ...]) -> "PathInTree":
        """A path whose vertex sequence cannot repeat a vertex by how it was
        built (a walk along parent links or through degree-2 vertices of a
        tree), so the checks are skipped."""
        p = object.__new__(cls)
        object.__setattr__(p, "vertices", vertices)
        return p

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def endpoints(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    def edges(self) -> tuple[Edge, ...]:
        """The (min, max) edges between consecutive vertices, in path order."""
        vs = self.vertices
        return tuple((a, b) if a < b else (b, a) for a, b in zip(vs, vs[1:]))

    def elements(self) -> tuple[int | Edge, ...]:
        """Every vertex, then every edge, of the path: one walk along it."""
        return self.vertices + self.edges()

    def __str__(self) -> str:
        return "-".join(str(v) for v in self.vertices)


def path_of(*vertices: int) -> PathInTree:
    return PathInTree(tuple(vertices))


class Host:
    """The host interface that trees and graphs share: sorted ``vertices``,
    ``(min, max)`` ``edges``, and ``_adj`` mapping each vertex to its
    ascending neighbours.  Subclasses fill the slots and set ``_kind``."""

    __slots__ = ("vertices", "edges", "_adj")
    _kind: str  # "tree" or "graph", as unknown-vertex messages name the host

    @property
    def n(self) -> int:
        return len(self.vertices)

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self.edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVertex(f"vertex {v} not in {self._kind}") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))


class Tree(Host):
    """An immutable free tree with sorted-adjacency access.

    The adjacency order (ascending vertex id) doubles as the canonical
    planar embedding used by the leaf-order constructions.  Every tree is
    set by one fill, ``_fill``: it checks the edge count, sorts each
    vertex's neighbour list (there is no sort of all the edges), and one
    depth-first traversal from the least vertex id proves the tree
    connected and is kept as its rooted index.  The public constructor
    normalises and validates its arguments first; ``_from_adjacency`` is
    the entry for a neighbour map whose edges are already checked.  The
    ``profile`` is built on first use, once per tree.
    """

    __slots__ = ("_rooted", "_order", "_profile")
    _kind = "tree"

    def __init__(self, vertices: Iterable[int], edges: Iterable[Edge]):
        vs = sorted(set(vertices))
        es = frozenset([(u, v) if u <= v else (v, u) for u, v in edges])
        if not vs:
            raise NotConnected("a tree needs at least one vertex")
        if vs[0] < 0:
            raise BadToken("vertex ids must be non-negative")
        adj: dict[int, list[int]] = {v: [] for v in vs}
        for u, v in es:
            if u == v or u not in adj or v not in adj:
                # name the least offending edge, whatever the set's order
                u, v = min(
                    e for e in es if e[0] == e[1] or e[0] not in adj or e[1] not in adj
                )
                if u == v:
                    raise HasCycle(f"self-loop at vertex {u}")
                raise UnknownVertex(f"edge ({u},{v}) mentions an unknown vertex")
            adj[u].append(v)
            adj[v].append(u)
        self._fill(adj, es)

    @classmethod
    def _from_adjacency(cls, adj: Mapping[int, Iterable[int]], edges: frozenset[Edge]) -> "Tree":
        """The tree of a vertex -> neighbours map and its ``(min, max)``
        edge set, which already agree and hold no self-loop and no negative
        id, as ``parse_tree`` and the edge construction's maps do: they go
        straight to the fill, neither normalised nor checked edge by edge."""
        t = object.__new__(cls)
        t._fill(adj, edges)
        return t

    def _fill(self, adj: Mapping[int, Iterable[int]], edges: frozenset[Edge]) -> None:
        """Set the tree from a checked neighbour map and its edge set: the
        edge count, then one traversal, prove it a tree."""
        n = len(adj)
        if len(edges) > n - 1:
            raise HasCycle(f"{n} vertices admit {n - 1} edges, got {len(edges)}")
        if len(edges) < n - 1:
            raise NotConnected(f"{n} vertices need {n - 1} edges, got {len(edges)}")
        vs = tuple(sorted(adj))
        self.vertices = vs
        self.edges = edges
        self._adj = {v: tuple(sorted(adj[v])) for v in vs}
        self._profile: TreeProfile | None = None
        parent, depth, self._order = _root_at_least(self)
        if len(self._order) != n:
            missing = next(v for v in vs if v not in depth)
            raise NotConnected(f"vertex {missing} is not reachable")
        self._rooted = (parent, depth)

    # Equality is label-sensitive; use canonical_form for isomorphism.
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Tree)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"Tree(n={self.n}, edges={sorted(self.edges)})"

    def is_leaf(self, v: int) -> bool:
        return self.degree(v) == 1

    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in self.vertices if self.degree(v) == 1)

    def rooted(self) -> tuple[dict[int, int], dict[int, int]]:
        """(parent, depth) with the tree rooted at its least vertex id, whose
        parent is itself: the traversal that proved the tree connected."""
        return self._rooted

    def rooted_order(self) -> list[int]:
        """Every vertex once, in the depth-first preorder of the traversal
        behind ``rooted``: each vertex comes after its parent, and reversed
        it is a postorder."""
        return self._order

    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "Tree":
        """The tree whose vertices are exactly the ends of its edges."""
        es = list(edges)
        return cls({v for e in es for v in e}, es)


@dataclass(frozen=True)
class Bunch:
    """A non-trivial component left after deleting all interior edges."""

    vertices: tuple[int, ...]
    leaves: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.leaves)


@dataclass(frozen=True)
class TreeProfile:
    """All structural parameters used by the constructions.

    ``bare_paths`` partition the edge set; ``set_i`` indexes the bare paths
    with no leaf and at least two edges; ``h2star == h2 - len(set_i)``.

    ``profile`` fills the degree facts (``h1``, ``h2``, ``leaves``, ``deg2``
    and ``useful_leaves``) in one pass.  The rest is computed on first read:
    ``interior_edges`` on its own, and ``bare_paths``, ``set_i``, ``h2star``
    and ``bunches`` together, on the first read of any of them.  The edge
    construction reads none of them.  A profile made with all ten values,
    positionally or by name, holds them all from the start.
    """

    h1: int
    h2: int
    leaves: tuple[int, ...]
    deg2: tuple[int, ...]
    interior_edges: tuple[Edge, ...]
    bare_paths: tuple[PathInTree, ...]
    set_i: tuple[int, ...]
    h2star: int
    bunches: tuple[Bunch, ...]
    useful_leaves: tuple[int, ...]

    def __getattr__(self, name: str):
        # Called only for a missing attribute.  The fields that ``profile``
        # leaves to first read are missing until then; the profile keeps
        # its tree's adjacency to compute them.
        group = _FIRST_READ.get(name)
        adj = self.__dict__.get("_adj")
        if group is None or adj is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__.update(group(self, adj))
        return self.__dict__[name]


def parse_tree(text: str) -> Tree:
    """Parse an edge-list document: one "u v" pair per line, '#' comments.

    The vertex set is exactly the set of ids mentioned.  Errors name the
    first offending line.  Each line is checked on its own as it is read,
    and its edge goes into the neighbour map the tree is filled from;
    whether the edges form a tree is left to ``Tree``'s fill.  Only when
    the document is rejected are the lines before the failing one read
    again, to find the first line that closes a cycle, which is then the
    error reported.
    """
    seen: set[Edge] = set()
    adj: defaultdict[int, list[int]] = defaultdict(list)
    lines = text.splitlines()
    try:
        for lineno, raw in enumerate(lines, start=1):
            parts = raw.partition("#")[0].split()
            if not parts:
                continue
            if len(parts) != 2:
                raise BadToken(f"line {lineno}: expected two vertex ids, got {raw!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise BadToken(f"line {lineno}: non-integer token in {raw!r}") from None
            if u < 0 or v < 0:
                raise BadToken(f"line {lineno}: negative vertex id in {raw!r}")
            if u == v:
                raise HasCycle(f"line {lineno}: self-loop {u} {v}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise DuplicateEdge(f"line {lineno}: edge {u} {v} repeated")
            seen.add(e)
            adj[u].append(v)
            adj[v].append(u)
        lineno = len(lines) + 1  # every line is read
        if not seen:
            raise BadToken("document contains no edges")
        return Tree._from_adjacency(adj, frozenset(seen))
    except (BadToken, DuplicateEdge, HasCycle, NotConnected):
        _raise_first_cycle(lines[: lineno - 1])
        raise


def _raise_first_cycle(lines: list[str]) -> None:
    """HasCycle naming the first of the edge lines, which have passed
    ``parse_tree``'s line checks, whose ends a union-find has already
    joined; nothing when they form a forest."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for lineno, raw in enumerate(lines, start=1):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        u, v = int(parts[0]), int(parts[1])
        ru, rv = find(u), find(v)
        if ru == rv:
            raise HasCycle(f"line {lineno}: edge {u} {v} closes a cycle") from None
        parent[ru] = rv


def serialize_tree(t: Tree) -> str:
    """Canonical edge-list text: sorted edges, one per line."""
    return "".join(f"{u} {v}\n" for u, v in sorted(t.edges))


def emit_dot(t: Tree) -> str:
    """Standard DOT document for visualization, one "u -- v;" per edge."""
    lines = ["graph tree {"]
    for u, v in sorted(t.edges):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _root_at_least(t: Tree) -> tuple[dict[int, int], dict[int, int], list[int]]:
    """Parent and depth maps, and the visiting order, of one depth-first
    traversal from the least vertex id; the order misses exactly the
    vertices the least one does not reach."""
    adj = t._adj
    root = t.vertices[0]
    parent, depth = {root: root}, {root: 0}
    order = []
    stack = [root]
    while stack:
        x = stack.pop()
        order.append(x)
        d = depth[x] + 1
        for w in adj[x]:
            if w not in depth:
                parent[w] = x
                depth[w] = d
                stack.append(w)
    return parent, depth, order


def unique_path(t: Tree, u: int, v: int) -> PathInTree:
    """The unique u-v path of the tree; u == v gives the length-0 path.

    Walks parent links of the tree's rooted index up from both ends to
    their meeting vertex, so the cost is the path length.
    """
    if not t.has_vertex(u):
        raise UnknownVertex(f"vertex {u} not in tree")
    if not t.has_vertex(v):
        raise UnknownVertex(f"vertex {v} not in tree")
    parent, depth = t.rooted()
    up, down = [u], [v]
    a, b = u, v
    while depth[a] > depth[b]:
        a = parent[a]
        up.append(a)
    while depth[b] > depth[a]:
        b = parent[b]
        down.append(b)
    while a != b:
        a, b = parent[a], parent[b]
        up.append(a)
        down.append(b)
    down.pop()  # the meeting vertex, already last in `up`
    up.extend(reversed(down))
    return PathInTree._walked(tuple(up))


def dfs_leaf_order(t: Tree, start: int) -> tuple[int, ...]:
    """Leaves in first-visit order of the ascending-adjacency DFS from `start`.

    This is the canonical cyclic leaf order: for every edge, the leaves on
    either side of it form a cyclic interval of the returned sequence.
    """
    if not t.has_vertex(start):
        raise UnknownVertex(f"vertex {start} not in tree")
    if t.n < 2 or not t.is_leaf(start):
        raise NotALeaf(f"vertex {start} is not a leaf")
    order: list[int] = []
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        if t.is_leaf(x):
            order.append(x)
        for w in reversed(t.neighbors(x)):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return tuple(order)


def profile(t: Tree) -> TreeProfile:
    """Every structural parameter of the tree, cached on the tree: the
    degree facts from one pass on the first call, the rest on first read
    (see ``TreeProfile``)."""
    if t._profile is None:
        t._profile = _profile(t)
    return t._profile


def _profile(t: Tree) -> TreeProfile:
    adj = t._adj
    leaves: list[int] = []
    deg2: list[int] = []
    # the adjacency is keyed in ascending vertex order
    for v, ns in adj.items():
        if len(ns) == 1:
            leaves.append(v)
        elif len(ns) == 2:
            deg2.append(v)
    p = object.__new__(TreeProfile)
    p.__dict__.update(
        h1=len(leaves),
        h2=len(deg2),
        leaves=tuple(leaves),
        deg2=tuple(deg2),
        useful_leaves=tuple(v for v in leaves if len(adj[adj[v][0]]) != 2),
        _adj=adj,
    )
    return p


def _interior_edges(p: TreeProfile, adj: dict[int, tuple[int, ...]]) -> dict:
    # ascending u, then ascending neighbour w > u: the edges come out sorted
    return {
        "interior_edges": tuple(
            (u, w) for u, ns in adj.items() if len(ns) > 1 for w in ns if w > u and len(adj[w]) > 1
        )
    }


def _structure(p: TreeProfile, adj: dict[int, tuple[int, ...]]) -> dict:
    bare_paths = _bare_paths(adj)
    leafset = set(p.leaves)
    set_i = tuple(
        i
        for i, bp in enumerate(bare_paths)
        if len(bp.vertices) > 2 and bp.vertices[0] not in leafset and bp.vertices[-1] not in leafset
    )
    return {
        "bare_paths": bare_paths,
        "set_i": set_i,
        "h2star": p.h2 - len(set_i),
        "bunches": _bunches(adj, p.leaves),
    }


# each field ``profile`` leaves to first read, and what computes it
_FIRST_READ = {
    "interior_edges": _interior_edges,
    **dict.fromkeys(("bare_paths", "set_i", "h2star", "bunches"), _structure),
}


def _bare_paths(nbrs: dict[int, tuple[int, ...]]) -> tuple[PathInTree, ...]:
    """Maximal paths whose interior vertices all have degree 2; they partition
    the edge set.  ``nbrs`` is the tree's adjacency, keyed in ascending
    vertex order.

    Each path is walked once, from its lower-id extreme: the extremes are
    visited in ascending order, and the higher one skips its neighbour on
    the path, which is either a lower extreme or the path's last interior
    vertex.  So every path starts at its lower extreme, and they come out
    ordered by their first two vertices."""
    paths: list[PathInTree] = []
    last_interior: set[int] = set()
    for s, ws in nbrs.items():
        if len(ws) == 2:
            continue
        for w in ws:
            if w in last_interior or (w < s and len(nbrs[w]) != 2):
                continue
            seq = [s, w]
            prev, x = s, w
            while len(nbrs[x]) == 2:
                a, b = nbrs[x]
                prev, x = x, (b if a == prev else a)
                seq.append(x)
            if len(seq) > 2:
                last_interior.add(seq[-2])
            paths.append(PathInTree._walked(tuple(seq)))
    return tuple(paths)


def _bunches(nbrs: dict[int, tuple[int, ...]], leaves: tuple[int, ...]) -> tuple[Bunch, ...]:
    """The components of the pendant edges: each support vertex with its
    leaves, or the whole tree when it is a single edge."""
    if len(nbrs) == 2:
        vs = tuple(nbrs)
        return (Bunch(vs, vs),)
    groups: dict[int, list[int]] = {}
    for v in leaves:
        groups.setdefault(nbrs[v][0], []).append(v)
    bunches = [Bunch(tuple(sorted([s, *ls])), tuple(ls)) for s, ls in groups.items()]
    bunches.sort(key=lambda b: b.vertices[0])
    return tuple(bunches)


def random_tree(n: int, seed: int) -> Tree:
    """A seeded uniform random labeled tree on 0..n-1 (decoded Pruefer sequence)."""
    if n < 2:
        raise TreeTooSmall("need at least 2 vertices")
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append(edge(heapq.heappop(leaves), x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    edges.append(edge(heapq.heappop(leaves), heapq.heappop(leaves)))
    return Tree.from_edges(edges)


def tree_centers(t: Tree) -> tuple[int, ...]:
    """The one or two central vertices (iterated leaf stripping)."""
    if t.n <= 2:
        return t.vertices
    deg = {v: t.degree(v) for v in t.vertices}
    layer = [v for v in t.vertices if deg[v] == 1]
    remaining = t.n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for w in t.neighbors(v):
                if deg[w] > 1:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return tuple(sorted(layer))


def _rooted_labeling(t: Tree, root: int) -> tuple[str, list[int]]:
    """The AHU form rooted at `root`, and the BFS order that visits each
    vertex's children sorted by (form, id); built bottom-up without
    recursion."""
    parent = {root: -1}
    order = [root]
    for v in order:
        for w in t.neighbors(v):
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    formed: dict[int, list[tuple[str, int]]] = {v: [] for v in order}
    kids: dict[int, list[int]] = {}
    for v in reversed(order):
        ranked = sorted(formed.pop(v))
        form = "(" + "".join(f for f, _ in ranked) + ")"
        kids[v] = [w for _, w in ranked]
        if v != root:
            formed[parent[v]].append((form, v))
    bfs = [root]
    for v in bfs:
        bfs += kids[v]
    return form, bfs


def _canonical_labeling(t: Tree) -> tuple[str, list[int]]:
    """The rooted labeling at the center with the smaller form (the lower
    id on a tie): two trees are isomorphic exactly when their forms are
    equal, and then their orders, zipped, map one onto the other."""
    return min((_rooted_labeling(t, c) for c in tree_centers(t)), key=lambda fo: fo[0])


def canonical_form(t: Tree) -> str:
    """An isomorphism-invariant string (AHU form rooted at the center)."""
    return _canonical_labeling(t)[0]


def find_isomorphism(t1: Tree, t2: Tree) -> dict[int, int] | None:
    """A vertex bijection t1 -> t2 preserving adjacency, or None.

    Both trees get their canonical labeling; equal forms mean isomorphic
    trees, and the i-th vertex of one canonical order maps to the i-th of
    the other.  No recursion and no search, for trees of any size.
    """
    if t1.n != t2.n:
        return None
    form1, order1 = _canonical_labeling(t1)
    form2, order2 = _canonical_labeling(t2)
    return dict(zip(order1, order2)) if form1 == form2 else None
