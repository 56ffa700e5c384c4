"""Trees, structural profiles, traversals, and bare-path contraction.

Vertices are non-negative integers.  A tree's vertex set is exactly the set
of ids it was built with; ids need not be contiguous (contraction and
reduction keep the surviving ids of the original tree).  Edges are stored
as ``(min, max)`` tuples throughout the package.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Iterable

from .errors import (
    BadToken,
    DuplicateEdge,
    HasCycle,
    InvalidPath,
    NotALeaf,
    NotConnected,
    TreeTooSmall,
    UnknownElement,
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

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def endpoints(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def edge_set(self) -> frozenset[Edge]:
        vs = self.vertices
        return frozenset(edge(vs[i], vs[i + 1]) for i in range(len(vs) - 1))

    def __str__(self) -> str:
        return "-".join(str(v) for v in self.vertices)


def path_of(*vertices: int) -> PathInTree:
    return PathInTree(tuple(vertices))


class Tree:
    """An immutable free tree with sorted-adjacency access.

    The adjacency order (ascending vertex id) doubles as the canonical
    planar embedding used by the leaf-order constructions.
    """

    __slots__ = ("vertices", "edges", "_adj")

    def __init__(self, vertices: Iterable[int], edges: Iterable[Edge]):
        vs = tuple(sorted(set(vertices)))
        es = frozenset(edge(u, v) for u, v in edges)
        if not vs:
            raise NotConnected("a tree needs at least one vertex")
        if any(v < 0 for v in vs):
            raise BadToken("vertex ids must be non-negative")
        vset = set(vs)
        adj: dict[int, list[int]] = {v: [] for v in vs}
        for u, v in es:
            if u == v:
                raise HasCycle(f"self-loop at vertex {u}")
            if u not in vset or v not in vset:
                raise UnknownVertex(f"edge ({u},{v}) mentions an unknown vertex")
            adj[u].append(v)
            adj[v].append(u)
        if len(es) > len(vs) - 1:
            raise HasCycle(f"{len(vs)} vertices admit {len(vs) - 1} edges, got {len(es)}")
        if len(es) < len(vs) - 1:
            raise NotConnected(f"{len(vs)} vertices need {len(vs) - 1} edges, got {len(es)}")
        self.vertices = vs
        self.edges = es
        self._adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        self._check_connected()

    def _check_connected(self) -> None:
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in self._adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(self.vertices):
            missing = min(set(self.vertices) - seen)
            raise NotConnected(f"vertex {missing} is not reachable")

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
            raise UnknownVertex(f"vertex {v} not in tree") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def is_leaf(self, v: int) -> bool:
        return self.degree(v) == 1

    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in self.vertices if self.degree(v) == 1)

    @classmethod
    def from_edges(cls, edges: Iterable[Edge], extra_vertices: Iterable[int] = ()) -> "Tree":
        es = list(edges)
        vs = {v for e in es for v in e}
        vs.update(extra_vertices)
        return cls(vs, es)


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


def parse_tree(text: str) -> Tree:
    """Parse an edge-list document: one "u v" pair per line, '#' comments.

    The vertex set is exactly the set of ids mentioned.  Errors name the
    first offending line.
    """
    edges: list[Edge] = []
    seen: set[Edge] = set()
    parent: dict[int, int] = {}  # union-find for cycle detection

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
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
        e = edge(u, v)
        if e in seen:
            raise DuplicateEdge(f"line {lineno}: edge {u} {v} repeated")
        seen.add(e)
        for x in e:
            parent.setdefault(x, x)
        ru, rv = find(u), find(v)
        if ru == rv:
            raise HasCycle(f"line {lineno}: edge {u} {v} closes a cycle")
        parent[ru] = rv
        edges.append(e)
    if not edges:
        raise BadToken("document contains no edges")
    return Tree.from_edges(edges)


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


def unique_path(t: Tree, u: int, v: int) -> PathInTree:
    """The unique u-v path of the tree; u == v gives the length-0 path."""
    if not t.has_vertex(u):
        raise UnknownVertex(f"vertex {u} not in tree")
    if not t.has_vertex(v):
        raise UnknownVertex(f"vertex {v} not in tree")
    if u == v:
        return PathInTree((u,))
    prev = {u: u}
    frontier = [u]
    while frontier and v not in prev:
        nxt = []
        for x in frontier:
            for w in t.neighbors(x):
                if w not in prev:
                    prev[w] = x
                    nxt.append(w)
        frontier = nxt
    seq = [v]
    while seq[-1] != u:
        seq.append(prev[seq[-1]])
    return PathInTree(tuple(reversed(seq)))


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
    """Compute every structural parameter of the tree in one pass."""
    leaves = tuple(v for v in t.vertices if t.degree(v) == 1)
    deg2 = tuple(v for v in t.vertices if t.degree(v) == 2)
    leafset = set(leaves)
    interior = tuple(
        sorted(e for e in t.edges if e[0] not in leafset and e[1] not in leafset)
    )

    bare_paths = _bare_paths(t)
    iset = {
        i
        for i, p in enumerate(bare_paths)
        if p.length >= 2 and not (leafset & {p.vertices[0], p.vertices[-1]})
    }
    h2star = len(deg2) - len(iset)
    # Cross-check against the per-path summation form of the same quantity.
    by_sum = sum(
        (p.length - 2) if i in iset else (p.length - 1)
        for i, p in enumerate(bare_paths)
    )
    assert h2star == by_sum, "bare-path decomposition is inconsistent"

    bunches = _bunches(t, set(interior), leafset)
    useful = tuple(v for v in leaves if t.degree(t.neighbors(v)[0]) != 2)
    return TreeProfile(
        h1=len(leaves),
        h2=len(deg2),
        leaves=leaves,
        deg2=deg2,
        interior_edges=interior,
        bare_paths=bare_paths,
        set_i=tuple(sorted(iset)),
        h2star=h2star,
        bunches=bunches,
        useful_leaves=useful,
    )


def _bare_paths(t: Tree) -> tuple[PathInTree, ...]:
    """Maximal paths whose interior vertices all have degree 2; they partition
    the edge set.  Each path is oriented from its lower-id extreme."""
    if t.n == 1:
        return ()
    stops = {v for v in t.vertices if t.degree(v) != 2}
    paths: list[PathInTree] = []
    claimed: set[Edge] = set()
    for s in sorted(stops):
        for w in t.neighbors(s):
            if edge(s, w) in claimed:
                continue
            seq = [s, w]
            prev = s
            while t.degree(seq[-1]) == 2:
                a, b = t.neighbors(seq[-1])
                nxt = b if a == prev else a
                prev = seq[-1]
                seq.append(nxt)
            claimed.add(edge(seq[0], seq[1]))
            claimed.add(edge(seq[-2], seq[-1]))
            if seq[0] > seq[-1]:
                seq.reverse()
            paths.append(PathInTree(tuple(seq)))
    paths.sort(key=lambda p: p.vertices)
    return tuple(paths)


def _bunches(t: Tree, interior: set[Edge], leafset: set[int]) -> tuple[Bunch, ...]:
    pendant = [e for e in t.edges if e not in interior]
    comp: dict[int, int] = {}

    def find(x: int) -> int:
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for u, v in pendant:
        comp.setdefault(u, u)
        comp.setdefault(v, v)
        comp[find(u)] = find(v)
    groups: dict[int, list[int]] = {}
    for v in comp:
        groups.setdefault(find(v), []).append(v)
    bunches = [
        Bunch(
            vertices=tuple(sorted(vs)),
            leaves=tuple(sorted(x for x in vs if x in leafset)),
        )
        for vs in groups.values()
    ]
    bunches.sort(key=lambda b: b.vertices[0])
    return tuple(bunches)


def contract_bare_paths(t: Tree) -> tuple[Tree, dict[Edge, PathInTree]]:
    """Contract every bare path to a single edge between its extremes.

    Returns the contracted tree (no degree-2 vertices, same leaf count,
    surviving ids preserved) and the map from each new edge to its source
    bare path.
    """
    if t.n < 2:
        raise TreeTooSmall("cannot contract a single-vertex tree")
    edge_map: dict[Edge, PathInTree] = {}
    for p in _bare_paths(t):
        edge_map[edge(p.vertices[0], p.vertices[-1])] = p
    return Tree.from_edges(edge_map.keys()), edge_map


def subdivide_edge(t: Tree, e: Edge) -> tuple[Tree, int]:
    """Replace edge (u,v) by u-x-v for a fresh vertex x; returns (tree, x)."""
    e = edge(*e)
    if e not in t.edges:
        raise UnknownElement(f"edge {e} not in tree")
    x = max(t.vertices) + 1
    u, v = e
    edges = (t.edges - {e}) | {edge(u, x), edge(x, v)}
    return Tree(set(t.vertices) | {x}, edges), x


def suppress_vertex(t: Tree, v: int) -> tuple[Tree, Edge]:
    """Remove a degree-2 vertex and bridge its neighbors; returns the bridge."""
    if t.degree(v) != 2:
        raise UnknownVertex(f"vertex {v} does not have degree 2")
    a, b = t.neighbors(v)
    bridge = edge(a, b)
    edges = (t.edges - {edge(v, a), edge(v, b)}) | {bridge}
    return Tree(set(t.vertices) - {v}, edges), bridge


def relabel_compact(t: Tree) -> tuple[Tree, dict[int, int]]:
    """Relabel vertices to 0..n-1 preserving id order; returns (tree, old->new)."""
    mapping = {v: i for i, v in enumerate(t.vertices)}
    return Tree(range(t.n), [edge(mapping[u], mapping[v]) for u, v in t.edges]), mapping


def random_tree(n: int, seed: int) -> Tree:
    """A seeded uniform random labeled tree on 0..n-1 (decoded Pruefer sequence)."""
    if n < 2:
        raise TreeTooSmall("need at least 2 vertices")
    if n == 2:
        return Tree.from_edges([(0, 1)])
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


def _rooted_canon(t: Tree, root: int) -> str:
    """The AHU form rooted at `root`, built bottom-up without recursion."""
    parent = {root: -1}
    order = [root]
    for v in order:
        for w in t.neighbors(v):
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    subs: dict[int, list[str]] = {v: [] for v in order}
    for v in reversed(order[1:]):
        subs[parent[v]].append("(" + "".join(sorted(subs.pop(v))) + ")")
    return "(" + "".join(sorted(subs[root])) + ")"


def canonical_form(t: Tree) -> str:
    """An isomorphism-invariant string (AHU form rooted at the center)."""
    return min(_rooted_canon(t, c) for c in tree_centers(t))


def find_isomorphism(t1: Tree, t2: Tree) -> dict[int, int] | None:
    """A vertex bijection t1 -> t2 preserving adjacency, or None.

    Degree-multiset check first, then backtracking over a connected order;
    intended for the small fixture trees, not for bulk isomorphism work.
    """
    if t1.n != t2.n:
        return None
    if sorted(map(t1.degree, t1.vertices)) != sorted(map(t2.degree, t2.vertices)):
        return None

    order = _connected_order(t1)
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        anchors = [w for w in t1.neighbors(v) if w in mapping]
        if anchors:
            candidates = [x for x in t2.neighbors(mapping[anchors[0]]) if x not in used]
        else:
            candidates = [x for x in t2.vertices if x not in used]
        for x in candidates:
            if t2.degree(x) != t1.degree(v):
                continue
            if any(not t2.has_edge(x, mapping[w]) for w in anchors):
                continue
            mapping[v] = x
            used.add(x)
            if extend(i + 1):
                return True
            del mapping[v]
            used.remove(x)
        return False

    return dict(mapping) if extend(0) else None


def _connected_order(t: Tree) -> list[int]:
    start = max(t.vertices, key=t.degree)
    order = [start]
    seen = {start}
    qi = 0
    while qi < len(order):
        for w in t.neighbors(order[qi]):
            if w not in seen:
                seen.add(w)
                order.append(w)
        qi += 1
    return order
