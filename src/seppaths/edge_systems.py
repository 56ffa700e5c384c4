"""Minimum edge-separating-covering systems for trees.

``edge_system`` produces, for any tree on >= 2 vertices, a family of paths
that separates and covers the edge set and whose size is exactly the proven
optimum: 4 for the depth-2 binary tree, 1 for the single edge, and
max(ceil((2*h1 + h2)/3), ceil((h1 + h2)/2)) otherwise.

The case analysis works on end pairs: in a tree a path is the unique path
between its two ends, and retiring a leaf or a degree-2 vertex never moves
the ends of the surviving paths, so each reduction step just records one
more pair.  One loop, ``_reduce_and_lift``, retires the pairs from a single
adjacency map that it shrinks in place, and builds a Tree only for the base
case it stops at.  Each public function checks its result once, through the
verifier, before returning; a failed check raises
InternalClassificationError instead of handing back an unverified family.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .errors import (
    InternalClassificationError,
    InvalidPair,
    PreconditionViolated,
    TreeTooSmall,
)
from .trees import (
    Tree,
    TreeProfile,
    dfs_leaf_order,
    edge,
    find_isomorphism,
    profile,
    subdivide_edge,
    unique_path,
)
from .verify import PathSystem, TargetSet, check

Pair = tuple[int, int]


def edge_formula(h1: int, h2: int) -> int:
    """max(ceil((2*h1 + h2)/3), ceil((h1 + h2)/2)); callers special-case the
    depth-2 binary tree (4) and the single edge (1)."""
    return max(-(-(2 * h1 + h2) // 3), -(-(h1 + h2) // 2))


# The depth-2 binary tree: the unique tree where the formula is off by one.
DEPTH2_BINARY = Tree.from_edges([(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)])
_DEPTH2_FAMILY = ((1, 4), (1, 5), (1, 6), (1, 7))


def is_depth2_binary(t: Tree) -> bool:
    if t.n != 7 or sorted(map(t.degree, t.vertices)) != [1, 1, 1, 1, 2, 3, 3]:
        return False
    return find_isomorphism(t, DEPTH2_BINARY) is not None


def edge_target_size(t: Tree) -> int:
    """The exact optimum |edge_system(t)| for any tree on >= 2 vertices.

    The two-ceilings formula, except that the single edge needs just one
    path and the depth-2 binary tree needs four.
    """
    if t.n < 2:
        raise TreeTooSmall("no edges to separate")
    if t.n == 2:
        return 1
    if is_depth2_binary(t):
        return 4
    p = profile(t)
    return edge_formula(p.h1, p.h2)


def _verified(t: Tree, pairs, label: str, also_vertices_interior: bool = False) -> PathSystem:
    """The tree paths between the given end pairs, checked to separate and
    cover the edges (and optionally the vertices plus interior edges)."""
    fs = PathSystem(t, tuple(unique_path(t, a, b) for a, b in pairs))
    targets = [TargetSet.edges(t)]
    if also_vertices_interior:
        targets.append(TargetSet.vertices_and_interior_edges(t))
    for ts in targets:
        verdict = check(fs, ts)
        if not verdict:
            raise InternalClassificationError(f"{label}: {verdict}")
    return fs


# ---- the three leaf-order constructions ----
#
# Each public construction is a pair builder plus one check.  A pair (a, b)
# stands for the unique a-b path of the tree.

def abc_pairs(t: Tree) -> list[Pair]:
    """2k pairs joining leaves (a_i, b_i) and (a_i, c_i) of the canonical
    leaf order, for trees with h1 = 3k leaves and no degree-2 vertices."""
    p = profile(t)
    if t.n < 3 or p.h2 != 0 or p.h1 % 3 != 0:
        raise PreconditionViolated(
            f"need n>=3, h2=0 and 3 | h1; got n={t.n}, h1={p.h1}, h2={p.h2}"
        )
    order = dfs_leaf_order(t, min(p.leaves))
    k = p.h1 // 3
    a, b, c = order[:k], order[k : 2 * k], order[2 * k :]
    return [(a[i], b[i]) for i in range(k)] + [(a[i], c[i]) for i in range(k)]


def abc_construction(t: Tree) -> PathSystem:
    """The paths of ``abc_pairs``, checked."""
    return _verified(t, abc_pairs(t), "abc_construction")


def planar_pairs(t: Tree) -> list[Pair]:
    """h1 pairs of cyclically consecutive leaves."""
    p = profile(t)
    if p.h2 != 0 or p.h1 < 3:
        raise PreconditionViolated(f"need h2=0 and h1>=3; got h1={p.h1}, h2={p.h2}")
    order = dfs_leaf_order(t, min(p.leaves))
    return [(order[i], order[(i + 1) % len(order)]) for i in range(len(order))]


def planar_construction(t: Tree) -> PathSystem:
    """h1 paths joining cyclically consecutive leaves; separates and covers
    both the edges and the vertices-plus-interior-edges targets, and puts
    every edge on exactly two paths."""
    fs = _verified(t, planar_pairs(t), "planar_construction", also_vertices_interior=True)
    for e in t.edges:
        hits = sum(e in q.edge_set() for q in fs.paths)
        if hits != 2:
            raise InternalClassificationError(f"edge {e} on {hits} paths, expected 2")
    return fs


def _grouped_leaf_order(t: Tree, leaves) -> list[int]:
    """Boundary leaf order of the embedding that draws each support vertex's
    leaf children consecutively: a DFS visiting leaf children first."""
    start = min(leaves)
    order: list[int] = []
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        if t.is_leaf(x):
            order.append(x)
        fresh = [w for w in t.neighbors(x) if w not in seen]
        seen.update(fresh)
        # push subtrees first so leaf children pop (and are visited) first
        stack.extend(sorted((w for w in fresh if not t.is_leaf(w)), reverse=True))
        stack.extend(sorted((w for w in fresh if t.is_leaf(w)), reverse=True))
    return order


def bunch_pairs(t: Tree) -> list[Pair]:
    """Two pairs per bunch plus pooled seagulls over the leftover leaves.

    Bunches are enumerated in the cyclic leaf order of an embedding that
    keeps each bunch's leaves consecutive, which is what aligns the first
    step with the consecutive-leaf construction.  Defined whenever every
    bunch has at least two leaves and the tree is not the 3-leaf star.
    """
    p = profile(t)
    if t.n == 4 and sorted(map(t.degree, t.vertices)) == [1, 1, 1, 3]:
        raise PreconditionViolated("the 3-leaf star is excluded")
    if not p.bunches:
        raise PreconditionViolated("tree has no bunches")
    if any(b.size < 2 for b in p.bunches):
        raise PreconditionViolated("every bunch must contain at least two leaves")

    order = _grouped_leaf_order(t, p.leaves)
    bunch_of = {leaf: i for i, b in enumerate(p.bunches) for leaf in b.leaves}
    groups: list[list[int]] = []
    last_bunch = None
    for leaf in order:
        b = bunch_of[leaf]
        if b != last_bunch:
            groups.append([])
            last_bunch = b
        groups[-1].append(leaf)
    if len(groups) != len(p.bunches):
        raise InternalClassificationError("bunch leaves not consecutive in leaf order")

    pairs: list[Pair] = []
    remaining: list[int] = []
    r = len(groups)
    if r == 1:
        remaining = list(groups[0])
    else:
        for i, lv in enumerate(groups):
            pairs.append((lv[-2], lv[-1]))
            pairs.append((lv[-1], groups[(i + 1) % r][0]))
            remaining.extend(lv[1:-2])
    i = 0
    while len(remaining) - i >= 3:
        u, v, w = remaining[i : i + 3]
        pairs += [(u, v), (v, w)]
        i += 3
    pairs += [(leaf, t.neighbors(leaf)[0]) for leaf in remaining[i:]]
    return pairs


def bunch_construction(t: Tree) -> PathSystem:
    """The paths of ``bunch_pairs``.  When the tree has no degree-2 vertices
    and all bunches have size >= 3 the result is verified
    separating-covering for edges and for vertices-plus-interior-edges, with
    exactly ceil(2*h1/3) paths."""
    pairs = bunch_pairs(t)
    p = profile(t)
    if not (p.h2 == 0 and all(b.size >= 3 for b in p.bunches)):
        return PathSystem(t, tuple(unique_path(t, a, b) for a, b in pairs))
    fs = _verified(t, pairs, "bunch_construction", also_vertices_interior=True)
    want = -(-2 * p.h1 // 3)
    if fs.size != want:
        raise InternalClassificationError(
            f"bunch construction produced {fs.size} paths, expected {want}"
        )
    return fs


# ---- reduction pairs ----

Adjacency = dict[int, set[int]]  # {v: neighbors}, shrunk in place by the reductions


def _adjacency(t: Tree) -> Adjacency:
    return {v: set(t.neighbors(v)) for v in t.vertices}


def _as_tree(adj: Adjacency) -> Tree:
    return Tree(adj, [(u, v) for u, ns in adj.items() for v in ns if u < v])


def _drop_leaf(adj: Adjacency, u: int) -> int:
    """Delete the leaf u; returns its former neighbor."""
    (w,) = adj.pop(u)
    adj[w].remove(u)
    return w


def _suppress(adj: Adjacency, v: int) -> None:
    """Delete the degree-2 vertex v and join its two neighbors."""
    a, b = adj.pop(v)
    adj[a].remove(v)
    adj[b].remove(v)
    adj[a].add(b)
    adj[b].add(a)


class ReductionCase(Enum):
    DEGREE_AT_LEAST_4 = "DegreeAtLeast4"
    DEGREE_3_NON_NEIGHBOR = "Degree3NonNeighbor"


@dataclass(frozen=True)
class ReductionPair:
    """A useful leaf u and a degree-2 vertex v enabling the one-step shrink
    of (h1, h2) by (1, 1)."""

    u: int
    v: int
    case: ReductionCase


def _pair_case(adj: Adjacency, u: int, v: int) -> ReductionCase | None:
    if len(adj.get(u, ())) != 1 or len(adj.get(v, ())) != 2:
        return None
    (w,) = adj[u]
    if len(adj[w]) == 2:
        return None  # u is not a useful leaf
    if len(adj[w]) >= 4:
        return ReductionCase.DEGREE_AT_LEAST_4
    if len(adj[w]) == 3 and v not in adj[w]:
        return ReductionCase.DEGREE_3_NON_NEIGHBOR
    return None


def _deg2(adj: Adjacency) -> list[int]:
    return sorted(v for v, ns in adj.items() if len(ns) == 2)


def _reduction_pairs(adj: Adjacency):
    """Every qualifying pair, lexicographically least (u, v) first."""
    deg2 = _deg2(adj)
    useful = (u for u, ns in adj.items() if len(ns) == 1 and len(adj[min(ns)]) != 2)
    for u in sorted(useful):
        for v in deg2:
            case = _pair_case(adj, u, v)
            if case is not None:
                yield ReductionPair(u, v, case)


def _reduce(adj: Adjacency, rp: ReductionPair) -> None:
    """Shrink (h1, h2) by (1, 1): remove the pair (and, in the degree-3
    case, the leaf's neighbor), bridging the holes."""
    w = _drop_leaf(adj, rp.u)
    _suppress(adj, rp.v)
    if rp.case is ReductionCase.DEGREE_3_NON_NEIGHBOR:
        _suppress(adj, w)  # w is left with degree 2


def _allowed(adj: Adjacency, rp: ReductionPair) -> bool:
    """Whether the reduced tree is not the depth-2 binary tree."""
    removed = 3 if rp.case is ReductionCase.DEGREE_3_NON_NEIGHBOR else 2
    if len(adj) - removed != DEPTH2_BINARY.n:
        return True
    return not is_depth2_binary(apply_reduction(_as_tree(adj), rp)[0])


def find_reduction_pair(t: Tree) -> ReductionPair | None:
    """The lexicographically least qualifying (u, v), or None."""
    return next(_reduction_pairs(_adjacency(t)), None)


def apply_reduction(t: Tree, rp: ReductionPair) -> tuple[Tree, Pair]:
    """The reduced tree, and the end pair of the one path a lift appends:
    every path of a reduced-tree system keeps its ends."""
    adj = _adjacency(t)
    if _pair_case(adj, rp.u, rp.v) is not rp.case:
        raise InvalidPair(f"({rp.u},{rp.v}) is not a {rp.case.value} reduction pair")
    _reduce(adj, rp)
    return _as_tree(adj), (rp.u, rp.v)


# ---- the main dispatch ----

def edge_system(t: Tree) -> PathSystem:
    """A verified minimum edge-separating-covering system of the tree."""
    if t.n < 2:
        raise TreeTooSmall("need at least one edge")
    pairs, label = _edge_pairs(t)
    fs = _verified(t, pairs, label)
    if fs.size != edge_target_size(t):
        raise InternalClassificationError(
            f"{label}: built {fs.size} paths, optimum is {edge_target_size(t)}"
        )
    return fs


def _edge_pairs(t: Tree) -> tuple[list[Pair], str]:
    """The end pairs of a minimum system, and the name of the case taken."""
    if t.n == 2:
        return [tuple(t.vertices)], "single edge"
    if is_depth2_binary(t):
        return _mapped(DEPTH2_BINARY, _DEPTH2_FAMILY, t), "depth-2 binary tree"
    p = profile(t)
    if p.h1 < p.h2:
        return _more_degree2(t, p), "h1 < h2"
    if p.h2 == 0:
        return _no_degree2(t, p), f"h2=0, residue {p.h1 % 3}"
    if not p.useful_leaves:
        return _cyclic_leaf_pairs(t, p), "cyclic leaf-to-support system"
    return _reduce_and_lift(t), "reduction lift"


def _mapped(fixture: Tree, family, t: Tree) -> list[Pair]:
    """A fixture family carried onto an isomorphic tree."""
    iso = find_isomorphism(fixture, t)
    if iso is None:
        raise InternalClassificationError(f"tree {t!r} matches no fixture")
    return [(iso[a], iso[b]) for a, b in family]


def _no_degree2(t: Tree, p: TreeProfile) -> list[Pair]:
    """h2 = 0: the leaf-count residue mod 3 decides the adjustment."""
    s = p.h1 % 3
    if s == 0:
        return abc_pairs(t)
    if s == 2:
        # borrow a leaf on an arbitrary non-leaf, build, then drop it
        host = min(v for v in t.vertices if not t.is_leaf(v))
        u = max(t.vertices) + 1
        t2 = Tree(set(t.vertices) | {u}, t.edges | {edge(host, u)})
        return [tuple(host if x == u else x for x in pair) for pair in abc_pairs(t2)]
    # s == 1: retire one leaf, or one leaf plus its degree-3 neighbor
    adj = _adjacency(t)
    u = min(p.leaves)
    end = w = _drop_leaf(adj, u)
    if len(adj[w]) == 2:
        end = min(adj[w])
        _suppress(adj, w)
    return abc_pairs(_as_tree(adj)) + [(u, end)]


def _cyclic_leaf_pairs(t: Tree, p: TreeProfile) -> list[Pair]:
    """Every leaf sits on a degree-2 vertex: route each leaf to the next
    leaf's support vertex around the cyclic leaf order."""
    order = dfs_leaf_order(t, min(p.leaves))
    supports = [t.neighbors(v)[0] for v in order]
    if len(set(supports)) < len(supports):
        # two leaves share their support: the tree is the 2-edge path
        if t.n != 3:
            raise InternalClassificationError("shared support on a non-path tree")
        return [(order[0], supports[0]), (supports[0], order[1])]
    return [(order[i], supports[(i + 1) % len(order)]) for i in range(len(order))]


def _reduce_and_lift(t: Tree) -> list[Pair]:
    """Retire two non-adjacent degree-2 vertices at a time while h2 > h1, then
    the least reduction pair not landing on the depth-2 binary tree while one
    exists; each retired pair appends one path.  What is left is a base case,
    or an irreducible fixture if h2 >= 1 and some leaf is still useful."""
    adj = _adjacency(t)
    h1 = sum(len(ns) == 1 for ns in adj.values())
    appended: list[Pair] = []
    while len(deg2 := _deg2(adj)) > h1:
        pair = next((q for q in combinations(deg2, 2) if q[1] not in adj[q[0]]), None)
        if pair is None:
            raise InternalClassificationError("no non-adjacent degree-2 pair found")
        for v in pair:
            _suppress(adj, v)
        appended.append(pair)
    while rp := next((q for q in _reduction_pairs(adj) if _allowed(adj, q)), None):
        _reduce(adj, rp)
        appended.append((rp.u, rp.v))
    t = _as_tree(adj)
    p = profile(t)
    if p.h2 and p.useful_leaves:
        base = _irreducible_fixture(t)
    else:
        base = _no_degree2(t, p) if not p.h2 else _cyclic_leaf_pairs(t, p)
    return base + appended[::-1]


# Irreducible bottoms of the reduction, with their explicit families as end
# pairs.  The 9-vertex tree is the one whose every reduction pair lands on
# the depth-2 binary tree; its printed family needed one corrected path.
_FIVE_FIXTURE = Tree.from_edges([(0, 2), (1, 2), (2, 3), (3, 4)])
_FIVE_FAMILY = ((0, 3), (1, 4), (3, 4))
_SIX_FIXTURE = Tree.from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
_SIX_FAMILY = ((0, 3), (1, 4), (1, 5))
_NINE_FIXTURE = Tree.from_edges(
    [(0, 3), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)]
)
_NINE_FAMILY = ((0, 6), (1, 7), (2, 4), (1, 8))


def _irreducible_fixture(t: Tree) -> list[Pair]:
    if find_reduction_pair(t) is not None:
        return _mapped(_NINE_FIXTURE, _NINE_FAMILY, t)
    if t.n == 5:
        return _mapped(_FIVE_FIXTURE, _FIVE_FAMILY, t)
    if t.n == 6:
        return _mapped(_SIX_FIXTURE, _SIX_FAMILY, t)
    raise InternalClassificationError(f"unclassified irreducible tree {t!r}")


def _more_degree2(t: Tree, p: TreeProfile) -> list[Pair]:
    """h1 < h2: subdivide once if the endpoint parity is odd, then reduce
    and lift.

    A path ending at the subdivision vertex x ends instead at the end of the
    original edge that lies away from the path's other end.
    """
    if (p.h1 + p.h2) % 2 == 0:
        return _reduce_and_lift(t)
    e = min(t.edges)
    t2, x = subdivide_edge(t, e)
    a, b = e

    def unsubdivided(end: int, other: int) -> int:
        if end != x:
            return end
        return a if unique_path(t2, x, other).vertices[1] == b else b

    return [(unsubdivided(u, v), unsubdivided(v, u)) for u, v in _reduce_and_lift(t2)]
