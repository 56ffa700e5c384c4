"""Minimum edge-separating-covering systems for trees.

``edge_system`` produces, for any tree on >= 2 vertices, a family of paths
that separates and covers the edge set and whose size is exactly the proven
optimum: 4 for the depth-2 binary tree, 1 for the single edge, and
max(ceil((2*h1 + h2)/3), ceil((h1 + h2)/2)) otherwise.

The case analysis works on end pairs: in a tree a path is the unique path
between its two ends, so each move of the reduction is an edit of one
adjacency map and lifting back through it rewrites ends.  Retiring a leaf
or a degree-2 vertex moves no surviving end, so each reduction pair just
records one more pair; only an end at the vertex that subdivides an edge
to fix the end parity, or at the leaf borrowed to make 3 divide the leaf
count, is rewritten.  One loop, ``_reduce_and_lift``, retires the pairs and
builds one Tree, for the base case it stops at.  It finds each next pair
on two min-heaps, of the degree-2 vertices and of the candidate leaves, with
lazy deletion: reductions only lower degrees and only shrink the degree-2
set, so the lexicographically least pair is always within a few heap
entries, and the whole search is O(n log n).  Each public function checks
its result once, through the verifier's door ``verify.built_system``, before
returning; a failed check raises InternalClassificationError instead of
handing back an unverified family.
"""

from __future__ import annotations

from collections import Counter
from heapq import heapify, heappop, heappush
from itertools import combinations

from .errors import (
    InternalClassificationError,
    PreconditionViolated,
    TreeTooSmall,
)
from .trees import (
    Tree,
    TreeProfile,
    canonical_form,
    dfs_leaf_order,
    find_isomorphism,
    profile,
    unique_path,
)
from .verify import PathSystem, TargetSet, built_system

Pair = tuple[int, int]


def edge_formula(h1: int, h2: int) -> int:
    """max(ceil((2*h1 + h2)/3), ceil((h1 + h2)/2)); callers special-case the
    depth-2 binary tree (4) and the single edge (1)."""
    return max(-(-(2 * h1 + h2) // 3), -(-(h1 + h2) // 2))


# The depth-2 binary tree: the unique tree where the formula is off by one.
DEPTH2_BINARY = Tree.from_edges([(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)])

# Irreducible bottoms of the reduction.  The 9-vertex tree is the one whose
# every reduction pair lands on the depth-2 binary tree.
_FIVE_FIXTURE = Tree.from_edges([(0, 2), (1, 2), (2, 3), (3, 4)])
_SIX_FIXTURE = Tree.from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
_NINE_FIXTURE = Tree.from_edges(
    [(0, 3), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)]
)

# Each fixture's explicit family, as end pairs, keyed by its canonical form;
# the 9-vertex tree's printed family needed one corrected path.
_FIXTURES = {
    canonical_form(fixture): (fixture, family)
    for fixture, family in (
        (DEPTH2_BINARY, ((1, 4), (1, 5), (1, 6), (1, 7))),
        (_FIVE_FIXTURE, ((0, 3), (1, 4), (3, 4))),
        (_SIX_FIXTURE, ((0, 3), (1, 4), (1, 5))),
        (_NINE_FIXTURE, ((0, 6), (1, 7), (2, 4), (1, 8))),
    )
}


def _depth2_shape(nbrs) -> bool:
    """Whether a tree's neighbor map {v: neighbors} is the depth-2 binary
    tree: degrees 1,1,1,1,2,3,3 with the degree-2 vertex between the two of
    degree 3.  The one other tree with those degrees hangs it between a
    degree-3 vertex and a leaf."""
    if len(nbrs) != 7 or sorted(map(len, nbrs.values())) != [1, 1, 1, 1, 2, 3, 3]:
        return False
    (root,) = (v for v, ns in nbrs.items() if len(ns) == 2)
    return all(len(nbrs[w]) == 3 for w in nbrs[root])


def is_depth2_binary(t: Tree) -> bool:
    return t.n == 7 and _depth2_shape(t._adj)


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


def _verified(t: Tree, pairs, label: str, *targets: TargetSet) -> PathSystem:
    """The tree paths between the given end pairs, checked to separate and
    cover each of the given target sets."""
    return built_system(t, (unique_path(t, a, b) for a, b in pairs), label, *targets)


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
    return _verified(t, abc_pairs(t), "abc_construction", TargetSet.edges(t))


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
    fs = _verified(
        t, planar_pairs(t), "planar_construction",
        TargetSet.edges(t), TargetSet.vertices_and_interior_edges(t),
    )
    hits_of = Counter(e for q in fs.paths for e in q.edges())
    for e in t.edges:
        hits = hits_of[e]
        if hits != 2:
            raise InternalClassificationError(f"edge {e} on {hits} paths, expected 2")
    return fs


def _bunch_groups(nbrs, start: int) -> list[list[int]]:
    """The bunches' leaves, each ascending, in the boundary order of the
    embedding that draws each support's leaves consecutively: a DFS over the
    neighbor map {v: ascending neighbors} from the leaf ``start`` in which a
    popped vertex's unseen leaves form one group (``start`` heads its
    support's) and its unseen non-leaves pop ascending."""
    (s,) = nbrs[start]
    if len(nbrs[s]) == 1:
        return [[start, s]]  # the single edge is one bunch
    groups: list[list[int]] = []
    seen = {start, s}
    stack = [s]
    while stack:
        x = stack.pop()
        group = [start] if x == s else []
        inner: list[int] = []
        for w in nbrs[x]:
            if w not in seen:
                seen.add(w)
                (group if len(nbrs[w]) == 1 else inner).append(w)
        if group:
            groups.append(group)
        stack.extend(reversed(inner))
    return groups


def _pair_bunches(nbrs, groups: list[list[int]]) -> list[Pair]:
    """The pairs of ``bunch_pairs`` for the bunches' leaf groups in cyclic
    order; a leftover leaf pairs with its support, read off the neighbor map."""
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
    pairs += [(leaf, nbrs[leaf][0]) for leaf in remaining[i:]]
    return pairs


def bunch_pairs(t: Tree) -> list[Pair]:
    """Two pairs per bunch plus pooled seagulls over the leftover leaves.

    Bunches are enumerated in the cyclic leaf order of an embedding that
    keeps each bunch's leaves consecutive, which is what aligns the first
    step with the consecutive-leaf construction.  Defined whenever every
    bunch has at least two leaves and the tree is not the 3-leaf star.
    """
    p = profile(t)
    if t.n == 4 and p.h1 == 3:
        raise PreconditionViolated("the 3-leaf star is excluded")
    if not p.bunches:
        raise PreconditionViolated("tree has no bunches")
    if any(b.size < 2 for b in p.bunches):
        raise PreconditionViolated("every bunch must contain at least two leaves")
    groups = _bunch_groups(t._adj, min(p.leaves))
    if len(groups) != len(p.bunches):
        raise InternalClassificationError("traversal and profile disagree on the bunches")
    return _pair_bunches(t._adj, groups)


def bunch_construction(t: Tree) -> PathSystem:
    """The paths of ``bunch_pairs``, for trees with no degree-2 vertices whose
    bunches all have size >= 3: verified separating-covering for edges and
    for vertices-plus-interior-edges, with exactly ceil(2*h1/3) paths.
    Raises PreconditionViolated on any other tree."""
    pairs = bunch_pairs(t)
    p = profile(t)
    if p.h2 != 0 or any(b.size < 3 for b in p.bunches):
        least = min(b.size for b in p.bunches)
        raise PreconditionViolated(
            f"need h2=0 and every bunch of size >= 3; got h2={p.h2}, least bunch {least}"
        )
    fs = _verified(
        t, pairs, "bunch_construction",
        TargetSet.edges(t), TargetSet.vertices_and_interior_edges(t),
    )
    want = -(-2 * p.h1 // 3)
    if fs.size != want:
        raise InternalClassificationError(
            f"bunch construction produced {fs.size} paths, expected {want}"
        )
    return fs


# ---- reduction pairs ----

# {v: neighbors}, the one map every edge case edits in place: grown by a
# subdivision vertex or a borrowed leaf, shrunk by the reductions
Adjacency = dict[int, set[int]]


def _adjacency(t: Tree) -> Adjacency:
    return {v: set(t.neighbors(v)) for v in t.vertices}


def _as_tree(adj: Adjacency) -> Tree:
    return Tree._from_adjacency(adj, frozenset([(u, v) for u, ns in adj.items() for v in ns if u < v]))


def _suppress(adj: Adjacency, v: int) -> None:
    """Delete the degree-2 vertex v and join its two neighbors."""
    a, b = adj.pop(v)
    adj[a].remove(v)
    adj[b].remove(v)
    adj[a].add(b)
    adj[b].add(a)


def _retire_leaf(adj: Adjacency, u: int) -> int:
    """Delete the leaf u, and its support w too if that leaves w with degree
    2.  Returns the vertex a path ending at u is cut back to: w, or, when w
    went as well, its least neighbor."""
    (w,) = adj.pop(u)
    adj[w].remove(u)
    if len(adj[w]) != 2:
        return w
    end = min(adj[w])
    _suppress(adj, w)
    return end


# A reduction pair is an end pair (u, v): a useful leaf u and a degree-2
# vertex v whose retirement shrinks (h1, h2) by (1, 1).  Its case is read off
# the map: u's support w has degree >= 4 and v is any degree-2 vertex, or w
# has degree 3, v is not next to w, and w goes too.

def _reduce(adj: Adjacency, u: int, v: int) -> None:
    """Retire the reduction pair (u, v), bridging the holes.  Suppressing v
    never changes w's degree, since v's two neighbors are not adjacent, so
    w goes exactly in the degree-3 case."""
    _retire_leaf(adj, u)
    _suppress(adj, v)


def _allowed(adj: Adjacency, u: int, v: int) -> bool:
    """Whether the reduced tree is not the depth-2 binary tree.  Only a tree
    of 9 or 10 vertices can reduce to it, so only such a map is copied."""
    (w,) = adj[u]
    removed = 3 if len(adj[w]) == 3 else 2
    if len(adj) - removed != DEPTH2_BINARY.n:
        return True
    reduced = {x: set(ns) for x, ns in adj.items()}
    _reduce(reduced, u, v)
    return not _depth2_shape(reduced)


def _degree2_pair(adj: Adjacency, deg2: list[int]) -> Pair:
    """The lexicographically least non-adjacent pair of degree-2 vertices.

    The least one, d0, has at most two degree-2 neighbors, so when at least
    four remain its partner is among the next three; when fewer remain all
    of them are popped.  The unused ones go back on the heap.  No entry is
    stale here: only the popped pairs have left the map.
    """
    head = [heappop(deg2) for _ in range(min(4, len(deg2)))]
    pair = next((q for q in combinations(head, 2) if q[1] not in adj[q[0]]), None)
    if pair is None:
        raise InternalClassificationError("no non-adjacent degree-2 pair found")
    for v in head:
        if v not in pair:
            heappush(deg2, v)
    return pair


def _partner(adj: Adjacency, u: int, deg2: list[int]) -> tuple[Pair | None, bool]:
    """The least allowed reduction pair with the leaf u, and whether u has
    any partner at all (allowed or not).

    u's support has degree >= 3: ``_least_pair`` parks every leaf whose
    support has degree 2, and every map ``_reduce_and_lift`` holds has at
    least 3 vertices, so no support is a leaf.  A support of degree >= 4
    takes any degree-2 vertex and one of degree 3 any outside its
    neighborhood, which holds at most two of them; so the walk down the heap
    stops within three live entries unless ``_allowed`` refuses, which
    happens only on trees of 9 or 10 vertices.
    """
    (w,) = adj[u]
    dw = len(adj[w])
    seen: list[int] = []
    found, partnered = None, False
    while not found and deg2:
        v = heappop(deg2)
        if v not in adj:
            continue  # a stale entry: v was suppressed
        seen.append(v)
        if dw == 3 and v in adj[w]:
            continue
        partnered = True
        if _allowed(adj, u, v):
            found = (u, v)
    for v in seen:
        heappush(deg2, v)
    return found, partnered


def _least_pair(
    adj: Adjacency, leaves: list[int], deg2: list[int], parked: dict[int, list[int]]
) -> Pair | None:
    """The lexicographically least reduction pair not landing on the
    depth-2 binary tree, or None.

    Leaves come off their heap in id order.  A leaf on a degree-2 vertex is
    not useful; it is parked under that vertex until it is suppressed.  A
    leaf with no partner has a degree-3 support adjacent to every degree-2
    vertex; that support is never reduced, the degree-2 set only shrinks,
    and a suppressed neighbor's place goes to a vertex of another degree, so
    the leaf never gets a partner and is dropped.  A leaf whose every pair
    ``_allowed`` refuses goes back on the heap.
    """
    refused: list[int] = []
    found = None
    while not found and leaves:
        u = heappop(leaves)
        (w,) = adj[u]
        if len(adj[w]) == 2:
            parked.setdefault(w, []).append(u)
            continue
        found, partnered = _partner(adj, u, deg2)
        if not found and partnered:
            refused.append(u)
    for u in refused:
        heappush(leaves, u)
    return found


# ---- the main dispatch ----

def edge_system(t: Tree) -> PathSystem:
    """A verified minimum edge-separating-covering system of the tree."""
    if t.n < 2:
        raise TreeTooSmall("need at least one edge")
    pairs, label = _edge_pairs(t)
    fs = _verified(t, pairs, label, TargetSet.edges(t))
    if fs.size != edge_target_size(t):
        raise InternalClassificationError(
            f"{label}: built {fs.size} paths, optimum is {edge_target_size(t)}"
        )
    return fs


def _edge_pairs(t: Tree) -> tuple[list[Pair], str]:
    """The end pairs of a minimum system, and the name of the case taken."""
    if t.n == 2:
        return [tuple(t.vertices)], "single edge"
    p = profile(t)
    if is_depth2_binary(t):
        label = "depth-2 binary tree"
    elif p.h1 < p.h2:
        label = "h1 < h2"
    elif p.h2 == 0:
        label = f"h2=0, residue {p.h1 % 3}"
    elif not p.useful_leaves:
        label = "cyclic leaf-to-support system"
    else:
        label = "reduction lift"
    adj = _adjacency(t)
    if p.h1 >= p.h2 or (p.h1 + p.h2) % 2 == 0:
        return _reduce_and_lift(adj), label
    # odd end parity with h1 < h2: subdivide the least edge (a, b) by x; a
    # path ending at x ends instead at the end of (a, b) away from its other end
    a, b = min(t.edges)
    x = max(adj) + 1
    adj[a] ^= {b, x}  # b out, x in
    adj[b] ^= {a, x}
    adj[x] = {a, b}

    # No pair is (x, a).  The edits never cut an edge between two survivors,
    # so x and a stay adjacent while both survive, and no pair is adjacent
    # when it is recorded: degree-2 pairs are chosen non-adjacent, and a
    # reduction pair's leaf hangs on a support of degree >= 3, not on its
    # degree-2 partner.  With h1 + h2 now even, the reductions start and end
    # at h1 = h2, which no fixture has, so the base is the cyclic system,
    # whose only adjacent pairs are the 3-vertex path's (h1 = 2, h2 = 1).
    def unsubdivided(end: int, other: int) -> int:
        if end != x:
            return end
        return a if unique_path(t, a, other).vertices[1] == b else b

    return [(unsubdivided(u, v), unsubdivided(v, u)) for u, v in _reduce_and_lift(adj)], label


def _mapped(t: Tree) -> list[Pair]:
    """The family of the fixture isomorphic to t, carried onto t."""
    fixture, family = _FIXTURES.get(canonical_form(t), (None, ()))
    if fixture is None:
        raise InternalClassificationError(f"tree {t!r} matches no fixture")
    iso = find_isomorphism(fixture, t)
    return [(iso[a], iso[b]) for a, b in family]


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


def _reduce_and_lift(adj: Adjacency) -> list[Pair]:
    """Retire two non-adjacent degree-2 vertices at a time while h2 > h1, then
    the least reduction pair not landing on the depth-2 binary tree while one
    exists; each retired pair appends one path.  The map is edited in place,
    and what is left of it is the base case of ``_base_pairs``.

    The degree-2 vertices and the candidate leaves sit in two min-heaps with
    lazy deletion, so each pair costs O(log n), not a scan of the tree.
    """
    h1 = sum(len(ns) == 1 for ns in adj.values())
    deg2 = [v for v, ns in adj.items() if len(ns) == 2]
    heapify(deg2)
    appended: list[Pair] = []
    # suppressions change no degree: h1 stays, h2 falls by two per pair
    h2 = len(deg2)
    while h2 > h1:
        pair = _degree2_pair(adj, deg2)
        for v in pair:
            _suppress(adj, v)
        appended.append(pair)
        h2 -= 2
    leaves = [v for v, ns in adj.items() if len(ns) == 1]
    heapify(leaves)
    parked: dict[int, list[int]] = {}  # degree-2 vertex -> the leaves on it
    while pair := _least_pair(adj, leaves, deg2, parked):
        u, v = pair
        _reduce(adj, u, v)
        appended.append(pair)
        for x in parked.pop(v, ()):
            heappush(leaves, x)
    return _base_pairs(adj) + appended[::-1]


def _base_pairs(adj: Adjacency) -> list[Pair]:
    """The family of the map the reductions stop at, built as the one Tree:
    with h2 >= 1 a fixture if some leaf is still useful, else the cyclic
    system; with h2 = 0 the leaf-order one, after the least leaf is retired
    (residue 1 mod 3) or a leaf borrowed on the least non-leaf (residue 2)."""
    if any(len(ns) == 2 for ns in adj.values()):
        t = _as_tree(adj)
        p = profile(t)
        return _mapped(t) if p.useful_leaves else _cyclic_leaf_pairs(t, p)
    leaves = [v for v, ns in adj.items() if len(ns) == 1]
    if len(leaves) % 3 == 1:
        u = min(leaves)
        end = _retire_leaf(adj, u)
        return abc_pairs(_as_tree(adj)) + [(u, end)]
    if len(leaves) % 3 == 0:
        return abc_pairs(_as_tree(adj))
    host = min(v for v, ns in adj.items() if len(ns) > 1)
    u = max(adj) + 1
    adj[u] = {host}
    adj[host].add(u)
    return [tuple(host if x == u else x for x in pair) for pair in abc_pairs(_as_tree(adj))]
