"""Vertex-separating systems: bounds, the construction that walks the
bare-path skeleton read off the profile, with its pairing/refinement/window
steps, and exact values on the sharp families.

The refinement step works on end pairs.  Each end of an added path records
its bare path, its position there and its heading, the extreme its path
leaves by, so every overlap inside a bare path is read off positions and
headings, and a fix re-examines only its own bare path.
"""

from __future__ import annotations

import heapq
import warnings
from collections import deque

from .errors import InternalClassificationError, NotConsecutive, UnsupportedTree
from .trees import PathInTree, Tree, TreeProfile, profile, unique_path
from .edge_systems import _bunch_groups, _pair_bunches, _verified, planar_pairs
from .verify import PathSystem, TargetKind, TargetSet, built_system


class BunchMismatchWarning(UserWarning):
    """The bunch-size hypothesis was checked on the bare-path contraction,
    whose bunches differ from the input tree's own."""


def vertex_lower_bound(p: TreeProfile) -> int:
    """ceil(max((h1 + h2*)/2, (2*h1 + h2*)/3)): ends-of-paths counting."""
    a = p.h1 + p.h2star
    b = 2 * p.h1 + p.h2star
    return max(-(-a // 2), -(-b // 3))


def vertex_upper_formula(p: TreeProfile) -> int:
    """ceil(2*h1/3) + ceil((h2* + 1)/2), the constructive upper bound."""
    return -(-2 * p.h1 // 3) + -(-(p.h2star + 1) // 2)


def sliding_window_cover(t: Tree, run: tuple[int, ...]) -> list[PathInTree]:
    """ceil((k+1)/2) staggered windows separating and covering a run of k
    consecutive vertices, without leaving the run.

    The j-th window spans run positions j .. j+w-1 (w = k - t + 1), so the
    i-th vertex's signature is the index interval [max(1, i-w+1), min(t, i)];
    the intervals are pairwise distinct and nonempty.
    """
    k = len(run)
    if k < 1:
        raise NotConsecutive("empty run")
    for i in range(k - 1):
        if not t.has_edge(run[i], run[i + 1]):
            raise NotConsecutive(f"{run[i]} and {run[i + 1]} are not adjacent")
    count = (k + 2) // 2  # ceil((k + 1) / 2)
    w = k - count + 1
    return [PathInTree(tuple(run[j : j + w])) for j in range(count)]


def vertex_system(t: Tree) -> PathSystem:
    """A verified vertex-separating-covering system of size at most
    ceil(2*h1/3) + ceil((h2* + 1)/2).

    Supported when the bare-path contraction is not the 3-leaf star and all
    of its bunches have size >= 3 (stars with >= 4 leaves are the special
    case with no interior edge).  Raises UnsupportedTree otherwise.
    """
    if t.n < 2:
        raise UnsupportedTree("need at least two vertices")
    prof = profile(t)

    # the contraction keeps t's leaves, so prof.h1 and prof.leaves hold for it
    skeleton = _skeleton(prof)
    if len(skeleton) == 4 and prof.h1 == 3:
        raise UnsupportedTree("contraction is the 3-leaf star")
    groups = _bunch_groups(skeleton, prof.leaves[0])
    if any(len(g) < 3 for g in groups):
        raise UnsupportedTree("contraction has a bunch of size < 3")
    if set(map(tuple, groups)) != {b.leaves for b in prof.bunches}:
        warnings.warn(
            "bunch hypothesis holds for the bare-path contraction but the "
            "input tree's own bunches differ",
            BunchMismatchWarning,
            stacklevel=2,
        )

    # A path between surviving vertices lifts to the unique path in t.
    lifted = [unique_path(t, a, b) for a, b in _pair_bunches(skeleton, groups)]
    added = _separate_degree2(t, prof)

    fs = built_system(t, lifted + added, "vertex_system", TargetSet.vertices(t))
    if fs.size > vertex_upper_formula(prof):
        raise InternalClassificationError(
            f"vertex_system built {fs.size} paths, bound {vertex_upper_formula(prof)}"
        )
    return fs


def _skeleton(prof: TreeProfile) -> dict[int, list[int]]:
    """The bare-path contraction as a neighbor map: each extreme of a bare
    path to the far extremes of its bare paths, ascending."""
    nbrs: dict[int, list[int]] = {}
    for bp in prof.bare_paths:
        a, b = bp.vertices[0], bp.vertices[-1]
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    for ns in nbrs.values():
        ns.sort()
    return nbrs


def _separate_degree2(t: Tree, prof: TreeProfile) -> list[PathInTree]:
    """Steps 3 and 4: pair unmarked degree-2 vertices across distinct bare
    paths, exchange endpoints until no two added paths overlap inside a bare
    path, then window the single leftover run."""
    runs: dict[int, deque[int]] = {}
    clean: dict[int, int] = {}  # one interior vertex per I-path keeps the bare signature
    iset = set(prof.set_i)
    for i, bp in enumerate(prof.bare_paths):
        interior = bp.vertices[1:-1]
        if i in iset:
            clean[i] = interior[0]
            interior = interior[1:]
        if interior:
            runs[i] = deque(interior)

    # the two longest runs (the lower index on a tie) give up their first vertices
    busy = [(-len(run), i) for i, run in runs.items()]
    heapq.heapify(busy)
    added: list[PathInTree] = []
    while len(busy) >= 2:
        (ni, i), (nj, j) = heapq.heappop(busy), heapq.heappop(busy)
        added.append(unique_path(t, runs[i].popleft(), runs[j].popleft()))
        for n, k in ((ni + 1, i), (nj + 1, j)):
            if n:
                heapq.heappush(busy, (n, k))

    _refine_overlaps(t, prof, added, clean)

    if busy:
        added.extend(sliding_window_cover(t, tuple(runs[busy[0][1]])))
    return added


def _refine_overlaps(
    t: Tree, prof: TreeProfile, added: list[PathInTree], clean: dict[int, int]
) -> None:
    """Endpoint exchange to a fixpoint, least end first.

    Each end u of an added path lies inside a bare path, and records its
    position there and its heading (+1 or -1): the extreme its path leaves
    by.  Inside u's bare path, the path is the run from u towards its
    heading.  So two ends heading at each other overlap, and swapping their
    partners swaps their headings; an end heading over the clean marked
    vertex hands its path end to it.  A fix changes nothing outside its own
    bare path, so only that bare path's first conflict is found again.  Each
    fix strictly shrinks the length of the paths it rewrites, which bounds
    the loop.
    """
    bare_of: dict[int, int] = {}
    pos: dict[int, int] = {}
    for i, bp in enumerate(prof.bare_paths):
        for k, v in enumerate(bp.vertices[1:-1], start=1):
            bare_of[v], pos[v] = i, k
    slot: dict[int, int] = {}  # end -> index of its path in `added`
    head: dict[int, int] = {}
    ends: dict[int, set[int]] = {}  # bare path -> the ends inside it
    for k, p in enumerate(added):
        for u, step in ((p.vertices[0], p.vertices[1]), (p.vertices[-1], p.vertices[-2])):
            slot[u] = k
            head[u] = 1 if step == prof.bare_paths[bare_of[u]].vertices[pos[u] + 1] else -1
            ends.setdefault(bare_of[u], set()).add(u)

    def partner(u: int) -> int:
        a, b = added[slot[u]].endpoints
        return b if a == u else a

    def ahead(u: int, w: int | None) -> bool:
        return w is not None and (pos[w] - pos[u]) * head[u] > 0

    def first_conflict(b: int) -> tuple[int, int, int] | None:
        """(u, v, b): the least end u of bare path b whose path meets
        another end v heading back at u, or else the clean vertex v."""
        here, c = ends[b], clean.get(b)
        # u meets an end heading back at it iff it heads at the farthest one
        far = {
            h: max((v for v in here if head[v] == -h), key=lambda v: pos[v] * h, default=None)
            for h in (1, -1)
        }
        u = min((u for u in here if ahead(u, far[head[u]]) or ahead(u, c)), default=None)
        if u is None:
            return None
        return u, min((v for v in here if ahead(u, v) and ahead(v, u)), default=c), b

    queue = [c for c in map(first_conflict, ends) if c]
    heapq.heapify(queue)
    while queue:
        u, v, b = heapq.heappop(queue)
        ku, x = slot[u], partner(u)
        if v in slot:  # swap: u-x and v-y become u-y and v-x
            kv, y = slot[v], partner(v)
            changed = (ku, kv)
            before = added[ku].length + added[kv].length
            added[ku], added[kv] = unique_path(t, u, y), unique_path(t, v, x)
            slot[y], slot[x] = ku, kv
            head[u], head[v] = head[v], head[u]
        else:  # hand-off: u-x becomes v-x, and u is the clean vertex
            changed = (ku,)
            before = added[ku].length
            added[ku] = unique_path(t, v, x)
            slot[v], head[v] = slot.pop(u), head.pop(u)
            ends[b].remove(u)
            ends[b].add(v)
            clean[b] = u
        if sum(added[k].length for k in changed) >= before:
            raise InternalClassificationError("refinement failed to make progress")
        c = first_conflict(b)
        if c:
            heapq.heappush(queue, c)


def vertex_interior_system(t: Tree) -> PathSystem:
    """The consecutive-leaf system checked against vertices plus interior
    edges; exactly h1 paths, optimal when every degree is 1 or 3."""
    return _verified(
        t, planar_pairs(t), "vertex_interior_system", TargetSet.vertices_and_interior_edges(t)
    )


# ---- sharp families ----

def is_cubic_leafy(t: Tree) -> bool:
    """All degrees in {1, 3}, at least 4 vertices."""
    return t.n >= 4 and all(t.degree(v) in (1, 3) for v in t.vertices)


def is_subdivided_cubic_leafy(t: Tree) -> bool:
    """A degree-{1,3} tree with every interior edge subdivided exactly once."""
    degs = {v: t.degree(v) for v in t.vertices}
    if any(d not in (1, 2, 3) for d in degs.values()):
        return False
    for v, d in degs.items():
        if d == 2 and any(degs[w] != 3 for w in t.neighbors(v)):
            return False
    for u, v in t.edges:
        if degs[u] == 3 and degs[v] == 3:
            return False  # an unsubdivided interior edge
    # suppressing the degree-2 vertices would change no other degree
    return t.n - sum(d == 2 for d in degs.values()) >= 4


def sharp_value(t: Tree, ts: TargetSet) -> int | None:
    """The exact optimum when the tree belongs to a recognized sharp family,
    else None.

    Vertex targets: paths (ceil((n+1)/2)), stars, trees without degree-2
    vertices having >= 2 bunches all of size >= 3 (ceil(2*h1/3)), and
    once-subdivided degree-{1,3} trees (h1).  Vertex-plus-interior-edge
    targets: degree-{1,3} trees (h1).
    """
    p = profile(t)
    if ts.kind is TargetKind.VERTICES:
        if p.h1 == 2:  # a path
            return (t.n + 2) // 2
        if t.n >= 3 and p.h1 == t.n - 1:  # a star: one vertex is not a leaf
            return 3 if p.h1 == 3 else -(-2 * p.h1 // 3)
        if p.h2 == 0 and len(p.bunches) >= 2 and all(b.size >= 3 for b in p.bunches):
            return -(-2 * p.h1 // 3)
        if is_subdivided_cubic_leafy(t):
            return p.h1
        return None
    if ts.kind is TargetKind.VERTICES_AND_INTERIOR_EDGES:
        if is_cubic_leafy(t):
            return p.h1
        return None
    return None
