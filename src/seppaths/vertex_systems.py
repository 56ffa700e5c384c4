"""Vertex-separating systems: bounds, the contraction-lift construction with
its pairing/refinement/window steps, and exact values on the sharp families.
"""

from __future__ import annotations

import warnings

from .errors import (
    InternalClassificationError,
    NotConsecutive,
    PreconditionViolated,
    UnsupportedTree,
)
from .trees import (
    PathInTree,
    Tree,
    TreeProfile,
    contract_bare_paths,
    edge,
    profile,
    subdivide_edge,
    suppress_vertex,
    unique_path,
)
from .edge_systems import bunch_pairs, planar_pairs
from .verify import PathSystem, TargetKind, TargetSet, check


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

    contracted, _ = contract_bare_paths(t)
    cprof = profile(contracted)
    if contracted.n == 4 and sorted(map(contracted.degree, contracted.vertices)) == [1, 1, 1, 3]:
        raise UnsupportedTree("contraction is the 3-leaf star")
    if not cprof.bunches or any(b.size < 3 for b in cprof.bunches):
        raise UnsupportedTree("contraction has a bunch of size < 3")
    if {b.leaves for b in cprof.bunches} != {b.leaves for b in prof.bunches}:
        warnings.warn(
            "bunch hypothesis holds for the bare-path contraction but the "
            "input tree's own bunches differ",
            BunchMismatchWarning,
            stacklevel=2,
        )

    # A path between surviving vertices lifts to the unique path in t.
    lifted = [unique_path(t, a, b) for a, b in bunch_pairs(contracted)]
    added = _separate_degree2(t, prof, lifted)

    fs = PathSystem(t, tuple(lifted + added))
    verdict = check(fs, TargetSet.vertices(t))
    if not verdict:
        raise InternalClassificationError(f"vertex_system: {verdict}")
    if fs.size > vertex_upper_formula(prof):
        raise InternalClassificationError(
            f"vertex_system built {fs.size} paths, bound {vertex_upper_formula(prof)}"
        )
    return fs


class _AddedPaths:
    """The paths added for degree-2 vertices, keyed by their two endpoints.

    Each involved degree-2 vertex is an endpoint of exactly one added path;
    endpoint exchanges preserve that invariant.
    """

    def __init__(self, t: Tree):
        self.t = t
        self.pairs: list[list[int]] = []
        self.end_at: dict[int, int] = {}

    def add(self, u: int, v: int) -> None:
        self.pairs.append([u, v])
        self.end_at[u] = self.end_at[v] = len(self.pairs) - 1

    def partner(self, u: int) -> int:
        a, b = self.pairs[self.end_at[u]]
        return b if a == u else a

    def path_of(self, u: int) -> PathInTree:
        return unique_path(self.t, u, self.partner(u))

    def swap_partners(self, u: int, v: int) -> None:
        """u-x and v-y become u-y and v-x."""
        x, y = self.partner(u), self.partner(v)
        self.pairs[self.end_at[u]] = [u, y]
        self.pairs[self.end_at[v]] = [v, x]
        self.end_at[y] = self.end_at[u]
        self.end_at[x] = self.end_at[v]

    def hand_off(self, u: int, m: int) -> None:
        """u-x becomes m-x; u no longer owns a path."""
        x = self.partner(u)
        idx = self.end_at.pop(u)
        self.pairs[idx] = [m, x]
        self.end_at[m] = idx

    def total_length(self) -> int:
        return sum(unique_path(self.t, a, b).length for a, b in self.pairs)

    def paths(self) -> list[PathInTree]:
        return [unique_path(self.t, a, b) for a, b in self.pairs]


def _separate_degree2(t: Tree, prof: TreeProfile, lifted: list[PathInTree]) -> list[PathInTree]:
    """Steps 3 and 4: pair unmarked degree-2 vertices across distinct bare
    paths, exchange endpoints until no two added paths overlap inside a bare
    path, then window the single leftover run."""
    runs: dict[int, list[int]] = {}
    clean: list[int] = []  # one interior vertex per I-path keeps the bare signature
    iset = set(prof.set_i)
    for i, bp in enumerate(prof.bare_paths):
        interior = list(bp.vertices[1:-1])
        if not interior:
            continue
        if i in iset:
            clean.append(interior[0])
            interior = interior[1:]
        if interior:
            runs[i] = interior

    addp = _AddedPaths(t)
    while True:
        busy = sorted(runs, key=lambda i: (-len(runs[i]), i))
        if len(busy) < 2:
            break
        i, j = busy[0], busy[1]
        addp.add(runs[i].pop(0), runs[j].pop(0))
        if not runs[i]:
            del runs[i]
        if not runs[j]:
            del runs[j]

    _refine_overlaps(t, prof, addp, clean)

    out = addp.paths()
    leftover = next(iter(runs.values()), None)
    if leftover:
        out.extend(sliding_window_cover(t, tuple(leftover)))
    return out


def _refine_overlaps(t: Tree, prof: TreeProfile, addp: _AddedPaths, clean: list[int]) -> None:
    """Endpoint exchange to a fixpoint.

    A same-bare-path collision forces the mutual-overlap geometry, so either
    swapping the two partners or handing the path end to the clean marked
    vertex resolves it; each fix strictly shrinks the total added length,
    which bounds the loop.
    """
    bare_of: dict[int, int] = {}
    for i, bp in enumerate(prof.bare_paths):
        for v in bp.vertices[1:-1]:
            bare_of[v] = i

    while True:
        conflict = _find_conflict(t, addp, clean, bare_of)
        if conflict is None:
            return
        before = addp.total_length()
        kind, u, v = conflict
        if kind == "swap":
            addp.swap_partners(u, v)
        else:  # the collision partner is a clean marked vertex
            addp.hand_off(u, v)
            clean.remove(v)
            clean.append(u)
        if addp.total_length() >= before:
            raise InternalClassificationError("refinement failed to make progress")


def _find_conflict(t, addp: _AddedPaths, clean: list[int], bare_of) -> tuple[str, int, int] | None:
    owners = sorted(addp.end_at)
    for u in owners:
        pu = addp.path_of(u).vertex_set()
        for v in owners:
            if v <= u or bare_of.get(v) != bare_of.get(u):
                continue
            if v in pu and u in addp.path_of(v).vertex_set():
                return ("swap", u, v)
        for m in clean:
            if bare_of.get(m) == bare_of.get(u) and m in pu:
                return ("handoff", u, m)
    return None


def vertex_interior_system(t: Tree) -> PathSystem:
    """The consecutive-leaf system checked against vertices plus interior
    edges; exactly h1 paths, optimal when every degree is 1 or 3."""
    fs = PathSystem(t, tuple(unique_path(t, a, b) for a, b in planar_pairs(t)))
    verdict = check(fs, TargetSet.vertices_and_interior_edges(t))
    if not verdict:
        raise InternalClassificationError(f"vertex_interior_system: {verdict}")
    return fs


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
    core = t
    for v in [x for x, d in degs.items() if d == 2]:
        core, _ = suppress_vertex(core, v)
    return is_cubic_leafy(core)


def grow_cubic_leafy(t: Tree, leaf: int) -> Tree:
    """The inductive step of the degree-{1,3} family: attach two new leaves
    to an existing leaf."""
    if not t.is_leaf(leaf):
        raise PreconditionViolated(f"vertex {leaf} is not a leaf")
    a, b = max(t.vertices) + 1, max(t.vertices) + 2
    return Tree(set(t.vertices) | {a, b}, t.edges | {edge(leaf, a), edge(leaf, b)})


def subdivide_interior_edges(t: Tree) -> Tree:
    """Replace each interior edge u-v by u-x-v with a fresh vertex x."""
    out = t
    for e in profile(t).interior_edges:
        out, _ = subdivide_edge(out, e)
    return out


def _is_path_graph(t: Tree) -> bool:
    return t.n >= 2 and all(t.degree(v) <= 2 for v in t.vertices)


def _is_star(t: Tree) -> bool:
    return t.n >= 3 and sum(t.degree(v) > 1 for v in t.vertices) == 1


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
        if _is_path_graph(t):
            return (t.n + 2) // 2
        if _is_star(t):
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
