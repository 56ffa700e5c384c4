"""The leaf-order constructions, reductions, and the full edge dispatch."""

import ast
import hashlib
import random
import sys
import time
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seppaths import (
    PathSystem,
    TargetSet,
    Tree,
    abc_construction,
    bunch_construction,
    covers,
    dfs_leaf_order,
    edge_formula,
    edge_system,
    edge_target_size,
    planar_construction,
    profile,
    random_tree,
    separates,
    unique_path,
)
import seppaths.edge_systems as es
from seppaths.edge_systems import (
    _FIVE_FIXTURE,
    _NINE_FIXTURE,
    _SIX_FIXTURE,
    DEPTH2_BINARY,
    _adjacency,
    _as_tree,
    _edge_pairs,
    _reduce,
    is_depth2_binary,
)
from seppaths.errors import (
    InternalClassificationError,
    PreconditionViolated,
    SepPathError,
    TreeTooSmall,
)
from seppaths.oracle import enumerate_trees, min_separating
from seppaths.trees import canonical_form, edge

from conftest import (
    contract_bare_paths,
    path_tree,
    relabel_compact,
    spider_tree,
    star_tree,
    subdivide_edge,
)


def test_edge_formula():
    assert edge_formula(2, 2) == 2
    assert edge_formula(4, 1) == 3  # the depth-2 binary tree overrides this to 4
    assert edge_formula(6, 0) == 4


class TestABC:
    def test_k13(self, k13):
        fs = abc_construction(k13)
        assert [p.vertices for p in fs.paths] == [(1, 0, 2), (1, 0, 3)]

    def test_double_star(self, double_star):
        fs = abc_construction(double_star)
        assert [p.vertices for p in fs.paths] == [
            (2, 0, 1, 6), (5, 1, 7), (2, 0, 3), (5, 1, 0, 4),
        ]

    def test_p4_rejected(self, p4):
        with pytest.raises(PreconditionViolated):
            abc_construction(p4)

    def test_component_leaves_are_cyclic_intervals(self):
        # deleting any edge leaves two leaf sets that are cyclically
        # consecutive in the naming order, which is what makes ABC work
        hits = 0
        for seed in range(40):
            t, _ = relabel_compact(contract_bare_paths(random_tree(14, seed))[0])
            p = profile(t)
            if p.h1 % 3 != 0:
                continue
            hits += 1
            order = dfs_leaf_order(t, min(p.leaves))
            pos = {v: i for i, v in enumerate(order)}
            for u, v in t.edges:
                side = _far_side_leaves(t, u, v)
                idx = sorted(pos[x] for x in side)
                assert _cyclic_interval(idx, len(order))
        assert hits >= 5


def _far_side_leaves(t, u, v):
    seen = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for w in t.neighbors(x):
            if (x, w) in ((v, u), (u, v)) and x == v:
                continue
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return [x for x in seen if t.is_leaf(x)]


def _cyclic_interval(idx, total):
    if len(idx) <= 1:
        return True
    gaps = sum(1 for i, j in zip(idx, idx[1:]) if j != i + 1)
    return gaps == 0 or (gaps == 1 and idx[0] == 0 and idx[-1] == total - 1)


class TestPlanar:
    def test_k13(self, k13):
        fs = planar_construction(k13)
        assert [p.vertices for p in fs.paths] == [(1, 0, 2), (2, 0, 3), (3, 0, 1)]

    def test_double_star_double_cover(self, double_star):
        fs = planar_construction(double_star)
        assert fs.size == 6
        for e in double_star.edges:
            assert sum(e in frozenset(p.edges()) for p in fs.paths) == 2

    def test_degree_many_cover(self, double_star):
        # a non-leaf vertex of degree d lies on exactly d paths; leaves on 2
        fs = planar_construction(double_star)
        for v in double_star.vertices:
            on = sum(v in frozenset(p.vertices) for p in fs.paths)
            assert on == (2 if double_star.is_leaf(v) else double_star.degree(v))

    def test_p4_rejected(self, p4):
        with pytest.raises(PreconditionViolated):
            planar_construction(p4)


class TestBunch:
    def test_double_star_exact_family(self, double_star):
        fs = bunch_construction(double_star)
        assert [p.vertices for p in fs.paths] == [
            (3, 0, 4), (4, 0, 1, 5), (6, 1, 7), (7, 1, 0, 2),
        ]

    def test_star4(self):
        fs = bunch_construction(star_tree(4))
        assert [p.vertices for p in fs.paths] == [(1, 0, 2), (2, 0, 3), (4, 0)]
        assert fs.size == 3  # = ceil(2*4/3)

    def test_k13_rejected(self, k13):
        with pytest.raises(PreconditionViolated):
            bunch_construction(k13)

    def test_singleton_bunch_rejected(self, broom):
        # each broom bunch has two leaves, but a spider with 2-edge legs has
        # three singleton bunches
        spider = Tree.from_edges([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        with pytest.raises(PreconditionViolated):
            bunch_construction(spider)

    def test_outside_the_hypothesis_rejected(self):
        # two bunches of size 2 and a degree-2 vertex: bunch_pairs is defined,
        # but its family does not even separate the edges (0,1) and (0,4)
        t = Tree.from_edges([(0, 1), (0, 4), (1, 2), (1, 3), (4, 5), (4, 6)])
        family = PathSystem(t, tuple(unique_path(t, a, b) for a, b in es.bunch_pairs(t)))
        assert not separates(family, TargetSet.edges(t))
        with pytest.raises(PreconditionViolated):
            bunch_construction(t)

    def test_size_formula_when_all_bunches_big(self):
        for seed in range(60):
            t = _leafy_tree(seed)
            fs = bunch_construction(t)
            p = profile(t)
            assert fs.size == -(-2 * p.h1 // 3)
            assert separates(fs, TargetSet.vertices_and_interior_edges(t))


def _leafy_tree(seed, min_leaves=3, max_leaves=5):
    """Random tree whose bunches all have size >= 3 and h2 = 0."""
    import random

    rng = random.Random(seed)
    skeleton, _ = relabel_compact(contract_bare_paths(random_tree(rng.randint(4, 8), seed))[0])
    edges = list(skeleton.edges)
    nxt = skeleton.n
    for leaf in skeleton.leaves():
        for _ in range(rng.randint(min_leaves, max_leaves)):
            edges.append((leaf, nxt))
            nxt += 1
    return Tree.from_edges(edges)


# ---- the reference: the grouped leaf order that the bunch traversal replaced ----
#
# A DFS visiting leaf children first lists every leaf; a leaf -> bunch map
# then cuts that order into runs, one per bunch, which are paired as before.

def _grouped_leaf_order(t, leaves):
    start = min(leaves)
    order = []
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        if t.is_leaf(x):
            order.append(x)
        fresh = [w for w in t.neighbors(x) if w not in seen]
        seen.update(fresh)
        stack.extend(sorted((w for w in fresh if not t.is_leaf(w)), reverse=True))
        stack.extend(sorted((w for w in fresh if t.is_leaf(w)), reverse=True))
    return order


def reference_bunch_pairs(t):
    p = profile(t)
    if t.n == 4 and sorted(map(t.degree, t.vertices)) == [1, 1, 1, 3]:
        raise PreconditionViolated("the 3-leaf star is excluded")
    if not p.bunches:
        raise PreconditionViolated("tree has no bunches")
    if any(b.size < 2 for b in p.bunches):
        raise PreconditionViolated("every bunch must contain at least two leaves")
    bunch_of = {leaf: i for i, b in enumerate(p.bunches) for leaf in b.leaves}
    groups, last = [], None
    for leaf in _grouped_leaf_order(t, p.leaves):
        if bunch_of[leaf] != last:
            groups.append([])
            last = bunch_of[leaf]
        groups[-1].append(leaf)
    assert len(groups) == len(p.bunches), "bunch leaves not consecutive in leaf order"
    return es._pair_bunches({v: t.neighbors(v) for v in t.vertices}, groups)


def _outcome(f, t):
    try:
        return f(t)
    except PreconditionViolated as exc:
        return type(exc), str(exc)


def _relabelled(t, rng):
    ids = dict(zip(t.vertices, rng.sample(range(3 * t.n), t.n)))
    return Tree.from_edges([(ids[u], ids[v]) for u, v in t.edges])


def _bunch_sweep_trees():
    """The one-vertex tree, every tree with n = 2..10, random trees and leafy
    trees with 1-4 or 2-4 leaves per skeleton leaf, each with a relabelled
    copy and a relabelled copy with one interior edge subdivided."""
    yield Tree([0], [])
    for n in range(2, 11):
        yield from enumerate_trees(n)
    rng = random.Random(3)
    for seed in range(100):
        for t in (random_tree(rng.randint(3, 40), seed),
                  _leafy_tree(seed, 1, 4), _leafy_tree(seed, 2, 4)):
            sub, _ = subdivide_edge(t, rng.choice(profile(t).interior_edges or sorted(t.edges)))
            yield from (t, _relabelled(t, rng), _relabelled(sub, rng))


def test_bunch_pairs_match_the_grouped_leaf_order():
    built = 0
    for t in _bunch_sweep_trees():
        want = _outcome(reference_bunch_pairs, t)
        assert _outcome(es.bunch_pairs, t) == want, t
        built += isinstance(want, list)
    assert built > 400  # most sweep trees meet the hypothesis, not just refuse


# ---- the reference: the scanning pair search that the heaps replaced ----
#
# Every step re-sorts the degree-2 vertices and the useful leaves and tries
# the pairs in lexicographic order; quadratic, but plainly the definition.
# It names each pair's case, which the package reads off the map.  Its base
# step is the Tree-building residue step that the map edits replaced.

class ReductionCase(Enum):
    DEGREE_AT_LEAST_4 = "DegreeAtLeast4"
    DEGREE_3_NON_NEIGHBOR = "Degree3NonNeighbor"


@dataclass(frozen=True)
class ReductionPair:
    u: int
    v: int
    case: ReductionCase


class InvalidPair(SepPathError):
    """The given (leaf, degree-2 vertex) pair is not a valid reduction pair."""


def _pair_case(adj, u, v):
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


def _deg2(adj):
    return sorted(v for v, ns in adj.items() if len(ns) == 2)


def _reduction_pairs(adj):
    """Every qualifying pair, lexicographically least (u, v) first."""
    deg2 = _deg2(adj)
    useful = (u for u, ns in adj.items() if len(ns) == 1 and len(adj[min(ns)]) != 2)
    for u in sorted(useful):
        for v in deg2:
            case = _pair_case(adj, u, v)
            if case is not None:
                yield ReductionPair(u, v, case)


def find_reduction_pair(t):
    """The lexicographically least qualifying (u, v), or None."""
    return next(_reduction_pairs(_adjacency(t)), None)


def apply_reduction(t, rp):
    """The reduced tree, and the end pair of the one path a lift appends."""
    adj = _adjacency(t)
    if _pair_case(adj, rp.u, rp.v) is not rp.case:
        raise InvalidPair(f"({rp.u},{rp.v}) is not a {rp.case.value} reduction pair")
    _reduce(adj, rp.u, rp.v)
    return _as_tree(adj), (rp.u, rp.v)


_DEPTH2_FORM = canonical_form(DEPTH2_BINARY)


def _allowed(adj, rp):
    removed = 3 if rp.case is ReductionCase.DEGREE_3_NON_NEIGHBOR else 2
    if len(adj) - removed != DEPTH2_BINARY.n:
        return True
    return canonical_form(apply_reduction(_as_tree(adj), rp)[0]) != _DEPTH2_FORM


def _residue_pairs(t, p):
    """h2 = 0: retire or borrow one leaf on a rebuilt Tree, so that 3 divides
    the leaf count."""
    s = p.h1 % 3
    if s == 0:
        return es.abc_pairs(t)
    if s == 2:
        host = min(v for v in t.vertices if not t.is_leaf(v))
        u = max(t.vertices) + 1
        t2 = Tree(set(t.vertices) | {u}, t.edges | {edge(host, u)})
        return [tuple(host if x == u else x for x in pair) for pair in es.abc_pairs(t2)]
    adj = _adjacency(t)
    u = min(p.leaves)
    end = es._retire_leaf(adj, u)
    return es.abc_pairs(_as_tree(adj)) + [(u, end)]


def _scanning_reduce_and_lift(adj):
    h1 = sum(len(ns) == 1 for ns in adj.values())
    appended = []
    while len(deg2 := _deg2(adj)) > h1:
        pair = next(q for q in combinations(deg2, 2) if q[1] not in adj[q[0]])
        for v in pair:
            es._suppress(adj, v)
        appended.append(pair)
    while rp := next((q for q in _reduction_pairs(adj) if _allowed(adj, q)), None):
        _reduce(adj, rp.u, rp.v)
        appended.append((rp.u, rp.v))
    t = _as_tree(adj)
    p = profile(t)
    if p.h2 and p.useful_leaves:
        base = es._mapped(t)
    else:
        base = _residue_pairs(t, p) if not p.h2 else es._cyclic_leaf_pairs(t, p)
    return base + appended[::-1]


def reference_edge_pairs(t):
    """``_edge_pairs`` with the scanning loop in place of the heap loop."""
    real = es._reduce_and_lift
    es._reduce_and_lift = _scanning_reduce_and_lift
    try:
        return _edge_pairs(t)
    finally:
        es._reduce_and_lift = real


class TestReductionPairs:
    def test_star_with_tail(self):
        # center 0 with leaves 1,2,3 and tail 0-4-5: degree-4 case
        t = Tree.from_edges([(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)])
        rp = find_reduction_pair(t)
        assert rp == ReductionPair(1, 4, ReductionCase.DEGREE_AT_LEAST_4)

    def test_depth2_binary_has_none(self, depth2):
        assert find_reduction_pair(depth2) is None

    def test_p4_has_none(self, p4):
        assert find_reduction_pair(p4) is None

    def test_apply_degree4(self):
        t = Tree.from_edges([(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)])
        rp = find_reduction_pair(t)
        reduced, pair = apply_reduction(t, rp)
        assert reduced.n == t.n - 2
        p0, p1 = profile(t), profile(reduced)
        assert (p1.h1, p1.h2) == (p0.h1 - 1, p0.h2 - 1)
        assert unique_path(t, *pair).vertices == (1, 0, 4)

    def test_apply_degree3(self, broom):
        rp = find_reduction_pair(broom)
        assert rp == ReductionPair(4, 2, ReductionCase.DEGREE_3_NON_NEIGHBOR)
        reduced, _ = apply_reduction(broom, rp)
        assert reduced.n == broom.n - 3
        p0, p1 = profile(broom), profile(reduced)
        assert (p1.h1, p1.h2) == (p0.h1 - 1, p0.h2 - 1)

    def test_invalid_pair(self, broom):
        # vertex 1 neighbors the leaf-support 0 of degree 3: not a pair
        with pytest.raises(InvalidPair):
            apply_reduction(broom, ReductionPair(4, 1, ReductionCase.DEGREE_3_NON_NEIGHBOR))

    def test_reduction_lift_soundness(self):
        # lifting an oracle system of the reduced tree (every path keeps its
        # ends, the pair's path is appended) yields a verified system of the
        # original, one path larger
        checked = 0
        for n in range(5, 9):
            for t in enumerate_trees(n):
                rp = find_reduction_pair(t)
                if rp is None:
                    continue
                reduced, pair = apply_reduction(t, rp)
                inner = min_separating(reduced, TargetSet.edges(reduced))
                from seppaths.verify import PathSystem

                ends = [p.endpoints for p in inner.system.paths] + [pair]
                lifted = PathSystem(t, tuple(unique_path(t, a, b) for a, b in ends))
                ts = TargetSet.edges(t)
                assert separates(lifted, ts) and covers(lifted, ts)
                assert lifted.size == inner.size + 1
                checked += 1
        assert checked >= 10


class TestEdgeSystem:
    def test_depth2_binary_exact_family(self, depth2):
        fs = edge_system(depth2)
        assert [p.vertices for p in fs.paths] == [
            (1, 2, 4), (1, 2, 5), (1, 3, 6), (1, 3, 7),
        ]

    def test_p3(self, p3):
        fs = edge_system(p3)
        assert fs.size == 2
        assert {p.vertices for p in fs.paths} == {(0, 1), (1, 2)}

    def test_p4(self, p4):
        assert edge_system(p4).size == 2
        assert min_separating(p4, TargetSet.edges(p4)).size == 2

    def test_double_star(self, double_star):
        assert edge_system(double_star).size == 4 == edge_formula(6, 0)

    def test_single_edge_is_one_path(self, e1):
        # the two-ceilings formula would say 2, but one path plainly covers
        # and separates the only edge; see edge_target_size
        fs = edge_system(e1)
        assert fs.size == 1 == edge_target_size(e1)

    def test_too_small(self):
        with pytest.raises(TreeTooSmall):
            edge_system(Tree([0], []))
        with pytest.raises(TreeTooSmall):
            edge_target_size(Tree([0], []))

    def test_paths_p5_to_p9(self):
        for n in range(5, 10):
            t = path_tree(n)
            assert edge_system(t).size == -(-n // 2)  # = ceil((h1+h2)/2)

    def test_relabeled_depth2_isomorphs(self, depth2):
        scrambled = Tree.from_edges([(20 - u, 20 - v) for u, v in depth2.edges])
        fs = edge_system(scrambled)
        assert fs.size == 4

    def test_nine_vertex_fixture_direct(self):
        fs = edge_system(_NINE_FIXTURE)
        assert fs.size == 4 == edge_target_size(_NINE_FIXTURE)

    def test_five_and_six_fixtures_direct(self):
        assert edge_system(_FIVE_FIXTURE).size == 3
        assert edge_system(_SIX_FIXTURE).size == 3

    def test_forced_endpoints_on_outputs(self):
        # every leaf and every degree-2 vertex must end some path, in any
        # valid system; check the constructed ones
        for n in range(2, 9):
            for t in enumerate_trees(n):
                fs = edge_system(t)
                ends = {v for p in fs.paths for v in p.endpoints}
                for v in t.vertices:
                    if t.degree(v) in (1, 2):
                        assert v in ends, (t, v)

    def test_exhaustive_small_trees_match_oracle(self):
        for n in range(2, 8):
            for t in enumerate_trees(n):
                fs = edge_system(t)
                assert fs.size == edge_target_size(t)
                assert fs.size == min_separating(t, TargetSet.edges(t)).size

    def test_random_trees_sizes(self):
        for seed in range(25):
            t = random_tree(12 + seed % 9, seed)
            fs = edge_system(t)  # construction self-verifies
            assert fs.size == edge_target_size(t)

    def test_failed_check_names_the_case(self, monkeypatch):
        import seppaths.edge_systems as es

        real = es._cyclic_leaf_pairs
        monkeypatch.setattr(es, "_cyclic_leaf_pairs", lambda t, p: real(t, p)[:-1])
        with pytest.raises(InternalClassificationError, match="cyclic leaf-to-support system"):
            edge_system(spider_tree((2, 2, 2)))

    def test_no_recursion_limit_dependence(self):
        # 150 reduction steps; the construction must not grow the stack with them
        t = spider_tree((100, 100, 100))
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(120)
        try:
            fs = edge_system(t)
        finally:
            sys.setrecursionlimit(old)
        assert fs.size == edge_target_size(t) == 150

    def test_no_tree_or_profile_rebuilt_per_retired_pair(self, monkeypatch):
        # the loop shrinks one adjacency map in place: a spider with three
        # times the retired pairs builds as many Trees and profiles
        import seppaths.edge_systems as es

        counts = {"trees": 0, "profiles": 0}
        real_init, real_profile = Tree.__init__, es.profile

        def counting_init(self, *args, **kwargs):
            counts["trees"] += 1
            real_init(self, *args, **kwargs)

        def counting_profile(t):
            counts["profiles"] += 1
            return real_profile(t)

        monkeypatch.setattr(Tree, "__init__", counting_init)
        monkeypatch.setattr(es, "profile", counting_profile)
        seen = []
        for leg in (100, 300):
            t = spider_tree((leg,) * 3)
            counts.update(trees=0, profiles=0)
            assert edge_system(t).size == edge_target_size(t)
            seen.append(dict(counts))
        assert seen[0] == seen[1], seen


def _subdivided_random_tree(n, seed):
    t = random_tree(n, seed)
    rng = random.Random(seed)
    for _ in range(n // 3):
        t, _ = subdivide_edge(t, rng.choice(sorted(t.edges)))
    return t


def _pinned_trees():
    for n in range(2, 11):
        yield from enumerate_trees(n)
    for n in range(2, 121):
        yield random_tree(n, n)
    for legs in [(1, 1, 1), (2, 2, 2), (3, 1, 1), (5, 4, 3), (10, 10, 10),
                 (7, 1, 1, 1), (3, 3, 3, 3, 3), (20, 1, 2), (12, 5)]:
        yield spider_tree(legs)
    for n in range(4, 60, 5):
        yield _subdivided_random_tree(n, n)


# sha256 of the edge_system vertex sequences over _pinned_trees(), recorded at
# commit ca09efa (the recursive splice-and-lift construction); the end-pair
# construction must reproduce its outputs exactly
PINNED_DIGEST = "87d7df7e22e97a6dcc8f48bece6990eab063281fc7721b451b6eef7894c57730"


def test_outputs_match_pinned_digest():
    h = hashlib.sha256()
    count = 0
    for t in _pinned_trees():
        for p in edge_system(t).paths:
            h.update(" ".join(map(str, p.vertices)).encode() + b"\n")
        h.update(b"--\n")
        count += 1
    assert count == 340
    assert h.hexdigest() == PINNED_DIGEST


def _large_pinned_trees():
    for n in (150, 200, 250, 300, 350, 400):
        for s in range(3):
            yield random_tree(n, s)
            yield _subdivided_random_tree(n, s)
    yield spider_tree((100, 100, 100))


# the same hash over _large_pinned_trees(), the sizes the tree-design
# benchmark builds, recorded before the edge cases moved onto one map
LARGE_PINNED_DIGEST = "a0a33f20a73efd27860f8627a3a74529c51e662bac760f8e38b8c9928dfc938d"


def test_large_outputs_match_pinned_digest():
    h = hashlib.sha256()
    count = 0
    for t in _large_pinned_trees():
        for p in edge_system(t).paths:
            h.update(" ".join(map(str, p.vertices)).encode() + b"\n")
        h.update(b"--\n")
        count += 1
    assert count == 37
    assert h.hexdigest() == LARGE_PINNED_DIGEST


def _pruefer_tree(seq):
    """The labeled tree on 0..len(seq)+1 with Pruefer sequence ``seq``."""
    n = len(seq) + 2
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    edges.append(tuple(v for v in range(n) if degree[v] == 1))
    return Tree.from_edges(edges)


class TestHeapPairsMatchScanning:
    """The heap search must retire exactly the pairs the scan retires."""

    def test_all_small_trees(self):
        for n in range(2, 11):
            for t in enumerate_trees(n):
                assert _edge_pairs(t) == reference_edge_pairs(t), t

    def test_random_trees(self):
        for n in range(8, 300):
            for s in range(3):
                t = random_tree(n, s)
                assert _edge_pairs(t) == reference_edge_pairs(t), (n, s)

    def test_pinned_spiders_and_subdivided_trees(self):
        for t in _pinned_trees():
            assert _edge_pairs(t) == reference_edge_pairs(t), t

    @settings(max_examples=150, deadline=None)
    @given(st.integers(3, 60).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2)
    ))
    def test_pruefer_trees(self, seq):
        t = _pruefer_tree(seq)
        assert _edge_pairs(t) == reference_edge_pairs(t)

    def test_degree2_partner_past_a_chain(self):
        # the three least degree-2 ids form the chain 1-0-2: the least
        # non-adjacent pair is (0, 3), not (1, 2)
        t = Tree.from_edges([(10, 1), (1, 0), (0, 2), (2, 3), (3, 11)])
        pairs, label = _edge_pairs(t)
        assert label == "h1 < h2"
        assert pairs[-1] == (0, 3)  # retired first, lifted last
        assert (pairs, label) == reference_edge_pairs(t)

    def test_parked_leaf_becomes_useful(self):
        # leaf 0 hangs on the degree-2 vertex 4; retiring (1, 4) joins it to
        # the degree-4 vertex 10, and 0 is the u of the next pair
        t = Tree.from_edges(
            [(10, 1), (10, 2), (10, 3), (10, 4), (4, 0), (10, 13), (13, 15), (15, 16), (15, 17)]
        )
        pairs, label = _edge_pairs(t)
        assert label == "reduction lift"
        assert pairs[-2:] == [(0, 13), (1, 4)]
        assert (pairs, label) == reference_edge_pairs(t)

    def test_refused_pair_takes_the_next_partner(self):
        # (3, 1) would leave the depth-2 binary tree; (3, 6) is next
        t = Tree.from_edges([(0, 1), (1, 4), (2, 6), (2, 7), (2, 8), (3, 4), (4, 5), (4, 6)])
        adj = _adjacency(t)
        assert next(_reduction_pairs(adj)) == ReductionPair(3, 1, ReductionCase.DEGREE_AT_LEAST_4)
        assert not _allowed(adj, ReductionPair(3, 1, ReductionCase.DEGREE_AT_LEAST_4))
        pairs, _ = _edge_pairs(t)
        assert pairs[-1] == (3, 6)
        assert _edge_pairs(t) == reference_edge_pairs(t)

    def test_refused_leaf_gives_way_to_the_next(self):
        # every pair of leaf 0 would leave the depth-2 binary tree; (1, 4) is next
        t = Tree.from_edges([(0, 7), (1, 8), (2, 7), (3, 8), (4, 6), (4, 7), (5, 7), (6, 8)])
        adj = _adjacency(t)
        assert next(_reduction_pairs(adj)).u == 0
        assert next(q for q in _reduction_pairs(adj) if _allowed(adj, q)) == ReductionPair(
            1, 4, ReductionCase.DEGREE_3_NON_NEIGHBOR
        )
        pairs, _ = _edge_pairs(t)
        assert pairs[-1] == (1, 4)
        assert _edge_pairs(t) == reference_edge_pairs(t)

    def test_depth2_check_matches_canonical_form(self):
        for t in enumerate_trees(7):
            assert is_depth2_binary(t) == (canonical_form(t) == _DEPTH2_FORM)

    def test_pair_search_is_not_quadratic(self):
        # a rescan per retired pair takes about 40 s on this tree; the heaps
        # take a fraction of a second
        t = random_tree(25600, 1)
        start = time.perf_counter()
        _edge_pairs(t)
        assert time.perf_counter() - start < 3.0


# ---- one map, one base Tree ----

def _odd_parity(t):
    p = profile(t)
    return p.h1 < p.h2 and (p.h1 + p.h2) % 2 == 1


def _subdivided_tree_lift(t):
    """The end pairs by the lift that walked a subdivided Tree: a path ending
    at the subdivision vertex x ends at a if it leaves x through b, else at b."""
    a, b = min(t.edges)
    t2, x = subdivide_edge(t, (a, b))

    def unsubdivided(end, other):
        if end != x:
            return end
        return a if unique_path(t2, x, other).vertices[1] == b else b

    return [(unsubdivided(u, v), unsubdivided(v, u))
            for u, v in es._reduce_and_lift(_adjacency(t2))]


def test_parity_lift_matches_the_subdivided_tree_walk():
    def trees():
        for n in range(2, 11):
            yield from enumerate_trees(n)
        yield from _pinned_trees()
        for n in range(3, 151):
            for s in range(3):
                yield random_tree(n, s)
                yield _subdivided_random_tree(n, s)

    checked = 0
    for t in filter(_odd_parity, trees()):
        assert _edge_pairs(t)[0] == _subdivided_tree_lift(t), t
        checked += 1
    assert checked > 300


def test_one_tree_and_at_most_two_profiles_per_call(monkeypatch):
    # the input's profile names the case; the base's is the only other
    trees = [t for n in range(3, 11) for t in enumerate_trees(n)]
    trees += [t for t in _pinned_trees() if t.n >= 3]
    counts = {"trees": 0, "profiles": 0}
    real_init, real_profile = Tree.__init__, es.profile

    def counting_init(self, *args, **kwargs):
        counts["trees"] += 1
        real_init(self, *args, **kwargs)

    def counting_profile(t):
        counts["profiles"] += 1
        return real_profile(t)

    monkeypatch.setattr(Tree, "__init__", counting_init)
    monkeypatch.setattr(es, "profile", counting_profile)
    for t in trees:
        counts.update(trees=0, profiles=0)
        _edge_pairs(t)
        assert counts["trees"] == 1 and counts["profiles"] <= 2, (t, counts)


def test_only_the_base_builds_a_tree():
    # every edge case edits the adjacency map; _as_tree is the one place
    # that turns it into a Tree, and module-level fixtures are built once
    builders = {"Tree", "subdivide_edge", "suppress_vertex"}
    offenders = set()
    for fn in ast.parse(Path(es.__file__).read_text()).body:
        if not isinstance(fn, ast.FunctionDef) or fn.name == "_as_tree":
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id in builders) or (
                isinstance(f, ast.Attribute) and f.attr == "from_edges"
                and isinstance(f.value, ast.Name) and f.value.id == "Tree"
            ):
                offenders.add(fn.name)
    assert not offenders, sorted(offenders)
