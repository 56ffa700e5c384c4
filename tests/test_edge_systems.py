"""The leaf-order constructions, reductions, and the full edge dispatch."""

import hashlib
import random
import sys

import pytest

from seppaths import (
    TargetSet,
    Tree,
    abc_construction,
    apply_reduction,
    bunch_construction,
    covers,
    dfs_leaf_order,
    edge_formula,
    edge_system,
    edge_target_size,
    find_reduction_pair,
    planar_construction,
    profile,
    random_tree,
    separates,
    subdivide_edge,
    unique_path,
)
from seppaths.edge_systems import (
    _FIVE_FIXTURE,
    _NINE_FIXTURE,
    _SIX_FIXTURE,
    ReductionCase,
    ReductionPair,
    DEPTH2_BINARY,
)
from seppaths.errors import (
    InternalClassificationError,
    InvalidPair,
    PreconditionViolated,
    TreeTooSmall,
)
from seppaths.oracle import enumerate_trees, min_separating
from seppaths.trees import contract_bare_paths, relabel_compact

from conftest import path_tree, spider_tree, star_tree


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
            assert sum(e in p.edge_set() for p in fs.paths) == 2

    def test_degree_many_cover(self, double_star):
        # a non-leaf vertex of degree d lies on exactly d paths; leaves on 2
        fs = planar_construction(double_star)
        for v in double_star.vertices:
            on = sum(v in p.vertex_set() for p in fs.paths)
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
