"""Vertex bounds, the contraction-lift construction, windows, sharp values."""

import warnings

import pytest

from seppaths import (
    TargetSet,
    Tree,
    covers,
    profile,
    kisses,
    separates,
    sharp_value,
    sliding_window_cover,
    vertex_interior_system,
    vertex_lower_bound,
    vertex_system,
    vertex_upper_formula,
)
from seppaths.errors import NotConsecutive, PreconditionViolated, UnsupportedTree
from seppaths.oracle import enumerate_trees, min_separating
from seppaths.vertex_systems import (
    BunchMismatchWarning,
    grow_cubic_leafy,
    is_cubic_leafy,
    is_subdivided_cubic_leafy,
    subdivide_interior_edges,
)
from seppaths.trees import canonical_form, suppress_vertex

from conftest import path_tree, star_tree


class TestBounds:
    def test_lower_examples(self, p4, broom, double_star):
        assert vertex_lower_bound(profile(p4)) == 2  # the true optimum is 3
        assert vertex_lower_bound(profile(broom)) == 3
        assert vertex_lower_bound(profile(double_star)) == 4

    def test_upper_examples(self):
        from seppaths.trees import TreeProfile

        def fake(h1, h2star):
            return TreeProfile(h1, 0, (), (), (), (), (), h2star, (), ())

        assert vertex_upper_formula(fake(6, 0)) == 5
        assert vertex_upper_formula(fake(6, 1)) == 5
        assert vertex_upper_formula(fake(3, 0)) == 3


class TestSlidingWindows:
    def test_k1(self):
        t = path_tree(3)
        frag = sliding_window_cover(t, (1,))
        assert [p.vertices for p in frag] == [(1,)]

    def test_k3(self):
        t = path_tree(5)
        frag = sliding_window_cover(t, (1, 2, 3))
        assert [p.vertices for p in frag] == [(1, 2), (2, 3)]

    def test_k4(self):
        t = path_tree(6)
        frag = sliding_window_cover(t, (1, 2, 3, 4))
        assert [p.vertices for p in frag] == [(1, 2), (2, 3), (3, 4)]

    def test_not_consecutive(self):
        t = path_tree(5)
        with pytest.raises(NotConsecutive):
            sliding_window_cover(t, (1, 3))

    @pytest.mark.parametrize("k", range(1, 65))
    def test_signatures_are_distinct_nonempty_intervals(self, k):
        t = path_tree(k + 2)
        run = tuple(range(1, k + 1))
        frag = sliding_window_cover(t, run)
        count = (k + 2) // 2
        w = k - count + 1
        assert len(frag) == count
        sigs = []
        for i, v in enumerate(run, start=1):
            sig = frozenset(j + 1 for j, p in enumerate(frag) if v in p.vertex_set())
            lo, hi = max(1, i - w + 1), min(count, i)
            assert sig == frozenset(range(lo, hi + 1))
            sigs.append(sig)
        assert len(set(sigs)) == k
        assert all(sigs)

    def test_full_path_cover_matches_quoted_value(self):
        # windowing all n vertices of a path yields ceil((n+1)/2) paths and
        # a verified vertex-separating-covering system
        for n in range(2, 10):
            t = path_tree(n)
            frag = sliding_window_cover(t, tuple(range(n)))
            assert len(frag) == (n + 1 + 1) // 2
            from seppaths.verify import PathSystem

            fs = PathSystem(t, tuple(frag))
            ts = TargetSet.vertices(t)
            assert separates(fs, ts) and covers(fs, ts)


class TestVertexSystem:
    def test_double_star(self, double_star):
        assert vertex_system(double_star).size == 4

    def test_double_star_sub1_marked_vertex(self, double_star_sub1):
        fs = vertex_system(double_star_sub1)
        assert fs.size == 4
        # the lone degree-2 vertex keeps the bare signature: exactly the
        # lifted paths crossing the subdivided edge contain it
        sig8 = frozenset(i for i, p in enumerate(fs.paths) if 8 in p.vertex_set())
        crossing = frozenset(
            i for i, p in enumerate(fs.paths) if {0, 1} <= p.vertex_set()
        )
        assert sig8 == crossing and sig8

    def test_double_star_sub2_adds_one_window(self, double_star_sub2):
        fs = vertex_system(double_star_sub2)
        assert fs.size == 5
        assert any(p.vertices == (9,) for p in fs.paths)

    def test_star4(self):
        assert vertex_system(star_tree(4)).size == 3

    def test_k13_unsupported(self, k13):
        with pytest.raises(UnsupportedTree):
            vertex_system(k13)

    def test_p4_unsupported(self, p4):
        with pytest.raises(UnsupportedTree):
            vertex_system(p4)

    def test_small_bunch_unsupported(self, broom):
        with pytest.raises(UnsupportedTree):
            vertex_system(broom)

    def test_bunch_mismatch_warns(self):
        # legs of length 2 on a 4-leaf star: the tree's own bunches are
        # four singletons, the contraction's is one big bunch
        legs = Tree.from_edges(
            [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (0, 7), (7, 8)]
        )
        with pytest.warns(BunchMismatchWarning):
            fs = vertex_system(legs)
        assert separates(fs, TargetSet.vertices(legs))

    def test_swap_refinement_tree(self):
        # the first pairing crosses the far broom, the second crosses back
        # over both the first vertex and the clean marked vertex, forcing
        # one endpoint exchange and one hand-off
        t = Tree.from_edges(
            [(1, 4), (4, 5), (5, 6), (6, 2), (2, 3), (3, 0),
             (1, 8), (8, 9), (1, 10), (1, 11), (2, 12), (2, 13)]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BunchMismatchWarning)
            fs = vertex_system(t)
        assert fs.size <= vertex_upper_formula(profile(t))

    def test_sandwich_on_small_trees(self):
        warnings.simplefilter("ignore", BunchMismatchWarning)
        eligible = 0
        for n in range(2, 8):
            for t in enumerate_trees(n):
                p = profile(t)
                opt = min_separating(t, TargetSet.vertices(t)).size
                assert vertex_lower_bound(p) <= opt
                try:
                    fs = vertex_system(t)
                except UnsupportedTree:
                    continue
                eligible += 1
                assert opt <= fs.size <= vertex_upper_formula(p)
        assert eligible >= 5

    def test_outputs_kiss_every_edge(self):
        warnings.simplefilter("ignore", BunchMismatchWarning)
        for n in range(4, 8):
            for t in enumerate_trees(n):
                try:
                    fs = vertex_system(t)
                except UnsupportedTree:
                    continue
                for e in t.edges:
                    assert any(kisses(p, e) for p in fs.paths)


class TestVertexInterior:
    def test_k13_is_optimal(self, k13):
        fs = vertex_interior_system(k13)
        assert fs.size == 3
        ts = TargetSet.vertices_and_interior_edges(k13)
        assert min_separating(k13, ts).size == 3

    def test_p4_rejected(self, p4):
        with pytest.raises(PreconditionViolated):
            vertex_interior_system(p4)

    def test_ten_vertex_cubic_tree(self, k13):
        t = grow_cubic_leafy(grow_cubic_leafy(grow_cubic_leafy(k13, 1), 2), 3)
        assert t.n == 10 and is_cubic_leafy(t)
        p = profile(t)
        assert p.h1 == len(p.interior_edges) + 3
        fs = vertex_interior_system(t)
        assert fs.size == p.h1


class TestCubicFamilies:
    def test_recognizer_equals_generator(self):
        # every degree-{1,3} tree arises from the two-leaf growth scheme:
        # full cross-check against the enumerator up to n = 10, and for
        # n <= 13 every generated tree satisfies the recognizer
        generated = {4: set(), 6: set(), 8: set(), 10: set(), 12: set()}
        frontier = [Tree.from_edges([(0, 1), (0, 2), (0, 3)])]
        generated[4].add(canonical_form(frontier[0]))
        while frontier:
            t = frontier.pop()
            assert is_cubic_leafy(t)
            if t.n + 2 > 13:
                continue
            for leaf in t.leaves():
                grown = grow_cubic_leafy(t, leaf)
                form = canonical_form(grown)
                if form not in generated[grown.n]:
                    generated[grown.n].add(form)
                    frontier.append(grown)
        for n in range(2, 11):
            recognized = {
                canonical_form(t) for t in enumerate_trees(n) if is_cubic_leafy(t)
            }
            assert recognized == generated.get(n, set())
        assert len(generated[12]) > 0

    def test_subdivided_recognizer(self, k13):
        assert is_subdivided_cubic_leafy(k13)  # no interior edges to subdivide
        h = grow_cubic_leafy(k13, 1)  # the 6-vertex cubic tree
        star = subdivide_interior_edges(h)
        assert is_subdivided_cubic_leafy(star)
        assert not is_subdivided_cubic_leafy(h)  # h keeps an unsubdivided 3-3 edge
        assert not is_subdivided_cubic_leafy(path_tree(5))

    def test_subdivided_recognizer_matches_suppression_reference(self):
        def reference(t):
            # the definition: the local degree conditions, then suppress every
            # degree-2 vertex and ask for a degree-{1,3} core
            degs = {v: t.degree(v) for v in t.vertices}
            if any(d not in (1, 2, 3) for d in degs.values()):
                return False
            if any(d == 2 and any(degs[w] != 3 for w in t.neighbors(v))
                   for v, d in degs.items()):
                return False
            if any(degs[u] == 3 and degs[v] == 3 for u, v in t.edges):
                return False
            core = t
            for v in [x for x, d in degs.items() if d == 2]:
                core, _ = suppress_vertex(core, v)
            return is_cubic_leafy(core)

        trees = [t for n in range(2, 11) for t in enumerate_trees(n)]
        frontier = [Tree.from_edges([(0, 1), (0, 2), (0, 3)])]
        for _ in range(3):
            frontier = [grow_cubic_leafy(t, leaf) for t in frontier for leaf in t.leaves()[:2]]
            trees += frontier
        once = [subdivide_interior_edges(t) for t in trees if is_cubic_leafy(t)]
        trees += once + [subdivide_interior_edges(t) for t in once]
        positives = 0
        for t in trees:
            assert is_subdivided_cubic_leafy(t) == reference(t), t
            positives += reference(t)
        assert positives >= 20


class TestSharpValues:
    def test_paths(self, p4):
        assert sharp_value(p4, TargetSet.vertices(p4)) == 3
        for n in range(2, 10):
            t = path_tree(n)
            assert sharp_value(t, TargetSet.vertices(t)) == (n + 2) // 2

    def test_double_star(self, double_star):
        assert sharp_value(double_star, TargetSet.vertices(double_star)) == 4
        assert min_separating(double_star, TargetSet.vertices(double_star)).size == 4

    def test_k13_via_subdivided_family(self, k13):
        assert sharp_value(k13, TargetSet.vertices(k13)) == 3
        assert min_separating(k13, TargetSet.vertices(k13)).size == 3

    def test_star_values_match_oracle(self):
        for m in (4, 5, 6):
            t = star_tree(m)
            ts = TargetSet.vertices(t)
            assert sharp_value(t, ts) == min_separating(t, ts).size

    def test_cubic_interior_target(self, k13):
        ts = TargetSet.vertices_and_interior_edges(k13)
        assert sharp_value(k13, ts) == 3

    def test_unrecognized_returns_none(self, broom):
        assert sharp_value(broom, TargetSet.vertices(broom)) is None
        assert sharp_value(broom, TargetSet.edges(broom)) is None
