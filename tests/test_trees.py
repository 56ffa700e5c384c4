"""Tree parsing, profiles, traversals, contraction, and their invariants."""

import hashlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seppaths import (
    Tree,
    canonical_form,
    contract_bare_paths,
    dfs_leaf_order,
    emit_dot,
    find_isomorphism,
    parse_tree,
    path_of,
    profile,
    random_tree,
    serialize_tree,
    subdivide_edge,
    suppress_vertex,
    unique_path,
)
from seppaths.errors import (
    BadToken,
    DuplicateEdge,
    HasCycle,
    NotALeaf,
    NotConnected,
    UnknownVertex,
)
from seppaths.oracle import enumerate_trees

from conftest import path_tree

random_trees = st.builds(
    random_tree, n=st.integers(min_value=2, max_value=24), seed=st.integers(0, 2**32)
)


class TestParse:
    def test_single_edge(self):
        t = parse_tree("0 1")
        assert t.n == 2 and t.edges == frozenset({(0, 1)})

    def test_depth2_binary_degrees(self, depth2):
        assert depth2.n == 7
        assert depth2.degree(1) == 2 and depth2.degree(2) == 3 and depth2.degree(3) == 3
        assert depth2.leaves() == (4, 5, 6, 7)

    def test_comments_and_blanks(self):
        t = parse_tree("# a tree\n\n0 1  # pendant\n1 2\n")
        assert t.n == 3

    def test_cycle_named_line(self):
        with pytest.raises(HasCycle, match="line 4"):
            parse_tree("0 1\n1 2\n2 3\n0 2\n")

    def test_self_loop(self):
        with pytest.raises(HasCycle, match="line 1"):
            parse_tree("5 5\n")

    def test_duplicate(self):
        with pytest.raises(DuplicateEdge, match="line 3"):
            parse_tree("0 1\n1 2\n1 0\n")

    def test_bad_token(self):
        with pytest.raises(BadToken, match="line 2"):
            parse_tree("0 1\n1 x\n")

    def test_three_tokens(self):
        with pytest.raises(BadToken, match="line 1"):
            parse_tree("0 1 2\n")

    def test_disconnected(self):
        with pytest.raises(NotConnected):
            parse_tree("0 1\n2 3\n")

    def test_empty_document(self):
        with pytest.raises(BadToken):
            parse_tree("# nothing\n")

    def test_roundtrip_bit_exact(self, broom):
        text = serialize_tree(broom)
        assert serialize_tree(parse_tree(text)) == text


class TestProfile:
    def test_p4(self, p4):
        p = profile(p4)
        assert (p.h1, p.h2, p.h2star) == (2, 2, 2)
        assert p.set_i == ()
        assert [bp.vertices for bp in p.bare_paths] == [(0, 1, 2, 3)]

    def test_depth2_binary(self, depth2):
        p = profile(depth2)
        assert (p.h1, p.h2, p.h2star) == (4, 1, 0)
        assert p.interior_edges == ((1, 2), (1, 3))
        assert [bp.vertices for bp in p.bare_paths] == [
            (2, 1, 3), (2, 4), (2, 5), (3, 6), (3, 7),
        ]
        assert p.set_i == (0,)
        assert [(b.vertices, b.size) for b in p.bunches] == [
            ((2, 4, 5), 2), ((3, 6, 7), 2),
        ]

    def test_hub(self, broom):
        p = profile(broom)
        assert (p.h1, p.h2, p.h2star) == (4, 2, 1)
        assert len(p.set_i) == 1
        assert p.bare_paths[p.set_i[0]].vertices == (0, 1, 2, 3)

    def test_k13(self, k13):
        p = profile(k13)
        assert (p.h1, p.h2) == (3, 0)
        assert p.interior_edges == ()
        assert len(p.bunches) == 1 and p.bunches[0].size == 3

    def test_single_vertex(self):
        t = Tree([0], [])
        p = profile(t)
        assert (p.h1, p.h2, p.h2star) == (0, 0, 0)
        assert p.bare_paths == () and p.bunches == ()

    def test_useful_leaves(self, broom, p4):
        assert profile(broom).useful_leaves == (4, 5, 6, 7)
        assert profile(p4).useful_leaves == ()

    @settings(max_examples=60, deadline=None)
    @given(random_trees)
    def test_bare_paths_partition_edges(self, t):
        p = profile(t)
        claimed = [e for bp in p.bare_paths for e in bp.edge_set()]
        assert len(claimed) == len(t.edges) == t.n - 1
        assert set(claimed) == set(t.edges)

    @settings(max_examples=60, deadline=None)
    @given(random_trees)
    def test_h2star_between_0_and_h2(self, t):
        p = profile(t)  # profile itself asserts the two h2* formulas agree
        assert 0 <= p.h2star <= p.h2

    def test_bunch_sizes_sum_to_h1(self):
        for n in range(2, 9):
            for t in enumerate_trees(n):
                p = profile(t)
                assert sum(b.size for b in p.bunches) == p.h1


class TestUniquePath:
    def test_p4_ends(self, p4):
        assert unique_path(p4, 0, 3).vertices == (0, 1, 2, 3)

    def test_cross_subtree_route(self, depth2):
        assert unique_path(depth2, 4, 6).vertices == (4, 2, 1, 3, 6)

    def test_identity(self, k13):
        assert unique_path(k13, 2, 2).vertices == (2,)

    def test_unknown(self, p4):
        with pytest.raises(UnknownVertex):
            unique_path(p4, 0, 9)

    @settings(max_examples=60, deadline=None)
    @given(random_trees, st.data())
    def test_reversal(self, t, data):
        u = data.draw(st.sampled_from(t.vertices))
        v = data.draw(st.sampled_from(t.vertices))
        assert unique_path(t, u, v).vertices == tuple(
            reversed(unique_path(t, v, u).vertices)
        )


class TestLeafOrder:
    def test_k13(self, k13):
        assert dfs_leaf_order(k13, 1) == (1, 2, 3)

    def test_double_star(self, double_star):
        assert dfs_leaf_order(double_star, 2) == (2, 5, 6, 7, 3, 4)

    def test_e1(self, e1):
        assert dfs_leaf_order(e1, 0) == (0, 1)

    def test_not_a_leaf(self, double_star):
        with pytest.raises(NotALeaf):
            dfs_leaf_order(double_star, 0)

    def test_each_leaf_once(self):
        for n in range(2, 8):
            for t in enumerate_trees(n):
                for start in t.leaves():
                    order = dfs_leaf_order(t, start)
                    assert order[0] == start
                    assert sorted(order) == sorted(t.leaves())

    def test_every_start_gives_a_planar_cyclic_order(self):
        # For each edge, the leaves on the far side must occupy a cyclic
        # interval of the order; this is the property the leaf-order
        # constructions rely on, and it holds from every starting leaf.
        for n in range(4, 8):
            for t in enumerate_trees(n):
                for start in t.leaves():
                    order = dfs_leaf_order(t, start)
                    pos = {v: i for i, v in enumerate(order)}
                    for u, v in t.edges:
                        side = _component_leaves(t, u, v)
                        idx = sorted(pos[x] for x in side if x in pos)
                        assert _is_cyclic_interval(idx, len(order)), (t, (u, v))


def _component_leaves(t, u, v):
    """Leaves of the component of t - (u,v) containing u."""
    seen = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        for w in t.neighbors(x):
            if w == v and x == u:
                continue
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return [x for x in seen if t.is_leaf(x)]


def _is_cyclic_interval(idx, total):
    if len(idx) <= 1:
        return True
    gaps = sum(1 for i, j in zip(idx, idx[1:]) if j != i + 1)
    wraps = not (idx[0] == 0 and idx[-1] == total - 1)
    return gaps == 0 or (gaps == 1 and not wraps)


class TestContraction:
    def test_hub(self, broom):
        t2, emap = contract_bare_paths(broom)
        assert t2.edges == frozenset({(0, 3), (0, 4), (0, 5), (3, 6), (3, 7)})
        assert emap[(0, 3)].vertices == (0, 1, 2, 3)

    def test_k13_identity(self, k13):
        t2, emap = contract_bare_paths(k13)
        assert t2.edges == k13.edges
        assert all(emap[e].vertices == e for e in k13.edges)

    def test_p4_to_single_edge(self, p4):
        t2, emap = contract_bare_paths(p4)
        assert t2.vertices == (0, 3)
        assert emap[(0, 3)].vertices == (0, 1, 2, 3)

    @settings(max_examples=60, deadline=None)
    @given(random_trees)
    def test_no_degree2_and_leaves_kept(self, t):
        t2, emap = contract_bare_paths(t)
        assert all(t2.degree(v) != 2 for v in t2.vertices)
        assert len(t2.leaves()) == len(t.leaves())
        expanded = [e for bp in emap.values() for e in bp.edge_set()]
        assert len(expanded) == len(t.edges) and set(expanded) == set(t.edges)


class TestSurgery:
    def test_subdivide(self, p4):
        t2, x = subdivide_edge(p4, (1, 2))
        assert x == 4 and t2.n == 5
        assert t2.has_edge(1, 4) and t2.has_edge(4, 2) and not t2.has_edge(1, 2)

    def test_suppress(self, p4):
        t2, bridge = suppress_vertex(p4, 1)
        assert bridge == (0, 2) and t2.n == 3 and t2.has_edge(0, 2)

    def test_suppress_requires_degree2(self, k13):
        with pytest.raises(UnknownVertex):
            suppress_vertex(k13, 0)


class TestIsomorphism:
    def test_depth2_binary_isomorph(self, depth2):
        relabeled = Tree.from_edges([(10 - u, 10 - v) for u, v in depth2.edges])
        iso = find_isomorphism(depth2, relabeled)
        assert iso is not None
        assert all(relabeled.has_edge(iso[u], iso[v]) for u, v in depth2.edges)
        assert canonical_form(depth2) == canonical_form(relabeled)

    def test_not_isomorphic(self, p4, k13):
        assert find_isomorphism(p4, k13) is None
        assert canonical_form(p4) != canonical_form(k13)

    def test_enumerate_counts_are_distinct_forms(self):
        for n in range(2, 9):
            forms = {canonical_form(t) for t in enumerate_trees(n)}
            assert len(forms) == len(enumerate_trees(n))

    def test_canonical_forms_pinned(self):
        # sha256 over the forms of enumerate_trees(2..10), one per line in
        # enumeration order, recorded with the recursive AHU construction
        forms = [canonical_form(t) for n in range(2, 11) for t in enumerate_trees(n)]
        assert len(forms) == 200
        digest = hashlib.sha256("\n".join(forms).encode()).hexdigest()
        assert digest == "1643f1853e17df699fcbb0fab2a122e0e5f1b2ffcf354e544708349af4dc0a16"

    def test_canonical_form_without_recursion(self):
        def chain(k):
            return "(" * k + ")" * k

        old = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            form = canonical_form(path_tree(1000))
        finally:
            sys.setrecursionlimit(old)
        # rooted at a center: two hanging chains of 500 and 499 vertices
        assert form == "(" + chain(500) + chain(499) + ")"


class TestDot:
    def test_golden(self, p3):
        assert emit_dot(p3) == "graph tree {\n  0 -- 1;\n  1 -- 2;\n}\n"

    def test_sorted_edges(self, double_star):
        lines = emit_dot(double_star).splitlines()[1:-1]
        assert lines == sorted(lines)


def test_path_of_rejects_repeats():
    from seppaths.errors import InvalidPath

    with pytest.raises(InvalidPath):
        path_of(1, 2, 1)


def test_random_tree_is_deterministic():
    assert random_tree(12, 7).edges == random_tree(12, 7).edges
    assert random_tree(12, 7).edges != random_tree(12, 8).edges
