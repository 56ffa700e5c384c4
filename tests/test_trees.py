"""Tree parsing, profiles, traversals, contraction, and their invariants."""

import ast
import dataclasses
import hashlib
import random
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seppaths.trees as trees_module
from seppaths import (
    Bunch,
    PathInTree,
    TargetSet,
    Tree,
    TreeProfile,
    canonical_form,
    dfs_leaf_order,
    edge_system,
    emit_dot,
    find_isomorphism,
    parse_tree,
    path_of,
    profile,
    random_tree,
    serialize_tree,
    unique_path,
    vertex_system,
)
from seppaths.cli import main
from seppaths.edge_systems import _FIXTURES
from seppaths.errors import (
    BadToken,
    DuplicateEdge,
    HasCycle,
    InvalidPath,
    NotALeaf,
    NotConnected,
    TreeTooSmall,
    UnknownVertex,
)
from seppaths.oracle import enumerate_trees
from seppaths.random_graphs import Graph

from conftest import contract_bare_paths, leafy_tree, path_tree, subdivide_edge, suppress_vertex

random_trees = st.builds(
    random_tree, n=st.integers(min_value=2, max_value=24), seed=st.integers(0, 2**32)
)


@st.composite
def _relabeled_tree(draw):
    """A random tree with shuffled, non-contiguous vertex ids."""
    t = draw(random_trees)
    ids = draw(st.lists(st.integers(0, 10**6), min_size=t.n, max_size=t.n, unique=True))
    new = dict(zip(t.vertices, ids))
    return Tree.from_edges((new[a], new[b]) for a, b in t.edges)


relabeled_trees = _relabeled_tree()


def bfs_unique_path(t: Tree, u: int, v: int):
    """The u-v path by a fresh BFS from u: O(n) per pair, an independent
    reference for the rooted walk."""
    if not t.has_vertex(u):
        raise UnknownVertex(f"vertex {u} not in tree")
    if not t.has_vertex(v):
        raise UnknownVertex(f"vertex {v} not in tree")
    if u == v:
        return path_of(u)
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
    return path_of(*reversed(seq))


def backtracking_isomorphism(t1: Tree, t2: Tree):
    """A t1 -> t2 isomorphism by backtracking over a BFS order from a
    maximum-degree vertex, lowest-id candidates first: an independent
    reference for the canonical-labeling mapping."""
    if t1.n != t2.n:
        return None
    if sorted(map(t1.degree, t1.vertices)) != sorted(map(t2.degree, t2.vertices)):
        return None
    start = max(t1.vertices, key=t1.degree)
    order, seen = [start], {start}
    for x in order:
        for w in t1.neighbors(x):
            if w not in seen:
                seen.add(w)
                order.append(w)
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


def union_find_bunches(t: Tree):
    """The components of the pendant edges by union-find: an independent
    reference for the grouping in ``profile``."""
    leafset = set(t.leaves())
    comp: dict[int, int] = {}

    def find(x: int) -> int:
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for u, v in t.edges:
        if u in leafset or v in leafset:
            comp.setdefault(u, u)
            comp.setdefault(v, v)
            comp[find(u)] = find(v)
    groups: dict[int, list[int]] = {}
    for v in comp:
        groups.setdefault(find(v), []).append(v)
    bunches = [
        Bunch(tuple(sorted(vs)), tuple(sorted(x for x in vs if x in leafset)))
        for vs in groups.values()
    ]
    return tuple(sorted(bunches, key=lambda b: b.vertices[0]))


def relabeled(t: Tree, rng: random.Random) -> Tree:
    """A copy of t on shuffled, non-contiguous ids."""
    new = dict(zip(t.vertices, rng.sample(range(10**6), t.n)))
    return Tree.from_edges((new[a], new[b]) for a, b in t.edges)


def forked_spider(chains) -> Tree:
    """Center 0 with one leg per entry: a chain of that many vertices whose
    last vertex carries two leaves."""
    edges, nxt = [], 1
    for k in chains:
        prev = 0
        for _ in range(k):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
        edges += [(prev, nxt), (prev, nxt + 1)]
        nxt += 2
    return Tree.from_edges(edges)


def claimed_edge_bare_paths(t: Tree):
    """The bare paths by the claimed-edge walk: every extreme walks each
    edge no earlier path claimed, a path claims its two end edges, and the
    paths are oriented from their lower-id extreme and then sorted.  A
    reference for the single walk in ``profile``."""
    if t.n == 1:
        return ()
    deg = {v: t.degree(v) for v in t.vertices}
    paths, claimed = [], set()
    for s in t.vertices:
        if deg[s] == 2:
            continue
        for w in t.neighbors(s):
            if (min(s, w), max(s, w)) in claimed:
                continue
            seq, prev = [s, w], s
            while deg[seq[-1]] == 2:
                a, b = t.neighbors(seq[-1])
                nxt = b if a == prev else a
                prev = seq[-1]
                seq.append(nxt)
            claimed.add((min(seq[0], seq[1]), max(seq[0], seq[1])))
            claimed.add((min(seq[-2], seq[-1]), max(seq[-2], seq[-1])))
            if seq[0] > seq[-1]:
                seq.reverse()
            paths.append(path_of(*seq))
    paths.sort(key=lambda p: p.vertices)
    return tuple(paths)


def reference_rooting(vertices, edges):
    """(parent, depth, order) of a depth-first traversal from the least id
    that pushes each vertex's unseen neighbours in ascending order, over an
    adjacency built from a plain edge list."""
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    root = min(vertices)
    parent, depth, order, stack = {root: root}, {root: 0}, [], [root]
    while stack:
        x = stack.pop()
        order.append(x)
        for w in sorted(adj[x]):
            if w not in depth:
                parent[w], depth[w] = x, depth[x] + 1
                stack.append(w)
    return parent, depth, order


def is_isomorphism(t1: Tree, t2: Tree, iso) -> bool:
    return (
        sorted(iso) == list(t1.vertices)
        and sorted(iso.values()) == list(t2.vertices)
        and all(t2.has_edge(iso[u], iso[v]) for u, v in t1.edges)
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

    def test_degree_facts_and_first_read_fields_match_their_definitions(self):
        trees = [Tree([0], [])] + [t for n in range(2, 9) for t in enumerate_trees(n)]
        trees += [random_tree(300, 4), leafy_tree(50, 2), relabeled(random_tree(40, 1), random.Random(1))]
        for t in trees:
            deg = {v: t.degree(v) for v in t.vertices}
            p = profile(t)
            assert p.leaves == tuple(v for v in t.vertices if deg[v] == 1), t
            assert p.deg2 == tuple(v for v in t.vertices if deg[v] == 2), t
            assert (p.h1, p.h2) == (len(p.leaves), len(p.deg2)), t
            assert p.useful_leaves == tuple(v for v in p.leaves if deg[t.neighbors(v)[0]] != 2), t
            assert p.interior_edges == tuple(
                sorted(e for e in t.edges if deg[e[0]] > 1 and deg[e[1]] > 1)
            ), t
            # a profile given all ten values is the same profile
            full = TreeProfile(*(getattr(p, f.name) for f in dataclasses.fields(TreeProfile)))
            assert full == p and hash(full) == hash(p) and repr(full) == repr(p), t
        with pytest.raises(AttributeError):
            profile(trees[-1]).no_such_field

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
        claimed = [e for bp in p.bare_paths for e in frozenset(bp.edges())]
        assert len(claimed) == len(t.edges) == t.n - 1
        assert set(claimed) == set(t.edges)

    @settings(max_examples=60, deadline=None)
    @given(random_trees)
    def test_h2star_between_0_and_h2(self, t):
        p = profile(t)  # test_h2star_equals_the_per_bare_path_sum checks the formula
        assert 0 <= p.h2star <= p.h2

    def test_bunches_match_the_union_find_reference(self):
        ts = [Tree([0], [])]
        ts += [t for n in range(2, 11) for t in enumerate_trees(n)]
        ts += [random_tree(n, s) for n in range(2, 300) for s in (0, 1, 2)]
        assert len(ts) == 1095
        for t in ts:
            assert profile(t).bunches == union_find_bunches(t), t
            # the target set read off the profile, against a degree recount
            leaves = {v for v in t.vertices if t.degree(v) == 1}
            interior = sorted(e for e in t.edges if not leaves & set(e))
            got = TargetSet.vertices_and_interior_edges(t).elements
            assert got == (*t.vertices, *interior), t

    def test_bunch_sizes_sum_to_h1(self):
        for n in range(2, 9):
            for t in enumerate_trees(n):
                p = profile(t)
                assert sum(b.size for b in p.bunches) == p.h1

    def test_cached_on_the_tree(self, broom):
        assert profile(broom) is profile(broom)

    def test_construct_vertex_profiles_each_tree_once(self, monkeypatch, tmp_path):
        built = []  # holds the trees, so their ids stay distinct
        real = trees_module._profile

        def counting(t):
            built.append(t)
            return real(t)

        monkeypatch.setattr(trees_module, "_profile", counting)
        f = tmp_path / "leafy.tree"
        f.write_text(serialize_tree(leafy_tree(132, 0)))
        assert main(["construct-vertex", str(f)]) == 0
        # the input tree only: the contraction's bunches come off one traversal
        assert len(built) == 1
        assert max(Counter(map(id, built)).values()) == 1


class TestUniquePath:
    def test_p4_ends(self, p4):
        assert unique_path(p4, 0, 3).vertices == (0, 1, 2, 3)

    def test_cross_subtree_route(self, depth2):
        assert unique_path(depth2, 4, 6).vertices == (4, 2, 1, 3, 6)

    def test_identity(self, k13, depth2):
        for t in (k13, depth2):
            for v in t.vertices:
                assert unique_path(t, v, v).vertices == (v,)

    def test_unknown(self, p4):
        with pytest.raises(UnknownVertex, match="^vertex 9 not in tree$"):
            unique_path(p4, 0, 9)
        with pytest.raises(UnknownVertex, match="^vertex 9 not in tree$"):
            p4.neighbors(9)

    @settings(max_examples=60, deadline=None)
    @given(random_trees, st.data())
    def test_reversal(self, t, data):
        u = data.draw(st.sampled_from(t.vertices))
        v = data.draw(st.sampled_from(t.vertices))
        assert unique_path(t, u, v).vertices == tuple(
            reversed(unique_path(t, v, u).vertices)
        )

    @settings(max_examples=80, deadline=None)
    @given(relabeled_trees, st.data())
    def test_matches_the_bfs_reference(self, t, data):
        vs = st.sampled_from(t.vertices)
        u, v = data.draw(vs), data.draw(vs)
        root = t.vertices[0]  # the index roots at the least id
        below = bfs_unique_path(t, root, v).vertices  # ancestors of v, root first
        anc = data.draw(st.sampled_from(below))
        for a, b in ((u, v), (v, u), (u, u), (root, v), (v, root), (anc, v), (v, anc)):
            assert unique_path(t, a, b) == bfs_unique_path(t, a, b), (a, b)

    @settings(max_examples=40, deadline=None)
    @given(relabeled_trees, st.data())
    def test_unknown_vertices_raise_like_the_reference(self, t, data):
        bad = data.draw(st.integers(0, 10**6).filter(lambda x: not t.has_vertex(x)))
        v = data.draw(st.sampled_from(t.vertices))
        for a, b in ((bad, v), (v, bad), (bad, bad)):
            with pytest.raises(UnknownVertex):
                bfs_unique_path(t, a, b)
            with pytest.raises(UnknownVertex):
                unique_path(t, a, b)

    def test_long_path_needs_no_recursion(self):
        t = path_tree(3000)  # fresh, so its index is built under the low limit
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            p = unique_path(t, 2999, 0)
            q = unique_path(t, 1000, 2000)
        finally:
            sys.setrecursionlimit(old)
        assert p.vertices == tuple(range(2999, -1, -1))
        assert q.vertices == tuple(range(1000, 2001))

    def test_walked_paths_skip_the_repeat_check(self, depth2, monkeypatch):
        # a walk up parent links cannot repeat a vertex, so unique_path
        # builds its path without PathInTree's validation; direct
        # construction still validates
        def refuse(self):
            raise AssertionError("validated a walked path")

        expected = PathInTree((4, 2, 1, 3, 6))
        with monkeypatch.context() as m:
            m.setattr(PathInTree, "__post_init__", refuse)
            walked = unique_path(depth2, 4, 6)
        assert walked == expected and hash(walked) == hash(expected)
        with pytest.raises(InvalidPath):
            PathInTree((4, 2, 4))
        with pytest.raises(InvalidPath):
            PathInTree(())


class TestRootedIndex:
    def test_parent_and_depth(self, depth2):
        parent, depth = depth2.rooted()
        assert parent == {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}
        assert depth == {1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 2}
        assert depth2.rooted() is depth2.rooted()

    def test_order_is_a_preorder(self):
        # in a depth-first preorder, each vertex's parent is the nearest
        # earlier vertex of smaller depth
        for seed in range(5):
            t = random_tree(60, seed)
            parent, depth = t.rooted()
            order = t.rooted_order()
            assert sorted(order) == list(t.vertices)
            open_path = []
            for v in order:
                while open_path and depth[open_path[-1]] >= depth[v]:
                    open_path.pop()
                assert parent[v] == (open_path[-1] if open_path else v)
                open_path.append(v)

    def test_constructions_build_it_at_most_once_per_tree(self, monkeypatch):
        built = []  # holds the trees, so their ids stay distinct
        real = trees_module._root_at_least

        def counting(t):
            built.append(t)
            return real(t)

        monkeypatch.setattr(trees_module, "_root_at_least", counting)
        t = leafy_tree(132, 0)
        assert t.n == 300
        edge_system(t)
        vertex_system(t)
        assert built and t in built
        assert max(Counter(map(id, built)).values()) == 1


class TestOnePassConstruction:
    # (vertices, edges) -> (error, message), as the two-traversal
    # construction raised them
    TREE_ERRORS = [
        (([], []), NotConnected, "a tree needs at least one vertex"),
        (([-1, 0], [(-1, 0)]), BadToken, "vertex ids must be non-negative"),
        (([0, 1, 2], [(0, 1), (1, 1)]), HasCycle, "self-loop at vertex 1"),
        (([0, 1, 2], [(0, 1), (1, 5)]), UnknownVertex, "edge (1,5) mentions an unknown vertex"),
        (([0, 1, 2], [(0, 1), (1, 2), (0, 2)]), HasCycle, "3 vertices admit 2 edges, got 3"),
        (([0, 1, 2, 3], [(0, 1), (2, 3)]), NotConnected, "4 vertices need 3 edges, got 2"),
        (([0, 1, 2, 3], [(0, 1), (1, 2), (0, 2)]), NotConnected, "vertex 3 is not reachable"),
        (([0, 1, 2, 3], [(1, 2), (2, 3), (1, 3)]), NotConnected, "vertex 1 is not reachable"),
    ]
    GRAPH_ERRORS = [
        ((-1, []), UnknownVertex, "vertex count must be non-negative"),
        ((3, [(0, 1), (2, 2)]), HasCycle, "self-loop at vertex 2"),
        ((3, [(0, 1), (1, 3)]), UnknownVertex, "edge (1,3) out of range"),
        ((3, [(-1, 1)]), UnknownVertex, "edge (-1,1) out of range"),
    ]

    @pytest.mark.parametrize("args,error,message", TREE_ERRORS)
    def test_tree_errors(self, args, error, message):
        with pytest.raises(error) as info:
            Tree(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("args,error,message", GRAPH_ERRORS)
    def test_graph_errors(self, args, error, message):
        with pytest.raises(error) as info:
            Graph(*args)
        assert str(info.value) == message

    def test_only_checked_input_skips_the_checks(self):
        # Tree._from_adjacency trusts its neighbour map: only the parser and
        # the edge construction's base tree, which hold checked edges, call
        # it.  Graph has a fill of its own, called by its two constructors.
        callers = set()

        def visit(node, scope, module):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    inner = scope + [child.name]
                elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                      and child.func.attr in ("_from_adjacency", "_fill")):
                    callers.add(f"{module}.{'.'.join(scope)}:{child.func.attr}")
                visit(child, inner, module)

        src = Path(trees_module.__file__).parent
        for path in sorted(src.glob("*.py")):
            visit(ast.parse(path.read_text()), [], path.stem)
        assert callers == {
            "trees.Tree.__init__:_fill",
            "trees.Tree._from_adjacency:_fill",
            "trees.parse_tree:_from_adjacency",
            "edge_systems._as_tree:_from_adjacency",
            "random_graphs.Graph.__init__:_fill",
            "random_graphs.Graph._from_rows:_fill",
        }

    def test_duplicate_edge_both_ways_is_one_edge(self):
        t = Tree([0, 1, 2], [(0, 1), (1, 0), (2, 1)])
        assert t.edges == {(0, 1), (1, 2)}
        assert [t.neighbors(v) for v in t.vertices] == [(1,), (0, 2), (1,)]
        g = Graph(3, [(0, 1), (1, 0)])
        assert g.edges == {(0, 1)}
        assert [g.neighbors(v) for v in g.vertices] == [(1,), (0,), ()]

    def test_adjacency_and_rooting_whatever_the_edge_order(self):
        rng = random.Random(5)
        for seed in range(12):
            base = relabeled(random_tree(40, seed), rng) if seed % 2 else random_tree(40, seed)
            edges = sorted(base.edges)
            shuffled = rng.sample(edges, len(edges))
            for edge_list in (shuffled, edges[::-1], [(v, u) for u, v in shuffled],
                          edges + shuffled[:10] + [(v, u) for u, v in edges[:10]]):
                t = Tree(base.vertices, edge_list)
                assert t == base
                for v in t.vertices:
                    assert t.neighbors(v) == tuple(sorted(base.neighbors(v)))
                parent, depth, order = reference_rooting(t.vertices, edge_list)
                assert t.rooted() == (parent, depth)
                assert t.rooted_order() == order
                assert t.rooted() is t.rooted() and t.rooted_order() is t.rooted_order()

    def test_graph_adjacency_is_sorted(self):
        rng = random.Random(3)
        pairs = [(rng.randrange(30), rng.randrange(30)) for _ in range(120)]
        pairs = [(u, v) for u, v in pairs if u != v]
        g = Graph(30, pairs)
        for v in g.vertices:
            expected = {b if a == v else a for a, b in pairs if v in (a, b)}
            assert g.neighbors(v) == tuple(sorted(expected))


class TestBarePathWalk:
    def bare_paths(self, t):
        assert profile(t).bare_paths == claimed_edge_bare_paths(t), t
        return profile(t).bare_paths

    def test_every_small_tree(self):
        rng = random.Random(0)
        for n in range(2, 11):
            for t in enumerate_trees(n):
                self.bare_paths(t)
                self.bare_paths(relabeled(t, rng))

    def test_random_and_leafy_trees(self):
        rng = random.Random(1)
        for seed in range(6):
            for t in (random_tree(2 + 37 * seed, seed), leafy_tree(5 + 20 * seed, seed),
                      forked_spider([seed, 1, 2 * seed])):
                self.bare_paths(t)
                self.bare_paths(relabeled(t, rng))

    def test_one_vertex_tree(self):
        assert self.bare_paths(Tree([7], [])) == ()


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

    def test_unknown_start(self, double_star):
        with pytest.raises(UnknownVertex, match="^vertex 99 not in tree$"):
            dfs_leaf_order(double_star, 99)

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
        expanded = [e for bp in emap.values() for e in frozenset(bp.edges())]
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

    def test_different_sizes(self, p3, p4):
        assert find_isomorphism(p3, p4) is None

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

    def test_fixture_families_map_like_the_backtracking_reference(self):
        rng = random.Random(8)
        for fixture, family in _FIXTURES.values():
            for _ in range(200):
                t = relabeled(fixture, rng)
                new = find_isomorphism(fixture, t)
                ref = backtracking_isomorphism(fixture, t)
                assert [(new[a], new[b]) for a, b in family] == [
                    (ref[a], ref[b]) for a, b in family
                ], t

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(2, 12), st.integers(0, 2**32), st.integers(0, 2**32), st.integers(0, 2**32)
    )
    def test_bijection_or_none_like_the_reference(self, n, s1, s2, s3):
        t1 = random_tree(n, s1)
        rng = random.Random(s3)
        for t2 in (relabeled(t1, rng), relabeled(random_tree(n, s2), rng)):
            iso = find_isomorphism(t1, t2)
            if backtracking_isomorphism(t1, t2) is None:
                assert iso is None
            else:
                assert iso is not None and is_isomorphism(t1, t2, iso)

    def test_long_path_needs_no_recursion(self):
        t1 = path_tree(3000)
        t2 = relabeled(t1, random.Random(3))
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            iso = find_isomorphism(t1, t2)
        finally:
            sys.setrecursionlimit(old)
        assert iso is not None and is_isomorphism(t1, t2, iso)

    def test_forked_spiders_sharing_degrees_rejected_fast(self):
        # one fork moved up a step and another down: same degree sequence,
        # not isomorphic; a backtracking search is factorial in the legs
        t1 = forked_spider([3] * 12)
        t2 = forked_spider([2, 4] + [3] * 10)
        assert t1.n == t2.n == 61
        assert sorted(map(t1.degree, t1.vertices)) == sorted(map(t2.degree, t2.vertices))
        start = time.perf_counter()
        assert find_isomorphism(t1, t2) is None
        assert time.perf_counter() - start < 1.0


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
    for seed in range(5):  # the empty Pruefer sequence decodes to the single edge
        assert random_tree(2, seed) == Tree.from_edges([(0, 1)])
    with pytest.raises(TreeTooSmall):
        random_tree(1, 0)


def union_find_parse_error(text: str):
    """(error type, message) of a document as the line-by-line union-find
    parser reported it, or None when that parser accepted the document."""
    seen, edges, parent = set(), [], {}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    try:
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
            e = (min(u, v), max(u, v))
            if e in seen:
                raise DuplicateEdge(f"line {lineno}: edge {u} {v} repeated")
            seen.add(e)
            parent.setdefault(u, u)
            parent.setdefault(v, v)
            ru, rv = find(u), find(v)
            if ru == rv:
                raise HasCycle(f"line {lineno}: edge {u} {v} closes a cycle")
            parent[ru] = rv
            edges.append(e)
        if not edges:
            raise BadToken("document contains no edges")
        Tree.from_edges(edges)
    except (BadToken, DuplicateEdge, HasCycle, NotConnected) as exc:
        return type(exc), str(exc)
    return None


class TestParseErrorOrder:
    """A cycle is reported at the line that closes it, whatever error a
    later line or the whole document would raise."""

    @pytest.mark.parametrize("later, error", [
        ("1 0", DuplicateEdge),
        ("1 x", BadToken),
        ("3 -4", BadToken),
        ("4 4", HasCycle),
        ("1 2 3", BadToken),
        ("7 8", NotConnected),
    ])
    def test_cycle_line_beats_a_later_error(self, later, error):
        rest = "0 1\n1 2\n"
        assert union_find_parse_error(rest + later + "\n")[0] is error
        with pytest.raises(HasCycle) as info:
            parse_tree(rest + "2 0  # back to the start\n" + later + "\n")
        assert str(info.value) == "line 3: edge 2 0 closes a cycle"

    def test_first_of_two_cycles_is_named(self):
        with pytest.raises(HasCycle) as info:
            parse_tree("0 1\n2 3\n1 2\n3 0\n1 3\n")
        assert str(info.value) == "line 4: edge 3 0 closes a cycle"

    def test_forest_keeps_its_not_connected_message(self):
        with pytest.raises(NotConnected) as info:
            parse_tree("0 1\n2 3\n3 4\n")
        assert str(info.value) == "5 vertices need 4 edges, got 3"

    def test_errors_before_the_cycle_stand(self):
        with pytest.raises(DuplicateEdge, match="line 2"):
            parse_tree("0 1\n1 0\n1 2\n2 0\n")

    @settings(max_examples=400, deadline=None)
    @given(st.lists(
        st.one_of(
            st.tuples(st.integers(0, 6), st.integers(0, 6)).map(lambda e: f"{e[0]} {e[1]}"),
            st.sampled_from(["", "# note", "0 -1", "x 1", "1", "0 1 2", "2 3  # tail"]),
        ),
        max_size=10,
    ))
    def test_same_outcome_as_the_union_find_parser(self, lines):
        text = "\n".join(lines)
        expected = union_find_parse_error(text)
        if expected is None:
            parsed = parse_tree(text)
            built = Tree.from_edges(tuple(map(int, ln.split("#")[0].split())) for ln in lines
                                    if ln.split("#")[0].strip())
            # slot by slot: the hash sweep and the leaf order read all of them
            assert parsed.vertices == built.vertices
            assert parsed.edges == built.edges
            assert type(parsed.edges) is frozenset
            for v in built.vertices:
                assert parsed.neighbors(v) == built.neighbors(v)
            assert parsed.rooted() == built.rooted()
            assert parsed.rooted_order() == built.rooted_order()
            assert serialize_tree(parsed) == serialize_tree(built)
        else:
            with pytest.raises(expected[0]) as info:
                parse_tree(text)
            assert str(info.value) == expected[1]


def test_h2star_equals_the_per_bare_path_sum():
    # a bare path with no leaf and at least two edges contributes its
    # interior less one, every other bare path its whole interior
    def by_sum(t):
        p = profile(t)
        iset = set(p.set_i)
        return sum(bp.length - (2 if i in iset else 1) for i, bp in enumerate(p.bare_paths))

    trees = [t for n in range(2, 11) for t in enumerate_trees(n)]
    trees += [random_tree(2 + 53 * seed, seed) for seed in range(8)]
    trees += [leafy_tree(5 + 40 * seed, seed) for seed in range(8)]
    for t in trees:
        p = profile(t)
        assert p.h2star == by_sum(t) == p.h2 - len(p.set_i), t
        assert list(p.set_i) == sorted(
            i for i, bp in enumerate(p.bare_paths)
            if bp.length >= 2 and not set(bp.endpoints) & set(p.leaves)
        ), t
