"""Vertex bounds, the bare-path skeleton construction, windows, sharp values."""

import hashlib
import warnings
from collections import Counter
from itertools import product

import pytest

import seppaths.trees as trees_module
import seppaths.vertex_systems as vs
from seppaths import (
    TargetSet,
    Tree,
    covers,
    profile,
    kisses,
    random_tree,
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
from seppaths.edge_systems import _bunch_groups, _pair_bunches, bunch_pairs
from seppaths.vertex_systems import (
    BunchMismatchWarning,
    is_cubic_leafy,
    is_subdivided_cubic_leafy,
)
from seppaths.trees import canonical_form, unique_path

from conftest import (
    contract_bare_paths,
    grow_cubic_leafy,
    leafy_tree,
    path_tree,
    star_tree,
    subdivide_interior_edges,
    suppress_vertex,
)


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

    def test_empty_run(self):
        with pytest.raises(NotConsecutive):
            sliding_window_cover(path_tree(5), ())

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
            sig = frozenset(j + 1 for j, p in enumerate(frag) if v in frozenset(p.vertices))
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


def _swap_tree():
    # hubs 1 and 2 joined by the bare path 1-4-5-6-2, with bare legs 1-8-9
    # and 2-3-0 and two plain leaves on each hub
    return Tree.from_edges(
        [(1, 4), (4, 5), (5, 6), (6, 2), (2, 3), (3, 0),
         (1, 8), (8, 9), (1, 10), (1, 11), (2, 12), (2, 13)]
    )


class TestVertexSystem:
    def test_double_star(self, double_star):
        assert vertex_system(double_star).size == 4

    def test_double_star_sub1_marked_vertex(self, double_star_sub1):
        fs = vertex_system(double_star_sub1)
        assert fs.size == 4
        # the lone degree-2 vertex keeps the bare signature: exactly the
        # lifted paths crossing the subdivided edge contain it
        sig8 = frozenset(i for i, p in enumerate(fs.paths) if 8 in frozenset(p.vertices))
        crossing = frozenset(
            i for i, p in enumerate(fs.paths) if {0, 1} <= frozenset(p.vertices)
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
        t = _swap_tree()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BunchMismatchWarning)
            fs = vertex_system(t)
        assert fs.size <= vertex_upper_formula(profile(t))
        assert [p.vertices for p in fs.paths] == [
            (12, 2, 13),
            (13, 2, 6, 5, 4, 1, 8, 9),
            (10, 1, 11),
            (11, 1, 4, 5, 6, 2, 3, 0),
            (4, 1, 8),
            (6, 2, 3),
        ]
        fixes = Counter()
        _reference_vertex_paths(t, fixes)
        assert fixes == {"swap": 1, "handoff": 1}

    def test_unique_path_called_less_than_twice_per_path(self, monkeypatch):
        # one walk per lifted path, one per added pair for its headings, and
        # one per path an endpoint exchange rewrites
        calls = []
        real = vs.unique_path

        def counting(t, u, v):
            calls.append((u, v))
            return real(t, u, v)

        monkeypatch.setattr(vs, "unique_path", counting)
        fs = vertex_system(leafy_tree(1600, 1))
        assert fs.size == 1244
        assert len(calls) < 2 * fs.size

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

    def test_sandwich_on_trees_with_nine_and_ten_vertices(self):
        # the acceptance criteria check every tree with n <= 8
        warnings.simplefilter("ignore", BunchMismatchWarning)
        checked = eligible = 0
        for n in (9, 10):
            for t in enumerate_trees(n):
                p = profile(t)
                opt = min_separating(t, TargetSet.vertices(t)).size
                assert vertex_lower_bound(p) <= opt, t
                checked += 1
                try:
                    fs = vertex_system(t)
                except UnsupportedTree:
                    continue
                eligible += 1
                assert opt <= fs.size <= vertex_upper_formula(p), t
        assert (checked, eligible) == (153, 43)

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


def recount_cubic_leafy(t):
    """Reference for is_cubic_leafy, counting every degree: all degrees in
    {1, 3}, at least 4 vertices."""
    return t.n >= 4 and all(t.degree(v) in (1, 3) for v in t.vertices)


def recount_subdivided_cubic_leafy(t):
    """Reference for is_subdivided_cubic_leafy, counting every degree: a
    degree-{1,3} tree with every interior edge subdivided exactly once."""
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


def _subdivided_cubic_trees():
    """Every degree-{1,3} tree with n <= 12, with each interior edge
    subdivided 0, 1 or 2 times, in every combination."""
    for n in range(4, 13, 2):
        for t in enumerate_trees(n):
            if not recount_cubic_leafy(t):
                continue
            inner = profile(t).interior_edges
            for counts in product(range(3), repeat=len(inner)):
                edges = set(t.edges)
                fresh = iter(range(t.n, t.n + 2 * len(inner)))
                for (u, v), k in zip(inner, counts):
                    chain = [u] + [next(fresh) for _ in range(k)] + [v]
                    edges -= {(u, v)}
                    edges |= set(zip(chain, chain[1:]))
                yield Tree.from_edges(edges)


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

    def test_recognizers_equal_the_degree_recounts(self):
        trees = [Tree([0], [])] + [t for n in range(2, 13) for t in enumerate_trees(n)]
        trees += _subdivided_cubic_trees()
        positives = Counter()
        for t in trees:
            cubic, subdivided = recount_cubic_leafy(t), recount_subdivided_cubic_leafy(t)
            assert (is_cubic_leafy(t), is_subdivided_cubic_leafy(t)) == (cubic, subdivided), t
            positives[cubic, subdivided] += 1
        # K1,3 is in both families, twice: enumerated, and with no interior edge to subdivide
        assert positives == {(False, False): 1194, (True, False): 12, (False, True): 8, (True, True): 2}

    def test_recognizers_and_sharp_value_read_no_degree(self, k13, broom, double_star, monkeypatch):
        h = grow_cubic_leafy(k13, 1)
        trees = [k13, broom, double_star, h, subdivide_interior_edges(h), path_tree(5), star_tree(5)]
        cases = [
            (t, ts, sharp_value(t, ts))
            for t in trees
            for ts in (TargetSet.vertices(t), TargetSet.vertices_and_interior_edges(t))
        ]
        expected = [(recount_cubic_leafy(t), recount_subdivided_cubic_leafy(t)) for t in trees]

        def refuse(self, v):
            raise AssertionError("a degree was recounted")

        monkeypatch.setattr(trees_module.Host, "neighbors", refuse)
        monkeypatch.setattr(trees_module.Host, "degree", refuse)
        assert [(is_cubic_leafy(t), is_subdivided_cubic_leafy(t)) for t in trees] == expected
        for t, ts, value in cases:
            assert sharp_value(t, ts) == value


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

    def test_every_value_is_the_optimum_on_small_trees(self):
        # vertex targets on every tree with n <= 9, v-and-interior targets on
        # every tree with n <= 8
        checked = Counter()
        for n in range(2, 10):
            for t in enumerate_trees(n):
                targets = [TargetSet.vertices(t)]
                if n <= 8:
                    targets.append(TargetSet.vertices_and_interior_edges(t))
                for ts in targets:
                    value = sharp_value(t, ts)
                    if value is not None:
                        assert value == min_separating(t, ts).size, (t, ts.kind)
                        checked[ts.kind.value] += 1
        assert checked == {"vertices": 17, "v-and-interior": 3}

    def test_cubic_interior_target(self, k13):
        ts = TargetSet.vertices_and_interior_edges(k13)
        assert sharp_value(k13, ts) == 3

    def test_unrecognized_returns_none(self, broom):
        lone = Tree([0], [])  # neither a path nor a star: no leaf at all
        assert sharp_value(lone, TargetSet.vertices(lone)) is None
        assert sharp_value(broom, TargetSet.vertices(broom)) is None
        assert sharp_value(broom, TargetSet.edges(broom)) is None
        assert sharp_value(broom, TargetSet.vertices_and_interior_edges(broom)) is None


def _pinned_trees():
    for n in range(2, 11):
        yield from enumerate_trees(n)
    for n in range(2, 121):
        yield random_tree(n, n)
    for m in range(5, 65, 5):
        yield leafy_tree(m, m)


# sha256 of the vertex_system and vertex_interior_system vertex sequences
# over _pinned_trees(), recorded at commit ec54f3c (a fresh BFS per path);
# an unsupported tree adds its error name
VERTEX_DIGEST = "4854ce5858eb3f0f2487be0de406df0b167f80a1d0ddbd192b74b1bf69108dbc"


def test_outputs_match_pinned_digest():
    h = hashlib.sha256()
    count = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BunchMismatchWarning)
        for t in _pinned_trees():
            for build in (vertex_system, vertex_interior_system):
                try:
                    paths = build(t).paths
                except (UnsupportedTree, PreconditionViolated) as exc:
                    h.update(f"!{type(exc).__name__}\n".encode())
                else:
                    for p in paths:
                        h.update(" ".join(map(str, p.vertices)).encode() + b"\n")
                h.update(b"--\n")
            count += 1
    assert count == 331
    assert h.hexdigest() == VERTEX_DIGEST


# ---- reference: the endpoint exchange that rescans the whole family ----

class _ReferenceAddedPaths:
    """The added paths keyed by their two endpoints, rebuilt from scratch
    for every conflict test and every progress check."""

    def __init__(self, t):
        self.t = t
        self.pairs = []
        self.end_at = {}

    def add(self, u, v):
        self.pairs.append([u, v])
        self.end_at[u] = self.end_at[v] = len(self.pairs) - 1

    def partner(self, u):
        a, b = self.pairs[self.end_at[u]]
        return b if a == u else a

    def path_of(self, u):
        return unique_path(self.t, u, self.partner(u))

    def swap_partners(self, u, v):
        x, y = self.partner(u), self.partner(v)
        self.pairs[self.end_at[u]] = [u, y]
        self.pairs[self.end_at[v]] = [v, x]
        self.end_at[y] = self.end_at[u]
        self.end_at[x] = self.end_at[v]

    def hand_off(self, u, m):
        x = self.partner(u)
        idx = self.end_at.pop(u)
        self.pairs[idx] = [m, x]
        self.end_at[m] = idx

    def total_length(self):
        return sum(unique_path(self.t, a, b).length for a, b in self.pairs)

    def paths(self):
        return [unique_path(self.t, a, b) for a, b in self.pairs]


def _reference_find_conflict(addp, clean, bare_of):
    owners = sorted(addp.end_at)
    for u in owners:
        pu = frozenset(addp.path_of(u).vertices)
        for v in owners:
            if v <= u or bare_of.get(v) != bare_of.get(u):
                continue
            if v in pu and u in frozenset(addp.path_of(v).vertices):
                return ("swap", u, v)
        for m in clean:
            if bare_of.get(m) == bare_of.get(u) and m in pu:
                return ("handoff", u, m)
    return None


def _reference_vertex_paths(t, fixes):
    """The vertex_system family before its check, pairing by re-sorting
    every run and exchanging endpoints by whole-family rescans; counts the
    fixes of each kind into `fixes`."""
    prof = profile(t)
    contracted, _ = contract_bare_paths(t)
    lifted = [unique_path(t, a, b) for a, b in bunch_pairs(contracted)]
    runs, clean = {}, []
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
    addp = _ReferenceAddedPaths(t)
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
    bare_of = {v: i for i, bp in enumerate(prof.bare_paths) for v in bp.vertices[1:-1]}
    while True:
        conflict = _reference_find_conflict(addp, clean, bare_of)
        if conflict is None:
            break
        before = addp.total_length()
        kind, u, v = conflict
        fixes[kind] += 1
        if kind == "swap":
            addp.swap_partners(u, v)
        else:
            addp.hand_off(u, v)
            clean.remove(v)
            clean.append(u)
        assert addp.total_length() < before
    out = lifted + addp.paths()
    leftover = next(iter(runs.values()), None)
    if leftover:
        out.extend(sliding_window_cover(t, tuple(leftover)))
    return [p.vertices for p in out]


def test_endpoint_exchange_matches_whole_family_rescan():
    trees = [leafy_tree(m, s) for m in range(5, 121, 5) for s in range(4)]
    trees.append(_swap_tree())
    fixes = Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BunchMismatchWarning)
        for t in trees:
            assert [p.vertices for p in vertex_system(t).paths] == _reference_vertex_paths(t, fixes)
    # 10 swaps and 271 hand-offs on the leafy trees, one of each on _swap_tree
    assert fixes == {"swap": 11, "handoff": 272}


# ---- the skeleton map against the contracted Tree it replaced ----

def test_skeleton_walk_matches_the_contracted_tree():
    trees = [t for n in range(2, 12) for t in enumerate_trees(n)]
    trees += [leafy_tree(m, s) for m in range(5, 121, 5) for s in range(4)]
    paired = 0
    for t in trees:
        prof = profile(t)
        contracted, _ = contract_bare_paths(t)
        nbrs = {v: contracted.neighbors(v) for v in contracted.vertices}
        skeleton = vs._skeleton(prof)
        assert skeleton == {v: list(ns) for v, ns in nbrs.items()}, t
        groups = _bunch_groups(skeleton, prof.leaves[0])
        assert groups == _bunch_groups(nbrs, prof.leaves[0]), t
        if all(len(g) >= 2 for g in groups):
            assert _pair_bunches(skeleton, groups) == _pair_bunches(nbrs, groups), t
            paired += 1
    assert len(trees) == 531 and paired == 450, paired


def test_vertex_system_builds_no_tree(monkeypatch):
    trees = [t for n in range(2, 10) for t in enumerate_trees(n)]
    trees += [leafy_tree(m, m) for m in range(5, 65, 5)]
    built = 0
    real_fill = Tree._fill

    def counting_fill(self, *args):
        nonlocal built
        built += 1
        real_fill(self, *args)

    monkeypatch.setattr(Tree, "_fill", counting_fill)
    supported = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BunchMismatchWarning)
        for t in trees:
            try:
                vertex_system(t)
            except UnsupportedTree:
                continue
            supported += 1
    assert built == 0 and supported == 42, (built, supported)
