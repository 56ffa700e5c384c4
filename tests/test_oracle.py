"""The exact solver and the unlabeled tree enumerator."""

import hashlib
import itertools
import math
import random
import warnings

import pytest

from seppaths import (
    PathInTree,
    TargetSet,
    Tree,
    canonical_form,
    covers,
    profile,
    random_tree,
    separates,
    unique_path,
    vertex_lower_bound,
    vertex_system,
    vertex_upper_formula,
)
from seppaths import oracle
from seppaths.edge_systems import DEPTH2_BINARY, edge_target_size
from seppaths.errors import Infeasible, Timeout, TooLarge, UnsupportedTree
from seppaths.oracle import (
    _least_weight,
    _Search,
    enumerate_paths,
    enumerate_trees,
    exists_family,
    min_separating,
)
from seppaths.random_graphs import Graph, gen_gnp, isolated_count
from seppaths.vertex_systems import BunchMismatchWarning

from conftest import path_tree, star_tree


class TestEnumeratePaths:
    def test_p3_with_trivial(self, p3):
        paths = enumerate_paths(p3, include_trivial=True)
        assert len(paths) == 6
        assert [p.vertices for p in paths[:3]] == [(0,), (1,), (2,)]

    def test_k13_without_trivial(self, k13):
        assert len(enumerate_paths(k13, include_trivial=False)) == 6

    def test_e1_with_trivial(self, e1):
        assert len(enumerate_paths(e1, include_trivial=True)) == 3

    def test_cap(self):
        with pytest.raises(TooLarge):
            enumerate_paths(path_tree(13), include_trivial=False)
        for seed in range(3):
            with pytest.raises(TooLarge, match=f"^more than {oracle.GRAPH_PATH_CAP} simple paths$"):
                enumerate_paths(gen_gnp(12, 0.9, seed), include_trivial=False)

    def test_trees_in_pair_order(self):
        # the trivial paths by id, then the unique u-v path for each u < v
        trees = [Tree([0], [])] + [t for n in range(2, 10) for t in enumerate_trees(n)]
        for t in trees:
            pairs = [unique_path(t, u, v) for u, v in itertools.combinations(t.vertices, 2)]
            for inc in (True, False):
                trivial = [PathInTree((v,)) for v in t.vertices] if inc else []
                assert list(enumerate_paths(t, inc)) == trivial + pairs, t

    def test_graphs_match_brute_force(self):
        # every simple path once, from its lower end, by (start, end, sequence)
        for n, p, seed in itertools.product(range(2, 7), (0.4, 0.7), range(4)):
            g = gen_gnp(n, p, seed)
            reference = {
                seq
                for k in range(2, n + 1)
                for seq in itertools.permutations(g.vertices, k)
                if seq[0] < seq[-1] and all(g.has_edge(a, b) for a, b in zip(seq, seq[1:]))
            }
            got = [q.vertices for q in enumerate_paths(g, include_trivial=True)]
            assert got[:n] == [(v,) for v in g.vertices]
            paths = got[n:]
            assert len(set(paths)) == len(paths) and set(paths) == reference, (n, p, seed)
            assert paths == sorted(paths, key=lambda seq: (seq[0], seq[-1], seq))


class TestMinSeparating:
    def test_depth2_binary_edges(self, depth2):
        assert min_separating(depth2, TargetSet.edges(depth2)).size == 4

    def test_p4_vertices(self, p4):
        assert min_separating(p4, TargetSet.vertices(p4)).size == 3

    def test_k13_vertices_and_interior(self, k13):
        ts = TargetSet.vertices_and_interior_edges(k13)
        assert min_separating(k13, ts).size == 3

    def test_e1_edges(self, e1):
        assert min_separating(e1, TargetSet.edges(e1)).size == 1

    def test_certificates_verify(self):
        for n in range(2, 7):
            for t in enumerate_trees(n):
                for ts in (TargetSet.edges(t), TargetSet.vertices(t)):
                    res = min_separating(t, ts)
                    assert separates(res.system, ts) and covers(res.system, ts)

    def test_one_below_minimum_is_infeasible(self):
        for n in range(2, 8):
            for t in enumerate_trees(n):
                ts = TargetSet.vertices(t)
                size = min_separating(t, ts).size
                assert not exists_family(t, ts, size - 1), (t, size)

    def test_separation_only_never_larger(self):
        for n in range(2, 7):
            for t in enumerate_trees(n):
                ts = TargetSet.vertices(t)
                assert (
                    min_separating(t, ts, require_cover=False).size
                    <= min_separating(t, ts, require_cover=True).size
                )

    def test_trivial_path_inclusion_is_monotone(self):
        # a richer candidate set can only help: the inclusive optimum is a
        # lower bound for the optimum over non-trivial paths alone
        for n in range(2, 7):
            for t in enumerate_trees(n):
                ts = TargetSet.vertices(t)
                inclusive = min_separating(t, ts, include_trivial=True).size
                try:
                    exclusive = min_separating(t, ts, include_trivial=False).size
                except Infeasible:
                    continue  # no non-trivial family at all: trivially not below
                assert inclusive <= exclusive

    def test_timeout(self):
        t = path_tree(10)
        with pytest.raises(Timeout):
            min_separating(t, TargetSet.vertices(t), budget_ms=0.001)

    @pytest.mark.parametrize("budget", [float("nan"), -1.0])
    def test_bad_budget_rejected(self, budget):
        # NaN would never pass the deadline, so the search would run unbounded
        t = path_tree(10)
        with pytest.raises(ValueError):
            min_separating(t, TargetSet.vertices(t), budget_ms=budget)

    def test_zero_budget_times_out(self):
        t = path_tree(10)
        with pytest.raises(Timeout):
            min_separating(t, TargetSet.vertices(t), budget_ms=0.0)

    def test_timeout_carries_the_refuted_sizes(self):
        # the first clock check comes after 1024 nodes, whatever the budget,
        # so it falls while some size between the floor and the optimum is
        # under search, every smaller size already refuted
        t = path_tree(10)
        ts = TargetSet.vertices(t)
        with pytest.raises(Timeout) as caught:
            min_separating(t, ts, budget_ms=0)
        bound = caught.value.lower_bound
        assert _Search(t, ts, True, None).floor() <= bound <= 6
        assert str(caught.value).endswith(f"; no family of size < {bound} exists")

    def test_too_large(self):
        with pytest.raises(TooLarge):
            min_separating(path_tree(13), TargetSet.edges(path_tree(13)))

    def test_exists_family_cap_and_negative_size(self, p4):
        with pytest.raises(TooLarge):
            exists_family(path_tree(13), TargetSet.edges(path_tree(13)), 7)
        assert exists_family(p4, TargetSet.edges(p4), -1) is False


def _targets(t):
    return (TargetSet.edges(t), TargetSet.vertices(t), TargetSet.vertices_and_interior_edges(t))


def _state(ts, paths, cover):
    """The search state a family reaches, computed from its signatures: the
    same-signature groups of at least two elements and, when covering, the
    unhit elements, as bitmasks over ts.elements."""
    classes: dict[frozenset, int] = {}
    for i, s in enumerate(ts.elements):
        sig = frozenset(
            j for j, p in enumerate(paths)
            if (s in frozenset(p.vertices) if isinstance(s, int) else s in frozenset(p.edges()))
        )
        classes[sig] = classes.get(sig, 0) | 1 << i
    groups = tuple(g for g in classes.values() if g & (g - 1))
    return groups, classes.get(frozenset(), 0) if cover else 0


def _completes(groups, uncovered, family):
    """Whether adding the path masks in family to a search state splits every
    group into singletons and hits every uncovered element."""
    parts = list(groups)
    for mask in family:
        uncovered &= ~mask
        parts = [q for p in parts for q in (p & mask, p & ~mask) if q]
    return not uncovered and all(not p & (p - 1) for p in parts)


# sha256 of (size, path vertex sequences) of min_separating over
# enumerate_trees(2..7) x three targets x cover on/off x include_trivial
# None/True, recorded at commit 0352b0c, before the path-end bound; pruning
# must leave the first family found, and so every result, unchanged
ORACLE_DIGEST = "75692cc847e6d65373823e0b0dda2b3b661fae8db8aec2675dc41b5c5e8b102f"

# sha256 of (size, path vertex sequences) of min_separating with cover over
# enumerate_trees(8) and enumerate_trees(9), edge and vertex targets, each
# tree renumbered by one draw of random.Random(14): the sizes the benchmark's
# oracle workload solves, recorded at commit 0313e1d, before the left-aware
# leaf count and the lone-pair count
BENCH_DIGEST = "657e9cca610d780fc79128962caa714a977394fc6be919fcc419e5ef9668d4db"


class TestPruning:
    def test_outputs_match_pinned_digest(self):
        h = hashlib.sha256()
        for n in range(2, 8):
            for t in enumerate_trees(n):
                for ts in _targets(t):
                    for cover in (True, False):
                        for trivial in (None, True):
                            res = min_separating(
                                t, ts, require_cover=cover, include_trivial=trivial
                            )
                            paths = [p.vertices for p in res.system.paths]
                            h.update(repr((res.size, paths)).encode())
        assert h.hexdigest() == ORACLE_DIGEST

    def test_root_bound_never_exceeds_the_optimum(self):
        # v-and-interior targets stop at n = 8: at n = 9 their solves take
        # about 35 s
        for n in range(2, 10):
            for t in enumerate_trees(n):
                for ts in _targets(t)[: 3 if n <= 8 else 2]:
                    search = _Search(t, ts, True, None)
                    ends = search.required_ends(*_state(ts, (), True))
                    assert (ends + 1) // 2 <= min_separating(t, ts).size, (t, ts.kind)

    def test_bound_holds_at_every_prefix_of_a_working_family(self):
        # a working family completes the state of each of its prefixes, so
        # the ends that state requires fit in the paths after the prefix
        rng = random.Random(6)
        checked = 0
        for n in range(2, 8):
            for t in enumerate_trees(n):
                # every vertex and edge, so that a leaf's vertex and its
                # pendant edge are both targets (too slow beyond n = 5)
                everything = (TargetSet.custom(t, [*t.vertices, *t.edges]),) if n <= 5 else ()
                for ts in (*_targets(t), *everything):
                    for cover in (True, False):
                        search = _Search(t, ts, cover, None)
                        paths = list(min_separating(t, ts, require_cover=cover).system.paths)
                        extra = [p for p in search.cands if p not in paths]
                        paths += rng.sample(extra, min(2, len(extra)))
                        rng.shuffle(paths)
                        for cut in range(len(paths) + 1):
                            groups, uncovered = _state(ts, paths[:cut], cover)
                            ends = search.required_ends(groups, uncovered)
                            assert ends <= 2 * (len(paths) - cut), (t, ts.kind, cut)
                            checked += 1
        assert checked > 1000

    def test_left_aware_bound_holds_at_every_prefix_of_a_working_family(self):
        # as above, but the state at cut knows that K - cut paths are left
        rng = random.Random(14)
        hosts = [
            (t, _targets(t)[: 3 if n <= 7 else 2]) for n in range(2, 9) for t in enumerate_trees(n)
        ]
        hosts += [
            (t, (TargetSet.custom(t, [*t.vertices, *t.edges]),))
            for n in range(2, 6) for t in enumerate_trees(n)
        ]
        for seed in range(12):
            g = gen_gnp(6, 0.4, seed)
            hosts.append((g, (TargetSet.vertices(g), TargetSet.edges(g))))
        checked = 0
        for host, targets in hosts:
            for ts in targets:
                for cover in (True, False):
                    search = _Search(host, ts, cover, None)
                    paths = list(min_separating(host, ts, require_cover=cover).system.paths)
                    extra = [p for p in search.cands if p not in paths]
                    paths += rng.sample(extra, min(rng.randint(0, 2), len(extra)))
                    rng.shuffle(paths)
                    for cut in range(len(paths) + 1):
                        left = len(paths) - cut
                        groups, uncovered = _state(ts, paths[:cut], cover)
                        ends = search.required_ends(groups, uncovered, left=left)
                        assert ends <= 2 * left, (host.edges, ts.kind, cover, cut)
                        checked += 1
        assert checked > 1500

    @pytest.mark.parametrize("nonempty", [False, True])
    def test_least_weight_matches_subset_enumeration(self, nonempty):
        for k in range(6):
            subsets = [x for x in range(1 << k) if x or not nonempty]
            sizes = sorted(x.bit_count() for x in subsets)
            for c in range((1 << k) + 1):
                expected = sum(sizes[:c]) if c <= len(sizes) else math.inf
                assert _least_weight(c, k, nonempty) == expected, (c, k)
            if k <= 3:  # every family of distinct subsets, not just the smallest
                best = {}
                for family in range(1 << len(subsets)):
                    c = family.bit_count()
                    w = sum(subsets[i].bit_count() for i in range(len(subsets)) if family >> i & 1)
                    best[c] = min(best.get(c, w), w)
                for c in range((1 << k) + 1):
                    assert _least_weight(c, k, nonempty) == best.get(c, math.inf), (c, k)

    def test_bench_sized_outputs_match_pinned_digest(self):
        h = hashlib.sha256()
        rng = random.Random(14)
        for n in (8, 9):
            for t in enumerate_trees(n):
                perm = list(range(t.n))
                rng.shuffle(perm)
                relabelled = Tree.from_edges([(perm[u], perm[v]) for u, v in t.edges])
                for ts in (TargetSet.edges(relabelled), TargetSet.vertices(relabelled)):
                    res = min_separating(relabelled, ts, require_cover=True)
                    paths = [p.vertices for p in res.system.paths]
                    h.update(repr((res.size, paths)).encode())
        assert h.hexdigest() == BENCH_DIGEST

    def test_leaf_signatures_and_lone_pairs_cut_vertex_target_refutations(self):
        # before the left-aware leaf count and the lone-pair count these
        # took 80189 and 603649 nodes
        star = star_tree(8)
        assert min_separating(star, TargetSet.vertices(star)).nodes_expanded <= 100
        t = path_tree(10)
        assert min_separating(t, TargetSet.vertices(t)).nodes_expanded <= 250000

    def test_refuted_state_table_cuts_v_and_interior_refutations(self):
        # before the table this took 113610 nodes
        t = enumerate_trees(8)[9]
        assert min_separating(t, TargetSet.vertices_and_interior_edges(t)).nodes_expanded <= 70000

    @pytest.mark.parametrize("n, edge_targets, prefix, left, ends", [
        # vertex targets on 0-...-5 after the path 0-1-2: leaf 5 needs an
        # end, and so does each of the lone pairs {1, 2} and {3, 4}, which
        # share a signature; {2, 3} is already split
        (6, [], (0, 1, 2), 3, 3),
        # vertex targets and the edge (3, 4) on 0-...-7 after 2-3-4-5: the
        # uncovered leaves 0 and 7 need an end each, and 3 and 4 each share
        # a signature with (3, 4) and so need a path ending there; the lone
        # pairs {1, 2} and {5, 6} are split
        (8, [(3, 4)], (2, 3, 4, 5), 4, 4),
    ])
    def test_lone_pairs_count_one_end_each_on_a_hand_built_prefix(
        self, n, edge_targets, prefix, left, ends
    ):
        t = path_tree(n)
        ts = TargetSet.custom(t, [*t.vertices, *edge_targets])
        search = _Search(t, ts, True, None)
        groups, uncovered = _state(ts, [PathInTree(prefix)], True)
        assert search.required_ends(groups, uncovered, left=left) == ends

    def test_edge_targets_expand_few_nodes(self):
        # without the path-end bound the search expanded 139381 nodes here
        t = random_tree(12, 1)
        assert min_separating(t, TargetSet.edges(t)).nodes_expanded <= 1000


class TestRootDecision:
    def test_sizes_below_the_floor_fail_and_the_root_expands_nothing(self):
        # the log2 test can fail only at the root, so at_most decides it
        # there before the search and no node is counted
        for n in range(2, 8):
            for t in enumerate_trees(n):
                for ts in _targets(t):
                    for cover in (True, False):
                        floor = _Search(t, ts, cover, None).floor()
                        for k in range(floor):
                            assert exists_family(t, ts, k, cover) is False, (t, ts.kind, cover, k)
                        for k in range(oracle._ceil_log2(len(ts))):
                            search = _Search(t, ts, cover, None)
                            assert search.at_most(k) is None, (t, ts.kind, cover, k)
                            assert search.nodes == 0, (t, ts.kind, cover, k)


class TestRefutedStates:
    def test_every_entry_has_no_completion(self):
        # a refuted entry claims that no left candidates from masks[start:]
        # complete its state; check each claim against every such set
        checked = 0
        for n in range(2, 7):
            for t in enumerate_trees(n):
                for ts in _targets(t):
                    search = _Search(t, ts, True, None)
                    k = search.floor()
                    while search.at_most(k) is None:
                        k += 1
                    assert k == min_separating(t, ts).size
                    for (start, groups, uncovered), left in search.refuted.items():
                        rest = search.masks[start:]
                        for size in range(left + 1):
                            for family in itertools.combinations(rest, size):
                                assert not _completes(groups, uncovered, family), (
                                    t.edges, ts.kind, start, size
                                )
                        checked += 1
        assert checked > 500

    def test_clearing_the_table_leaves_every_result(self, monkeypatch):
        cases = [(t, ts) for n in range(2, 8) for t in enumerate_trees(n) for ts in _targets(t)]

        def solve():
            out, largest = [], 0
            for t, ts in cases:
                search = _Search(t, ts, True, None)
                k = search.floor()
                while (picked := search.at_most(k)) is None:
                    k += 1
                largest = max(largest, len(search.refuted))
                out.append((k, [search.cands[i].vertices for i in picked]))
            return out, largest

        unpatched, largest = solve()
        assert largest > 4
        monkeypatch.setattr(oracle, "REFUTED_CAP", 4)
        patched, largest = solve()
        assert largest <= 4
        assert patched == unpatched


class TestGraphOracle:
    def test_isolated_lower_bound_on_sparse_graphs(self):
        checked = 0
        for seed in range(120):
            g = gen_gnp(7, 0.18, seed)
            if isolated_count(g) == 0:
                continue
            try:
                res = min_separating(g, TargetSet.vertices(g))
            except TooLarge:
                continue
            assert isolated_count(g) <= res.size
            checked += 1
        assert checked >= 10

    def test_simple_path_enumeration_matches_tree_count(self, p4):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        no_trivial = enumerate_paths(g, include_trivial=False)
        assert len(no_trivial) == 6  # C(4,2) pairs, unique paths in a path graph


# the vertex optimum of every tree with n = 11 and 12, one "n size" line per
# tree in enumerate_trees order, and the README tightness counts they give
VERTEX_SWEEP_DIGEST = "6578463f369a179d062d019c8b50ba6551339838bcdc8477dd44144b8c932a4d"
VERTEX_TIGHTNESS = {11: [235, 194, 53, 15], 12: [551, 490, 101, 25]}


class TestEnumerateTrees:
    def test_counts(self):
        expected = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}
        for n, count in expected.items():
            assert len(enumerate_trees(n)) == count

    def test_n4_trees(self):
        forms = {canonical_form(t) for t in enumerate_trees(4)}
        p4 = Tree.from_edges([(0, 1), (1, 2), (2, 3)])
        k13 = Tree.from_edges([(0, 1), (0, 2), (0, 3)])
        assert forms == {canonical_form(p4), canonical_form(k13)}

    def test_n7_contains_depth2_binary(self):
        ta_form = canonical_form(DEPTH2_BINARY)
        assert ta_form in {canonical_form(t) for t in enumerate_trees(7)}

    def test_edge_optimum_equals_the_target_size_up_to_the_cap(self):
        # the acceptance criteria solve every tree with n <= 8
        solved = 0
        for n in range(9, oracle.MAX_N + 1):
            for t in enumerate_trees(n):
                assert min_separating(t, TargetSet.edges(t)).size == edge_target_size(t), t
                solved += 1
        assert solved == 939

    @pytest.mark.slow
    def test_vertex_optima_at_eleven_and_twelve_match_pinned_digest(self):
        """About two minutes on a 2-vCPU VM: ``pytest -m slow tests/test_oracle.py``.

        Checks the vertex sandwich on every tree with n = 11 and 12, and
        pins the optima and README's tightness counts per n: trees, lower
        bound = optimum, ``vertex_system`` applies, ``vertex_system`` =
        optimum."""
        h = hashlib.sha256()
        tight = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BunchMismatchWarning)
            for n in (11, 12):
                counts = [0, 0, 0, 0]
                for t in enumerate_trees(n):
                    p = profile(t)
                    opt = min_separating(t, TargetSet.vertices(t)).size
                    h.update(f"{n} {opt}\n".encode())
                    assert vertex_lower_bound(p) <= opt, t
                    counts[0] += 1
                    counts[1] += vertex_lower_bound(p) == opt
                    try:
                        size = vertex_system(t).size
                    except UnsupportedTree:
                        continue
                    assert opt <= size <= vertex_upper_formula(p), t
                    counts[2] += 1
                    counts[3] += size == opt
                tight[n] = counts
        assert tight == VERTEX_TIGHTNESS
        assert h.hexdigest() == VERTEX_SWEEP_DIGEST

    def test_out_of_range(self):
        with pytest.raises(TooLarge):
            enumerate_trees(13)
        with pytest.raises(TooLarge):
            enumerate_trees(1)
