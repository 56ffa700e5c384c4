"""The exact solver and the unlabeled tree enumerator."""

import hashlib
import itertools
import math
import random
import time
import warnings

import pytest

from seppaths import (
    PathInTree,
    TargetSet,
    Tree,
    canonical_form,
    covers,
    edge,
    profile,
    random_tree,
    separates,
    sharp_value,
    unique_path,
    vertex_interior_system,
    vertex_lower_bound,
    vertex_system,
    vertex_upper_formula,
)
from seppaths import oracle
from seppaths.edge_systems import DEPTH2_BINARY, edge_system, edge_target_size
from seppaths.errors import PreconditionViolated, Timeout, TooLarge, UnsupportedTree
from seppaths.oracle import (
    _least_weight,
    _paths,
    _Search,
    _tree_ends,
    enumerate_paths,
    enumerate_trees,
    exists_family,
    min_separating,
)
from seppaths.random_graphs import Graph, gen_gnp, isolated_count
from seppaths.vertex_systems import BunchMismatchWarning

from conftest import path_tree, spider_tree, star_tree


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


def _relabelled(t, ids):
    """t with its vertices, in id order, renamed to ids."""
    new = dict(zip(t.vertices, ids))
    return Tree([new[v] for v in t.vertices], [(new[u], new[v]) for u, v in t.edges])


def _reference_tables(host, ts):
    """The leaf mask, end masks and twin classes of a search, built from
    each vertex's list of target bits: its own, then its edges' in
    neighbour order."""
    bit = {s: 1 << i for i, s in enumerate(ts.elements)}
    nbrs = host._adj
    own = {
        v: [bit[s] for s in (v, *(edge(v, w) for w in ws)) if s in bit]
        for v, ws in nbrs.items()
    }
    lone = {v for v, bits in own.items() if v in bit and len(bits) == 1 and len(nbrs[v]) <= 2}
    leaf_mask = 0
    end_masks = []
    classes = {}
    for v, ws in nbrs.items():
        bits = own[v]
        if len(ws) <= 1 and bits:
            leaf_mask |= bits[0]
            if ws:
                classes.setdefault((ws[0], v in bit, len(bits)), []).append(v)
        elif len(ws) == 2 and len(bits) >= 2:
            leaves = (bit[u] for u in ws if u in lone and len(nbrs[u]) == 1)
            end_masks.append(sum(bits) + sum(leaves))
        if v in lone:
            end_masks += (bits[0] | own[w][0] for w in ws if w > v and w in lone)
    twins = []
    for leaves in classes.values():
        if len(leaves) > 1:
            bits = [own[v][0] for v in sorted(leaves)]
            if bits == sorted(bits):
                twins.append(sum(bits))
    return leaf_mask, tuple(end_masks), twins


class TestTreeEnds:
    """On a tree the search takes its candidates as end pairs whose masks
    come from one rooted pass; they match the depth-first path search."""

    @staticmethod
    def _cases():
        """Every tree with n <= 9 and two seeded relabelings of each, one
        onto 0..n-1 and one onto sparse ids, with edge, vertex,
        v-and-interior and a random mixed custom target set."""
        rng = random.Random(34)
        trees = [Tree([0], [])] + [t for n in range(2, 10) for t in enumerate_trees(n)]
        cases = []
        for t in trees:
            for host in (t, _relabelled(t, rng.sample(range(t.n), t.n)),
                         _relabelled(t, rng.sample(range(100), t.n))):
                mixed = [s for s in (*host.vertices, *host.edges) if rng.random() < 0.5]
                cases += [(host, ts) for ts in (*_targets(host), TargetSet.custom(host, mixed))]
        assert len(cases) == 4 * 3 * 95
        return cases

    def test_end_pairs_and_masks_match_the_path_search(self):
        for host, ts in self._cases():
            bit = {s: 1 << i for i, s in enumerate(ts.elements)}
            for inc in (True, False):
                pairs, masks = _tree_ends(host, inc, bit)
                paths, want = _paths(host, inc, bit)
                assert pairs == [p.endpoints for p in paths], (host.edges, inc)
                assert masks == want, (host.edges, ts.elements, inc)

    def test_search_keeps_the_candidate_order_and_tables(self):
        # the order the search used when it took its candidates from the
        # path search: most element pairs split first, ties by index; each
        # target set also out of order, as the twin rule reads bit order
        for host, ordered in self._cases():
            for ts in (ordered, TargetSet(ordered.kind, ordered.elements[::-1])):
                search = _Search(host, ts, True, None)
                m = len(ts.elements)
                bit = {s: 1 << i for i, s in enumerate(ts.elements)}
                paths, masks = _paths(host, any(isinstance(s, int) for s in ts.elements), bit)
                order = sorted(
                    range(len(paths)),
                    key=lambda i: (-(masks[i].bit_count() * (m - masks[i].bit_count())), i),
                )
                assert _candidate_paths(search) == [paths[i] for i in order], (host.edges, ts)
                assert search.masks == [masks[i] for i in order], (host.edges, ts)
                got = (search.leaf_mask, search.end_masks, search.twins)
                assert got == _reference_tables(host, ts), (host.edges, ts)

    def test_graph_tables_match_their_definitions(self):
        rng = random.Random(35)
        for seed in range(40):
            g = gen_gnp(4 + seed % 5, (0.2, 0.35, 0.5)[seed % 3], seed)
            mixed = [s for s in (*g.vertices, *g.edges) if rng.random() < 0.5]
            for ts in (TargetSet.edges(g), TargetSet.vertices(g), TargetSet.custom(g, mixed)):
                search = _Search(g, ts, True, None)
                got = (search.leaf_mask, search.end_masks, search.twins)
                assert got == _reference_tables(g, ts), (g.edges, ts)

    def test_enumerate_paths_on_trees_is_unchanged(self):
        for host, ts in self._cases()[::4]:
            for inc in (True, False):
                assert enumerate_paths(host, inc) == _paths(host, inc, {})[0], (host.edges, inc)

    def test_a_tree_solve_walks_only_its_answer(self, monkeypatch):
        # no depth-first path search on a tree, and one walk per returned path
        real_paths, real_walk = oracle._paths, oracle.unique_path
        walked = []

        def refuse(host, *args):
            assert not isinstance(host, Tree), "a tree host reached the path search"
            return real_paths(host, *args)

        def counting(t, u, v):
            walked.append((u, v))
            return real_walk(t, u, v)

        monkeypatch.setattr(oracle, "_paths", refuse)
        monkeypatch.setattr(oracle, "unique_path", counting)
        rng = random.Random(14)
        solves = 0
        for n in range(2, 10):
            for t in enumerate_trees(n):
                for _ in range(2):
                    host = _relabelled(t, rng.sample(range(t.n), t.n))
                    for ts in (TargetSet.edges(host), TargetSet.vertices(host)):
                        walked.clear()
                        res = min_separating(host, ts)
                        assert len(walked) == res.size, (host.edges, ts.kind)
                        assert walked == [p.endpoints for p in res.system.paths]
                        solves += 1
        assert solves == 376
        g = gen_gnp(6, 0.5, 3)
        walked.clear()
        assert min_separating(g, TargetSet.vertices(g)).size and not walked


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

    def test_candidates_hold_length_0_paths_exactly_when_a_target_is_a_vertex(self):
        tree, graph = spider_tree((2, 1, 1)), gen_gnp(6, 0.5, 3)
        for host, mixed in (
            (tree, TargetSet.vertices_and_interior_edges(tree)),
            (graph, TargetSet.custom(graph, [0, *graph.edges])),  # a vertex and every edge
        ):
            for ts, trivial in (
                (TargetSet.edges(host), False),
                (TargetSet.vertices(host), True),
                (mixed, True),
                (TargetSet.custom(host, [0]), True),
                (TargetSet.custom(host, []), False),
            ):
                cands = _candidate_paths(_Search(host, ts, True, None))
                length_0 = [p.vertices for p in cands if len(p.vertices) == 1]
                assert length_0 == ([(v,) for v in host.vertices] if trivial else []), ts
                want = enumerate_paths(host, trivial)
                assert sorted(p.vertices for p in cands) == sorted(p.vertices for p in want)

    def test_timeout(self):
        # v-and-interior targets: with vertex targets this path solves in
        # 9 nodes, before the first clock check
        t = path_tree(10)
        with pytest.raises(Timeout):
            min_separating(t, TargetSet.vertices_and_interior_edges(t), budget_ms=0.001)

    def test_clock_read_at_every_1024th_node_only_with_a_budget(self, monkeypatch):
        t = enumerate_trees(8)[9]
        ts = TargetSet.vertices_and_interior_edges(t)
        real = time.monotonic
        reads = []

        def counting():
            reads.append(None)
            return real()

        monkeypatch.setattr(oracle.time, "monotonic", counting)
        per_budget = {}
        for budget in (None, 1e9):
            reads.clear()
            res = min_separating(t, ts, budget_ms=budget)
            assert res.nodes_expanded == 22140
            per_budget[budget] = len(reads)
        # the deadline, then one read per 1024 nodes
        assert per_budget[1e9] - per_budget[None] == 1 + 22140 // 1024

    @pytest.mark.parametrize("budget", [float("nan"), -1.0])
    def test_bad_budget_rejected(self, budget):
        # NaN would never pass the deadline, so the search would run unbounded
        t = path_tree(10)
        with pytest.raises(ValueError):
            min_separating(t, TargetSet.vertices(t), budget_ms=budget)

    def test_zero_budget_times_out(self):
        t = path_tree(10)
        with pytest.raises(Timeout):
            min_separating(t, TargetSet.vertices_and_interior_edges(t), budget_ms=0.0)

    def test_timeout_carries_the_refuted_sizes(self):
        # the first clock check comes after 1024 nodes, whatever the budget,
        # so it falls while some size between the floor and the optimum is
        # under search, every smaller size already refuted
        t = path_tree(10)
        ts = TargetSet.vertices_and_interior_edges(t)
        with pytest.raises(Timeout) as caught:
            min_separating(t, ts, budget_ms=0)
        bound = caught.value.lower_bound
        assert _Search(t, ts, True, None).floor() <= bound <= 9
        assert str(caught.value).endswith(f"; no family of size < {bound} exists")

    def test_too_large(self):
        with pytest.raises(TooLarge):
            min_separating(path_tree(13), TargetSet.edges(path_tree(13)))

    def test_exists_family_cap_and_negative_size(self, p4):
        with pytest.raises(TooLarge):
            exists_family(path_tree(13), TargetSet.edges(path_tree(13)), 7)
        assert exists_family(p4, TargetSet.edges(p4), -1) is False


def _candidate_paths(search):
    """Every candidate of a search as a path, in its candidate order."""
    return [search.path(i) for i in range(len(search.cands))]


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


def _solve(search):
    """Iterative deepening on one search, as min_separating does it: the
    least size with a family and that family's path vertex sequences."""
    k = search.floor()
    while (picked := search.at_most(k)) is None:
        k += 1
    return k, [search.path(i).vertices for i in picked]


def _completes(groups, uncovered, family):
    """Whether adding the path masks in family to a search state splits every
    group into singletons and hits every uncovered element."""
    parts = list(groups)
    for mask in family:
        uncovered &= ~mask
        parts = [q for p in parts for q in (p & mask, p & ~mask) if q]
    return not uncovered and all(not p & (p - 1) for p in parts)


# sha256 of (size, path vertex sequences) of min_separating over
# enumerate_trees(2..7) x three targets x cover on/off, with the candidates
# that follow the targets, recorded at commit c30e4b3; pruning must leave the
# first family found, and so every result, unchanged
ORACLE_DIGEST = "4889543d918e0af8589b63c3c0f4dab5c8f4fcdfe6d16878e07d9a2f2dd81c51"
# the total nodes_expanded of those solves, 97387 before twin skips: a
# pruning change shows here even when it leaves every result
ORACLE_NODES = 75873

# sha256 of (size, path vertex sequences) of min_separating with cover over
# enumerate_trees(8) and enumerate_trees(9), edge and vertex targets, each
# tree renumbered by one draw of random.Random(14): the sizes the benchmark's
# oracle workload solves, recorded at commit 0313e1d, before the left-aware
# leaf count and the lone-pair count
BENCH_DIGEST = "657e9cca610d780fc79128962caa714a977394fc6be919fcc419e5ef9668d4db"
# the total nodes_expanded of those solves, 26259 before twin skips
BENCH_NODES = 15706


class TestPruning:
    def test_outputs_match_pinned_digest(self):
        h = hashlib.sha256()
        nodes = 0
        for n in range(2, 8):
            for t in enumerate_trees(n):
                for ts in _targets(t):
                    for cover in (True, False):
                        res = min_separating(t, ts, require_cover=cover)
                        paths = [p.vertices for p in res.system.paths]
                        h.update(repr((res.size, paths)).encode())
                        nodes += res.nodes_expanded
        assert h.hexdigest() == ORACLE_DIGEST
        assert nodes == ORACLE_NODES

    def test_root_bound_never_exceeds_the_optimum(self):
        # v-and-interior targets stop at n = 8: at n = 9 their solves take
        # about 5 to 8 s
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
                        extra = [p for p in _candidate_paths(search) if p not in paths]
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
                    extra = [p for p in _candidate_paths(search) if p not in paths]
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
        nodes = 0
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
                    nodes += res.nodes_expanded
        assert h.hexdigest() == BENCH_DIGEST
        assert nodes == BENCH_NODES

    def test_leaf_signatures_and_lone_pairs_cut_vertex_target_refutations(self):
        # before the left-aware leaf count and the lone-pair count these
        # took 80189 and 603649 nodes
        star = star_tree(8)
        assert min_separating(star, TargetSet.vertices(star)).nodes_expanded <= 100
        t = path_tree(10)
        assert min_separating(t, TargetSet.vertices(t)).nodes_expanded <= 250000

    def test_lone_leaves_next_to_degree_2_vertices_cut_both_vertex_targets(self):
        # before a lone leaf paired with its degree-2 neighbour and joined
        # its mask these took 139311 and 61011 nodes
        t = path_tree(10)
        assert min_separating(t, TargetSet.vertices(t)).nodes_expanded <= 100
        t = enumerate_trees(8)[9]
        assert min_separating(t, TargetSet.vertices_and_interior_edges(t)).nodes_expanded <= 30000

    def test_refuted_state_table_cuts_v_and_interior_refutations(self):
        # before the table this took 113610 nodes
        t = enumerate_trees(8)[9]
        assert min_separating(t, TargetSet.vertices_and_interior_edges(t)).nodes_expanded <= 70000

    @pytest.mark.parametrize("n, edge_targets, prefix, left, ends", [
        # vertex targets on 0-...-5 after the path 0-1-2: leaf 5 needs an
        # end, and so does each of the lone pairs {0, 1}, {1, 2}, {3, 4}
        # and {4, 5}, which share a signature; {2, 3} is already split
        (6, [], (0, 1, 2), 3, 5),
        # vertex targets and the edge (3, 4) on 0-...-7 after 2-3-4-5: the
        # uncovered leaves 0 and 7 need an end each, 3 and 4 each share a
        # signature with (3, 4) and so need a path ending there, and so do
        # the uncovered lone pairs {0, 1} and {6, 7}; {1, 2} and {5, 6} are
        # split
        (8, [(3, 4)], (2, 3, 4, 5), 4, 6),
    ])
    def test_lone_pairs_count_one_end_each_on_a_hand_built_prefix(
        self, n, edge_targets, prefix, left, ends
    ):
        t = path_tree(n)
        ts = TargetSet.custom(t, [*t.vertices, *edge_targets])
        search = _Search(t, ts, True, None)
        groups, uncovered = _state(ts, [PathInTree(prefix)], True)
        assert search.required_ends(groups, uncovered, left=left) == ends

    @pytest.mark.parametrize("t, target, prefix, left, ends", [
        # vertex targets on the spider with legs 0-1-2, 0-3-4 and 0-5-6
        # after the path 2-1-0: the uncovered leaves 4 and 6 need an end
        # each, and each leg's leaf shares a signature with its degree-2
        # vertex, so each of {1, 2}, {3, 4} and {5, 6} needs one more: the
        # leaf's length-0 path, or a path ending at the degree-2 vertex on
        # the side away from the leaf
        (spider_tree((2, 2, 2)), 1, (2, 1, 0), 3, 5),
        # v-and-interior targets on 0-...-4 after 2-3-4: leaf 0 needs an
        # end; 0, 1 and (1, 2) share a signature, so two paths end at 1 or
        # are the length-0 path at 0, and the same goes for 3, 4 and (2, 3)
        # at 3; 2 and (2, 3) need one path ending at 2
        (path_tree(5), 2, (2, 3, 4), 3, 6),
    ], ids=["spider-vertices", "path-v-and-interior"])
    def test_lone_leaves_next_to_degree_2_vertices_count_on_a_hand_built_prefix(
        self, t, target, prefix, left, ends
    ):
        ts = _targets(t)[target]
        search = _Search(t, ts, True, None)
        groups, uncovered = _state(ts, [PathInTree(prefix)], True)
        assert search.required_ends(groups, uncovered, left=left) == ends

    def test_edge_targets_expand_few_nodes(self):
        # without the path-end bound the search expanded 139381 nodes here
        t = random_tree(12, 1)
        assert min_separating(t, TargetSet.edges(t)).nodes_expanded <= 1000


def _mixed_twins(host, ts):
    """Whether two leaves on one support differ in the target status of the
    leaf or of its pendant edge, so that they are not twins."""
    statuses: dict[int, set] = {}
    for v, ws in host._adj.items():
        if len(ws) == 1:
            s = ws[0]
            statuses.setdefault(s, set()).add((v in ts.elements, edge(v, s) in ts.elements))
    return any(len(st) > 1 for st in statuses.values())


class TestTwinSkips:
    """Leaves on one support with the same target status for the leaf and
    its pendant edge are twins; the search skips a child whose path ends at
    a twin that shares its group with a lower twin."""

    @staticmethod
    def _cases(hosts):
        rng = random.Random(32)
        if hosts == "trees":
            return [
                (t, ts, cover)
                for n in range(2, 9) for t in enumerate_trees(n)
                for ts in _targets(t) for cover in (True, False)
            ]
        if hosts == "custom":
            cases = []
            for n in range(2, 7):
                for t in enumerate_trees(n):
                    for _ in range(4):
                        ts = TargetSet.custom(
                            t, [s for s in (*t.vertices, *t.edges) if rng.random() < 0.5]
                        )
                        cases += [(t, ts, cover) for cover in (True, False)]
                        # the same elements out of order: twin bits that do
                        # not rise with vertex id
                        cases.append((t, TargetSet(ts.kind, ts.elements[::-1]), True))
            assert sum(_mixed_twins(t, ts) for t, ts, _ in cases) >= 20
            return cases
        # edge targets stop at n = 6: on the n = 7 graphs they take minutes
        cases = []
        for seed in range(200):
            n = 4 + seed % 4
            g = gen_gnp(n, (0.3, 0.4, 0.5)[seed % 3], seed)
            targets = (TargetSet.vertices(g), TargetSet.edges(g))[: 2 if n <= 6 else 1]
            cases += [(g, ts, True) for ts in targets]
        return cases

    @pytest.mark.parametrize("hosts", ["trees", "custom", "graphs"])
    def test_skips_leave_every_result(self, monkeypatch, hosts):
        # the same (size, family) as the search with its twin classes
        # emptied, and exists_family agrees with the optimum around it
        fewer = 0
        cases = self._cases(hosts)
        for host, ts, cover in cases:
            pruned = _Search(host, ts, cover, None)
            plain = _Search(host, ts, cover, None)
            monkeypatch.setattr(plain, "twins", [])
            got = _solve(pruned)
            assert got == _solve(plain), (host.edges, ts.elements, cover)
            opt = got[0]
            for k in (opt - 1, opt, opt + 1):
                assert exists_family(host, ts, k, cover) == (opt <= k), (host.edges, ts, k)
            fewer += pruned.nodes < plain.nodes
        assert fewer >= 10

    @pytest.mark.parametrize("t, targets, nodes, unpruned", [
        # the spider with legs of 6, 1 and 1 edges at centre 6, whose leaves
        # 7 and 8 are twins
        (Tree.from_edges([(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (6, 8)]),
         TargetSet.vertices, 1798, 3187),
        (star_tree(9), TargetSet.edges, 15, 36),
    ], ids=["spider-vertices", "star-edges"])
    def test_skips_cut_nodes(self, monkeypatch, t, targets, nodes, unpruned):
        ts = targets(t)
        assert min_separating(t, ts).nodes_expanded == nodes
        plain = _Search(t, ts, True, None)
        monkeypatch.setattr(plain, "twins", [])
        _solve(plain)
        assert plain.nodes == unpruned


class TestRootDecision:
    def test_sizes_below_the_floor_fail_and_the_root_expands_nothing(self):
        # every size below floor() fails the log2 test at the root, so
        # at_most decides it there before the search and no node is counted
        for n in range(2, 8):
            for t in enumerate_trees(n):
                for ts in _targets(t):
                    for cover in (True, False):
                        floor = _Search(t, ts, cover, None).floor()
                        for k in range(floor):
                            assert exists_family(t, ts, k, cover) is False, (t, ts.kind, cover, k)
                            search = _Search(t, ts, cover, None)
                            assert search.at_most(k) is None, (t, ts.kind, cover, k)
                            assert search.nodes == 0, (t, ts.kind, cover, k)


class TestRefutedStates:
    def test_every_entry_has_no_completion(self):
        # a refuted entry claims that no left candidates from masks[start:]
        # complete its state; check each claim against every such set, with
        # cover on and off
        checked = 0
        for n in range(2, 7):
            for t in enumerate_trees(n):
                for ts, cover in itertools.product(_targets(t), (True, False)):
                    search = _Search(t, ts, cover, None)
                    k = search.floor()
                    while search.at_most(k) is None:
                        k += 1
                    assert k == min_separating(t, ts, require_cover=cover).size
                    for (start, groups, uncovered), left in search.refuted.items():
                        rest = search.masks[start:]
                        for size in range(left + 1):
                            for family in itertools.combinations(rest, size):
                                assert not _completes(groups, uncovered, family), (
                                    t.edges, ts.kind, cover, start, size
                                )
                        checked += 1
        assert checked > 500

    def test_clearing_the_table_leaves_every_result(self, monkeypatch):
        cases = [(t, ts) for n in range(2, 8) for t in enumerate_trees(n) for ts in _targets(t)]

        def solve():
            out, largest = [], 0
            for t, ts in cases:
                search = _Search(t, ts, True, None)
                out.append(_solve(search))
                largest = max(largest, len(search.refuted))
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
# tree in enumerate_trees order, the same for n = 13 on its own, and the
# README tightness counts they give
VERTEX_SWEEP_DIGEST = "6578463f369a179d062d019c8b50ba6551339838bcdc8477dd44144b8c932a4d"
VERTEX_SWEEP_13_DIGEST = "071720dc1917b71d804a891d7009969d4be2dcbf860728dfd21ffeb3717a1630"
VERTEX_TIGHTNESS = {
    11: [235, 194, 53, 15], 12: [551, 490, 101, 25], 13: [1301, 1072, 191, 40],
}
# the edge optimum of every tree with n = 13, 14 and 15, one "n size" line
# per tree in enumerate_trees order, and the same for n = 16 on its own
EDGE_SWEEP_DIGEST = "075320ee8da50405c9084e5bcd4eb88d44588f40bfe9ae8a57d1e1f91853ea40"
EDGE_SWEEP_16_DIGEST = "8cc64060088244d86a4145763b3d0060d89015761e30b8789768c70a183e2227"


# per n: trees, trees on which vertex_interior_system builds, and those on
# which its size equals the v-and-interior optimum
VERTEX_INTERIOR_COUNTS = {
    3: (1, 0, 0), 4: (2, 1, 1), 5: (3, 1, 0), 6: (6, 2, 1), 7: (11, 2, 0), 8: (23, 4, 1),
    9: (47, 5, 0),
}


@pytest.mark.parametrize("n", [*range(3, 9), pytest.param(9, marks=pytest.mark.slow)])
def test_v_and_interior_optima_bound_the_constructions(n):
    """The v-and-interior optimum of every tree with n vertices is at most
    ``vertex_interior_system``'s size where that builds, and equals
    ``sharp_value`` where that is known.  n = 9 takes 5 to 8 s on a 2-vCPU
    VM and runs under ``pytest -m slow``."""
    counts = [0, 0, 0]
    for t in enumerate_trees(n):
        ts = TargetSet.vertices_and_interior_edges(t)
        opt = min_separating(t, ts).size
        assert sharp_value(t, ts) in (None, opt), t
        counts[0] += 1
        try:
            size = vertex_interior_system(t).size
        except PreconditionViolated:
            continue
        assert opt <= size, t
        counts[1] += 1
        counts[2] += size == opt
    assert tuple(counts) == VERTEX_INTERIOR_COUNTS[n]


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
    def test_vertex_optima_from_eleven_to_thirteen_match_pinned_digests(self, monkeypatch):
        """About 30 s on a 2-vCPU VM: ``pytest -m slow tests/test_oracle.py``.
        The cap is raised to 13 for this test only.

        Checks the vertex sandwich on every tree with n = 11, 12 and 13,
        and pins the optima and README's tightness counts per n: trees,
        lower bound = optimum, ``vertex_system`` applies, ``vertex_system``
        = optimum."""
        monkeypatch.setattr(oracle, "MAX_N", 13)
        digests = {11: hashlib.sha256(), 13: hashlib.sha256()}
        digests[12] = digests[11]
        tight = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BunchMismatchWarning)
            for n in (11, 12, 13):
                counts = [0, 0, 0, 0]
                for t in enumerate_trees(n):
                    p = profile(t)
                    opt = min_separating(t, TargetSet.vertices(t)).size
                    digests[n].update(f"{n} {opt}\n".encode())
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
        assert digests[11].hexdigest() == VERTEX_SWEEP_DIGEST
        assert digests[13].hexdigest() == VERTEX_SWEEP_13_DIGEST

    @pytest.mark.slow
    def test_edge_theorem_from_thirteen_to_sixteen(self, monkeypatch):
        """About 130 s on a 2-vCPU VM: the cap is raised to 16 for this test
        only, and the oracle's edge optimum equals the theorem's size and
        ``edge_system``'s on every tree with n = 13, 14, 15 and 16."""
        monkeypatch.setattr(oracle, "MAX_N", 16)
        digests = {13: hashlib.sha256(), 16: hashlib.sha256()}
        digests[14] = digests[15] = digests[13]
        solved = {}
        for n in (13, 14, 15, 16):
            trees = nodes = 0
            for t in enumerate_trees(n):
                res = min_separating(t, TargetSet.edges(t))
                assert res.size == edge_target_size(t) == len(edge_system(t)), t
                digests[n].update(f"{n} {res.size}\n".encode())
                trees += 1
                nodes += res.nodes_expanded
            solved[n] = (trees, nodes)
        # tree counts from OEIS A000055; without twin skips the node totals
        # for n = 13, 14 and 15 were 940005, 4814998 and 44322015
        assert solved == {
            13: (1301, 272335), 14: (3159, 1260953), 15: (7741, 9171589), 16: (19320, 45700658),
        }
        assert digests[13].hexdigest() == EDGE_SWEEP_DIGEST
        assert digests[16].hexdigest() == EDGE_SWEEP_16_DIGEST

    def test_out_of_range(self):
        with pytest.raises(TooLarge):
            enumerate_trees(13)
        with pytest.raises(TooLarge):
            enumerate_trees(1)
