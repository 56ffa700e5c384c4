"""Seeded graphs, the set system, spanning-path search, and experiments."""

import math
import random
import sys

import pytest

import seppaths.random_graphs

from seppaths import (
    ExperimentConfig,
    Graph,
    TargetSet,
    covers,
    gen_gnp,
    isolated_count,
    random_vertex_system,
    run_experiment,
    separates,
    separating_set_system,
)
from seppaths.oracle import min_separating
from seppaths.errors import TooLarge
from seppaths.random_graphs import (
    _exact_path,
    find_spanning_path,
    subcritical_p,
    supercritical_p,
)


class TestGenGnp:
    def test_p_zero(self):
        assert gen_gnp(5, 0.0, 1).edges == frozenset()

    def test_p_one_complete(self):
        g = gen_gnp(5, 1.0, 1)
        assert len(g.edges) == 10

    def test_deterministic(self):
        assert gen_gnp(30, 0.4, 99).edges == gen_gnp(30, 0.4, 99).edges
        assert gen_gnp(30, 0.4, 99).edges != gen_gnp(30, 0.4, 100).edges

    def test_edge_count_concentration(self):
        # mean C(100,2)/2 = 2475, sd ~ 35.2; every seeded draw within 4 sd
        mean = 2475.0
        sd = math.sqrt(4950 * 0.25)
        for seed in range(100):
            m = len(gen_gnp(100, 0.5, seed).edges)
            assert abs(m - mean) <= 4 * sd, (seed, m)

    def test_bad_p(self):
        with pytest.raises(ValueError):
            gen_gnp(5, 1.5, 0)


class TestSetSystem:
    def test_n2(self):
        assert separating_set_system(2).blocks == ((1,), (0,))

    def test_n4(self):
        assert separating_set_system(4).blocks == ((0, 3), (1, 2), (0, 1))

    def test_n5_has_singleton_c(self):
        ss = separating_set_system(5)
        assert ss.size == 4
        assert ss.blocks[-1] == (4,)

    def test_bound_and_signatures_up_to_64(self):
        for n in range(2, 65):
            ss = separating_set_system(n)
            assert ss.size <= math.ceil(math.log2(n)) + 1
            sigs = ss.signatures()
            assert len(set(sigs)) == n
            assert 0 not in sigs

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            separating_set_system(1)

    @staticmethod
    def _reference_blocks(n):
        # the blocks written out from the code definition, one vertex at a time
        k = n // 2
        bits = (k - 1).bit_length()  # ceil(log2 k)
        if k == 1 << bits:
            bits += 1  # keeps codes 1..k off the all-ones word
        first_code = 1 if k <= (1 << bits) - 2 else 0
        blocks = []
        for i in range(bits):
            a_side = [j for j in range(k) if (first_code + j) >> i & 1]
            b_side = [k + j for j in range(k) if not (first_code + j) >> i & 1]
            blocks.append(tuple(a_side + b_side))
        blocks.append(tuple(range(k)))
        if n % 2:
            blocks.append((n - 1,))
        return tuple(blocks)

    def test_blocks_match_code_reference(self):
        # both first_code branches, k a power of two, and odd n
        for n in [*range(2, 301), 511, 512, 513, 1023, 1024, 1025, 2047, 2048, 2049]:
            assert separating_set_system(n).blocks == self._reference_blocks(n), n


def recursive_exact_path(adj, block, forced_ends, node_budget):
    """The exact spanning-path search as one recursive call per path
    vertex: a reference for the explicit-stack search."""
    target = len(block)
    nodes = 0
    budget_hit = False
    starts = forced_ends or sorted(block, key=lambda v: len(adj[v]))

    def rec(v, visited, seq):
        nonlocal nodes, budget_hit
        nodes += 1
        if nodes > node_budget:
            budget_hit = True
            return None
        if len(seq) == target:
            return list(seq)
        for w in sorted(adj[v], key=lambda x: len(adj[x])):
            if w in visited:
                continue
            visited.add(w)
            seq.append(w)
            got = rec(w, visited, seq)
            if got is not None:
                return got
            seq.pop()
            visited.remove(w)
            if budget_hit:
                return None
        return None

    for s in starts:
        got = rec(s, {s}, [s])
        if got is not None:
            return got, False, nodes
        if budget_hit:
            return None, False, nodes
        if forced_ends:
            break
    return None, not budget_hit, nodes


def theta_graph(arms: int, k: int) -> Graph:
    """Hubs 0 and 1 joined by `arms` internally disjoint paths of k inner
    vertices each, numbered arm by arm from 2."""
    edges, nxt = [], 2
    for _ in range(arms):
        prev = 0
        for _ in range(k):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
        edges.append((prev, 1))
    return Graph(nxt, edges)


def _induced(g: Graph, block):
    inblock = set(block)
    return {v: tuple(w for w in g.neighbors(v) if w in inblock) for v in block}


class TestSpanningPath:
    def test_complete_graph(self):
        g = gen_gnp(4, 1.0, 0)
        p = find_spanning_path(g, [0, 1, 2, 3]).path
        assert p is not None and len(p.vertices) == 4

    def test_three_leaf_star_certified_absent(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        r = find_spanning_path(g, [0, 1, 2, 3])
        assert r.path is None and r.certified_absent

    def test_path_graph_finds_itself(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        p = find_spanning_path(g, [0, 1, 2, 3, 4]).path
        assert p is not None
        assert p.vertices in ((0, 1, 2, 3, 4), (4, 3, 2, 1, 0))

    def test_sub_block(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4)])
        p = find_spanning_path(g, [0, 1, 2]).path
        assert p is not None and set(p.vertices) == {0, 1, 2}

    def test_disconnected_block_certified(self):
        g = Graph(4, [(0, 1), (2, 3)])
        r = find_spanning_path(g, [0, 1, 2, 3])
        assert r.path is None and r.certified_absent

    def test_exact_search_matches_the_recursive_reference(self):
        rng = random.Random(4)
        cases = [(theta_graph(a, k), None) for a in (2, 3, 4) for k in range(1, 6)]
        for seed in range(40):
            g = gen_gnp(rng.randrange(3, 13), rng.choice((0.25, 0.4, 0.6)), seed)
            cases.append((g, None))
            cases.append((g, rng.sample(g.vertices, rng.randrange(2, g.n + 1))))
        for g, block in cases:
            block = sorted(block or g.vertices)
            adj = _induced(g, block)
            ends = [v for v in block if len(adj[v]) == 1]
            for forced in (ends, []):
                for budget in (7, 60, 20_000):
                    args = (adj, block, forced, budget)
                    assert _exact_path(*args) == recursive_exact_path(*args), (g, block, args)

    def test_long_theta_needs_no_recursion(self):
        g = theta_graph(4, 60)  # four arms: no spanning path
        assert g.n == 242
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            r = find_spanning_path(g, g.vertices)
        finally:
            sys.setrecursionlimit(old)
        assert r.path is None and r.certified_absent
        assert r.nodes_expanded == 319930


class TestRandomVertexSystem:
    def test_k8(self):
        g = gen_gnp(8, 1.0, 3)
        fs = random_vertex_system(g, 3)
        assert fs is not None and fs.size == 4  # ceil(log2 8) + 1

    def test_empty_graph_fails(self):
        assert random_vertex_system(gen_gnp(8, 0.0, 3), 3) is None

    def test_success_is_verified(self):
        g = gen_gnp(32, 0.5, 11)
        fs = random_vertex_system(g, 11)
        assert fs is not None
        ts = TargetSet.vertices(g)
        assert separates(fs, ts) and covers(fs, ts)

    def test_supercritical_mostly_succeeds(self):
        n = 64
        p = supercritical_p(n)
        wins = sum(
            random_vertex_system(gen_gnp(n, p, seed), seed) is not None
            for seed in range(10)
        )
        assert wins >= 9


class TestIsolated:
    def test_empty(self):
        assert isolated_count(gen_gnp(7, 0.0, 0)) == 7

    def test_complete(self):
        assert isolated_count(gen_gnp(5, 1.0, 0)) == 0

    def test_lower_bounds_oracle_on_tiny_graphs(self):
        checked = 0
        for seed in range(80):
            g = gen_gnp(7, 0.2, seed)
            if isolated_count(g) == 0:
                continue
            try:
                res = min_separating(g, TargetSet.vertices(g))
            except TooLarge:
                continue
            assert isolated_count(g) <= res.size
            checked += 1
        assert checked >= 8

    def test_subcritical_isolated_mean(self):
        n = 200
        p = (math.log(n) - 3 * math.log(math.log(n))) / n
        counts = [isolated_count(gen_gnp(n, p, seed)) for seed in range(50)]
        assert sum(counts) / len(counts) >= math.log(n)


class TestExperiment:
    def test_complete_runs(self):
        stats = run_experiment(ExperimentConfig(n=64, p=1.0, trials=3, seed=5))
        assert stats.successes == 3
        assert all(s <= 7 for s in stats.sizes)

    def test_empty_runs(self):
        stats = run_experiment(ExperimentConfig(n=64, p=0.0, trials=3, seed=5))
        assert stats.successes == 0
        assert stats.mean_isolated == 64.0

    def test_replayable_per_trial_seeds(self):
        cfg = ExperimentConfig(n=16, p=0.4, trials=4, seed=123)
        a, b = run_experiment(cfg), run_experiment(cfg)
        assert [r.seed for r in a.per_trial] == [r.seed for r in b.per_trial]
        assert [r.isolated for r in a.per_trial] == [r.isolated for r in b.per_trial]
        # a trial regenerates exactly from its logged seed
        r0 = a.per_trial[0]
        assert isolated_count(gen_gnp(16, 0.4, r0.seed)) == r0.isolated

    def test_trial_seeds_follow_the_master_seed(self):
        stats = run_experiment(ExperimentConfig(n=16, p=0.4, trials=4, seed=123))
        master = random.Random(123)
        assert [r.seed for r in stats.per_trial] == [master.getrandbits(64) for _ in range(4)]

    def test_huge_trial_count_starts_without_drawing_every_seed(self, monkeypatch):
        # the first trial must begin before any further seed is drawn; the
        # sentinel stops the run there, so no trial actually executes
        class Started(Exception):
            pass

        def first_trial(n, p, seed):
            raise Started(seed)

        monkeypatch.setattr(seppaths.random_graphs, "gen_gnp", first_trial)
        with pytest.raises(Started) as info:
            run_experiment(ExperimentConfig(n=16, p=0.4, trials=10**20, seed=7))
        assert info.value.args == (random.Random(7).getrandbits(64),)

    def test_regime_helpers_clamped(self):
        assert subcritical_p(64) == 0.0  # ln 64 < 3 ln ln 64
        assert 0.0 < supercritical_p(64) < 1.0
