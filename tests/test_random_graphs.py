"""Seeded graphs, the set system, spanning-path search, and experiments."""

import contextlib
import hashlib
import io
import itertools
import math
import os
import random
import signal
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seppaths.random_graphs

from seppaths import (
    ExperimentConfig,
    Graph,
    PathInTree,
    TargetSet,
    Tree,
    covers,
    gen_gnp,
    isolated_count,
    random_vertex_system,
    run_experiment,
    separates,
    separating_set_system,
)
from seppaths.cli import main
from seppaths.oracle import min_separating
from seppaths.errors import InternalClassificationError, TooLarge, UnknownVertex
from seppaths.random_graphs import (
    CHUNK_MIN_VERTICES,
    ROW_SPLIT_MIN_PAIRS,
    SpanningPathSearch,
    _exact_path,
    _row_split,
    _scan_rows,
    _skip_and_scan,
    _split,
    find_spanning_path,
    subcritical_p,
    supercritical_p,
)


def reference_gnp_edges(n, p, rng):
    """The G(n, p) coin flips as one `rng.random() < p` per pair, in
    row-major order: a reference for the block draws of gen_gnp."""
    return {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}


def _untemper(y):
    """The Mersenne Twister state word whose tempered output is y."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    r = y
    for _ in range(4):
        r = y ^ ((r << 7) & 0x9D2C5680)
    y = r & 0xFFFFFFFF
    return y ^ (y >> 11) ^ (y >> 22)


def scripted_random(words):
    """A random.Random whose next outputs are the given 32-bit words (at
    most 624): its state is set as a twist leaves it, with each word
    untempered."""
    state = [_untemper(w) for w in words] + [0] * (624 - len(words))
    rng = random.Random()
    rng.setstate((3, (*state, 0), None))
    return rng


# p values at the edges of the byte test: the extremes, the multiples of
# 1/256 where the top-byte threshold moves and their neighbours, values with
# p * 2^53 an integer (a draw equal to p is not an edge), and any float
boundary_p = st.one_of(
    st.sampled_from([5e-324, 2.0**-53, 1 - 2.0**-53, 0.5]),
    st.builds(lambda k, d: (k * 2**45 + d) / 2**53, st.integers(1, 255), st.integers(-2, 2)),
    st.integers(1, 2**53 - 1).map(lambda k: k / 2**53),
    st.floats(0.0, 1.0),
)


class TestGenGnp:
    def test_p_zero(self):
        assert gen_gnp(5, 0.0, 1).edges == frozenset()

    def test_p_one_complete(self):
        g = gen_gnp(5, 1.0, 1)
        assert len(g.edges) == 10
        # every draw is below 1: the general path gives the complete graph
        for n in range(41):
            for seed in (0, 1, 7):
                g = gen_gnp(n, 1.0, seed)
                assert g.edges == frozenset(itertools.combinations(range(n), 2))
                assert all(g.neighbors(v) == tuple(w for w in range(n) if w != v) for v in range(n))

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

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 40), boundary_p, st.integers(0, 2**64 - 1))
    def test_matches_the_per_pair_reference(self, n, p, seed):
        ref = reference_gnp_edges(n, p, random.Random(seed))
        g = gen_gnp(n, p, seed)
        assert g.edges == ref
        checked = Graph(n, ref)  # the public build, sorting every adjacency list
        assert [g.neighbors(v) for v in g.vertices] == [checked.neighbors(v) for v in checked.vertices]

    @pytest.mark.parametrize("n", [1024, 2048])
    @pytest.mark.parametrize("p_of", [subcritical_p, supercritical_p])
    def test_matches_the_reference_in_both_regimes(self, n, p_of):
        p = p_of(n)
        assert gen_gnp(n, p, 7).edges == reference_gnp_edges(n, p, random.Random(7))

    @pytest.mark.parametrize("p", [5e-324, 2.0**-53, 3 / 256, 0.25, 0.5, 1 - 2.0**-53])
    def test_threshold_draws_match_random(self, monkeypatch, p):
        # K, the 53-bit draw, at and around cut = ceil(p * 2^53) and at the
        # borders of the top byte, with random bits in the unused low bits
        cut = math.ceil(math.ldexp(p, 53))
        hi = (cut - 1) >> 45
        ks = [cut - 2, cut - 1, cut, cut + 1, hi << 45, (hi << 45) - 1,
              ((hi + 1) << 45) - 1, (hi + 1) << 45, 0, 2**53 - 1]
        ks = [k for k in ks if 0 <= k < 2**53]
        n = 24  # 276 pairs, 552 words: no twist before the last pair
        fill = random.Random(p)
        kpairs = [ks[t % len(ks)] if t % 3 else fill.getrandbits(53) for t in range(n * (n - 1) // 2)]
        words = []
        for k in kpairs:
            words += [(k >> 26) << 5 | fill.getrandbits(5), (k & (2**26 - 1)) << 6 | fill.getrandbits(6)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        want = {pair for pair, k in zip(pairs, kpairs) if k < cut}
        assert reference_gnp_edges(n, p, scripted_random(words)) == want
        assert cut - 1 in kpairs and want != set(pairs)

        monkeypatch.setattr(seppaths.random_graphs, "random",
                            SimpleNamespace(Random=lambda seed: scripted_random(words)))
        assert gen_gnp(n, p, 0).edges == want

    def test_draws_one_row_at_a_time(self):
        # the whole C(2048, 2)-pair stream at once would be over 30 MB
        n = 2048
        tracemalloc.start()
        try:
            g = gen_gnp(n, subcritical_p(n), 3)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.edges
        assert peak - kept <= 0.5 * 2**20


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


class TestGraph:
    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex, match="^vertex 3 not in graph$"):
            Graph(3, [(0, 1)]).neighbors(3)
        with pytest.raises(UnknownVertex, match="^vertex 5 not in graph$"):
            find_spanning_path(Graph(3, [(0, 1)]), [0, 5])

    def test_trees_and_graphs_share_one_host_implementation(self):
        shared = {"n", "has_vertex", "has_edge", "neighbors", "degree"}
        assert not shared & set(Tree.__dict__)
        assert not shared & set(Graph.__dict__)


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

    def test_disconnected_block_certified(self, monkeypatch):
        def unreached(*args, **kwargs):
            raise AssertionError("searched a disconnected block")

        monkeypatch.setattr(seppaths.random_graphs, "_posa", unreached)
        monkeypatch.setattr(seppaths.random_graphs, "_exact_path", unreached)
        g = Graph(4, [(0, 1), (2, 3)])
        r = find_spanning_path(g, [0, 1, 2, 3])
        assert r.path is None and r.certified_absent
        # two triangles: every degree is 2, so only the connectivity test refutes them
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert find_spanning_path(g, g.vertices) == SpanningPathSearch(None, True, 0)

    def test_empty_and_one_vertex_blocks(self):
        g = Graph(3, [(0, 1)])
        assert find_spanning_path(g, []) == SpanningPathSearch(None, True, 0)
        assert find_spanning_path(g, [2, 2]) == SpanningPathSearch(PathInTree((2,)), False, 0)

    def test_exact_phase_returns_the_path(self, monkeypatch):
        monkeypatch.setattr(seppaths.random_graphs, "POSA_RESTARTS", 0)
        g = theta_graph(2, 3)  # an 8-cycle
        r = find_spanning_path(g, g.vertices)
        assert r.path is not None and sorted(r.path.vertices) == list(g.vertices)
        assert all(g.has_edge(u, v) for u, v in zip(r.path.vertices, r.path.vertices[1:]))
        assert not r.certified_absent and r.nodes_expanded > 0

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

    def test_failed_check_raises_instead_of_failing_the_trial(self, monkeypatch):
        # a set system missing a block no longer separates; that is a bug to
        # report, not a trial without a spanning path
        real = seppaths.random_graphs.separating_set_system

        def one_block_short(n):
            system = real(n)
            return type(system)(system.n, system.blocks[:-1])

        monkeypatch.setattr(seppaths.random_graphs, "separating_set_system", one_block_short)
        with pytest.raises(InternalClassificationError, match="^random_vertex_system: "):
            random_vertex_system(gen_gnp(32, 0.5, 11), 11)

    def test_supercritical_mostly_succeeds(self):
        n = 64
        p = supercritical_p(n)
        wins = sum(
            random_vertex_system(gen_gnp(n, p, seed), seed) is not None
            for seed in range(10)
        )
        assert wins >= 9


def block_paths(g, seed, cpus, forks=None, chunk_min=1):
    """random_vertex_system's path vertex sequences (None on failure) with
    `cpus` usable CPUs and `chunk_min` as CHUNK_MIN_VERTICES (1 lets a
    small graph split), and the number of children it forked, which also
    goes into the list `forks` when one is given."""
    forks = [] if forks is None else forks
    real_fork = os.fork
    with pytest.MonkeyPatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        m.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        m.setattr(seppaths.random_graphs, "CHUNK_MIN_VERTICES", chunk_min)
        fs = random_vertex_system(g, seed)
    return (None if fs is None else [p.vertices for p in fs.paths]), len(forks)


def open_fds():
    """The number of open descriptors, or None where /proc/self/fd is absent."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def blocks_of(g, seed):
    """random_vertex_system's blocks as vertex lists, in block order."""
    perm = list(g.vertices)
    random.Random(seed).shuffle(perm)
    return [[perm[j] for j in blk] for blk in separating_set_system(g.n).blocks]


class TestSplitSearch:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 33, 64, 65, 300])
    @pytest.mark.parametrize("p_of", [subcritical_p, supercritical_p, lambda n: 0.5])
    def test_same_paths_on_any_number_of_cpus(self, n, p_of):
        left = len(separating_set_system(n).blocks) - 1
        for seed in range(4):
            g = gen_gnp(n, p_of(n), seed)
            alone, forks = block_paths(g, seed, 1)
            assert forks == 0
            for cpus in (2, 3):
                split, forks = block_paths(g, seed, cpus)
                assert split == alone
                if alone is not None:  # block 0 had a path, so the rest split
                    assert forks == max(min(cpus, left), 1) - 1

    def test_isolated_vertex_outside_block_zero_fails(self):
        g = gen_gnp(64, supercritical_p(64), 3)
        blocks = blocks_of(g, 3)
        lone = blocks[-1][-1]
        assert lone not in blocks[0]
        h = Graph(64, [e for e in g.edges if lone not in e])
        assert block_paths(g, 3, 1)[0] is not None
        assert block_paths(h, 3, 1) == (None, 0)
        assert block_paths(h, 3, 2) == (None, 1)

    def test_no_fork_once_block_zero_fails(self, monkeypatch):
        g = gen_gnp(64, supercritical_p(64), 3)
        first, real = sorted(blocks_of(g, 3)[0]), seppaths.random_graphs.find_spanning_path

        def search(g, block, *, seed=0):
            if sorted(block) == first:  # every other block has a path
                return SpanningPathSearch(None, False, 0)
            return real(g, block, seed=seed)

        monkeypatch.setattr(seppaths.random_graphs, "find_spanning_path", search)
        assert block_paths(g, 3, 2) == (None, 0)

    def test_child_killed_once_the_first_chunk_fails(self, monkeypatch):
        g = gen_gnp(64, supercritical_p(64), 3)
        blocks = blocks_of(g, 3)  # 7 blocks: block 0, then 1-3 here, 4-6 in the child
        lone = next(v for v in blocks[1] if v not in blocks[0])
        h = Graph(64, [e for e in g.edges if lone not in e])
        parent, real = os.getpid(), seppaths.random_graphs.find_spanning_path

        def search(*args, **kwargs):
            if os.getpid() != parent:
                time.sleep(30)  # a child's chunk that would hold the call up
            return real(*args, **kwargs)

        monkeypatch.setattr(seppaths.random_graphs, "find_spanning_path", search)
        started = time.monotonic()
        assert block_paths(h, 3, 2) == (None, 1)
        assert time.monotonic() - started < 15

    def test_child_that_sends_nothing_is_searched_again(self, monkeypatch):
        g = gen_gnp(64, supercritical_p(64), 3)
        alone, _ = block_paths(g, 3, 1)
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid == 0:
                os._exit(1)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        assert alone is not None and block_paths(g, 3, 3) == (alone, 2)

    def test_failed_fork_leaves_its_chunks_here(self, monkeypatch):
        g = gen_gnp(64, supercritical_p(64), 3)
        alone, _ = block_paths(g, 3, 1)

        def fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        fds = open_fds()
        assert block_paths(g, 3, 3) == (alone, 1)
        assert open_fds() == fds  # its pipe is closed

    def test_error_in_a_child_block_surfaces_as_in_process(self, monkeypatch):
        g = gen_gnp(64, supercritical_p(64), 3)
        last = sorted(blocks_of(g, 3)[-1])
        real_posa = seppaths.random_graphs._posa

        def posa(adj, degs, block, start, rng, step_budget):
            if block == last:
                raise RuntimeError(f"no rotation from {start}")
            return real_posa(adj, degs, block, start, rng, step_budget)

        monkeypatch.setattr(seppaths.random_graphs, "_posa", posa)
        errors = []
        for cpus in (1, 2):
            forks = []
            with pytest.raises(RuntimeError) as info:
                block_paths(g, 3, cpus, forks)
            errors.append((type(info.value), str(info.value), len(forks)))
        assert errors[0][:2] == errors[1][:2] and errors[0][1].startswith("no rotation from ")
        assert (errors[0][2], errors[1][2]) == (0, 1)  # the error came from the child's chunk

    @pytest.mark.parametrize("disposition", [signal.SIG_IGN, lambda signum, frame: None])
    def test_no_fork_unless_sigchld_is_default(self, disposition):
        # the kernel or a handler could reap a child and free its pid for reuse
        # before it is killed or waited for
        g = gen_gnp(64, supercritical_p(64), 3)
        alone, _ = block_paths(g, 3, 1)
        lone = next(v for v in blocks_of(g, 3)[1] if v not in blocks_of(g, 3)[0])
        h = Graph(64, [e for e in g.edges if lone not in e])  # fails in the first chunk
        fds = open_fds()
        old = signal.signal(signal.SIGCHLD, disposition)
        try:
            assert block_paths(g, 3, 2) == (alone, 0)
            assert block_paths(h, 3, 2) == (None, 0)
        finally:
            signal.signal(signal.SIGCHLD, old)
        assert open_fds() == fds
        assert block_paths(g, 3, 2) == (alone, 1)

    def test_chunks_average_at_least_the_minimum_block_vertices(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        m = CHUNK_MIN_VERTICES

        def sizes(*blocks):
            return [len(c) for c in _split([(range(b), 0) for b in blocks])]

        assert sizes(m, m - 1) == [2]
        assert sizes(m, m) == [1, 1]
        assert sizes(*[m // 2] * 5) == [2, 3]
        assert sizes(*[m // 2] * 6) == [2, 2, 2]
        assert sizes(*[m] * 6) == [1, 1, 2, 2]

    def test_small_supercritical_graphs_never_fork(self):
        # the forked chunk would average under CHUNK_MIN_VERTICES (1280) block
        # vertices: 9 blocks of 256 after block 0 make 2304 in all
        assert CHUNK_MIN_VERTICES == 1280
        for n in (16, 64, 300, 512):
            for seed in range(2):
                g = gen_gnp(n, supercritical_p(n), seed)
                real = block_paths(g, seed, 2, chunk_min=CHUNK_MIN_VERTICES)
                assert real == (block_paths(g, seed, 1)[0], 0)
        g = gen_gnp(576, supercritical_p(576), 0)  # 9 blocks of 288: 2592
        alone, _ = block_paths(g, 0, 1)
        assert alone is not None
        assert block_paths(g, 0, 2, chunk_min=CHUNK_MIN_VERTICES) == (alone, 1)

    def test_no_fork_with_a_second_thread(self):
        g = gen_gnp(64, supercritical_p(64), 3)
        alone, _ = block_paths(g, 3, 1)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert block_paths(g, 3, 2) == (alone, 0)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert block_paths(g, 3, 2) == (alone, 1)


def gnp_rows(n, p, seed, cpus, min_pairs=0):
    """gen_gnp(n, p, seed) with `cpus` usable CPUs and `min_pairs` as
    ROW_SPLIT_MIN_PAIRS (0 lets a small graph split), and the number of
    children it forked."""
    forks = []
    real_fork = os.fork
    with pytest.MonkeyPatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        m.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        m.setattr(seppaths.random_graphs, "ROW_SPLIT_MIN_PAIRS", min_pairs)
        g = gen_gnp(n, p, seed)
    return g, len(forks)


def same_graph(g, h):
    return g.n == h.n and g.edges == h.edges and g._adj == h._adj


class TestRowSplit:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 60), boundary_p, st.integers(0, 2**64 - 1))
    def test_split_matches_the_per_pair_reference(self, n, p, seed):
        g, forks = gnp_rows(n, p, seed, 2)
        assert forks == (0.0 < p <= 1 / 16)
        assert g.edges == reference_gnp_edges(n, p, random.Random(seed))
        assert same_graph(g, gnp_rows(n, p, seed, 1)[0])

    # the probe loop (p <= 1/16), compress (p > 1/16), p = 1, and p whose
    # top-byte ties all pass (a multiple of 1/256) or nearly all fail
    @pytest.mark.parametrize("p", [
        subcritical_p(300), supercritical_p(300), 1 / 16, 17 / 256, 0.5, 1.0,
        3 / 256, (3 * 2**45 + 1) / 2**53, 40 / 256, (40 * 2**45 + 1) / 2**53,
    ])
    def test_same_graph_on_both_branches(self, p):
        for n, seed in ((3, 0), (4, 1), (97, 2), (300, 3)):
            alone, forks = gnp_rows(n, p, seed, 1)
            assert forks == 0
            for cpus in (2, 3):  # one child, whatever the CPU count
                split, forks = gnp_rows(n, p, seed, cpus)
                assert forks == (p <= 1 / 16) and same_graph(split, alone)
            # and split by hand at any row r, compress rows too, which never fork
            for r in {0, 1, n // 3, n - 2}:
                rows = _scan_rows(random.Random(seed), n, p, 0, r) + _skip_and_scan(seed, n, p, r)
                assert same_graph(Graph._from_rows(n, rows), alone)

    def test_caller_scans_between_half_and_three_quarters(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        for n in (1024, 2048, 8192):
            pairs = n * (n - 1) // 2
            shares = []
            for p in (subcritical_p(n), supercritical_p(n), 1 / 32, 1 / 16):
                r = _row_split(n, p)
                assert 0 < r < n - 1
                shares.append(r * (2 * n - 1 - r) / 2 / pairs)
            assert shares == sorted(shares, reverse=True)  # denser rows scan dearer
            assert 0.5 < shares[-1] and shares[0] < 0.75
            for p in (17 / 256, 0.5, 1.0):  # compress: no split
                assert _row_split(n, p) == n - 1

    def test_child_that_sends_nothing_is_scanned_here(self, monkeypatch):
        alone, _ = gnp_rows(300, 0.05, 5, 1)
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid == 0:
                os._exit(1)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        fds = open_fds()
        split, forks = gnp_rows(300, 0.05, 5, 2)
        assert forks == 1 and same_graph(split, alone)
        assert open_fds() == fds

    def test_failed_fork_scans_here(self, monkeypatch):
        alone, _ = gnp_rows(300, 0.05, 5, 1)

        def fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        fds = open_fds()
        split, forks = gnp_rows(300, 0.05, 5, 2)
        assert forks == 1 and same_graph(split, alone)
        assert open_fds() == fds  # its pipe is closed

    def test_child_killed_when_the_caller_raises(self, monkeypatch):
        def stall(*args):
            time.sleep(30)  # a child that would hold the call up

        def scan(rng, n, p, first, stop):
            raise MemoryError("caller's rows")

        monkeypatch.setattr(seppaths.random_graphs, "_skip_and_scan", stall)
        monkeypatch.setattr(seppaths.random_graphs, "_scan_rows", scan)
        started = time.monotonic()
        with pytest.raises(MemoryError, match="caller's rows"):
            gnp_rows(300, 0.05, 5, 2)
        assert time.monotonic() - started < 15  # killed, then reaped

    @pytest.mark.parametrize("disposition", [signal.SIG_IGN, lambda signum, frame: None])
    def test_no_fork_unless_sigchld_is_default(self, disposition):
        alone, _ = gnp_rows(300, 0.05, 5, 1)
        old = signal.signal(signal.SIGCHLD, disposition)
        try:
            split, forks = gnp_rows(300, 0.05, 5, 2)
        finally:
            signal.signal(signal.SIGCHLD, old)
        assert forks == 0 and same_graph(split, alone)

    def test_no_fork_with_a_second_thread(self):
        alone, _ = gnp_rows(300, 0.05, 5, 1)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            split, forks = gnp_rows(300, 0.05, 5, 2)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert forks == 0 and same_graph(split, alone)

    def test_small_graphs_never_fork(self):
        # C(894, 2) = 399171 pairs, under ROW_SPLIT_MIN_PAIRS; C(896, 2) = 400960
        assert ROW_SPLIT_MIN_PAIRS == 400_000
        for n in (64, 300, 894):
            g, forks = gnp_rows(n, subcritical_p(n), 1, 2, min_pairs=ROW_SPLIT_MIN_PAIRS)
            assert forks == 0 and same_graph(g, gnp_rows(n, subcritical_p(n), 1, 1)[0])
        g, forks = gnp_rows(896, subcritical_p(896), 1, 2, min_pairs=ROW_SPLIT_MIN_PAIRS)
        assert forks == 1 and same_graph(g, gnp_rows(896, subcritical_p(896), 1, 1)[0])

    @pytest.mark.parametrize("regime", ["subcritical", "supercritical"])
    def test_random_exp_output_unchanged_at_bench_sizes(self, regime):
        # GNP_DIGEST stops at n = 1024; the bench runs n = 2048
        for seed in (1, 7, 2**32 - 1):
            argv = ["--format", "json", "random-exp", "--n", "2048", f"--auto-{regime}",
                    "--trials", "2", "--seed", str(seed)]
            outs = []
            for cpus in (1, 2):
                forks = []
                real_fork = os.fork
                out = io.StringIO()
                with pytest.MonkeyPatch.context() as m, contextlib.redirect_stdout(out):
                    m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
                    m.setattr(os, "fork", lambda: forks.append(1) or real_fork())
                    assert main(argv) == 0
                outs.append(out.getvalue().encode())
                assert (len(forks) >= 2) == (cpus == 2)  # each graph split its rows
            assert outs[0] == outs[1]


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


# sha256 over a seeded grid, n in {16, 64, 300, 1024} and both regimes: per
# seed, the isolated count and the random_vertex_system path vertex
# sequences; per (n, regime), the `random-exp --format json` output (its
# payload carries no wall time).  Recorded at commit 35f19e1, where gen_gnp
# flipped one rng.random() coin per pair.
GNP_DIGEST = "ea98594ee09e926953ee62a7dc0382b1ac9d998d0e9e3a0ea5e9115488273fca"


def test_outputs_match_pinned_digest():
    h = hashlib.sha256()
    for n in (16, 64, 300, 1024):
        for regime, p_of in (("subcritical", subcritical_p), ("supercritical", supercritical_p)):
            p = p_of(n)
            for seed in (0, 1, 2, 2**64 - 1):
                g = gen_gnp(n, p, seed)
                fs = random_vertex_system(g, seed)
                h.update(f"{n} {regime} {seed} {isolated_count(g)}\n".encode())
                for path in () if fs is None else fs.paths:
                    h.update(" ".join(map(str, path.vertices)).encode() + b"\n")
                h.update(b"--\n")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                argv = ["--format", "json", "random-exp", "--n", str(n),
                        f"--auto-{regime}", "--trials", "3", "--seed", "11"]
                assert main(argv) == 0
            h.update(out.getvalue().encode())
    assert h.hexdigest() == GNP_DIGEST
