"""Signatures, separation/covering verdicts, kissing, and the text format."""

import itertools
import operator
import random
import re
import sys
import threading
import time
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seppaths.verify
from seppaths import (
    Graph,
    PathInTree,
    PathSystem,
    ProbeReport,
    TargetKind,
    TargetSet,
    Tree,
    Verdict,
    abc_construction,
    bunch_construction,
    check,
    covers,
    decode,
    decoder,
    edge_system,
    gen_gnp,
    incidence,
    kisses,
    make_system,
    parse_paths,
    path_of,
    planar_construction,
    random_tree,
    random_vertex_system,
    separates,
    serialize_paths,
    signature_table,
    signatures,
    simulate_probes,
    unique_path,
    vertex_interior_system,
    vertex_system,
)
from seppaths.edge_systems import _edge_pairs
from seppaths.errors import (
    BadToken,
    InternalClassificationError,
    InvalidPath,
    NotCovering,
    NotSeparating,
    UnknownElement,
)
from seppaths.oracle import enumerate_paths, enumerate_trees, min_separating
from seppaths.random_graphs import supercritical_p
from seppaths.verify import _certified_sums, _tree_hashes, _vertex_sums, check_signatures

from conftest import leafy_tree, path_tree


class TestIncidence:
    def test_shared_edge(self, p4):
        fs = make_system(p4, [(0, 1, 2), (1, 2, 3)])
        assert incidence(fs, (1, 2)) == {0, 1}

    def test_star_edge(self, k13):
        fs = make_system(k13, [(1, 0, 2), (1, 0, 3)])
        assert incidence(fs, (0, 2)) == {0}
        # cross-check by brute force over each path's edge set
        for e in k13.edges:
            manual = {i for i, p in enumerate(fs.paths) if e in frozenset(p.edges())}
            assert incidence(fs, e) == manual

    def test_trivial_path_vertex(self, p3):
        fs = make_system(p3, [(2,)])
        assert incidence(fs, 2) == {0}
        assert incidence(fs, 0) == frozenset()

    def test_unknown_element(self, p3):
        fs = make_system(p3, [(0, 1)])
        with pytest.raises(UnknownElement):
            incidence(fs, 9)
        with pytest.raises(UnknownElement):
            incidence(fs, (0, 2))


class TestSeparates:
    def test_p3_edges(self, p3):
        fs = make_system(p3, [(0, 1), (1, 2)])
        assert separates(fs, TargetSet.edges(p3))

    def test_single_path_vertices(self, p4):
        fs = make_system(p4, [(0, 1, 2, 3)])
        verdict = separates(fs, TargetSet.vertices(p4))
        assert not verdict
        assert verdict.witness == (0, 1)
        assert str(verdict) == "NotSeparated(0,1)"

    def test_depth2_binary_known_family(self, depth2):
        fs = make_system(depth2, [(1, 2, 4), (1, 2, 5), (1, 3, 6), (1, 3, 7)])
        assert separates(fs, TargetSet.edges(depth2))
        assert covers(fs, TargetSet.edges(depth2))

    def test_witness_is_lexicographically_least(self, p4):
        # all four vertices share one signature: report (0, 1), not (2, 3)
        fs = make_system(p4, [(0, 1, 2, 3), (0, 1, 2, 3)])
        assert separates(fs, TargetSet.vertices(p4)).witness == (0, 1)

    def test_vertex_before_edge_in_witness_order(self, p3):
        # vertices 0,1,2 and edges both unseparated; vertices win the tie
        fs = make_system(p3, [(0, 1, 2)])
        ts = TargetSet.custom(p3, [0, 1, 2, (0, 1), (1, 2)])
        assert separates(fs, ts).witness == (0, 1)


class TestCovers:
    def test_p3_vertices(self, p3):
        assert covers(make_system(p3, [(0, 1), (1, 2)]), TargetSet.vertices(p3))

    def test_missing_edge(self, p3):
        verdict = covers(make_system(p3, [(0, 1)]), TargetSet.edges(p3))
        assert not verdict
        assert verdict.witness == ((1, 2),)
        assert str(verdict) == "NotCovered((1,2))"

    def test_bunch_output_covers(self, double_star):
        from seppaths import bunch_construction

        assert covers(bunch_construction(double_star), TargetSet.vertices(double_star))


class TestKisses:
    def test_one_endpoint(self, p4):
        assert kisses(path_of(0, 1, 2), (2, 3))

    def test_both_endpoints(self, p4):
        assert not kisses(path_of(0, 1, 2), (0, 1))

    def test_single_vertex_path(self, p4):
        assert kisses(path_of(3), (2, 3))


def nested_loop_signatures(fs, ts):
    """Every target element tested against every path's vertex and edge
    sets: O(paths x targets), an independent reference for the path walk."""
    sig = {s: set() for s in ts.elements}
    for i, p in enumerate(fs.paths):
        vs = frozenset(p.vertices)
        es = frozenset(p.edges())
        for s in ts.elements:
            if (s in vs) if isinstance(s, int) else (s in es):
                sig[s].add(i)
    return {s: frozenset(ix) for s, ix in sig.items()}


def _perturbed(data, working, candidates):
    """A working family with a few paths dropped and a few extra ones added."""
    drop = data.draw(st.sets(st.sampled_from(range(len(working))), max_size=3)) if working else set()
    extra = data.draw(st.lists(st.sampled_from(candidates), max_size=3))
    return tuple(p for i, p in enumerate(working) if i not in drop) + tuple(extra)


def _custom_target(data, host):
    pool = [*host.vertices, *sorted(host.edges)]
    return TargetSet.custom(host, data.draw(st.lists(st.sampled_from(pool), max_size=8)))


class TestSignatureWalk:
    """The path walk gives the nested-loop reference's tables, on working
    families and on perturbed ones that fail."""

    def _agree(self, fs, targets):
        for ts in targets:
            ref = nested_loop_signatures(fs, ts)
            assert signatures(fs, ts) == ref, ts.kind
            for s in ts.elements:
                assert incidence(fs, s) == ref[s], s
        for p in fs.paths:
            vs = frozenset(p.vertices)
            for x, y in fs.host.edges:
                assert kisses(p, (x, y)) == ((x in vs) != (y in vs))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 2**32), st.data())
    def test_trees(self, n, seed, data):
        t = random_tree(n, seed)
        vs = st.sampled_from(t.vertices)
        candidates = [unique_path(t, data.draw(vs), data.draw(vs)) for _ in range(4)]
        fs = PathSystem(t, _perturbed(data, list(edge_system(t).paths), candidates))
        self._agree(fs, (
            TargetSet.edges(t),
            TargetSet.vertices(t),
            TargetSet.vertices_and_interior_edges(t),
            _custom_target(data, t),
        ))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 7), st.sampled_from((0.3, 0.5, 0.7)), st.integers(0, 2**32), st.data())
    def test_gnp_hosts(self, n, p, seed, data):
        g = gen_gnp(n, p, seed)
        working = random_vertex_system(g, seed)
        candidates = list(enumerate_paths(g, True))
        fs = PathSystem(g, _perturbed(data, list(working.paths) if working else [], candidates))
        self._agree(fs, (TargetSet.edges(g), TargetSet.vertices(g), _custom_target(data, g)))


def elements_walk_signatures(fs, ts):
    """The table as a walk over every path's ``elements()`` (vertices, then
    edges) gives it: the reference for the vertex-target walk."""
    sig = {s: set() for s in ts.elements}
    for i, p in enumerate(fs.paths):
        for s in p.elements():
            if s in sig:
                sig[s].add(i)
    return {s: frozenset(ix) for s, ix in sig.items()}


class TestVertexTargetWalk:
    """Vertex targets walk the path vertices alone: the table, and so every
    NotSeparated and NotCovered witness, is the elements() walk's, and no
    path edge is built."""

    def _agree(self, fs):
        ts = TargetSet.vertices(fs.host)
        ref = elements_walk_signatures(fs, ts)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(PathInTree, "edges", lambda p: pytest.fail("a path edge was built"))
            sig = signatures(fs, ts)
            verdicts = (check(fs, ts), separates(fs, ts), covers(fs, ts))
        assert sig == ref
        assert exact_verdicts(fs, ts) == (
            check_signatures(ref, ts),
            check_signatures(ref, ts, covering=False),
            check_signatures(ref, ts, separation=False),
        )
        if not isinstance(fs.host, Tree):  # a tree's hash sums may settle a pass
            assert verdicts == exact_verdicts(fs, ts)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 2**32), st.data())
    def test_trees(self, n, seed, data):
        t = random_tree(n, seed)
        vs = st.sampled_from(t.vertices)
        candidates = [unique_path(t, data.draw(vs), data.draw(vs)) for _ in range(4)]
        self._agree(PathSystem(t, _perturbed(data, list(edge_system(t).paths), candidates)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 7), st.sampled_from((0.3, 0.5, 0.7)), st.integers(0, 2**32), st.data())
    def test_gnp_hosts(self, n, p, seed, data):
        g = gen_gnp(n, p, seed)
        working = random_vertex_system(g, seed)
        candidates = list(enumerate_paths(g, True))
        self._agree(PathSystem(g, _perturbed(data, list(working.paths) if working else [], candidates)))

    def test_failing_witnesses(self):
        g = gen_gnp(64, 0.2, 1)
        fs = random_vertex_system(g, 1)
        ts = TargetSet.vertices(g)
        short = PathSystem(g, fs.paths[:-2])  # two blocks short: collisions
        assert not check(short, ts) and check(short, ts).label == "NotSeparated"
        self._agree(short)
        uncovered = PathSystem(g, [p for p in fs.paths if 0 not in p.vertices])
        assert covers(uncovered, ts).label == "NotCovered"
        self._agree(uncovered)


class TestSignatureEquivalence:
    """separates <=> pairwise-distinct signatures; covers <=> none empty."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 10),
        st.integers(0, 2**32),
        st.integers(0, 4),
        st.data(),
    )
    def test_by_table(self, n, seed, npaths, data):
        t = random_tree(n, seed)
        pairs = [
            (data.draw(st.sampled_from(t.vertices)), data.draw(st.sampled_from(t.vertices)))
            for _ in range(npaths)
        ]
        fs = PathSystem(t, tuple(unique_path(t, u, v) for u, v in pairs))
        ts = TargetSet.vertices(t)
        sig = signatures(fs, ts)
        expect_sep = len(set(sig.values())) == len(ts.elements)
        expect_cov = all(sig[s] for s in ts.elements)
        assert bool(separates(fs, ts)) == expect_sep
        assert bool(covers(fs, ts)) == expect_cov

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 2**32), st.integers(0, 4), st.data())
    def test_check_reports_the_first_failure(self, n, seed, npaths, data):
        t = random_tree(n, seed)
        pairs = [
            (data.draw(st.sampled_from(t.vertices)), data.draw(st.sampled_from(t.vertices)))
            for _ in range(npaths)
        ]
        fs = PathSystem(t, tuple(unique_path(t, u, v) for u, v in pairs))
        for ts in (TargetSet.vertices(t), TargetSet.edges(t)):
            sep, cov, verdict = separates(fs, ts), covers(fs, ts), check(fs, ts)
            if not sep:
                assert verdict == sep
            elif not cov:
                assert verdict == cov
            else:
                assert verdict and verdict.label == "SeparatesAndCovers"

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 2**32), st.data())
    def test_monotone_under_adding_a_path(self, n, seed, data):
        t = random_tree(n, seed)
        base = [
            (data.draw(st.sampled_from(t.vertices)), data.draw(st.sampled_from(t.vertices)))
            for _ in range(3)
        ]
        fs = PathSystem(t, tuple(unique_path(t, u, v) for u, v in base))
        ts = TargetSet.vertices(t)
        sig = signatures(fs, ts)
        separated_pairs = {
            (a, b)
            for a, b in itertools.combinations(ts.elements, 2)
            if sig[a] != sig[b]
        }
        extra = unique_path(
            t, data.draw(st.sampled_from(t.vertices)), data.draw(st.sampled_from(t.vertices))
        )
        fs2 = PathSystem(t, fs.paths + (extra,))
        sig2 = signatures(fs2, ts)
        for a, b in separated_pairs:
            assert sig2[a] != sig2[b]


def exact_verdicts(fs, ts):
    """check, separates and covers as the exact signature table gives them."""
    sig = signatures(fs, ts)
    return (
        check_signatures(sig, ts),
        check_signatures(sig, ts, covering=False),
        check_signatures(sig, ts, separation=False),
    )


def _tree_family(data, t):
    """A family on t: random paths, trivial ones included, maybe plus the
    edge system less a few paths, and maybe some paths repeated."""
    vs = st.sampled_from(t.vertices)
    paths = [unique_path(t, data.draw(vs), data.draw(vs)) for _ in range(data.draw(st.integers(0, 6)))]
    if data.draw(st.booleans()):
        working = edge_system(t).paths
        drop = data.draw(st.sets(st.sampled_from(range(len(working))), max_size=3))
        paths += [p for i, p in enumerate(working) if i not in drop]
    if paths:
        paths += data.draw(st.lists(st.sampled_from(paths), max_size=2))
    return tuple(paths)


class TestHashSweep:
    """On tree hosts the hash sweep gives exactly the verdicts and witnesses
    of the exact signature table."""

    @staticmethod
    def _targets(data, t):
        return (
            TargetSet.edges(t),
            TargetSet.vertices(t),
            TargetSet.vertices_and_interior_edges(t),
            _custom_target(data, t),
        )

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 2**32), st.data())
    def test_agrees_with_the_exact_table(self, n, seed, data):
        t = random_tree(n, seed)
        fs = PathSystem(t, _tree_family(data, t))
        words = seppaths.verify._path_words(len(fs.paths))
        for ts in self._targets(data, t):
            sig = signatures(fs, ts)
            assert _tree_hashes(fs, ts) == [sum(words[i] for i in sig[s]) for s in ts.elements]
            assert (check(fs, ts), separates(fs, ts), covers(fs, ts)) == exact_verdicts(fs, ts)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 2**32), st.sampled_from([(1,), (1, 2), (0, 1)]), st.data())
    def test_colliding_words_fall_back(self, n, seed, tiny, data):
        # words this small make passing families collide, and words of 0
        # leave covered elements at 0: only the exact table may decide then
        t = random_tree(n, seed)
        fs = PathSystem(t, _tree_family(data, t))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(seppaths.verify, "_path_words", lambda m: [tiny[i % len(tiny)] for i in range(m)])
            for ts in self._targets(data, t):
                assert (check(fs, ts), separates(fs, ts), covers(fs, ts)) == exact_verdicts(fs, ts)

    def test_collisions_still_accept_a_working_family(self, monkeypatch):
        monkeypatch.setattr(seppaths.verify, "_path_words", lambda m: [1] * m)
        exact = []
        original = seppaths.verify.signatures

        def counting(fs, ts):
            exact.append(ts.kind)
            return original(fs, ts)

        monkeypatch.setattr(seppaths.verify, "signatures", counting)
        t = random_tree(40, 3)
        fs = edge_system(t)  # its own check has already fallen back once
        assert exact
        exact.clear()
        verdict = check(fs, TargetSet.edges(t))
        assert verdict and verdict.label == "SeparatesAndCovers"
        assert len(exact) == 1

    def test_path_words_are_the_stream_prefix_in_any_call_order(self, monkeypatch):
        # one cached list, grown on demand: each call gives the first k
        # words of a fresh stream, as a list of its own
        monkeypatch.setattr(seppaths.verify, "_words", [])

        def fresh(k):
            rng = random.Random(seppaths.verify._WORD_SEED)
            return [rng.getrandbits(61) | 1 for _ in range(k)]

        for k in (0, 5, 3, 200):
            words = seppaths.verify._path_words(k)
            assert words == fresh(k), k
            words[:] = [0] * len(words)
            words.append(7)
            assert seppaths.verify._path_words(k) == fresh(k), k

    def test_path_words_grown_from_several_threads(self, monkeypatch):
        # four threads switching often, each growing the list while the
        # others read it: every call still gets the stream prefix
        monkeypatch.setattr(seppaths.verify, "_words", [])
        want = seppaths.verify._path_words(400)
        monkeypatch.setattr(seppaths.verify, "_words", [])
        bad = []

        def draw(counts):
            for k in counts:
                if seppaths.verify._path_words(k) != want[:k]:
                    bad.append(k)

        threads = [
            threading.Thread(target=draw, args=(range(start, 400, 7),)) for start in range(1, 5)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not bad

    def test_length_zero_paths_sum_like_the_table(self, depth2):
        # a one-vertex path is its own LCA, and sums its word at that vertex only
        for t in (depth2, random_tree(9, 1), random_tree(30, 2)):
            lone = [(v,) for v in t.vertices[::2] + t.vertices[:3]]
            fs = make_system(t, lone + [unique_path(t, t.vertices[0], t.vertices[-1]).vertices])
            words = seppaths.verify._path_words(fs.size)
            for ts in (TargetSet.edges(t), TargetSet.vertices(t), TargetSet.vertices_and_interior_edges(t)):
                sig = signatures(fs, ts)
                assert _tree_hashes(fs, ts) == [sum(words[i] for i in sig[s]) for s in ts.elements]

    def test_one_vertex_and_targets_outside_the_host(self, p4, double_star):
        lone = Tree([7], [])
        cases = [
            (make_system(lone, [(7,)]), TargetSet.vertices(lone)),
            (make_system(lone, []), TargetSet.vertices(lone)),
            (make_system(p4, [(0, 1), (1, 2, 3)]), TargetSet.custom(double_star, [0, 5, (1, 5), (0, 1)])),
            (make_system(p4, [(0, 1), (1, 2, 3)]), TargetSet.custom(double_star, [5, (0, 1)])),
            (make_system(p4, [(1, 2, 3)]), TargetSet.custom(double_star, [(0, 3)])),  # not a p4 edge
        ]
        for fs, ts in cases:
            assert (check(fs, ts), separates(fs, ts), covers(fs, ts)) == exact_verdicts(fs, ts)
        assert check(*cases[0])

    def test_check_is_not_a_path_walk(self):
        # the exact table walks all 1.6M path vertices (1.3-1.7 s on a
        # 2-vCPU VM); the hash sweep reads only the ends of the 9419 paths
        t = random_tree(25600, 1)
        fs = edge_system(t)
        ts = TargetSet.edges(t)
        start = time.perf_counter()
        verdict = check(fs, ts)
        assert time.perf_counter() - start < 1.0
        assert verdict.label == "SeparatesAndCovers"


def _graph_family(data, g):
    """A family on g, and its shape: random simple walks (one-vertex ones
    included), as drawn; with a path repeated; with every path avoiding a
    vertex x, so x is uncovered; with two vertices u, v on exactly the same
    paths (their own edge path, where they are adjacent, the one-vertex
    paths of the rest, and walks avoiding both); or with every one-vertex
    path added, so it separates and covers."""
    rnd = data.draw(st.randoms(use_true_random=False))

    def walks(count, avoid=()):
        free = [v for v in g.vertices if v not in avoid]
        out = []
        for _ in range(count if free else 0):
            walk = [rnd.choice(free)]
            for _ in range(rnd.randrange(g.n)):
                fresh = [w for w in g.neighbors(walk[-1]) if w not in avoid and w not in walk]
                if not fresh:
                    break
                walk.append(rnd.choice(fresh))
            out.append(walk)
        return out

    shape = data.draw(st.sampled_from(["drawn", "repeated", "uncovered", "twins", "working"]))
    paths = walks(rnd.randrange(1, 7))
    if shape == "repeated":
        paths.append(rnd.choice(paths))
    elif shape == "uncovered":
        paths = walks(rnd.randrange(0, 7), avoid={rnd.choice(g.vertices)})
    elif shape == "twins" and g.n >= 2:
        adjacent = [(u, v) for u in g.vertices for v in g.neighbors(u) if u < v]
        u, v = rnd.choice(adjacent) if adjacent else rnd.sample(g.vertices, 2)
        paths = walks(rnd.randrange(0, 7), avoid={u, v})
        paths += [[w] for w in g.vertices if w not in (u, v)] + ([[u, v]] if adjacent else [])
    elif shape == "working":
        paths += [[v] for v in g.vertices]
    return make_system(g, paths), shape


class TestGraphWordSums:
    """On graph hosts the vertex word sums give exactly the verdicts and
    witnesses of the exact signature table, and the decoder exactly what
    ``decode`` over the table gives."""

    @staticmethod
    def _targets(data, g):
        chosen = data.draw(st.lists(st.sampled_from(g.vertices), max_size=8))
        return TargetSet.vertices(g), TargetSet.custom(g, chosen)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12), st.sampled_from([0.2, 0.5]), st.integers(0, 2**32), st.data())
    def test_agrees_with_the_exact_table(self, n, p, seed, data):
        g = gen_gnp(n, p, seed)
        fs, shape = _graph_family(data, g)
        words = seppaths.verify._path_words(len(fs.paths))
        for ts in self._targets(data, g):
            sig = signatures(fs, ts)
            assert _vertex_sums(fs, ts) == [sum(words[i] for i in sig[s]) for s in ts.elements]
            verdicts = (check(fs, ts), separates(fs, ts), covers(fs, ts))
            assert verdicts == exact_verdicts(fs, ts)
            assert (_certified_sums(fs, ts) is not None) == verdicts[0].ok
        ts = TargetSet.vertices(g)
        if shape == "working":
            assert check(fs, ts)
        elif shape == "uncovered" or (shape == "twins" and n >= 2):
            assert not check(fs, ts)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.sampled_from([0.2, 0.5]), st.integers(0, 2**32), st.data())
    def test_decoder_agrees_with_the_table(self, n, p, seed, data):
        g = gen_gnp(n, p, seed)
        fs, _ = _graph_family(data, g)
        for ts in self._targets(data, g):
            try:
                table = signature_table(fs, ts)
            except (NotSeparating, NotCovering) as error:
                with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
                    decoder(fs, ts)
                continue
            decode_report = decoder(fs, ts)
            assert not isinstance(decode_report, partial)  # decoded by sums
            singles = [simulate_probes(fs, s) for s in ts.elements]
            doubles = [
                ProbeReport(tuple(map(operator.and_, a.outcomes, b.outcomes)))
                for a, b in itertools.combinations(singles, 2)
            ]
            for report in [simulate_probes(fs, None), *singles, *doubles]:
                assert decode_report(report) == decode(table, report)


class TestCheckOnce:
    """Each public construction and the signature table sweep once per call:
    one exact signature sweep, one tree hash sweep or one vertex word-sum
    sweep, never two."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        calls = []
        for name in ("signatures", "_tree_hashes", "_vertex_sums"):
            original = getattr(seppaths.verify, name)

            def counting(fs, ts, original=original):
                calls.append(ts.kind)
                return original(fs, ts)

            monkeypatch.setattr(seppaths.verify, name, counting)
        return calls

    def test_edge_system(self, sweeps):
        from seppaths import edge_system

        for seed in range(4):
            edge_system(random_tree(40, seed))  # several reduction steps each
            assert len(sweeps) == seed + 1

    def test_vertex_systems(self, sweeps, double_star):
        vertex_system(double_star)
        assert len(sweeps) == 1
        vertex_interior_system(double_star)
        assert len(sweeps) == 2

    def test_signature_table(self, sweeps, double_star):
        from seppaths import edge_system, signature_table

        fs = edge_system(double_star)
        sweeps.clear()
        table = signature_table(fs, TargetSet.edges(double_star))
        assert len(sweeps) == 1 and len(table) == double_star.n - 1

    def test_min_separating(self, sweeps, p4):
        min_separating(p4, TargetSet.edges(p4))
        assert len(sweeps) == 1

    def test_min_separating_without_cover(self, sweeps, p4):
        min_separating(p4, TargetSet.edges(p4), require_cover=False)
        assert len(sweeps) == 1

    def test_random_vertex_system(self, sweeps):
        complete = Graph(6, itertools.combinations(range(6), 2))
        assert random_vertex_system(complete, 3) is not None
        assert sweeps == [TargetKind.VERTICES]


class TestOneDoor:
    """Every family the package builds is checked by ``verify.built_system``,
    and nothing else makes a ``PathSystem`` without validating its paths."""

    @pytest.fixture
    def failing(self, monkeypatch):
        def fail(fs, ts):
            return Verdict(False, "NotSeparated", ts.elements[:2])

        monkeypatch.setattr(seppaths.verify, "check", fail)
        monkeypatch.setattr(seppaths.verify, "separates", fail)

    def _raises(self, label, build, *args):
        with pytest.raises(InternalClassificationError) as info:
            build(*args)
        assert str(info.value).startswith(f"{label}: NotSeparated("), str(info.value)

    def test_edge_system_names_its_case(self, failing, e1, depth2, double_star):
        for t in (e1, depth2, double_star, random_tree(30, 1), path_tree(6)):
            self._raises(_edge_pairs(t)[1], edge_system, t)

    def test_leaf_order_constructions(self, failing, double_star):
        for build in (abc_construction, planar_construction, bunch_construction):
            self._raises(build.__name__, build, double_star)

    def test_vertex_systems(self, failing, double_star):
        for build in (vertex_system, vertex_interior_system):
            self._raises(build.__name__, build, double_star)

    @pytest.mark.parametrize("cover", [True, False])
    def test_min_separating(self, failing, p4, cover):
        self._raises("oracle family fails", min_separating, p4, TargetSet.vertices(p4), cover)

    def test_random_vertex_system(self, failing):
        complete = Graph(6, itertools.combinations(range(6), 2))
        self._raises("random_vertex_system", random_vertex_system, complete, 3)

    def test_no_other_module_skips_path_validation(self):
        # the door is the only PathSystem made without validating its paths
        trusted = re.compile(r"\b_trusted\b|object\.__new__\(\s*PathSystem\b")
        src = Path(seppaths.verify.__file__).parent
        found = [
            f"{path.name}:{no}"
            for path in sorted(src.glob("*.py"))
            if path.name != "verify.py"
            for no, line in enumerate(path.read_text().splitlines(), start=1)
            if trusted.search(line)
        ]
        assert found == []
        assert trusted.search((src / "verify.py").read_text())  # the pattern finds the door


class TestNecessaryConditions:
    """Consequences every vertex-separating family must satisfy, checked on
    exact-minimum families for every tree with at most 9 vertices."""

    def _systems(self):
        for n in range(2, 10):
            for t in enumerate_trees(n):
                yield t, min_separating(t, TargetSet.vertices(t)).system

    def test_every_edge_kissed(self):
        for t, fs in self._systems():
            for e in t.edges:
                assert any(kisses(p, e) for p in fs.paths), (t, e)

    def test_degree2_edge_has_path_end(self):
        for t, fs in self._systems():
            for x, y in t.edges:
                if t.degree(x) == 2 and t.degree(y) == 2:
                    ends = {v for p in fs.paths for v in p.endpoints}
                    assert ends & {x, y}, (t, (x, y))


class TestTextFormat:
    def test_parse_with_comments(self, p4):
        fs = parse_paths(p4, "# system\n0 1 2\n\n3 2  # tail\n")
        assert [p.vertices for p in fs.paths] == [(0, 1, 2), (3, 2)]

    def test_write_is_canonical_fixpoint(self, p4):
        fs = parse_paths(p4, "0 1 2\n3 2\n")
        text = serialize_paths(fs)
        assert serialize_paths(parse_paths(p4, text)) == text
        assert text == "0 1 2\n3 2\n"

    def test_invalid_path_rejected(self, p4):
        with pytest.raises(InvalidPath):
            parse_paths(p4, "0 2\n")

    def test_duplicates_flagged_by_lint(self, p4):
        fs = parse_paths(p4, "0 1\n1 0\n")
        assert fs.lint() == ["path 1 duplicates path 0"]
        assert not parse_paths(p4, "0 1\n1 2\n").lint()


def _step_by_step_error(host, paths):
    """The message of the first InvalidPath the per-vertex, then per-step
    validation raises, or None."""
    for p in paths:
        for v in p.vertices:
            if not host.has_vertex(v):
                return f"path {p} uses unknown vertex {v}"
        for u, v in zip(p.vertices, p.vertices[1:]):
            if not host.has_edge(u, v):
                return f"path {p}: {u} and {v} are not adjacent"
    return None


class TestPathValidation:
    def test_unknown_vertex_is_named_before_a_bad_step(self, p4):
        # the second path steps 0 -> 2 (not adjacent) before reaching 9
        with pytest.raises(InvalidPath) as info:
            parse_paths(p4, "0 1 2\n0 2 9\n")
        assert str(info.value) == "path 0-2-9 uses unknown vertex 9"

    def test_first_failing_path_is_named(self, p4):
        with pytest.raises(InvalidPath) as info:
            parse_paths(p4, "3 2\n1 3\n7\n")
        assert str(info.value) == "path 1-3: 1 and 3 are not adjacent"

    def test_length_zero_path_on_an_unknown_vertex(self, p4):
        assert [p.vertices for p in parse_paths(p4, "2\n").paths] == [(2,)]
        with pytest.raises(InvalidPath) as info:
            parse_paths(p4, "0 1\n7\n")
        assert str(info.value) == "path 7 uses unknown vertex 7"

    def test_one_vertex_tree(self):
        t = Tree([5], [])
        assert PathSystem(t, (path_of(5),)).paths == (path_of(5),)
        with pytest.raises(InvalidPath, match="unknown vertex 4"):
            PathSystem(t, (path_of(4),))

    def test_valid_graph_paths_take_no_step_by_step_walk(self, monkeypatch):
        calls = []
        real = Graph.has_edge

        def counting(self, u, v):
            calls.append((u, v))
            return real(self, u, v)

        monkeypatch.setattr(Graph, "has_edge", counting)
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        fs = make_system(g, [(0, 1, 2), (4, 3, 2, 1), (0, 4), (3,)])
        assert fs.size == 4 and calls == []
        with pytest.raises(InvalidPath, match="^path 4-0-2: 0 and 2 are not adjacent$"):
            make_system(g, [(4, 0, 2)])
        assert calls == [(4, 0), (0, 2)]  # the walk names the failing path's fault

    def test_a_few_steps_on_a_dense_graph_never_iterate_its_edges(self):
        class CountingEdges(frozenset):
            iterations = 0

            def __iter__(self):
                CountingEdges.iterations += 1
                return super().__iter__()

        g = gen_gnp(300, 0.5, 1)
        g.edges = CountingEdges(g.edges)
        a, b, c = g.neighbors(0)[:3]
        fs = make_system(g, [(0, a), (b, 0, c)])
        assert fs.size == 2 and CountingEdges.iterations == 0
        missing = next(v for v in g.vertices if v and not g.has_edge(0, v))
        with pytest.raises(InvalidPath, match=f"^path {b}-0-{missing}: 0 and {missing} are not adjacent$"):
            make_system(g, [(0, a), (b, 0, missing)])
        assert CountingEdges.iterations == 0
        # no family, of any size, iterates the host's edges
        cycle = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        cycle.edges = CountingEdges(cycle.edges)
        make_system(cycle, [(0, 1, 2), (4, 3, 2)])
        make_system(cycle, [(0, 1, 2), (4, 3, 2), (0, 4)])
        make_system(cycle, [(0, 1, 2, 3, 4)] * 10)
        assert CountingEdges.iterations == 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 2**32), st.data())
    def test_same_first_error_as_step_by_step(self, n, seed, data):
        vertex = st.integers(0, n + 1)  # n and n + 1 are not in the host
        walks = st.lists(vertex, min_size=1, max_size=5, unique=True)
        paths = [path_of(*vs) for vs in data.draw(st.lists(walks, max_size=4))]
        for host in (random_tree(n, seed), gen_gnp(n, 0.5, seed)):
            expected = _step_by_step_error(host, paths)
            if expected is None:
                assert PathSystem(host, tuple(paths)).paths == tuple(paths)
            else:
                with pytest.raises(InvalidPath) as info:
                    PathSystem(host, tuple(paths))
                assert str(info.value) == expected


def line_by_line_parse_paths(host, text):
    """The reference reader: every token through ``int``, each line a
    validating ``PathInTree``, and the whole family validated again by
    ``PathSystem``."""
    paths = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            seq = tuple(map(int, line.split()))
        except ValueError:
            raise BadToken(f"line {lineno}: non-integer token in {raw!r}") from None
        try:
            paths.append(PathInTree(seq))
        except InvalidPath as exc:
            raise InvalidPath(f"line {lineno}: {exc}") from None
    return PathSystem(host, tuple(paths))


def _outcome(parse, host, text):
    """The parsed vertex sequences, or the class and message of the error."""
    try:
        return [p.vertices for p in parse(host, text).paths]
    except (BadToken, InvalidPath) as exc:
        return type(exc), str(exc)


_ARABIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
# spellings of a vertex id that int() reads as the same id
_SPELLINGS = (
    lambda v: "0" + str(v), lambda v: "+" + str(v), lambda v: str(v).translate(_ARABIC),
    lambda v: "-0" if v == 0 else "0_" + str(v),
)
_ODD_TOKENS = ("x", "3.0", "-1", "-12", "1e3", "0x1", "1__0", "\u00bd")


@st.composite
def _path_lines(draw, host):
    """A document of paths on the host: walks along its edges, some edited
    to repeat a vertex, step to a non-adjacent one, take an unknown or
    negative id or an odd token, spelled canonically or not, among blank
    and comment lines."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["walk"] * 6 + ["blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# note", "#", "  # 1 2 x"])))
            continue
        seq = [draw(st.sampled_from(host.vertices))]
        for _ in range(draw(st.integers(0, 4))):
            ahead = [w for w in host.neighbors(seq[-1]) if w not in seq]
            if not ahead:
                break
            seq.append(draw(st.sampled_from(ahead)))
        edits = ["repeat", "skip", "jump", "unknown", "negative", "lone"]
        edit = draw(st.sampled_from([None] * 8 + edits))
        far = [v for v in host.vertices if v not in seq and not host.has_edge(seq[-1], v)]
        if edit == "repeat":
            seq.insert(draw(st.integers(0, len(seq))), draw(st.sampled_from(seq)))
        elif edit == "skip" and len(seq) > 2:
            del seq[1]
        elif edit == "jump" and far:  # a step to a vertex that is not adjacent
            seq.append(draw(st.sampled_from(far)))
        elif edit == "unknown":
            seq.insert(draw(st.integers(0, len(seq))), host.n + draw(st.integers(0, 2)))
        elif edit == "negative":
            seq.insert(draw(st.integers(0, len(seq))), -draw(st.integers(1, 3)))
        elif edit == "lone":
            seq = [draw(st.sampled_from([*host.vertices, host.n, host.n + 5]))]
        tokens = [
            draw(st.sampled_from(_SPELLINGS))(v) if v >= 0 and draw(st.booleans()) else str(v)
            for v in seq
        ]
        if draw(st.integers(0, 5)) == 0:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_ODD_TOKENS))
        gap = draw(st.sampled_from([" ", "  ", "\t", " \t"]))
        tail = draw(st.sampled_from(["", "", "  # tail", "#x", "\t"]))
        lines.append(draw(st.sampled_from(["", " "])) + gap.join(tokens) + tail)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + end for line in lines)


class TestParsePathsReference:
    """``parse_paths`` reads each line once; it parses to the same paths,
    or fails with the same error, as the line-by-line reader."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 2**32), st.booleans(), st.data())
    def test_same_outcome_as_line_by_line(self, n, seed, graph, data):
        host = gen_gnp(n, 0.5, seed) if graph else random_tree(n, seed)
        text = data.draw(_path_lines(host))
        assert _outcome(parse_paths, host, text) == _outcome(line_by_line_parse_paths, host, text)

    @pytest.mark.parametrize("text, error", [
        ("0 2\n0 x\n", "BadToken: line 2: non-integer token in '0 x'"),
        ("0 2\n1 2 1\n", "InvalidPath: line 2: repeated vertex in path (1, 2, 1)"),
        ("0 2\n9\n", "InvalidPath: path 0-2: 0 and 2 are not adjacent"),
        ("0 1\n2 -1\n0 2\n", "InvalidPath: path 2--1 uses unknown vertex -1"),
        ("003 +2 \u0661\n-0\n", [(3, 2, 1), (0,)]),
    ])
    def test_errors_name_what_line_by_line_names(self, p4, text, error):
        expected = _outcome(line_by_line_parse_paths, p4, text)
        assert _outcome(parse_paths, p4, text) == expected
        if isinstance(error, list):
            assert expected == error
        else:
            assert f"{expected[0].__name__}: {expected[1]}" == error

    def test_a_canonical_deployment_is_neither_revalidated_nor_walked(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a valid deployment was validated twice")

        deployments = []
        for seed in (1, 2):
            t = random_tree(120, seed)
            deployments.append((t, edge_system(t)))
            t = leafy_tree(60, seed)
            deployments.append((t, vertex_system(t)))
        g = gen_gnp(300, supercritical_p(300), 1)
        deployments.append((g, random_vertex_system(g, 1)))
        texts = [serialize_paths(fs) for _, fs in deployments]
        monkeypatch.setattr(PathInTree, "__post_init__", refuse)
        monkeypatch.setattr(seppaths.verify, "_walk", refuse)
        for (t, fs), text in zip(deployments, texts):
            assert parse_paths(t, text).paths == fs.paths

    def test_only_the_first_failing_path_is_walked(self, p4, monkeypatch):
        walked = []
        real = seppaths.verify._walk

        def walk(host, p):
            walked.append(p.vertices)
            return real(host, p)

        monkeypatch.setattr(seppaths.verify, "_walk", walk)
        with pytest.raises(InvalidPath, match="^path 3-1: 3 and 1 are not adjacent$"):
            parse_paths(p4, "0 1 2\n3 1\n9\n2 0\n")
        assert walked == [(3, 1)]
