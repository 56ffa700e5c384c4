"""The acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import functools
import math
import random
import time

import pytest

from seppaths import (
    Diagnosis,
    ExperimentConfig,
    TargetSet,
    Tree,
    abc_construction,
    bunch_construction,
    covers,
    decode,
    edge_formula,
    edge_system,
    edge_target_size,
    planar_construction,
    profile,
    random_tree,
    run_experiment,
    separates,
    separating_set_system,
    sharp_value,
    signature_table,
    simulate_probes,
    sliding_window_cover,
    vertex_interior_system,
    vertex_lower_bound,
    vertex_system,
    vertex_upper_formula,
)
from seppaths.errors import UnsupportedTree
from seppaths.oracle import enumerate_trees, min_separating
from seppaths.random_graphs import subcritical_p, supercritical_p
from seppaths.vertex_systems import BunchMismatchWarning, is_cubic_leafy
from seppaths.verify import PathSystem

from conftest import contract_bare_paths, path_tree, relabel_compact, subdivide_interior_edges

pytestmark = pytest.mark.filterwarnings(
    "ignore::seppaths.vertex_systems.BunchMismatchWarning"
)


def criterion(number, description, budget_s):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            started = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {description}")
                raise
            elapsed = time.monotonic() - started
            verdict = "PASS" if elapsed < budget_s else "FAIL"
            print(f"ACCEPTANCE {number} {verdict}: {description} ({elapsed:.1f}s)")
            assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"
        return run
    return wrap


@pytest.fixture(scope="module")
def all_trees_to_9():
    return {n: enumerate_trees(n) for n in range(2, 10)}


@criterion(1, "edge systems hit the exact formula for all 94 trees with n <= 9", 10)
def test_criterion_1_edge_exactness(all_trees_to_9):
    from seppaths.edge_systems import is_depth2_binary

    total = 0
    for n, trees in all_trees_to_9.items():
        for t in trees:
            p = profile(t)
            if n == 2:
                # one path covers the lone edge and separation is vacuous;
                # the two-ceilings formula only binds from three vertices up
                want = 1
            elif is_depth2_binary(t):
                want = 4
            else:
                want = edge_formula(p.h1, p.h2)
            assert edge_target_size(t) == want
            fs = edge_system(t)
            ts = TargetSet.edges(t)
            assert separates(fs, ts) and covers(fs, ts)
            assert fs.size == want, (t, fs.size, want)
            total += 1
    assert total == 94


@criterion(2, "brute-force edge minima equal the formula for all trees n <= 8", 300)
def test_criterion_2_oracle_agreement(all_trees_to_9):
    for n in range(2, 9):
        for t in all_trees_to_9[n]:
            res = min_separating(t, TargetSet.edges(t))
            assert res.size == edge_target_size(t), (t, res.size)


@criterion(3, "vertex lower bound <= optimum <= construction <= upper formula (n <= 8)", 300)
def test_criterion_3_vertex_sandwich(all_trees_to_9):
    eligible = 0
    for n in range(2, 9):
        for t in all_trees_to_9[n]:
            p = profile(t)
            opt = min_separating(t, TargetSet.vertices(t)).size
            assert vertex_lower_bound(p) <= opt, (t, vertex_lower_bound(p), opt)
            try:
                fs = vertex_system(t)
            except UnsupportedTree:
                continue
            eligible += 1
            ts = TargetSet.vertices(t)
            assert separates(fs, ts) and covers(fs, ts)
            assert opt <= fs.size <= vertex_upper_formula(p), (t, opt, fs.size)
    assert eligible >= 10


@criterion(4, "sharp families: paths, degree-{1,3} trees, and their subdivisions", 300)
def test_criterion_4_sharp_families(all_trees_to_9):
    # (a) paths: the full-run window cover and the optimum are ceil((n+1)/2)
    for n in range(2, 10):
        t = path_tree(n)
        want = (n + 1 + 1) // 2
        frag = sliding_window_cover(t, tuple(range(n)))
        assert len(frag) == want
        fs = PathSystem(t, tuple(frag))
        ts = TargetSet.vertices(t)
        assert separates(fs, ts) and covers(fs, ts)
        assert min_separating(t, ts).size == want
        assert sharp_value(t, ts) == want

    # (b) degree-{1,3} trees with n <= 10: optimum for vertices-plus-interior
    # is h1 = |E*| + 3, achieved by the consecutive-leaf construction
    trees = [t for n in range(4, 10) for t in all_trees_to_9[n]] + list(enumerate_trees(10))
    cubic = [t for t in trees if is_cubic_leafy(t)]
    assert len(cubic) == 5  # one shape each at n = 4, 6, 8, two at n = 10
    for t in cubic:
        p = profile(t)
        assert p.h1 == len(p.interior_edges) + 3
        ts = TargetSet.vertices_and_interior_edges(t)
        assert min_separating(t, ts).size == p.h1
        assert vertex_interior_system(t).size == p.h1
        assert sharp_value(t, ts) == p.h1

    # (c) subdividing every interior edge of a degree-{1,3} tree with n <= 7
    # gives a tree whose vertex optimum is its leaf count
    for t in [t for n in (4, 6) for t in all_trees_to_9[n] if is_cubic_leafy(t)]:
        star = subdivide_interior_edges(t)
        p = profile(star)
        ts = TargetSet.vertices(star)
        assert min_separating(star, ts).size == p.h1
        assert sharp_value(star, ts) == p.h1


def _series_reduced(seed: int) -> Tree:
    rng = random.Random(seed)
    raw = random_tree(rng.randint(4, 40), seed)
    t, _ = relabel_compact(contract_bare_paths(raw)[0])
    return t


def _leafy(seed: int) -> Tree:
    rng = random.Random(seed)
    skeleton = _series_reduced(seed)
    if skeleton.n > 9:
        skeleton, _ = relabel_compact(contract_bare_paths(random_tree(6, seed))[0])
    edges = list(skeleton.edges)
    nxt = skeleton.n
    for leaf in skeleton.leaves():
        for _ in range(rng.randint(3, 5)):
            if nxt >= 40:
                break
            edges.append((leaf, nxt))
            nxt += 1
    return Tree.from_edges(edges)


@criterion(5, "leaf-order construction suites on 200 seeded random trees (n <= 40)", 30)
def test_criterion_5_construction_suites():
    abc_hits = planar_hits = bunch_hits = 0
    for seed in range(200):
        t = _series_reduced(seed)  # h2 = 0 by construction
        p = profile(t)
        if t.n >= 3 and p.h1 % 3 == 0:
            fs = abc_construction(t)  # verified edge-separating-covering
            assert fs.size == 2 * p.h1 // 3
            abc_hits += 1
        if p.h1 >= 3:
            fs = planar_construction(t)  # verified for E and V+E*
            assert fs.size == p.h1
            for e in t.edges:
                assert sum(e in frozenset(q.edges()) for q in fs.paths) == 2
            planar_hits += 1
        leafy = _leafy(seed)
        lp = profile(leafy)
        if all(b.size >= 3 for b in lp.bunches) and lp.h2 == 0:
            fs = bunch_construction(leafy)  # verified for E and V+E*
            assert fs.size == -(-2 * lp.h1 // 3)
            bunch_hits += 1
    assert abc_hits >= 30, abc_hits
    assert planar_hits >= 150, planar_hits
    assert bunch_hits >= 150, bunch_hits


@criterion(6, "random-graph regimes: supercritical systems, subcritical isolation", 600)
def test_criterion_6_random_regimes():
    bound = {n: math.ceil(math.log2(n)) + 1 for n in (64, 128, 256)}
    for n in (64, 128, 256):
        stats = run_experiment(
            ExperimentConfig(n=n, p=supercritical_p(n), trials=50, seed=20240801)
        )
        assert stats.success_rate >= 0.9, (n, stats.success_rate)
        assert all(s <= bound[n] for s in stats.sizes), (n, stats.sizes)
    for n in (64, 128, 256):
        stats = run_experiment(
            ExperimentConfig(n=n, p=subcritical_p(n), trials=50, seed=20240802)
        )
        assert stats.mean_isolated >= math.log(n), (n, stats.mean_isolated)


@criterion(7, "every single fault decodes to itself on all constructed systems (n <= 9)", 300)
def test_criterion_7_fault_round_trip(all_trees_to_9):
    for n, trees in all_trees_to_9.items():
        for t in trees:
            systems = [(edge_system(t), TargetSet.edges(t))]
            try:
                systems.append((vertex_system(t), TargetSet.vertices(t)))
            except UnsupportedTree:
                pass
            for fs, ts in systems:
                table = signature_table(fs, ts)
                assert decode(table, simulate_probes(fs, None)).kind == Diagnosis.NO_FAULT
                for s in ts.elements:
                    diag = decode(table, simulate_probes(fs, s))
                    assert diag.kind == Diagnosis.IDENTIFIED, (t, s, diag)
                    assert diag.element == s, (t, s, diag)


@criterion(8, "set-system block counts and signatures for all 2 <= n <= 4096", 10)
def test_criterion_8_set_system_sweep():
    np = pytest.importorskip("numpy")

    for n in range(2, 4097):
        ss = separating_set_system(n)
        assert ss.size <= math.ceil(math.log2(n)) + 1, n
        sig = np.zeros(n, dtype=np.int64)
        for i, blk in enumerate(ss.blocks):
            sig[np.fromiter(blk, dtype=np.int64, count=len(blk))] |= 1 << i
        assert len(np.unique(sig)) == n, n
        assert int(sig.min()) > 0, n
