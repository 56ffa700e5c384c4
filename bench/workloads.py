"""Seeded inputs for the four workloads.

``setup(name, seed, workdir, lib)`` writes every input file under
``workdir`` and returns the workload's op list.  One op is one call of
``seppaths.cli.main`` with JSON output; the same seed gives the same files
and the same op list.  The program only ever sees the written files and the
argument vectors.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checker

# tree-design: (size, count) per op class; more seeds where ops are cheap.
# construct-edge at n=100 and construct-vertex at m=200 take about the same
# time; with eight n=100 trees the median op is an n=100 one.  The n=200
# class is the largest of the slow ones, so the tail percentile lands inside
# it.
EDGE_SIZES = ((50, 8), (100, 8), (200, 6), (400, 1))
VERTEX_SKELETONS = ((100, 2), (200, 2), (400, 1))
SPIDER_LEGS, SPIDER_LEG_EDGES = 3, 100
LEAVES_PER_SKELETON_LEAF = 3

# fault-localize: requests per pass on each deployment, as
# (single fault, healthy, double fault).  Edge requests outnumber vertex
# requests two to one so the median request is an edge request.
EDGE_REQUESTS = (26, 3, 3)
VERTEX_REQUESTS = (13, 1, 2)

# gnp-experiment: (n, regime, trials, calls per pass).  One trial per call
# gives enough calls for a tail.  The counts put the median op inside the
# subcritical class and the tail (rank 17 of 22) near the middle of the n=2048
# supercritical class, whose time varies most from graph to graph.
GNP_CALLS = (
    (1024, "supercritical", 1, 2),
    (2048, "subcritical", 1, 11),
    (2048, "supercritical", 1, 9),
)

# oracle-certify: every unlabeled tree up to ORACLE_MAX_N vertices, each
# under ORACLE_LABELINGS seeded vertex numberings.  The search order, and so
# the solve time, depends on the numbering; two per tree halve the run-to-run
# variance that one numbering gives.
ORACLE_MAX_N = 9
ORACLE_LABELINGS = 2
ORACLE_TARGETS = ("edges", "vertices")


@dataclass
class Op:
    """One CLI call, its size class, and the check for its JSON output."""

    label: str
    argv: list[str]
    check: Callable[[dict], str | None]
    report: str = ""  # fault-localize: "single", "healthy" or "double"
    system_size: int = 0  # fault-localize: paths in the probed deployment


@dataclass
class Workload:
    ops: list[Op]
    setup_problems: list[str]


def _write_tree(path: Path, edges) -> None:
    path.write_text("".join(f"{u} {v}\n" for u, v in sorted(edges)))


def _relabel(edges, rng: random.Random):
    vs = sorted({v for e in edges for v in e})
    ids = list(range(len(vs)))
    rng.shuffle(ids)
    new = dict(zip(vs, ids))
    return [checker.edge_key(new[u], new[v]) for u, v in edges]


def leafy_tree(lib, m: int, seed: int):
    """A random_tree(m) skeleton with three fresh leaves on each skeleton leaf."""
    skeleton = lib.trees.random_tree(m, seed)
    edges = sorted(skeleton.edges)
    adj = checker.adjacency(edges)
    nxt = m
    for v in sorted(adj):
        if len(adj[v]) == 1:
            for _ in range(LEAVES_PER_SKELETON_LEAF):
                edges.append((v, nxt))
                nxt += 1
    return edges


def spider_edges():
    edges, nxt = [], 1
    for _ in range(SPIDER_LEGS):
        prev = 0
        for _ in range(SPIDER_LEG_EDGES):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return edges


def _tree_op(workdir: Path, label: str, command: str, edges, check) -> Op:
    path = workdir / f"{label}.tree"
    _write_tree(path, edges)
    adj = checker.adjacency(edges)
    return Op(label.rsplit("-", 1)[0], ["--format", "json", command, str(path)],
              partial(check, adj=adj))


def setup_tree_design(seed, workdir, lib):
    rng = random.Random(seed)
    ops = []
    for n, count in EDGE_SIZES:
        for i in range(count):
            edges = sorted(lib.trees.random_tree(n, rng.getrandbits(32)).edges)
            ops.append(_tree_op(workdir, f"edge-n{n}-{i}", "construct-edge", edges,
                                checker.check_construct_edge))
    spider = _relabel(spider_edges(), rng)
    ops.append(_tree_op(workdir, "spider-0", "construct-edge", spider,
                        checker.check_construct_edge))
    for m, count in VERTEX_SKELETONS:
        for i in range(count):
            edges = leafy_tree(lib, m, rng.getrandbits(32))
            ops.append(_tree_op(workdir, f"vertex-m{m}-{i}", "construct-vertex", edges,
                                checker.check_construct_vertex))
    return Workload(ops, [])


def _deploy(lib, workdir: Path, name: str, edges, command: str, target: str,
            counts, rng: random.Random, problems: list[str]) -> list[Op]:
    """Build a deployment through the CLI, write it, and make its requests."""
    tree_file, paths_file = workdir / f"{name}.tree", workdir / f"{name}.paths"
    _write_tree(tree_file, edges)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = lib.cli.main(["--format", "json", command, str(tree_file)])
    if code != 0:
        problems.append(f"{name}: {command} exited {code}")
        return []
    paths = json.loads(buf.getvalue())["paths"]
    paths_file.write_text("".join(" ".join(map(str, p)) + "\n" for p in paths))
    adj = checker.adjacency(edges)
    problem = checker.separation_problem(adj, paths, target)
    if problem:
        problems.append(f"{name} deployment: {problem}")
        return []
    sig = checker.signatures(adj, paths, target)
    owner = {ix: s for s, ix in sig.items()}
    elements = sorted(sig)

    def as_json(s):
        return list(s) if isinstance(s, tuple) else s

    requests = []
    single, healthy, double = counts
    for kind, k in (("single", single), ("healthy", healthy), ("double", double)):
        for _ in range(k):
            if kind == "single":
                s = rng.choice(elements)
                failed, expected = sig[s], ("Identified", as_json(s))
            elif kind == "healthy":
                failed, expected = frozenset(), ("NoFault", None)
            else:
                a, b = rng.sample(elements, 2)
                failed = sig[a] | sig[b]
                hit = owner.get(failed)
                expected = ("Inconsistent", None) if hit is None else ("Identified", as_json(hit))
            requests.append((kind, failed, (*expected, sorted(failed))))
    rng.shuffle(requests)
    ops = []
    for kind, failed, expected in requests:
        report = "".join("F" if i in failed else "P" for i in range(len(paths)))
        argv = ["--format", "json", "localize", str(tree_file), str(paths_file),
                "--target", target, "--report", report]
        ops.append(Op(f"localize-{name}", argv,
                      partial(checker.check_localize, expected=expected),
                      report=kind, system_size=len(paths)))
    return ops


def setup_fault_localize(seed, workdir, lib):
    rng = random.Random(seed)
    problems: list[str] = []
    edge_tree = sorted(lib.trees.random_tree(400, rng.getrandbits(32)).edges)
    vertex_tree = leafy_tree(lib, 400, rng.getrandbits(32))
    ops = _deploy(lib, workdir, "edge", edge_tree, "construct-edge", "edges",
                  EDGE_REQUESTS, rng, problems)
    ops += _deploy(lib, workdir, "vertex", vertex_tree, "construct-vertex", "vertices",
                   VERTEX_REQUESTS, rng, problems)
    rng.shuffle(ops)
    return Workload(ops, problems)


def setup_gnp_experiment(seed, workdir, lib):
    rng = random.Random(seed)
    ops = []
    for n, regime, trials, calls in GNP_CALLS:
        for _ in range(calls):
            argv = ["--format", "json", "random-exp", "--n", str(n), f"--auto-{regime}",
                    "--trials", str(trials), "--seed", str(rng.getrandbits(32))]
            ops.append(Op(f"{regime}-n{n}", argv,
                          partial(checker.check_random_exp, n=n, trials=trials)))
    return Workload(ops, [])


def setup_oracle_certify(seed, workdir, lib):
    rng = random.Random(seed)
    ops = []
    for n in range(2, ORACLE_MAX_N + 1):
        for i, t in enumerate(lib.oracle.enumerate_trees(n)):
            for k in range(ORACLE_LABELINGS):
                edges = _relabel(sorted(t.edges), rng)
                path = workdir / f"oracle-n{n}-{i}-{k}.tree"
                _write_tree(path, edges)
                adj = checker.adjacency(edges)
                for target in ORACLE_TARGETS:
                    argv = ["--format", "json", "oracle", str(path), "--target", target]
                    ops.append(Op(f"oracle-{target}-n{n}", argv,
                                  partial(checker.check_oracle, adj=adj, target=target)))
    return Workload(ops, [])


SETUP = {
    "tree-design": setup_tree_design,
    "fault-localize": setup_fault_localize,
    "gnp-experiment": setup_gnp_experiment,
    "oracle-certify": setup_oracle_certify,
}
WORKLOADS = tuple(SETUP)


def setup(name: str, seed: int, workdir: Path, lib) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return SETUP[name](seed, workdir, lib)
