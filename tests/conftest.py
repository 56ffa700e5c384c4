"""Shared fixtures: the named example trees used across the suite, and the
tree-surgery references the tests build trees and check results with."""

import pytest

from seppaths import Edge, PathInTree, Tree, edge, parse_tree, profile, random_tree
from seppaths.errors import PreconditionViolated, TreeTooSmall, UnknownElement, UnknownVertex

SINGLE_EDGE_TEXT = "0 1\n"
P3_TEXT = "0 1\n1 2\n"
P4_TEXT = "0 1\n1 2\n2 3\n"
K13_TEXT = "0 1\n0 2\n0 3\n"
DEPTH2_TEXT = "1 2\n1 3\n2 4\n2 5\n3 6\n3 7\n"
DOUBLE_STAR_TEXT = "0 1\n0 2\n0 3\n0 4\n1 5\n1 6\n1 7\n"
BROOM_TEXT = "0 1\n1 2\n2 3\n0 4\n0 5\n3 6\n3 7\n"


@pytest.fixture
def e1():
    return parse_tree(SINGLE_EDGE_TEXT)


@pytest.fixture
def p3():
    return parse_tree(P3_TEXT)


@pytest.fixture
def p4():
    return parse_tree(P4_TEXT)


@pytest.fixture
def k13():
    return parse_tree(K13_TEXT)


@pytest.fixture
def depth2():
    return parse_tree(DEPTH2_TEXT)


@pytest.fixture
def double_star():
    return parse_tree(DOUBLE_STAR_TEXT)


@pytest.fixture
def double_star_sub1():
    # DS6 with edge (0,1) subdivided by vertex 8
    return Tree.from_edges([(0, 8), (8, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)])


@pytest.fixture
def double_star_sub2():
    # DS6 with edge (0,1) subdivided by vertices 8 and 9
    return Tree.from_edges(
        [(0, 8), (8, 9), (9, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)]
    )


@pytest.fixture
def broom():
    return parse_tree(BROOM_TEXT)


def path_tree(n: int) -> Tree:
    return Tree.from_edges([(i, i + 1) for i in range(n - 1)])


def star_tree(m: int) -> Tree:
    return Tree.from_edges([(0, i) for i in range(1, m + 1)])


def spider_tree(legs) -> Tree:
    """Center 0 with one path of the given number of edges per leg."""
    edges, nxt = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return Tree.from_edges(edges)


def leafy_tree(m: int, seed: int) -> Tree:
    """A random_tree(m, seed) skeleton with three fresh leaves on each
    skeleton leaf, numbered from m up (the benchmark's leafy trees)."""
    skeleton = random_tree(m, seed)
    edges = sorted(skeleton.edges)
    fresh = iter(range(m, m + 3 * m))
    for v in skeleton.leaves():
        edges += [(v, next(fresh)) for _ in range(3)]
    return Tree.from_edges(edges)


# ---- tree surgery, to build test trees and as references ----

def contract_bare_paths(t: Tree) -> tuple[Tree, dict[Edge, PathInTree]]:
    """Contract every bare path to a single edge between its extremes.

    Returns the contracted tree (no degree-2 vertices, same leaf count,
    surviving ids preserved) and the map from each new edge to its source
    bare path.
    """
    if t.n < 2:
        raise TreeTooSmall("cannot contract a single-vertex tree")
    edge_map = {edge(p.vertices[0], p.vertices[-1]): p for p in profile(t).bare_paths}
    return Tree.from_edges(edge_map.keys()), edge_map


def subdivide_edge(t: Tree, e: Edge) -> tuple[Tree, int]:
    """Replace edge (u,v) by u-x-v for a fresh vertex x; returns (tree, x)."""
    e = edge(*e)
    if e not in t.edges:
        raise UnknownElement(f"edge {e} not in tree")
    x = max(t.vertices) + 1
    u, v = e
    edges = (t.edges - {e}) | {edge(u, x), edge(x, v)}
    return Tree(set(t.vertices) | {x}, edges), x


def suppress_vertex(t: Tree, v: int) -> tuple[Tree, Edge]:
    """Remove a degree-2 vertex and bridge its neighbors; returns the bridge."""
    if t.degree(v) != 2:
        raise UnknownVertex(f"vertex {v} does not have degree 2")
    a, b = t.neighbors(v)
    bridge = edge(a, b)
    edges = (t.edges - {edge(v, a), edge(v, b)}) | {bridge}
    return Tree(set(t.vertices) - {v}, edges), bridge


def relabel_compact(t: Tree) -> tuple[Tree, dict[int, int]]:
    """Relabel vertices to 0..n-1 preserving id order; returns (tree, old->new)."""
    mapping = {v: i for i, v in enumerate(t.vertices)}
    return Tree(range(t.n), [edge(mapping[u], mapping[v]) for u, v in t.edges]), mapping


def grow_cubic_leafy(t: Tree, leaf: int) -> Tree:
    """The inductive step of the degree-{1,3} family: attach two new leaves
    to an existing leaf."""
    if not t.is_leaf(leaf):
        raise PreconditionViolated(f"vertex {leaf} is not a leaf")
    a, b = max(t.vertices) + 1, max(t.vertices) + 2
    return Tree(set(t.vertices) | {a, b}, t.edges | {edge(leaf, a), edge(leaf, b)})


def subdivide_interior_edges(t: Tree) -> Tree:
    """Replace each interior edge u-v by u-x-v with a fresh vertex x."""
    out = t
    for e in profile(t).interior_edges:
        out, _ = subdivide_edge(out, e)
    return out
