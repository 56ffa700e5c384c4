"""Shared fixtures: the named example trees used across the suite."""

import pytest

from seppaths import Tree, parse_tree, random_tree

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
