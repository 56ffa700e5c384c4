"""Exact brute-force minima for small instances.

``min_separating`` computes the definitional optimum by iterative deepening
over the family size with branch-and-bound pruning; the returned family is
provably minimum and is re-checked through the verifier before being
returned.  Its candidates are the simple paths of ``enumerate_paths``: on a
graph they come from one depth-first search, and on a tree, where a path is
fixed by its two ends, as end pairs whose element masks come from one rooted
pass; only the returned family is walked as paths.  ``enumerate_trees``
yields one representative per unlabeled isomorphism class (level-sequence
successor algorithm).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .errors import Infeasible, Timeout, TooLarge
from .trees import PathInTree, Tree, edge, unique_path
from .verify import PathSystem, TargetSet, built_system

MAX_N = 12
GRAPH_PATH_CAP = 20000
# The refuted-state table is emptied when it grows past this many entries.
REFUTED_CAP = 1 << 17


def enumerate_paths(host, include_trivial: bool) -> tuple[PathInTree, ...]:
    """Every candidate path of a tree or graph: optional length-0 paths (by
    vertex id), then each simple path once, from its lower end, by (start,
    end, sequence), from one depth-first search; on a tree that is the
    unique u-v path for each u < v, by (u, v).  Refuses more than ``MAX_N``
    vertices or ``GRAPH_PATH_CAP`` paths."""
    return _paths(host, include_trivial, {})[0]


def _tree_ends(
    t: Tree, include_trivial: bool, bit: dict
) -> tuple[list[tuple[int, int]], list[int]]:
    """The candidates of ``enumerate_paths`` on a tree as end pairs, in its
    order, with ``u == v`` for a length-0 path, and for each the OR of
    ``bit`` over the path's vertices and edges, as ``_paths`` gives it.

    One pass down ``t.rooted()`` in preorder sets, for each vertex x, the
    XOR of the bits on the path from the root to x, and a mask with one bit
    per preorder index of each ancestor of x, x included.  The u-v path is
    the two root paths without their common part, plus the meeting vertex:
    the deepest common ancestor, whose preorder index is the highest bit
    the two ancestor masks share.
    """
    if t.n > MAX_N:
        raise TooLarge(f"n={t.n} exceeds cap {MAX_N}")
    parent, _ = t.rooted()
    order = t.rooted_order()
    root = order[0]
    vbits = [bit.get(x, 0) for x in order]  # by preorder index
    down = {root: vbits[0]}
    anc = {root: 1}
    for k in range(1, len(order)):
        x = order[k]
        p = parent[x]
        down[x] = down[p] ^ vbits[k] ^ bit.get((p, x) if p < x else (x, p), 0)
        anc[x] = anc[p] | 1 << k
    vs = t.vertices
    pairs = [(v, v) for v in vs] if include_trivial else []
    pairs += combinations(vs, 2)
    masks = [
        down[u] ^ down[v] ^ vbits[(anc[u] & anc[v]).bit_length() - 1] for u, v in pairs
    ]
    return pairs, masks


def _paths(host, include_trivial: bool, bit: dict) -> tuple[tuple[PathInTree, ...], list[int]]:
    """The paths of ``enumerate_paths``, in its order, and for each the OR of
    ``bit`` over its vertices and edges (elements without a bit add 0), both
    from one depth-first search: each step ORs in the bits of the vertex it
    reaches and of the edge it takes."""
    if host.n > MAX_N:
        raise TooLarge(f"n={host.n} exceeds cap {MAX_N}")
    steps = {
        u: [(w, bit.get(w, 0) | bit.get(edge(u, w), 0)) for w in ws]
        for u, ws in host._adj.items()
    }
    out = [((v,), bit.get(v, 0)) for v in host.vertices] if include_trivial else []
    first = len(out)
    for start in host.vertices:
        stack = [((start,), bit.get(start, 0))]
        while stack:
            seq, mask = stack.pop()
            for w, step in steps[seq[-1]]:
                if w in seq:
                    continue
                ext = (seq + (w,), mask | step)
                if start < w:  # each path once, from its lower end
                    out.append(ext)
                    if len(out) > GRAPH_PATH_CAP:
                        raise TooLarge(f"more than {GRAPH_PATH_CAP} simple paths")
                stack.append(ext)
    out[first:] = sorted(out[first:], key=lambda e: (e[0][0], e[0][-1], e[0]))
    # a simple path never repeats a vertex, so the checks are skipped
    return tuple(PathInTree._walked(seq) for seq, _ in out), [mask for _, mask in out]


@dataclass(frozen=True)
class OracleResult:
    size: int
    system: PathSystem
    nodes_expanded: int
    elapsed: float


class _Search:
    """Branch-and-bound over subfamilies of the candidate paths: the host's
    simple paths, length-0 ones exactly when some target is a vertex.  On a
    tree the candidates are end pairs ``(u, v)`` (``u == v`` for a length-0
    path) and on a graph ``PathInTree``s; the search reads only their
    element masks, and ``path`` walks one candidate as a path.

    Element signatures are tracked as a partition into same-signature groups
    (bitmasks); a family works when every group is a singleton and, in cover
    mode, no element is left unhit.  A node is pruned when the paths left
    cannot split its largest group (log2 of its size) or cannot supply the
    path ends its state forces at leaves and on its end masks
    (``required_ends``), or when ``refuted`` already holds its state with at
    least as many paths left.  The log2 test is decided at the root by
    ``floor`` before the search and, for a child, in its parent's loop, as
    is every child of a node with one path left.

    Two leaves are twins when they hang off one support vertex with the same
    target status for the leaf and for its pendant edge; swapping them is an
    automorphism of the host that keeps the targets.  At a node with at
    least two paths left, a twin whose group holds a lower-id twin of its
    class is dominated, and a child whose path ends at a dominated twin is
    skipped, unless its other end is that twin's only lower twin in the
    group.  The swap fixes every path chosen so far and maps the skipped
    path to an earlier candidate, so it maps any family through the child to
    a lexicographically smaller one.  At the optimum every working family
    has the same size and no redundant path, and the search returns the
    lexicographically least, which no skip removes; below it no family
    exists, so every entry of ``refuted`` stays true.

    ``nodes`` counts every state entered, every child that resolves
    something new but fails its log2 test, and every child of a node with
    one path left that splits a group or hits an uncovered element.  A
    skipped twin child is not counted, the same as a child that resolves
    nothing new.  A search keeps the count in a local, adds a one-path-left
    node's children once its scan ends, and, only when a budget is set,
    reads the clock once each time the count reaches or passes a multiple
    of 1024.
    """

    def __init__(self, host, ts: TargetSet, require_cover: bool, budget_ms: float | None):
        elements = ts.elements
        self.m = m = len(elements)
        bit = {s: 1 << i for i, s in enumerate(elements)}
        self.host = host
        self.on_tree = isinstance(host, Tree)
        enumerate_candidates = _tree_ends if self.on_tree else _paths
        cands, masks = enumerate_candidates(host, any(isinstance(s, int) for s in elements), bit)
        # Candidates splitting the most element pairs come first; the sort
        # is stable, so ties keep the enumeration order.
        keys = [c * (c - m) for c in map(int.bit_count, masks)]
        order = sorted(range(len(masks)), key=keys.__getitem__)
        self.cands = [cands[i] for i in order]
        self.masks = [masks[i] for i in order]
        suffix = [0] * (len(self.masks) + 1)
        for i in range(len(self.masks) - 1, -1, -1):
            suffix[i] = suffix[i + 1] | self.masks[i]
        self.suffix_union = suffix
        # A path holding an element of leaf_mask ends at that element's leaf:
        # one bit per vertex of degree <= 1, the vertex if it is a target,
        # else its pendant edge.  A vertex target of degree <= 2 with none
        # of its edges a target is "lone".  A path holding some but not all
        # of an end mask's elements ends at one of its vertices or is a lone
        # leaf's length-0 path.  The end masks are a degree-2 vertex's
        # target elements among itself, its two edges and its lone leaf
        # neighbours, when the vertex and its edges give at least 2 bits,
        # and the two bits of each edge between lone vertices: a path holding
        # one of them ends at it on the side away from the other.
        nbrs = host._adj
        edge_bits = dict.fromkeys(nbrs, 0)  # the OR of each vertex's target edges
        for e in host.edges:
            b = bit.get(e)
            if b:
                u, w = e
                edge_bits[u] |= b
                edge_bits[w] |= b
        lone = {v for v, ws in nbrs.items() if v in bit and not edge_bits[v] and len(ws) <= 2}
        leaf_mask = 0
        end_masks = []
        # leaf bits, in vertex order, by support and by the target status of
        # leaf and edge
        classes: dict[tuple[int, bool, bool], list[int]] = {}
        for v in host.vertices:
            ws = nbrs[v]
            vb = bit.get(v, 0)
            own = vb | edge_bits[v]
            if len(ws) <= 1 and own:
                first = vb or own
                leaf_mask |= first
                if ws:
                    classes.setdefault((ws[0], vb != 0, own != vb), []).append(first)
            elif len(ws) == 2 and own & (own - 1):
                leaves = (bit[u] for u in ws if u in lone and len(nbrs[u]) == 1)
                end_masks.append(own + sum(leaves))
            if v in lone:
                end_masks += (vb | bit[w] for w in ws if w > v and w in lone)
        self.leaf_mask = leaf_mask
        self.end_masks = tuple(end_masks)
        # Twin classes (see above), each as the OR of its leaves' bits in
        # leaf_mask.  A path holds a leaf's element only if it ends there.
        # The search takes a class's lowest bits for its lowest-id twins, so
        # a class whose bits do not rise with vertex id (a TargetSet built
        # out of order) is left out.
        self.twins = [
            sum(bits) for bits in classes.values() if len(bits) > 1 and bits == sorted(bits)
        ]
        self.twin_union = sum(self.twins)
        self.require_cover = require_cover
        # (start, sorted groups, uncovered) -> the most paths left with which
        # the search found no completion of that state; kept across k
        self.refuted: dict[tuple[int, tuple[int, ...], int], int] = {}
        self.nodes = 0
        self.deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
        self.budget_ms = budget_ms

    def path(self, i: int) -> PathInTree:
        """Candidate i as a path: on a tree, walked from its two ends."""
        c = self.cands[i]
        return unique_path(self.host, *c) if self.on_tree else c

    def floor(self) -> int:
        return _ceil_log2(self.m + (1 if self.require_cover else 0))

    def required_ends(
        self, groups: Sequence[int], uncovered: int, left: int | None = None
    ) -> float:
        """A lower bound on the number of path ends that any completion of
        a search state by ``left`` more paths must add (any number of them
        when ``left`` is None), counted in end slots, two per path.

        A path holding a leaf element ends at its leaf, so the c leaf
        elements of one group, which the paths to come must give pairwise
        distinct signatures (nonempty ones in the uncovered group), need
        ``_least_weight(c, left, ...)`` ends at their leaves; that counts
        one slot of a leaf's length-0 path, never its second.  An end mask
        (see ``__init__``) with c of its elements in one group needs c - 1
        path ends that no other count uses: at its degree-2 vertex, since a
        path through that vertex holds the whole mask, at one of its two
        lone vertices on the side away from the other, or the second slot
        of a lone leaf's length-0 path.  A length-0 path at a degree-2
        vertex spends both its slots.  The two counts fall on disjoint end
        slots, so a state with more than 2k required ends has no completion
        of k paths.
        """
        if left is None:
            left = self.m  # at least the leaf count: the unbounded weights
        leaf = self.leaf_mask
        ends = _least_weight((uncovered & leaf).bit_count(), left, True)
        for g in groups:
            if g != uncovered:
                c = (g & leaf).bit_count()
                if c > 1:
                    ends += _least_weight(c, left, False)
        for d in self.end_masks:
            for g in groups:
                x = g & d
                if x & (x - 1):
                    ends += x.bit_count() - 1
                    break
        return ends

    def at_most(self, k: int) -> list[int] | None:
        """Indices of a family of size <= k, or None if none exists."""
        full = (1 << self.m) - 1
        chosen: list[int] = []
        masks = self.masks
        ncands = len(masks)
        suffix = self.suffix_union
        cover = self.require_cover
        required_ends = self.required_ends
        refuted = self.refuted
        twins = self.twins
        twin_union = self.twin_union
        deadline = self.deadline
        nodes = self.nodes
        next_check = (nodes // 1024 + 1) * 1024

        def read_clock() -> None:
            """Move ``next_check`` to the next multiple of 1024 above
            ``nodes``, reading the clock once when a budget is set."""
            nonlocal next_check
            next_check = nodes - nodes % 1024 + 1024
            if deadline is not None and time.monotonic() > deadline:
                raise Timeout(f"budget {self.budget_ms} ms exhausted")

        def rec(start: int, groups: Sequence[int], uncovered: int, left: int) -> bool:
            nonlocal nodes
            nodes += 1
            if nodes >= next_check:
                read_clock()
            if not groups and not uncovered:
                return True
            if uncovered & ~suffix[start]:
                return False
            if required_ends(groups, uncovered, left) > 2 * left:
                return False
            if left == 1:
                # every group is a pair: a child works iff its path splits
                # every pair and hits every uncovered element
                entered = 0
                found = False
                for i in range(start, ncands):
                    mask = masks[i]
                    hit = uncovered & mask
                    split = 0
                    for g in groups:
                        a = g & mask
                        if a and a != g:
                            split += 1
                    if not split and not hit:
                        continue
                    entered += 1
                    if split == len(groups) and hit == uncovered:
                        chosen.append(i)
                        found = True
                        break
                nodes += entered
                if nodes >= next_check:
                    read_clock()
                return found
            key = (start, tuple(sorted(groups)), uncovered)
            if refuted.get(key, 0) >= left:
                return False
            # a child passes its log2 test when its groups hold at most widest
            # elements each; only a group wider than that here can break it,
            # unless the child's path takes between least and widest of it
            widest = 1 << (left - 1)
            wide = [(g, g.bit_count() - widest) for g in groups if g.bit_count() > widest]
            # a twin is dominated when a lower twin shares its group; a child
            # ending at one is skipped, as a twin swap maps it to an earlier
            # candidate, but the path between a group's two lowest twins stays
            dominated = 0
            kept = []
            for g in groups if twin_union else ():
                x = g & twin_union
                if x & (x - 1):
                    for cls in twins:
                        y = x & cls
                        rest = y & (y - 1)  # all but the lowest twin
                        if rest:
                            dominated |= rest
                            kept.append(y ^ (rest & (rest - 1)))  # the lowest two
            for i in range(start, ncands):
                mask = masks[i]
                if mask & dominated and (mask & twin_union) not in kept:
                    continue
                new_groups = []
                changed = False
                for g in groups:
                    a = g & mask
                    if a and a != g:
                        changed = True
                        b = g ^ a
                        if a & (a - 1):
                            new_groups.append(a)
                        if b & (b - 1):
                            new_groups.append(b)
                    else:
                        new_groups.append(g)
                new_uncovered = uncovered & ~mask
                if not changed and new_uncovered == uncovered:
                    continue  # resolves nothing new; a smaller family exists without it
                for g, least in wide:
                    c = (g & mask).bit_count()
                    if c > widest or c < least:  # the child fails its log2 test
                        nodes += 1
                        if nodes >= next_check:
                            read_clock()
                        break
                else:
                    chosen.append(i)
                    if rec(i + 1, new_groups, new_uncovered, left - 1):
                        return True
                    chosen.pop()
            if len(refuted) >= REFUTED_CAP:
                refuted.clear()
            refuted[key] = left
            return False

        init_groups = (full,) if self.m > 1 else ()
        init_uncovered = full if cover else 0
        if not init_groups and not init_uncovered:
            return []
        if k < self.floor():
            return None  # the root fails the log2 test
        try:
            return chosen if rec(0, init_groups, init_uncovered, k) else None
        finally:
            self.nodes = nodes


def min_separating(
    host,
    ts: TargetSet,
    require_cover: bool = True,
    *,
    budget_ms: float | None = None,
) -> OracleResult:
    """Minimum-size family separating (and, by default, covering) ts.

    Iterative deepening over the family size, so the first family found is a
    certified minimum.  Length-0 candidate paths are included exactly when
    the target contains a vertex.  Exceeding the size cap or the
    wall-clock budget raises; there is no approximation, but a ``Timeout``
    carries the size it was searching as ``lower_bound``.  A NaN or
    negative ``budget_ms`` raises ValueError; 0 times out at the first clock
    check.
    """
    if budget_ms is not None and not budget_ms >= 0:  # NaN fails too
        raise ValueError(f"budget_ms={budget_ms} is not a non-negative number")
    started = time.monotonic()
    search = _Search(host, ts, require_cover, budget_ms)
    for k in range(search.floor(), len(search.cands) + 1):
        try:
            picked = search.at_most(k)
        except Timeout as exc:
            raise Timeout(f"{exc}; no family of size < {k} exists", lower_bound=k) from None
        if picked is not None:
            system = built_system(
                host, (search.path(i) for i in picked), "oracle family fails", ts,
                cover=require_cover,
            )
            return OracleResult(len(picked), system, search.nodes, time.monotonic() - started)
    raise Infeasible("no family over the candidate paths separates the target")


def exists_family(host, ts: TargetSet, k: int, require_cover: bool = True) -> bool:
    """Exhaustively decide whether some family of size <= k works; TooLarge
    above ``MAX_N`` vertices, as the search's set-up refuses them."""
    search = _Search(host, ts, require_cover, None)
    return k >= 0 and search.at_most(k) is not None


def _ceil_log2(x: int) -> int:
    return 0 if x <= 1 else (x - 1).bit_length()


@lru_cache(maxsize=1024)
def _least_weight(c: int, left: int, nonempty: bool) -> float:
    """The least total size of c distinct subsets of a ``left``-element set,
    or of c distinct nonempty ones; infinite when there are not c of them.

    The smallest subsets come first: the empty one, then ``left`` singletons,
    then ``comb(left, 2)`` pairs, and so on.
    """
    total = 0
    size = 1 if nonempty else 0
    while c > 0:
        if size > left:
            return math.inf
        take = min(c, math.comb(left, size))
        total += take * size
        c -= take
        size += 1
    return total


# ---- unlabeled tree enumeration (level-sequence successor algorithm) ----

def enumerate_trees(n: int) -> tuple[Tree, ...]:
    """One tree per unlabeled isomorphism class, deterministic order.

    Counts for n = 2..12 are 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551
    (OEIS A000055).
    """
    if not 2 <= n <= MAX_N:
        raise TooLarge(f"n={n} outside supported range 2..{MAX_N}")
    return _enumerate_trees_cached(n)


@lru_cache(maxsize=None)
def _enumerate_trees_cached(n: int) -> tuple[Tree, ...]:
    out = []
    # Start from the path graph rooted at its center.
    layout = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while layout is not None:
        layout = _next_free_tree(layout)
        if layout is not None:
            out.append(_layout_to_tree(layout))
            layout = _next_rooted(layout)
    return tuple(out)


def _split_layout(layout: list[int]) -> tuple[list[int], list[int]]:
    """The root's first subtree, and the tree with that subtree removed."""
    second_one = None
    ones = 0
    for i, d in enumerate(layout):
        if d == 1:
            ones += 1
            if ones == 2:
                second_one = i
                break
    m = second_one if second_one is not None else len(layout)
    left = [layout[i] - 1 for i in range(1, m)]
    rest = [0] + layout[m:]
    return left, rest


def _next_rooted(layout: list[int], p: int | None = None) -> list[int] | None:
    """Successor in the canonical rooted-tree ordering."""
    if p is None:
        p = len(layout) - 1
        while layout[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while layout[q] != layout[p] - 1:
        q -= 1
    result = list(layout)
    for i in range(p, len(result)):
        result[i] = result[i - p + q]
    return result


def _next_free_tree(candidate: list[int]) -> list[int] | None:
    """Advance to the next level sequence that encodes a free tree."""
    left, rest = _split_layout(candidate)
    left_height = max(left)
    rest_height = max(rest)
    valid = rest_height >= left_height
    if valid and rest_height == left_height:
        if len(left) > len(rest):
            valid = False
        elif len(left) == len(rest) and left > rest:
            valid = False
    if valid:
        return candidate
    p = len(left)
    new_candidate = _next_rooted(candidate, p)
    if candidate[p] > 2:
        new_left, _ = _split_layout(new_candidate)
        suffix = list(range(1, max(new_left) + 2))
        new_candidate[-len(suffix):] = suffix
    return new_candidate


def _layout_to_tree(layout: list[int]) -> Tree:
    edges = []
    stack: list[int] = []
    for i, level in enumerate(layout):
        while stack and layout[stack[-1]] >= level:
            stack.pop()
        if stack:
            edges.append((stack[-1], i))
        stack.append(i)
    return Tree.from_edges(edges)
