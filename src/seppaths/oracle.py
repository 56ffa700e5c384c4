"""Exact brute-force minima for small instances.

``min_separating`` computes the definitional optimum by iterative deepening
over the family size with branch-and-bound pruning; the returned family is
provably minimum and is re-checked through the verifier before being
returned.  Its candidates, on a tree or a graph, are the simple paths that
``enumerate_paths`` finds by one depth-first search.  ``enumerate_trees``
yields one representative per unlabeled isomorphism class (level-sequence
successor algorithm).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

from .errors import Infeasible, Timeout, TooLarge
from .trees import PathInTree, Tree, edge
from .verify import PathSystem, TargetSet, built_system

MAX_N = 12
GRAPH_PATH_CAP = 20000
# The refuted-state table is emptied when it grows past this many entries.
REFUTED_CAP = 1 << 17


def enumerate_paths(host, include_trivial: bool) -> tuple[PathInTree, ...]:
    """Every candidate path of a tree or graph: optional length-0 paths (by
    vertex id), then each simple path once, from its lower end, by (start,
    end, sequence); on a tree, the unique u-v path for each u < v, by (u, v).
    Refuses more than ``MAX_N`` vertices or ``GRAPH_PATH_CAP`` paths."""
    if host.n > MAX_N:
        raise TooLarge(f"n={host.n} exceeds cap {MAX_N}")
    out = [(v,) for v in host.vertices] if include_trivial else []
    first = len(out)
    for start in host.vertices:
        stack = [(start,)]
        while stack:
            seq = stack.pop()
            for w in host.neighbors(seq[-1]):
                if w in seq:
                    continue
                ext = seq + (w,)
                if start < w:  # each path once, from its lower end
                    out.append(ext)
                    if len(out) > GRAPH_PATH_CAP:
                        raise TooLarge(f"more than {GRAPH_PATH_CAP} simple paths")
                stack.append(ext)
    out[first:] = sorted(out[first:], key=lambda seq: (seq[0], seq[-1], seq))
    # a simple path never repeats a vertex, so the checks are skipped
    return tuple(PathInTree._walked(seq) for seq in out)


@dataclass(frozen=True)
class OracleResult:
    size: int
    system: PathSystem
    nodes_expanded: int
    elapsed: float


class _Search:
    """Branch-and-bound over subfamilies of the candidate paths.

    Element signatures are tracked as a partition into same-signature groups
    (bitmasks); a family works when every group is a singleton and, in cover
    mode, no element is left unhit.  A node is pruned when the paths left
    cannot split its largest group (log2 of its size) or cannot supply the
    path ends its state forces (``required_ends``), or when ``refuted``
    already holds its state with at least as many paths left.  The log2 test
    is decided at the root before the search and, for a child, in its
    parent's loop, as is every child of a node with one path left.
    """

    def __init__(
        self,
        host,
        ts: TargetSet,
        require_cover: bool,
        budget_ms: float | None,
        include_trivial: bool | None = None,
    ):
        if include_trivial is None:
            include_trivial = any(isinstance(s, int) for s in ts.elements) or not ts.elements
        cands = enumerate_paths(host, include_trivial)
        elements = ts.elements
        self.m = len(elements)
        eidx = {s: i for i, s in enumerate(elements)}
        masks = []
        for p in cands:
            mask = 0
            for s in p.elements():
                bit = eidx.get(s)
                if bit is not None:
                    mask |= 1 << bit
            masks.append(mask)
        # Candidates splitting the most element pairs come first.
        m = self.m
        order = sorted(
            range(len(cands)),
            key=lambda i: (-(masks[i].bit_count() * (m - masks[i].bit_count())), i),
        )
        self.cands = tuple(cands[i] for i in order)
        self.masks = [masks[i] for i in order]
        suffix = [0] * (len(self.masks) + 1)
        for i in range(len(self.masks) - 1, -1, -1):
            suffix[i] = suffix[i + 1] | self.masks[i]
        self.suffix_union = suffix
        # A path holding an element of leaf_mask ends at that element's leaf:
        # one bit per vertex of degree <= 1, the vertex if it is a target,
        # else its pendant edge.  A path holding some but not all of the
        # target elements among a degree-2 vertex and its two edges ends at
        # that vertex; deg2_masks keeps those masks with at least 2 bits.
        # A degree-2 vertex target with neither of its edges a target is
        # "lone"; a path holding one of two adjacent lone vertices but not
        # the other ends at it, so pair_masks keeps each such edge's two bits.
        leaf_mask = 0
        deg2_masks = []
        lone = set()
        for v in host.vertices:
            nbrs = host.neighbors(v)
            bits = [1 << eidx[s] for s in (v, *(edge(v, w) for w in nbrs)) if s in eidx]
            if len(nbrs) <= 1 and bits:
                leaf_mask |= bits[0]
            elif len(nbrs) == 2 and len(bits) >= 2:
                deg2_masks.append(sum(bits))
            elif len(nbrs) == 2 and v in eidx:  # its one target element
                lone.add(v)
        self.leaf_mask = leaf_mask
        self.deg2_masks = tuple(deg2_masks)
        self.pair_masks = tuple(
            1 << eidx[u] | 1 << eidx[w] for u, w in sorted(host.edges) if u in lone and w in lone
        )
        self.require_cover = require_cover
        # (start, sorted groups, uncovered) -> the most paths left with which
        # the search found no completion of that state; kept across k
        self.refuted: dict[tuple[int, tuple[int, ...], int], int] = {}
        self.nodes = 0
        self.deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
        self.budget_ms = budget_ms

    def floor(self) -> int:
        return _ceil_log2(self.m + (1 if self.require_cover else 0))

    def required_ends(
        self, groups: tuple[int, ...], uncovered: int, left: int | None = None
    ) -> float:
        """A lower bound on the number of path ends that any completion of
        a search state by ``left`` more paths must add (any number of them
        when ``left`` is None), counted in end slots, two per path.

        A path holding a leaf element ends at its leaf, so the c leaf
        elements of one group, which the paths to come must give pairwise
        distinct signatures (nonempty ones in the uncovered group), need
        ``_least_weight(c, left, ...)`` ends at their leaves.  A degree-2
        vertex with c of its elements in one group needs c - 1 paths ending
        there, since a path through it holds all of them.  Two adjacent lone
        degree-2 vertices in one group need a path ending at one of them on
        the side away from the other; such an end cuts one pair, and a
        length-0 path spends both its slots.  The three counts fall on
        disjoint vertices, so a state with more than 2k required ends has no
        completion of k paths.
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
        for d in self.deg2_masks:
            for g in groups:
                x = g & d
                if x & (x - 1):
                    ends += x.bit_count() - 1
                    break
        for p in self.pair_masks:
            for g in groups:
                if g & p == p:
                    ends += 1
                    break
        return ends

    def _count_node(self) -> None:
        """Count one search node; every 1024th checks the budget."""
        self.nodes += 1
        if self.deadline is not None and self.nodes % 1024 == 0:
            if time.monotonic() > self.deadline:
                raise Timeout(f"budget {self.budget_ms} ms exhausted")

    def at_most(self, k: int) -> list[int] | None:
        """Indices of a family of size <= k, or None if none exists."""
        full = (1 << self.m) - 1
        chosen: list[int] = []
        masks = self.masks
        ncands = len(masks)
        suffix = self.suffix_union
        cover = self.require_cover
        required_ends = self.required_ends
        count_node = self._count_node
        refuted = self.refuted

        def rec(start: int, groups: tuple[int, ...], uncovered: int, left: int) -> bool:
            count_node()
            if not groups and not uncovered:
                return True
            if uncovered & ~suffix[start]:
                return False
            if required_ends(groups, uncovered, left) > 2 * left:
                return False
            if left == 1:
                # every group is a pair: a child works iff its path splits
                # every pair and hits every uncovered element
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
                    count_node()
                    if split == len(groups) and hit == uncovered:
                        chosen.append(i)
                        return True
                return False
            key = (start, tuple(sorted(groups)), uncovered)
            if refuted.get(key, 0) >= left:
                return False
            # a child with a group larger than this fails its log2 test
            widest = 1 << (left - 1)
            for i in range(start, ncands):
                mask = masks[i]
                new_groups = []
                changed = False
                for g in groups:
                    a = g & mask
                    b = g & ~mask
                    if a and b:
                        changed = True
                        if a & (a - 1):
                            new_groups.append(a)
                        if b & (b - 1):
                            new_groups.append(b)
                    elif g & (g - 1):
                        new_groups.append(g)
                new_uncovered = uncovered & ~mask
                if not changed and new_uncovered == uncovered:
                    continue  # resolves nothing new; a smaller family exists without it
                if max(map(int.bit_count, new_groups), default=0) > widest:
                    count_node()
                    continue
                chosen.append(i)
                if rec(i + 1, tuple(new_groups), new_uncovered, left - 1):
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
        if k < max(_ceil_log2(self.m), 1):
            return None  # the root fails the log2 test, or has no path left
        return chosen if rec(0, init_groups, init_uncovered, k) else None


def min_separating(
    host,
    ts: TargetSet,
    require_cover: bool = True,
    *,
    budget_ms: float | None = None,
    include_trivial: bool | None = None,
) -> OracleResult:
    """Minimum-size family separating (and, by default, covering) ts.

    Iterative deepening over the family size, so the first family found is a
    certified minimum.  Length-0 candidate paths are included whenever the
    target contains a vertex and skipped for pure edge targets; pass
    ``include_trivial`` to override.  Exceeding the size cap or the
    wall-clock budget raises; there is no approximation, but a ``Timeout``
    carries the size it was searching as ``lower_bound``.  A NaN or
    negative ``budget_ms`` raises ValueError; 0 times out at the first clock
    check.
    """
    if budget_ms is not None and not budget_ms >= 0:  # NaN fails too
        raise ValueError(f"budget_ms={budget_ms} is not a non-negative number")
    started = time.monotonic()
    search = _Search(host, ts, require_cover, budget_ms, include_trivial)
    for k in range(search.floor(), len(search.cands) + 1):
        try:
            picked = search.at_most(k)
        except Timeout as exc:
            raise Timeout(f"{exc}; no family of size < {k} exists", lower_bound=k) from None
        if picked is not None:
            system = built_system(
                host, (search.cands[i] for i in picked), "oracle family fails", ts,
                cover=require_cover,
            )
            return OracleResult(len(picked), system, search.nodes, time.monotonic() - started)
    raise Infeasible("no family over the candidate paths separates the target")


def exists_family(host, ts: TargetSet, k: int, require_cover: bool = True) -> bool:
    """Exhaustively decide whether some family of size <= k works."""
    if host.n > MAX_N:
        raise TooLarge(f"n={host.n} exceeds cap {MAX_N}")
    if k < 0:
        return False
    return _Search(host, ts, require_cover, None).at_most(k) is not None


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
