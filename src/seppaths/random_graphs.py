"""Seeded binomial random graphs, the log-sized separating set system,
spanning-path search per block, and the isolated-vertex experiment."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import HasCycle, UnknownVertex
from .trees import Edge, PathInTree, edge
from .verify import PathSystem, TargetSet, check


class Graph:
    """A simple undirected graph on vertices 0..n-1; may be disconnected."""

    __slots__ = ("n", "vertices", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[Edge]):
        if n < 0:
            raise UnknownVertex("vertex count must be non-negative")
        es = frozenset(edge(u, v) for u, v in edges)
        adj: dict[int, list[int]] = {v: [] for v in range(n)}
        for u, v in es:
            if u == v:
                raise HasCycle(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise UnknownVertex(f"edge ({u},{v}) out of range")
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.vertices = tuple(range(n))
        self.edges = es
        self._adj = {v: tuple(sorted(ws)) for v, ws in adj.items()}

    def has_vertex(self, v: int) -> bool:
        return 0 <= v < self.n

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self.edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVertex(f"vertex {v} not in graph") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each of the C(n, 2) pairs included independently; the same
    (n, p, seed) always reproduces the same graph."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    rng = random.Random(seed)
    edges = []
    if p >= 1.0:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif p > 0.0:
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges.append((i, j))
    return Graph(n, edges)


def isolated_count(g: Graph) -> int:
    """Number of degree-0 vertices; a certified lower bound on the size of
    any vertex-separating-covering system (each needs its own 1-vertex path)."""
    return sum(1 for v in g.vertices if g.degree(v) == 0)


@dataclass(frozen=True)
class SetSystem:
    """Vertex blocks whose membership signatures identify every vertex."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.blocks)

    def signatures(self) -> list[int]:
        """Per-vertex block-membership bitmasks (bit i = block i)."""
        sig = [0] * self.n
        for i, blk in enumerate(self.blocks):
            bit = 1 << i
            for v in blk:
                sig[v] |= bit
        return sig


def separating_set_system(n: int) -> SetSystem:
    """At most ceil(log2 n) + 1 blocks of [n] with distinct, nonempty
    signatures.

    Halves [n] into a-side and b-side (plus a singleton c when n is odd) and
    mixes them by binary codes; the b-side complements the a-side, so codes
    avoid the all-ones word (one extra code bit when k is a power of two),
    keeping every signature nonempty.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    k, q = divmod(n, 2)
    t = max((k - 1).bit_length(), 0) if k > 1 else 0  # ceil(log2 k)
    bits = t + 1 if k == 1 << t else t
    # Prefer codes 1..k; fall back to 0..k-1 when 1..k would hit all-ones.
    first_code = 1 if k <= (1 << bits) - 2 else 0

    idx = list(range(2 * k))  # every block is sliced from this one list
    blocks: list[tuple[int, ...]] = []
    for i in range(bits):
        bit = 1 << i
        # a-side members precede b-side members, so the block is sorted
        block = _code_runs(idx, first_code, k, bit, want=True, base=0)
        block += _code_runs(idx, first_code, k, bit, want=False, base=k)
        blocks.append(tuple(block))
    blocks.append(tuple(idx[:k]))  # the a-side block
    if q:
        blocks.append((n - 1,))
    return SetSystem(n, tuple(blocks))


def _code_runs(idx: list[int], c0: int, k: int, bit: int, want: bool, base: int) -> list[int]:
    """base+j, taken from idx, for the j in [0, k) whose code c0+j has (does
    not have) the given bit.

    Codes are consecutive, so members come in runs of length `bit` with
    period 2*bit.  Costs O(min(bit, k/bit)) Python steps plus copying the
    members in C: a leading partial run, the full runs (one strided slice
    per run offset when there are at least `bit` of them, else one slice
    per run), then a trailing partial run.
    """
    period = bit << 1
    lo = bit if want else 0
    offset = (c0 - lo) % period  # position inside the window cycle at j=0
    j = period - offset  # start of the first run that j=0 does not cut
    out = idx[base : base + min(bit - offset, k)] if offset < bit else []
    full = max((k - j - bit) // period + 1, 0)
    tail = j + full * period
    if full >= bit:
        body = [0] * (full * bit)
        for r in range(bit):
            body[r::bit] = idx[base + j + r : base + tail : period]
        out += body
    else:
        for start in range(base + j, base + tail, period):
            out += idx[start : start + bit]
    if tail < k:
        out += idx[base + tail : base + k]
    return out


# ---- spanning-path search ----

@dataclass(frozen=True)
class SpanningPathSearch:
    """Outcome of a spanning-path search on one induced block."""

    path: PathInTree | None
    certified_absent: bool
    nodes_expanded: int


def find_spanning_path(g: Graph, block: Sequence[int], *, seed: int = 0,
                       restarts: int = 20, node_budget: int = 10_000_000) -> SpanningPathSearch:
    """Rotation-extension with seeded restarts, then budgeted exact
    backtracking.  certified_absent is True only when the exact phase
    exhausted the search space."""
    block = sorted(set(block))
    for v in block:
        if not g.has_vertex(v):
            raise UnknownVertex(f"vertex {v} not in graph")
    if not block:
        return SpanningPathSearch(None, True, 0)
    if len(block) == 1:
        return SpanningPathSearch(PathInTree((block[0],)), False, 0)

    inblock = set(block)
    adj = {v: tuple(w for w in g.neighbors(v) if w in inblock) for v in block}

    # cheap certified impossibilities: isolation, too many degree-<=1
    # vertices, or a disconnected induced subgraph
    degs = {v: len(adj[v]) for v in block}
    if any(d == 0 for d in degs.values()):
        return SpanningPathSearch(None, True, 0)
    if sum(1 for d in degs.values() if d == 1) > 2:
        return SpanningPathSearch(None, True, 0)
    if not _connected(block, adj):
        return SpanningPathSearch(None, True, 0)

    rng = random.Random(seed)
    ends = [v for v, d in degs.items() if d == 1]
    for _ in range(max(restarts, 1)):
        start = ends[0] if ends else rng.choice(block)
        found = _posa(adj, block, start, rng, step_budget=60 * len(block))
        if found is not None:
            return SpanningPathSearch(PathInTree(tuple(found)), False, 0)

    found, exhausted, nodes = _exact_path(adj, block, ends, node_budget)
    if found is not None:
        return SpanningPathSearch(PathInTree(tuple(found)), False, nodes)
    return SpanningPathSearch(None, exhausted, nodes)


def _connected(block: list[int], adj: dict[int, tuple[int, ...]]) -> bool:
    seen = {block[0]}
    stack = [block[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(block)


def _posa(adj, block, start, rng, step_budget: int) -> list[int] | None:
    """One rotation-extension run from `start`."""
    path = [start]
    on_path = {start}
    target = len(block)
    steps = 0
    while len(path) < target and steps < step_budget:
        steps += 1
        tail = path[-1]
        fresh = [w for w in adj[tail] if w not in on_path]
        if fresh:
            # prefer scarce vertices so low-degree ones don't strand
            nxt = min(fresh, key=lambda w: (len(adj[w]), rng.random()))
            path.append(nxt)
            on_path.add(nxt)
            continue
        # rotate: tail's neighbor u at position i exposes path[i+1] as new tail
        pivots = [w for w in adj[tail] if w != path[-2]]
        if not pivots:
            return None
        u = pivots[rng.randrange(len(pivots))]
        i = path.index(u)
        path[i + 1 :] = reversed(path[i + 1 :])
    return path if len(path) == target else None


def _exact_path(adj, block, forced_ends: list[int], node_budget: int):
    """Backtracking over (endpoint, visited) states; least-degree first."""
    target = len(block)
    nodes = 0
    budget_hit = False

    starts = forced_ends or sorted(block, key=lambda v: len(adj[v]))

    def rec(v: int, visited: set[int], seq: list[int]) -> list[int] | None:
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
            break  # a degree-1 vertex must be an endpoint; one start suffices
    return None, not budget_hit, nodes


def random_vertex_system(g: Graph, seed: int) -> PathSystem | None:
    """The set-system blocks over a seeded vertex labeling, one spanning path
    per block; None if any block admits no (found) spanning path."""
    if g.n < 2:
        return None
    rng = random.Random(seed)
    perm = list(g.vertices)
    rng.shuffle(perm)
    system = separating_set_system(g.n)
    paths = []
    for i, blk in enumerate(system.blocks):
        real = [perm[j] for j in blk]
        if len(real) == 1:
            paths.append(PathInTree((real[0],)))
            continue
        found = find_spanning_path(g, real, seed=rng.getrandbits(32)).path
        if found is None:
            return None
        paths.append(found)
    fs = PathSystem(g, tuple(paths))
    if not check(fs, TargetSet.vertices(g)):
        return None  # defensive; the set system guarantees this
    return fs


# ---- seeded experiment harness ----

@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    p: float
    trials: int
    seed: int


@dataclass(frozen=True)
class TrialRecord:
    seed: int
    success: bool
    system_size: int | None
    isolated: int


@dataclass(frozen=True)
class ExperimentStats:
    config: ExperimentConfig
    per_trial: tuple[TrialRecord, ...]
    elapsed: float

    @property
    def successes(self) -> int:
        return sum(1 for r in self.per_trial if r.success)

    @property
    def failures(self) -> int:
        return len(self.per_trial) - self.successes

    @property
    def success_rate(self) -> float:
        return self.successes / len(self.per_trial)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(r.system_size for r in self.per_trial if r.system_size is not None)

    @property
    def isolated_counts(self) -> tuple[int, ...]:
        return tuple(r.isolated for r in self.per_trial)

    @property
    def mean_isolated(self) -> float:
        return sum(self.isolated_counts) / len(self.per_trial)


def supercritical_p(n: int) -> float:
    """p = (2 ln n + 6 ln ln n) / n, clamped to [0, 1]."""
    return min(1.0, max(0.0, (2 * math.log(n) + 6 * math.log(math.log(n))) / n))


def subcritical_p(n: int) -> float:
    """p = (ln n - 3 ln ln n) / n, clamped to [0, 1]."""
    return min(1.0, max(0.0, (math.log(n) - 3 * math.log(math.log(n))) / n))


def run_experiment(cfg: ExperimentConfig) -> ExperimentStats:
    """Per trial: generate, attempt a vertex system, count isolated vertices.

    Trial seeds are drawn once from the master seed, so any single trial can
    be replayed from its logged seed.
    """
    if cfg.trials < 1:
        raise ValueError("need at least one trial")
    master = random.Random(cfg.seed)
    trial_seeds = [master.getrandbits(64) for _ in range(cfg.trials)]
    records = []
    started = time.monotonic()
    for ts_seed in trial_seeds:
        g = gen_gnp(cfg.n, cfg.p, ts_seed)
        fs = random_vertex_system(g, ts_seed)
        records.append(
            TrialRecord(
                seed=ts_seed,
                success=fs is not None,
                system_size=None if fs is None else fs.size,
                isolated=isolated_count(g),
            )
        )
    return ExperimentStats(cfg, tuple(records), time.monotonic() - started)
