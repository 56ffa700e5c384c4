"""Seeded binomial random graphs, the log-sized separating set system,
spanning-path search per block, and the isolated-vertex experiment."""

from __future__ import annotations

import marshal
import math
import os
import random
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, compress, filterfalse, repeat
from struct import unpack_from
from typing import Callable, Iterable, Sequence

from .errors import HasCycle, UnknownVertex
from .trees import Edge, Host, PathInTree
from .verify import PathSystem, TargetSet, built_system


class Graph(Host):
    """A simple undirected graph on vertices 0..n-1; may be disconnected."""

    __slots__ = ()
    _kind = "graph"

    def __init__(self, n: int, edges: Iterable[Edge]):
        if n < 0:
            raise UnknownVertex("vertex count must be non-negative")
        rows = sorted({(u, v) if u <= v else (v, u) for u, v in edges})
        for u, v in rows:
            if u == v:
                raise HasCycle(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise UnknownVertex(f"edge ({u},{v}) out of range")
        self._fill(n, rows)

    @classmethod
    def _from_rows(cls, n: int, edges: list[Edge]) -> "Graph":
        """The graph of distinct pairs (i, j), 0 <= i < j < n, already in
        row order, as ``gen_gnp`` draws them: they go straight to the fill,
        neither normalised, range-checked nor sorted again."""
        g = object.__new__(cls)
        g._fill(n, edges)
        return g

    def _fill(self, n: int, rows: list[Edge]) -> None:
        """Set the graph from distinct pairs (i, j), 0 <= i < j < n, listed
        row by row (i ascending, then j ascending).  Filled in that order,
        every adjacency list comes out sorted."""
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in rows:
            adj[u].append(v)
            adj[v].append(u)
        self.vertices = tuple(range(n))
        self.edges = frozenset(rows)
        self._adj = dict(enumerate(map(tuple, adj)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


# gen_gnp's row split.  The costs of scanning a pair at p <= 1/16, in units
# of drawing its two words, fitted to where the caller and the child finished
# together at n = 2048 and the sub- and supercritical p on a 2-vCPU VM:
# SCAN_COST for every pair, plus VISIT_COST for each pair the probe loop
# visits.  Below ROW_SPLIT_MIN_PAIRS pairs the fork costs more than the split
# saves: in a 38 MB process there, the split first gained between n = 832
# and 896.
SCAN_COST = 0.62
VISIT_COST = 28.5
ROW_SPLIT_MIN_PAIRS = 400_000


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each of the C(n, 2) pairs included independently; the same
    (n, p, seed) always reproduces the same graph.

    Pair (i, j), i < j, in row-major order, is an edge exactly when
    `random.Random(seed).random() < p` holds for its turn in the stream;
    ``_scan_rows`` tests the pairs a row at a time.  When ``_row_split``
    gives a row r < n - 1, the caller scans rows [0, r) while a forked
    child draws their words from its own ``random.Random(seed)``, unscanned,
    and scans rows [r, n - 1), so both lists, in row order, make the same
    graph.  If the child sends nothing, the caller's generator stands at
    row r, and it scans the rest itself.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if p == 0.0:
        return Graph._from_rows(n, [])
    rng = random.Random(seed)
    r = _row_split(n, p)
    if r == n - 1:
        return Graph._from_rows(n, _scan_rows(rng, n, p, 0, r))
    with _forked([partial(_skip_and_scan, seed, n, p, r)]) as receive:
        edges = _scan_rows(rng, n, p, 0, r)
        [rest] = receive()
        # built before the block reaps the child, while its exit runs
        edges += _scan_rows(rng, n, p, r, n - 1) if rest is None else rest
        return Graph._from_rows(n, edges)


def _scan_rows(rng: random.Random, n: int, p: float, first: int, stop: int) -> list[Edge]:
    """The edges of rows [first, stop), in row order, with rng standing at
    row first; 0 < p <= 1.

    The draw of a pair is K / 2^53 with K = (w0 >> 5) * 2^26 + (w1 >> 6),
    for the next two 32-bit Mersenne Twister words w0, w1, so the test is
    K < cut with cut = ceil(p * 2^53) (both sides are exact doubles).  Row
    i takes its n - 1 - i pairs as one `getrandbits` block, which consumes
    the same words in the same order; as little-endian bytes, pair k's w0
    is bytes 8k..8k+3 and its w1 bytes 8k+4..8k+7.  The top byte of w0 is
    K >> 45: below (cut - 1) >> 45 the pair is an edge, above it the pair
    is not, and only a pair that hits it exactly (at most 1/256 of them)
    needs the whole K.  Cost: Θ(pairs) words drawn and scanned in C, Python
    work only per candidate pair, and one row's block of memory at a time.
    """
    edges = []
    cut = math.ceil(math.ldexp(p, 53))
    hi = (cut - 1) >> 45
    # Once certain edges are dense (p > 1/16), one compress per row picks
    # them out in C faster than the probe loop; below that the loop visits
    # them too.
    bulk = hi >= 16
    sure = bytes(b < hi for b in range(256))
    probe = bytes(b == hi if bulk else b <= hi for b in range(256))
    cols = tuple(range(n)) if bulk else ()
    for i in range(first, stop):
        m = n - 1 - i
        data = rng.getrandbits(64 * m).to_bytes(8 * m, "little")
        tops = data[3::8]
        start = len(edges)
        if bulk:
            edges.extend(zip(repeat(i), compress(cols[i + 1 :], tops.translate(sure))))
        marks = tops.translate(probe)
        k = marks.find(1)
        while k >= 0:
            if tops[k] < hi or _draw53(data, k) < cut:
                edges.append((i, i + 1 + k))
            k = marks.find(1, k + 1)
        if bulk:  # the row's ties came after its certain edges
            edges[start:] = sorted(edges[start:])
    return edges


def _row_split(n: int, p: float) -> int:
    """The row r at which ``gen_gnp`` splits its rows, or n - 1 for no
    split: when p > 1/16, there are fewer than ``ROW_SPLIT_MIN_PAIRS``
    pairs, or ``_fork_cpus`` allows one CPU.  Above p = 1/16 compress picks
    the edges out, and each edge costs the caller about as much to receive
    from a child as to pick out itself, so the split saves too little.
    The caller scans rows [0, r) while the child draws the same words and
    then scans rows [r, n - 1), so both finish together when the caller
    takes the share 1 / (2 - s) of the pairs, where s is the cost of
    drawing a pair over that of scanning it at p.  One child, whatever the
    CPU count: by the same costs, a second one would draw about 90% of the
    words before its first row."""
    pairs = n * (n - 1) // 2
    if p > 1 / 16 or pairs < ROW_SPLIT_MIN_PAIRS or _fork_cpus() < 2:
        return n - 1
    # the probe loop visits the pairs whose top byte is at most the
    # threshold's: at most p + 1/256 of them
    scan = 1 + SCAN_COST + VISIT_COST * (p + 1 / 256)
    mine = pairs / (2 - 1 / scan)
    b = 2 * n - 1  # rows [0, r) hold r (b - r) / 2 pairs
    return round((b - math.sqrt(b * b - 8 * mine)) / 2)


def _skip_and_scan(seed: int, n: int, p: float, r: int) -> list[Edge]:
    """The edges of rows [r, n - 1) of ``gen_gnp(n, p, seed)``: rows [0, r)
    are drawn a row's block at a time and left unscanned."""
    rng = random.Random(seed)
    for i in range(r):
        rng.getrandbits(64 * (n - 1 - i))
    return _scan_rows(rng, n, p, r, n - 1)


def _draw53(data: bytes, k: int) -> int:
    """The K of pair k's draw K / 2^53, read from its two words in data."""
    w0, w1 = unpack_from("<2I", data, 8 * k)
    return (w0 >> 5) << 26 | w1 >> 6


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
    t = (k - 1).bit_length()  # ceil(log2 k)
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


POSA_RESTARTS = 20
EXACT_NODE_BUDGET = 10_000_000
# Block vertices a chunk must average to pay for a child's fork, exit and
# reap (about 4 ms for a 36 MB process on a 2-vCPU VM).  There the split
# first gained on supercritical G(n, p) between n = 544 and 576, whose 9
# blocks after block 0 hold 2448 and 2592 vertices for 2 chunks.
CHUNK_MIN_VERTICES = 1280


def find_spanning_path(g: Graph, block: Sequence[int], *, seed: int = 0) -> SpanningPathSearch:
    """Rotation-extension with ``POSA_RESTARTS`` seeded restarts, then exact
    backtracking over at most ``EXACT_NODE_BUDGET`` nodes.  certified_absent
    is True only when the exact phase exhausted the search space."""
    block = sorted(set(block))
    for v in block:
        if not g.has_vertex(v):
            raise UnknownVertex(f"vertex {v} not in graph")
    if not block:
        return SpanningPathSearch(None, True, 0)
    if len(block) == 1:
        return SpanningPathSearch(PathInTree((block[0],)), False, 0)

    inblock = [False] * g.n
    for v in block:
        inblock[v] = True
    adj = {v: tuple(filter(inblock.__getitem__, g.neighbors(v))) for v in block}

    # cheap certified impossibilities: too many degree-<=1 vertices, or a
    # disconnected induced subgraph (which an isolated vertex makes it)
    degs = {v: len(adj[v]) for v in block}
    if sum(1 for d in degs.values() if d == 1) > 2:
        return SpanningPathSearch(None, True, 0)
    if not _connected(block, adj):
        return SpanningPathSearch(None, True, 0)

    rng = random.Random(seed)
    ends = [v for v, d in degs.items() if d == 1]
    for _ in range(POSA_RESTARTS):
        start = ends[0] if ends else rng.choice(block)
        found = _posa(adj, degs, block, start, rng, step_budget=60 * len(block))
        if found is not None:
            return SpanningPathSearch(PathInTree(tuple(found)), False, 0)

    found, exhausted, nodes = _exact_path(adj, block, ends, EXACT_NODE_BUDGET)
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


def _posa(adj, degs, block, start, rng, step_budget: int) -> list[int] | None:
    """One rotation-extension run from `start`."""
    rnd = rng.random
    path = [start]
    on_path = {start}
    target = len(block)
    steps = 0
    while len(path) < target and steps < step_budget:
        steps += 1
        tail = path[-1]
        fresh = list(filterfalse(on_path.__contains__, adj[tail]))
        if fresh:
            # prefer scarce vertices so low-degree ones don't strand; fresh
            # ascends, so a full tie goes to the least vertex
            nxt = min([(degs[w], rnd(), w) for w in fresh])[2]
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
    """Backtracking over (endpoint, visited) states; least-degree first.

    Depth-first with an explicit stack of neighbour iterators, one per
    vertex of the current path, so a long block needs no recursion."""
    target = len(block)
    nodes = 0
    by_degree = {v: sorted(adj[v], key=lambda x: len(adj[x])) for v in block}

    starts = forced_ends or sorted(block, key=lambda v: len(adj[v]))
    for s in starts:
        seq: list[int] = []
        visited: set[int] = set()
        frames = [iter((s,))]  # frames[i + 1] extends the path beyond seq[i]
        while frames:
            w = next((x for x in frames[-1] if x not in visited), None)
            if w is None:
                frames.pop()
                if seq:
                    visited.remove(seq.pop())
                continue
            nodes += 1
            if nodes > node_budget:
                return None, False, nodes
            seq.append(w)
            visited.add(w)
            if len(seq) == target:
                return seq, False, nodes
            frames.append(iter(by_degree[w]))
        if forced_ends:
            break  # a degree-1 vertex must be an endpoint; one start suffices
    return None, True, nodes


def random_vertex_system(g: Graph, seed: int) -> PathSystem | None:
    """The set-system blocks over a seeded vertex labeling, one spanning path
    per block; None if any block admits no (found) spanning path.

    Every block's search seed is drawn up front, in block order (a
    one-vertex block draws none), so a block is searched the same way in
    any process.  When ``_split`` cuts the blocks after block 0 into two or
    more chunks, block 0 is searched here and, if it has a path,
    ``_search_chunks`` searches the chunks on the usable CPUs; otherwise
    every block is searched here.  The outcome is decided in block order
    either way: the first block without a path gives None, and an error
    raised while searching a block surfaces only if every block before it
    has a path."""
    if g.n < 2:
        return None
    rng = random.Random(seed)
    perm = list(g.vertices)
    rng.shuffle(perm)
    blocks = separating_set_system(g.n).blocks
    jobs = [(blk, rng.getrandbits(32) if len(blk) > 1 else 0) for blk in blocks]
    chunks = _split(jobs[1:])
    if len(chunks) > 1:
        paths = _search_blocks(g, perm, jobs[:1])
        if paths[-1] is not None:
            paths += _search_chunks(g, perm, chunks)
    else:
        paths = _search_blocks(g, perm, jobs)
    if paths[-1] is None:
        return None
    return built_system(g, paths, "random_vertex_system", TargetSet.vertices(g))


def _search_blocks(g: Graph, perm: list[int], jobs) -> list[PathInTree | None]:
    """The spanning path of each (block, seed) job in order, with the block
    read through the labeling perm, up to the first block without one
    (whose entry is None)."""
    paths: list[PathInTree | None] = []
    for blk, seed in jobs:
        real = [perm[j] for j in blk]
        if len(real) == 1:
            paths.append(PathInTree((real[0],)))
            continue
        found = find_spanning_path(g, real, seed=seed).path
        paths.append(found)
        if found is None:
            break
    return paths


def _search_chunks(g: Graph, perm: list[int], chunks: list[list]) -> list[PathInTree | None]:
    """``_search_blocks`` over the chunks' jobs in order, with the chunks
    searched at once: the first here, each other one in a forked child.
    The children are killed unread once the first chunk has a block
    without a path.  A chunk whose child sent no result is searched again
    here, so an error its search raises surfaces from this process."""
    with _forked([partial(_chunk_vertices, g, perm, chunk) for chunk in chunks[1:]]) as receive:
        paths = _search_blocks(g, perm, chunks[0])
        if paths[-1] is None:
            return paths
        sent = receive()
    for chunk, got in zip(chunks[1:], sent):
        if got is None:
            found = _search_blocks(g, perm, chunk)
        else:
            found = [None if vs is None else PathInTree(vs) for vs in got]
        paths += found
        if found[-1] is None:
            break
    return paths


def _chunk_vertices(g: Graph, perm: list[int], chunk: list) -> list[tuple[int, ...] | None]:
    """``_search_blocks`` of the chunk as vertex sequences, for a pipe."""
    return [None if p is None else p.vertices for p in _search_blocks(g, perm, chunk)]


def _split(jobs: list) -> list[list]:
    """jobs as contiguous chunks, one per CPU that ``_fork_cpus`` allows,
    the first no larger than the rest (its process has searched block 0
    already), and fewer when a chunk would average under
    ``CHUNK_MIN_VERTICES`` block vertices; one chunk, the whole of jobs,
    when that leaves fewer than two."""
    k = min(len(jobs), sum(len(blk) for blk, _ in jobs) // CHUNK_MIN_VERTICES)
    if k >= 2:
        k = min(k, _fork_cpus())
    if k < 2:
        return [jobs]
    q, r = divmod(len(jobs), k)
    ends = list(accumulate((q + (i >= k - r) for i in range(k)), initial=0))
    return [jobs[a:b] for a, b in zip(ends, ends[1:])]


# ---- forked children ----

def _fork_cpus() -> int:
    """The CPUs a split of the work may use: the usable CPUs, or 1 when
    there is no ``os.fork`` or ``os.sched_getaffinity``, another live
    thread (a fork copies its locks in whatever state they are), or a
    SIGCHLD disposition other than the default (the kernel or a handler
    may reap a child, freeing its pid for reuse before it is killed or
    waited for)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() != 1 or signal.getsignal(signal.SIGCHLD) is not signal.SIG_DFL:
        return 1
    return len(os.sched_getaffinity(0))


@contextmanager
def _forked(tasks: list[Callable[[], object]]):
    """Run each task in a forked child, which sends its result back over a
    pipe with ``marshal``, and yield a function that reads them: per task,
    the result, or None where no child sent one (the fork failed, which
    leaves that task and the ones after it without a child, or the child
    sent no result or a cut one).  Every child is reaped when the block
    exits, and killed first unless the results were read, so a caller
    that returns or raises early does not wait for them."""
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    received = False

    def receive() -> list:
        nonlocal received
        got = [_receive(r) for _, r in children]
        received = True
        return got + [None] * (len(tasks) - len(got))

    try:
        for task in tasks:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                _child(w, [fd for _, fd in children] + [r], task)
            os.close(w)
            children.append((pid, r))
        yield receive
    finally:
        for pid, r in children:
            if not received:
                os.kill(pid, signal.SIGKILL)
            os.close(r)
            os.waitpid(pid, 0)


def _child(w: int, inherited: list[int], task: Callable[[], object]) -> None:
    """In a forked child: close the pipe read ends it inherited (so that its
    write fails, not blocks, once the parent is gone), run the task, write
    its result to w, and leave through ``os._exit``, so no caller's
    cleanup, buffered output or exit handler runs twice."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        data = marshal.dumps(task())
        with open(w, "wb") as out:
            out.write(data)
        code = 0
    finally:
        os._exit(code)


def _receive(r: int):
    """A child's result, read to end of file, or None when it sent none."""
    with open(r, "rb", closefd=False) as f:
        data = f.read()
    try:
        return marshal.loads(data)
    except (EOFError, ValueError, TypeError):  # no result, or a cut one
        return None


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

    Trial seeds are drawn one per trial, in order, from the master seed, so
    any single trial can be replayed from its logged seed and a large trial
    count holds no seed list in memory.
    """
    if cfg.trials < 1:
        raise ValueError("need at least one trial")
    master = random.Random(cfg.seed)
    records = []
    started = time.monotonic()
    for _ in range(cfg.trials):
        ts_seed = master.getrandbits(64)
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
