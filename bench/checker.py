"""Output checker for the benchmark, independent of ``seppaths.verify``.

Trees are plain edge lists here.  A path system is a list of vertex
sequences; the checker maps every target element to the set of indices of
the paths that contain it and requires the sets to be non-empty and pairwise
distinct.  Size bounds come from the formulas the package documents, computed
from vertex degrees, so a defect in the package's own verifier or profile
code cannot hide a wrong answer.
"""

from __future__ import annotations

import math


def adjacency(edges):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def edge_key(u, v):
    return (u, v) if u < v else (v, u)


def signatures(adj, paths, target):
    """Element -> frozenset of path indices, for target 'edges' or 'vertices'.

    Raises ValueError when a path is not a simple path of the tree.
    """
    if target == "edges":
        sig = {edge_key(u, v): set() for u in adj for v in adj[u] if u < v}
    else:
        sig = {v: set() for v in adj}
    for i, seq in enumerate(paths):
        if not seq or len(set(seq)) != len(seq):
            raise ValueError(f"path {i} is empty or repeats a vertex")
        for v in seq:
            if v not in adj:
                raise ValueError(f"path {i} uses unknown vertex {v}")
        for a, b in zip(seq, seq[1:]):
            if b not in adj[a]:
                raise ValueError(f"path {i}: {a} and {b} are not adjacent")
        if target == "edges":
            for a, b in zip(seq, seq[1:]):
                sig[edge_key(a, b)].add(i)
        else:
            for v in seq:
                sig[v].add(i)
    return {s: frozenset(ix) for s, ix in sig.items()}


def separation_problem(adj, paths, target):
    """None when the paths separate and cover the target, else a reason."""
    try:
        sig = signatures(adj, paths, target)
    except ValueError as exc:
        return str(exc)
    seen = {}
    for s, ix in sig.items():
        if not ix:
            return f"element {s} is on no path"
        if ix in seen:
            return f"elements {seen[ix]} and {s} share a signature"
        seen[ix] = s
    return None


def degree_counts(adj):
    h1 = sum(1 for v in adj if len(adj[v]) == 1)
    h2 = sum(1 for v in adj if len(adj[v]) == 2)
    return h1, h2


def is_depth2_binary(adj):
    if len(adj) != 7 or sorted(len(n) for n in adj.values()) != [1, 1, 1, 1, 2, 3, 3]:
        return False
    (mid,) = [v for v in adj if len(adj[v]) == 2]
    return all(len(adj[w]) == 3 for w in adj[mid])


def edge_target(adj):
    """Minimum edge-system size: 1 for one edge, 4 for the depth-2 binary
    tree, else max(ceil((2*h1 + h2)/3), ceil((h1 + h2)/2))."""
    if len(adj) == 2:
        return 1
    if is_depth2_binary(adj):
        return 4
    h1, h2 = degree_counts(adj)
    return max(-(-(2 * h1 + h2) // 3), -(-(h1 + h2) // 2))


def h2star(adj):
    """Degree-2 vertices minus one per maximal degree-2 run whose two ends
    are both non-leaves."""
    seen = set()
    inner_runs = 0
    for s in adj:
        if len(adj[s]) != 2 or s in seen:
            continue
        seen.add(s)
        stack, ends = [s], []
        while stack:
            x = stack.pop()
            for w in adj[x]:
                if len(adj[w]) == 2:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
                else:
                    ends.append(w)
        if all(len(adj[w]) > 1 for w in ends):
            inner_runs += 1
    return degree_counts(adj)[1] - inner_runs


def vertex_upper(adj):
    """ceil(2*h1/3) + ceil((h2* + 1)/2)."""
    h1 = degree_counts(adj)[0]
    return -(-2 * h1 // 3) + -(-(h2star(adj) + 1) // 2)


def vertex_lower(adj):
    """ceil(max((h1 + h2*)/2, (2*h1 + h2*)/3))."""
    h1, hs = degree_counts(adj)[0], h2star(adj)
    return max(-(-(h1 + hs) // 2), -(-(2 * h1 + hs) // 3))


def random_bound(n):
    """ceil(log2 n) + 1, the size bound for the G(n, p) systems."""
    return math.ceil(math.log2(n)) + 1


# ---- per-command checks; each returns None or a one-line reason ----

def check_system(out, adj, target, size_ok):
    paths = out["paths"]
    if out["size"] != len(paths):
        return f"size {out['size']} but {len(paths)} paths"
    problem = separation_problem(adj, paths, target)
    if problem:
        return problem
    return size_ok(len(paths))


def check_construct_edge(out, adj):
    want = edge_target(adj)
    return check_system(
        out, adj, "edges",
        lambda k: None if k == want else f"{k} paths, optimum is {want}",
    )


def check_construct_vertex(out, adj):
    upper = vertex_upper(adj)
    if out["upper"] != upper:
        return f"reported upper {out['upper']}, formula gives {upper}"
    return check_system(
        out, adj, "vertices",
        lambda k: None if k <= upper else f"{k} paths exceed the bound {upper}",
    )


def check_oracle(out, adj, target):
    if target == "edges":
        want = edge_target(adj)
        size_ok = lambda k: None if k == want else f"{k} paths, optimum is {want}"
    else:
        low = vertex_lower(adj)
        size_ok = lambda k: None if k >= low else f"{k} paths under the lower bound {low}"
    if not isinstance(out.get("nodesExpanded"), int):
        return "nodesExpanded missing"
    return check_system(out, adj, target, size_ok)


def check_random_exp(out, n, trials):
    per = out["perTrial"]
    if out["n"] != n or out["trials"] != trials or len(per) != trials:
        return "n or trial count does not match the request"
    if len({r["seed"] for r in per}) != trials:
        return "trial seeds repeat"
    bound = random_bound(n)
    for r in per:
        size = r["systemSize"]
        if r["success"] != (size is not None):
            return f"trial {r['seed']}: success flag disagrees with the size"
        if r["success"] and not r["isolated"] <= size <= bound:
            return f"trial {r['seed']}: size {size} outside [{r['isolated']}, {bound}]"
    wins = sum(r["success"] for r in per)
    if not math.isclose(out["successRate"], wins / trials):
        return "successRate disagrees with the trials"
    if not math.isclose(out["meanIsolated"], sum(r["isolated"] for r in per) / trials):
        return "meanIsolated disagrees with the trials"
    return None


def check_localize(out, expected):
    got = (out["diagnosis"], out["element"], out["failedSet"])
    if got != expected:
        return f"diagnosis {got} != expected {expected}"
    return None
