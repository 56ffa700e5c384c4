"""Spans around the calls into each layer of ``seppaths``, added from outside.

``Tracer.install`` wraps the public functions listed in ``TRACED`` and
rebinds every module attribute of the package that holds the original
function object, re-exports included, so calls from other modules and
recursive calls through module globals are recorded too.  Small helpers such
as ``trees.edge`` are left alone: they run millions of times per pass and
wrapping them would cost more than the work they do.  No source file is
edited.  ``uninstall`` puts the originals back, so untraced passes run the
unmodified program.

A span is ``(name, start, end, parent, op, info)``: ``parent`` is the index
of the enclosing span in the same list (-1 for a root) and ``op`` the id of
the benchmark operation that caused it.  ``info`` holds a count read from
the arguments or the result for the few functions named in ``ANNOTATE``.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

# layer module -> the public functions that get spans
TRACED = {
    "cli": ("main",),
    "trees": ("parse_tree", "profile", "unique_path", "find_isomorphism",
              "delete_leaf", "suppress_vertex", "subdivide_edge"),
    "verify": ("parse_paths", "separates", "covers", "signatures"),
    "edge_systems": ("edge_system", "edge_target_size", "find_reduction_pair",
                     "apply_reduction", "lift_system"),
    "vertex_systems": ("vertex_system", "sharp_value"),
    "oracle": ("min_separating", "enumerate_paths"),
    "random_graphs": ("gen_gnp", "separating_set_system", "find_spanning_path",
                      "random_vertex_system"),
    "faults": ("signature_table", "decode"),
}
LAYERS = tuple(TRACED)

REBUILD = ("trees.delete_leaf", "trees.suppress_vertex", "trees.subdivide_edge")


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


# Counts a wrapper reads from a call: name -> f(args, kwargs, result).
ANNOTATE = {
    "cli.main": lambda a, k, r: r,
    "verify.signatures": lambda a, k, r: len(_first_arg(a, k, "fs").paths) * len(r),
    "random_graphs.find_spanning_path": lambda a, k, r: (r.nodes_expanded, r.path is not None),
    "oracle.min_separating": lambda a, k, r: r.nodes_expanded,
    "oracle.enumerate_paths": lambda a, k, r: len(r),
    "faults.decode": lambda a, k, r: r.kind,
}


PACKAGE = "seppaths"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            info = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, info)
            if annotate is not None:
                try:
                    info = annotate(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError):
                    info = None  # the layer changed shape; the count reads as missing
                spans[idx] = (name, start, end, parent, self.op, info)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer, names in TRACED.items():
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr in names:
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj):  # a renamed function reads as 0 calls
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def layer_metrics(spans, ops) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass over ``ops``."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, info in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    info_sum: dict[str, float] = defaultdict(float)
    layer_self = {layer: 0.0 for layer in LAYERS}
    vertex_unique_path = exit_nonzero = rotation = 0
    identified_ops = set()
    for i, (name, start, end, parent, op, info) in enumerate(spans):
        own = (end - start) - child[i]
        calls[name] += 1
        self_s[name] += own
        layer_self[name.split(".", 1)[0]] += own
        if name == "trees.unique_path" and parent >= 0 \
                and spans[parent][0].startswith("vertex_systems."):
            vertex_unique_path += 1
        if info is None:
            continue
        if name == "cli.main":
            exit_nonzero += info != 0
        elif name == "random_graphs.find_spanning_path":
            nodes, found = info
            info_sum[name] += nodes
            rotation += found and nodes == 0
        elif name == "faults.decode":
            if info == "Identified" and ops[op].report == "single":
                identified_ops.add(op)
        else:
            info_sum[name] += info

    def ratio(num, den):
        return num / den if den else 0.0

    singles = sum(1 for o in ops if o.report == "single")
    m = {f"{layer}.self_s": layer_self[layer] for layer in ("edge_systems", "verify")}
    for name in ("cli.main", "trees.profile", "trees.unique_path", "trees.find_isomorphism",
                 "edge_systems.find_reduction_pair", "faults.decode",
                 "random_graphs.find_spanning_path"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    for name in ("edge_systems.edge_system", "edge_systems.apply_reduction",
                 "edge_systems.edge_target_size", "verify.separates", "verify.covers",
                 "verify.signatures"):
        m[f"{name}.calls"] = calls[name]
    for name in ("trees.parse_tree", "verify.parse_paths", "verify.signatures",
                 "edge_systems.lift_system", "vertex_systems.vertex_system",
                 "vertex_systems.sharp_value", "faults.signature_table",
                 "random_graphs.gen_gnp", "random_graphs.random_vertex_system",
                 "random_graphs.separating_set_system", "oracle.min_separating",
                 "oracle.enumerate_paths"):
        m[f"{name}.self_s"] = self_s[name]
    m["trees.rebuild.calls"] = sum(calls[n] for n in REBUILD)
    m["trees.rebuild.self_s"] = sum(self_s[n] for n in REBUILD)
    m["cli.exit_nonzero"] = exit_nonzero
    m["verify.pairs_scanned"] = info_sum["verify.signatures"]
    m["vertex_systems.unique_path.calls"] = vertex_unique_path
    m["random_graphs.exact_nodes"] = info_sum["random_graphs.find_spanning_path"]
    m["random_graphs.rotation_ratio"] = ratio(rotation, calls["random_graphs.find_spanning_path"])
    m["oracle.nodes_expanded"] = info_sum["oracle.min_separating"]
    m["oracle.candidates"] = info_sum["oracle.enumerate_paths"]
    m["faults.identified_ratio"] = ratio(len(identified_ops), singles)
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
