"""Command-line surface: construct, verify, solve, experiment, localize.

Exit codes: 0 success, 1 domain error (error name on stderr), 2 usage error.
All randomness flows from --seed; the default is a fixed constant so runs
reproduce without flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from pathlib import Path

from .errors import BadToken, SepPathError
from .faults import ProbeReport, decoder
from .oracle import min_separating
from .random_graphs import (
    ExperimentConfig,
    run_experiment,
    subcritical_p,
    supercritical_p,
)
from .trees import Tree, emit_dot, parse_tree, profile
from .edge_systems import edge_system
from .vertex_systems import (
    sharp_value,
    vertex_lower_bound,
    vertex_system,
    vertex_upper_formula,
)
from .verify import (
    PathSystem,
    TargetSet,
    check,
    parse_paths,
    serialize_paths,
)

DEFAULT_SEED = 42

_TARGETS = {
    "edges": TargetSet.edges,
    "vertices": TargetSet.vertices,
    "v-and-interior": TargetSet.vertices_and_interior_edges,
}


class UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    """A UTF-8 input file's text; an unreadable file is a usage error, and
    bytes that are not UTF-8 are a BadToken naming their line."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(str(exc)) from None
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise BadToken(f"{path}: line {line}: not UTF-8 text") from None


def _load_tree(path: str) -> Tree:
    return parse_tree(_read_text(path))


def _emit(args, text_lines, payload) -> None:
    """Print the payload as JSON (a tuple comes out as an array), or the
    lines that ``text_lines()`` renders: a JSON run never renders them."""
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines():
            print(line)


def _system_text(fs: PathSystem, header: list[str]) -> list[str]:
    return [f"# {h}" for h in header] + serialize_paths(fs).splitlines()


def cmd_profile(args) -> int:
    t = _load_tree(args.tree)
    p = profile(t)
    payload = {
        "n": t.n,
        "h1": p.h1,
        "h2": p.h2,
        "h2star": p.h2star,
        "leaves": p.leaves,
        "deg2": p.deg2,
        "interiorEdges": p.interior_edges,
        "barePaths": [bp.vertices for bp in p.bare_paths],
        "setI": p.set_i,
        "bunches": [{"vertices": b.vertices, "leaves": b.leaves} for b in p.bunches],
        "usefulLeaves": p.useful_leaves,
    }
    _emit(args, lambda: [
        f"n {t.n}",
        f"h1 {p.h1}",
        f"h2 {p.h2}",
        f"h2star {p.h2star}",
        "leaves " + " ".join(map(str, p.leaves)),
        "deg2 " + " ".join(map(str, p.deg2)),
        "interior-edges " + " ".join(f"({u},{v})" for u, v in p.interior_edges),
        "bare-paths " + " ".join(str(bp) for bp in p.bare_paths),
        "setI " + " ".join(map(str, p.set_i)),
        "bunches " + " ".join(
            "{" + ",".join(map(str, b.vertices)) + "}:" + str(b.size) for b in p.bunches
        ),
        "useful-leaves " + " ".join(map(str, p.useful_leaves)),
    ], payload)
    return 0


def cmd_construct_edge(args) -> int:
    t = _load_tree(args.tree)
    fs = edge_system(t)
    payload = {"size": fs.size, "paths": [q.vertices for q in fs.paths]}
    _emit(args, lambda: _system_text(fs, [f"size {fs.size}"]), payload)
    return 0


def cmd_construct_vertex(args) -> int:
    t = _load_tree(args.tree)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fs = vertex_system(t)
    for w in caught:
        print(f"warning: {w.category.__name__}: {w.message}", file=sys.stderr)
    p = profile(t)
    lower = vertex_lower_bound(p)
    upper = vertex_upper_formula(p)
    sharp = sharp_value(t, TargetSet.vertices(t))
    payload = {
        "size": fs.size,
        "paths": [q.vertices for q in fs.paths],
        "lower": lower,
        "upper": upper,
        "sharp": sharp,
    }
    header = [f"size {fs.size}", f"lower {lower} upper {upper} sharp {sharp}"]
    _emit(args, lambda: _system_text(fs, header), payload)
    return 0


def cmd_verify(args) -> int:
    t = _load_tree(args.tree)
    fs = parse_paths(t, _read_text(args.paths))
    for warning in fs.lint():
        print(f"warning: {warning}", file=sys.stderr)
    ts = _TARGETS[args.target](t)
    verdict = check(fs, ts)
    if not verdict:
        print(str(verdict), file=sys.stderr)
        return 1
    payload = {"separates": True, "covers": True, "elements": len(ts)}
    _emit(args, lambda: ["separates true", "covers true", f"elements {len(ts)}"], payload)
    return 0


def cmd_oracle(args) -> int:
    if args.budget_ms is not None and not args.budget_ms >= 0:  # NaN fails too
        raise UsageError(f"--budget-ms {args.budget_ms} is not a non-negative number")
    t = _load_tree(args.tree)
    ts = _TARGETS[args.target](t)
    res = min_separating(
        t, ts, require_cover=not args.no_cover, budget_ms=args.budget_ms
    )
    payload = {
        "size": res.size,
        "paths": [q.vertices for q in res.system.paths],
        "nodesExpanded": res.nodes_expanded,
        "elapsed": res.elapsed,
    }
    header = [
        f"size {res.size}",
        f"nodes {res.nodes_expanded} elapsed {res.elapsed:.3f}s",
    ]
    _emit(args, lambda: _system_text(res.system, header), payload)
    return 0


def cmd_random_exp(args) -> int:
    if args.n < 0:
        raise UsageError(f"--n {args.n} is negative")
    if args.trials < 1:
        raise UsageError(f"--trials {args.trials} is below 1")
    if args.p is not None:
        p = args.p
        if not 0.0 <= p <= 1.0:
            raise UsageError(f"--p {p} outside [0,1]")
    elif args.n < 2:
        raise UsageError(f"--n {args.n}: the automatic p needs n >= 2")
    elif args.auto_supercritical:
        p = supercritical_p(args.n)
    else:
        p = subcritical_p(args.n)
    stats = run_experiment(ExperimentConfig(n=args.n, p=p, trials=args.trials, seed=args.seed))
    payload = {
        "n": args.n,
        "p": p,
        "trials": args.trials,
        "masterSeed": args.seed,
        "perTrial": [
            {
                "seed": r.seed,
                "success": r.success,
                "systemSize": r.system_size,
                "isolated": r.isolated,
            }
            for r in stats.per_trial
        ],
        "successRate": stats.success_rate,
        "meanIsolated": stats.mean_isolated,
    }
    _emit(args, lambda: [
        f"n {args.n}",
        f"p {p}",
        f"trials {args.trials}",
        f"successRate {stats.success_rate}",
        f"meanIsolated {stats.mean_isolated}",
    ], payload)
    return 0


def cmd_localize(args) -> int:
    t = _load_tree(args.tree)
    fs = parse_paths(t, _read_text(args.paths))
    ts = _TARGETS[args.target](t)
    decode = decoder(fs, ts)
    report_bits = args.report.strip()
    if set(report_bits) - set("PpFf"):  # before any case mapping: 'ﬀ'.upper() == 'FF'
        raise UsageError("--report must contain only 'P' and 'F'")
    if len(report_bits) != fs.size:
        raise UsageError(
            f"--report has {len(report_bits)} outcomes for {fs.size} paths"
        )
    report = ProbeReport(tuple(c in "Pp" for c in report_bits))
    diag = decode(report)
    payload = {
        "diagnosis": diag.kind,
        "element": diag.element,
        "failedSet": sorted(diag.failed),
    }
    _emit(args, lambda: [
        f"diagnosis {diag.kind}",
        f"element {diag.element if diag.element is not None else '-'}",
        "failed " + " ".join(map(str, sorted(diag.failed))),
    ], payload)
    return 0


def cmd_export_dot(args) -> int:
    dot = emit_dot(_load_tree(args.tree))
    _emit(args, dot.splitlines, {"dot": dot})
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="seppaths",
        description="Separating path systems for trees and random graphs.",
    )
    ap.add_argument("--format", choices=("text", "json"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("profile", help="structural parameters of a tree")
    sp.add_argument("tree")
    sp.set_defaults(fn=cmd_profile)

    sp = sub.add_parser("construct-edge", help="minimum edge-separating system")
    sp.add_argument("tree")
    sp.set_defaults(fn=cmd_construct_edge)

    sp = sub.add_parser("construct-vertex", help="vertex-separating system")
    sp.add_argument("tree")
    sp.set_defaults(fn=cmd_construct_vertex)

    sp = sub.add_parser("verify", help="check a path system against a target")
    sp.add_argument("tree")
    sp.add_argument("paths")
    sp.add_argument("--target", choices=sorted(_TARGETS), required=True)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("oracle", help="exact minimum by exhaustive search")
    sp.add_argument("tree")
    sp.add_argument("--target", choices=sorted(_TARGETS), required=True)
    sp.add_argument("--no-cover", action="store_true")
    sp.add_argument("--budget-ms", type=float, default=None)
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("random-exp", help="seeded random-graph trials")
    sp.add_argument("--n", type=int, required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=float, default=None)
    group.add_argument("--auto-supercritical", action="store_true")
    group.add_argument("--auto-subcritical", action="store_true")
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.set_defaults(fn=cmd_random_exp)

    sp = sub.add_parser("localize", help="decode a probe report to a fault")
    sp.add_argument("tree")
    sp.add_argument("paths")
    sp.add_argument("--target", choices=sorted(_TARGETS), required=True)
    sp.add_argument("--report", required=True, help="one P/F per path")
    sp.set_defaults(fn=cmd_localize)

    sp = sub.add_parser("export-dot", help="emit the tree as DOT")
    sp.add_argument("tree")
    sp.set_defaults(fn=cmd_export_dot)

    return ap


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SepPathError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
