"""Command-line surface: construct, verify, solve, experiment, localize.

Exit codes: 0 success, 1 domain error (error name on stderr), 2 usage error.
All randomness flows from --seed; the default is a fixed constant so runs
reproduce without flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

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


class _Layout(NamedTuple):
    """What the plain reader takes from one parser of ``build_parser``."""

    options: dict  # exact option string -> its one-value or constant store
    positionals: tuple  # in order
    defaults: dict  # the namespace argparse starts from
    required: tuple  # options that must be given
    groups: tuple  # (members, required) of each mutually exclusive group


def _layout(parser: argparse.ArgumentParser) -> _Layout:
    options, defaults = {}, {}
    for a in parser._actions:
        if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS:
            defaults[a.dest] = a.default
        # the reader takes stores of one value or of a constant, not -h/--help
        if a.option_strings and (isinstance(a, argparse._StoreConstAction) or (
                type(a) is argparse._StoreAction and a.nargs is None)):
            options.update(dict.fromkeys(a.option_strings, a))
    for dest, value in parser._defaults.items():
        defaults.setdefault(dest, value)
    return _Layout(
        options,
        tuple(a for a in parser._actions if not a.option_strings),
        defaults,
        tuple(a for a in parser._actions if a.option_strings and a.required),
        tuple((g._group_actions, g.required) for g in parser._mutually_exclusive_groups),
    )


@functools.cache
def _plain_table() -> tuple[_Layout, str, dict[str, _Layout]]:
    """The top-level layout, the command's dest, and each command's layout."""
    top = build_parser()
    [commands] = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
    return _layout(top), commands.dest, {
        name: _layout(sp) for name, sp in commands.choices.items()
    }


_REFUSED = object()


def _value(action: argparse.Action, token: str):
    """``token`` converted by the action's type and inside its choices, or
    ``_REFUSED`` where argparse must read it (a dash, a type error, a value
    outside the choices)."""
    if token.startswith("-"):
        return _REFUSED
    try:
        value = token if action.type is None else action.type(token)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return _REFUSED
    return value if action.choices is None or value in action.choices else _REFUSED


def _options(layout: _Layout, argv: list[str], i: int, seen: dict) -> int:
    """Read exact option strings of ``layout``, each once, from argv[i] up
    to the next positional token, into ``seen`` (action -> value); the
    index of that token, or -1 when argparse must read the argv."""
    while i < len(argv) and argv[i].startswith("-"):
        action = layout.options.get(argv[i])
        if action is None or action in seen:
            return -1
        if action.nargs == 0:
            seen[action] = action.const
            i += 1
            continue
        if i + 1 == len(argv) or (value := _value(action, argv[i + 1])) is _REFUSED:
            return -1
        seen[action] = value
        i += 2
    return i


def _complete(layout: _Layout, seen: dict) -> bool:
    """Every required option given, and of each mutually exclusive group
    at most one member, exactly one when the group is required."""
    if not all(a in seen for a in layout.required):
        return False
    for members, required in layout.groups:
        hits = sum(a in seen for a in members)
        if hits > 1 or required and not hits:
            return False
    return True


def _read_plain(argv: list[str] | None) -> argparse.Namespace | None:
    """``build_parser().parse_args(argv)`` for an argv of the plain shape:
    top-level options, the command, then its positionals and its options,
    each option spelled exactly, given once and followed by a valid value
    that does not start with a dash.  None for any other argv, which
    argparse then reads, so every usage line, help text and error is
    argparse's own."""
    argv = sys.argv[1:] if argv is None else argv
    if type(argv) is not list or not all(type(t) is str for t in argv):
        return None
    top, command_dest, commands = _plain_table()
    top_seen: dict = {}
    i = _options(top, argv, 0, top_seen)
    if not 0 <= i < len(argv) or argv[i] not in commands or not _complete(top, top_seen):
        return None
    name, sub = argv[i], commands[argv[i]]
    seen: dict = {}
    tokens = []
    i = _options(sub, argv, i + 1, seen)
    while 0 <= i < len(argv):
        tokens.append(argv[i])
        i = _options(sub, argv, i + 1, seen)
    if i < 0 or len(tokens) != len(sub.positionals) or not _complete(sub, seen):
        return None
    for action, token in zip(sub.positionals, tokens):
        if (value := _value(action, token)) is _REFUSED:
            return None
        seen[action] = value
    ns = dict(top.defaults)
    ns.update((a.dest, v) for a, v in top_seen.items())
    ns[command_dest] = name
    ns.update(sub.defaults)
    ns.update((a.dest, v) for a, v in seen.items())
    return argparse.Namespace(**ns)


def main(argv: list[str] | None = None) -> int:
    args = _read_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
    """Run ``main`` on sys.argv; output cut short by a closed stdout (say,
    a pipe into ``head``) ends with exit 1 and no traceback."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point it at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
