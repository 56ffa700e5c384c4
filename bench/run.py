"""Benchmark for seppaths: one workload per process, closed loop, one client.

    python3 bench/run.py --workload tree-design --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each

Each op is one in-process call of ``seppaths.cli.main(argv)`` with stdout and
stderr captured.  Set-up (program load, input generation, file writing,
deployment building) runs several times and its median is ``setup_s``.  Then
passes over the workload's fixed op list repeat until ``--seconds`` have
elapsed, at least three of them.  Outputs are checked by ``checker.py`` after
the timed region.

Every reported time is host-normalised: a fixed reference computation, the
host gauge, runs before and after each op and each set-up round, and the
measured time is scaled by ``GAUGE_REF_S`` over the mean of those two gauge
times, to the power ``GAUGE_EXPONENT``.  On a shared host whose speed drifts by tens of percent from minute
to minute this keeps what the program costs and drops how fast the host ran.
The raw wall times and the gauge go in the details line.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics from the traced passes, plus the tracing overhead.  The
line before it is a JSON record of run details: metadata, failures by kind,
the tail percentile and sample counts, and the scaling curves.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "work"
PACKAGE = tracer.PACKAGE
# Set-up repeats until it has run SETUP_MIN_ROUNDS times and SETUP_BUDGET_S
# seconds, or SETUP_MAX_ROUNDS times.
SETUP_MIN_ROUNDS = 3
SETUP_MAX_ROUNDS = 15
SETUP_BUDGET_S = 1.0
MIN_PASSES = 3
# The tail is read at a fixed percentile per workload: the highest that has
# TAIL_BEYOND samples beyond it after TAIL_PASSES passes.  It does not move
# with the number of passes a run happens to fit into --seconds.
TAIL_PASSES = 2
TAIL_BEYOND = 10
SUBPROCESS_TIMEOUT_S = 900
# The host gauge: an integer loop plus dict, set and sort work on fixed keys.
# It takes about 2.5 ms on a 2-vCPU x86-64 VM with CPython 3.11.  A normalised
# time reads as the time on a host where the gauge takes exactly GAUGE_REF_S.
GAUGE_LOOP = 25_000
GAUGE_KEYS = [random.Random(0).getrandbits(30) for _ in range(2_000)]
GAUGE_REF_S = 0.0025
# When the host is contended the program slows more than the gauge does.  With
# a plain ratio, the log of the normalised times of 40 runs (ten seeds on each
# workload) still rose with the log of the run's median gauge time, with
# slopes 0.11-0.34, median 0.2, on every workload and time metric.  Scaling
# by the gauge ratio to the power 1.2 takes that out.
GAUGE_EXPONENT = 1.2


@dataclass
class Outcome:
    latency: float  # host-normalised seconds
    raw: float  # wall seconds
    code: int | None  # None when the call raised
    error: str | None  # exception class name
    stdout: str


def host_gauge() -> float:
    """Seconds for a fixed pure-Python computation.  On a shared host it
    shows how fast the machine runs right now; an integer loop alone tracks
    the program's slowdowns too little and dict/set work alone too much, so
    it does both."""
    start = time.perf_counter()
    total = 0
    for i in range(GAUGE_LOOP):
        total += i * i
    table, seen = {}, set()
    for k in GAUGE_KEYS:
        table[k] = (k, k + 1)
        seen.add(k >> 3)
    for k in GAUGE_KEYS:
        if k >> 3 in seen:
            total += table[k][1]
    total += len(frozenset(sorted(GAUGE_KEYS)[::2]))
    return time.perf_counter() - start


def normalise(raw: float, gauge_before: float, gauge_after: float) -> float:
    return raw * (GAUGE_REF_S / (0.5 * (gauge_before + gauge_after))) ** GAUGE_EXPONENT


def unload_program() -> None:
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def load_program():
    """Import the package from ``src`` afresh; returns its layer modules."""
    unload_program()
    importlib.import_module(PACKAGE)
    mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in tracer.LAYERS}
    return types.SimpleNamespace(**mods)


def run_op(cli, op, gauge_before: float) -> tuple[Outcome, float]:
    """Run one op; returns its outcome and the gauge time taken after it."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(op.argv)
        error = None
    except Exception as exc:  # a crash is a failed op; the run goes on
        code, error = None, type(exc).__name__
    raw = time.perf_counter() - start
    gauge_after = host_gauge()
    return (Outcome(normalise(raw, gauge_before, gauge_after), raw, code, error,
                    out.getvalue()), gauge_after)


def run_pass(cli, ops, trace: tracer.Tracer | None):
    """(wall seconds, outcomes, gauge times) of one pass over the op list."""
    start = time.perf_counter()
    outcomes, gauges = [], [host_gauge()]
    for i, op in enumerate(ops):
        if trace is not None:
            trace.op = i
        outcome, gauge = run_op(cli, op, gauges[-1])
        outcomes.append(outcome)
        gauges.append(gauge)
    return time.perf_counter() - start, outcomes, gauges


def judge(op, oc: Outcome):
    """(failure kind or None, reason, parsed output) for one outcome."""
    if oc.error is not None:
        return f"exception:{oc.error}", oc.error, None
    if oc.code != 0:
        return f"exit:{oc.code}", f"exit code {oc.code}", None
    try:
        out = json.loads(oc.stdout)
        reason = op.check(out)
    except (ValueError, KeyError, TypeError) as exc:
        reason = f"malformed output: {type(exc).__name__}: {exc}"
        out = None
    if reason is not None:
        return "check", reason, None
    return None, None, out


def score(op, out):
    """(system sizes, successes, tries) of one op; ``out`` is None on failure."""
    command = op.argv[2]
    if command == "random-exp":
        tries = int(op.argv[op.argv.index("--trials") + 1])
        if out is None:
            return [], 0, tries
        sizes = [r["systemSize"] for r in out["perTrial"] if r["success"]]
        return sizes, len(sizes), tries
    if command == "localize":
        sizes = [op.system_size] if out is not None else []
        if op.report != "single":
            return sizes, 0, 0
        return sizes, int(out is not None and out["diagnosis"] == "Identified"), 1
    if out is None:
        return [], 0, 1
    return [out["size"]], 1, 1


@dataclass
class Tally:
    """Check results of the passes so far."""

    failures: Counter = field(default_factory=Counter)
    mismatches: list[str] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    wins: int = 0
    tries: int = 0

    def check(self, ops, outcomes: list[Outcome]) -> None:
        """Judge one pass's outputs, then drop them, so that memory does not
        grow with the number of passes a run fits in."""
        for op, oc in zip(ops, outcomes):
            kind, reason, out = judge(op, oc)
            if kind is not None:
                self.failures[kind] += 1
                if len(self.mismatches) < 20:
                    self.mismatches.append(f"{op.label} {' '.join(op.argv[2:4])}: {reason}")
            s, w, t = score(op, out)
            self.sizes += s
            self.wins += w
            self.tries += t
            oc.stdout = ""


def op_medians(passes, attr: str = "latency") -> list[float]:
    """Each op's median latency across passes.  A slow stretch of a few
    seconds on a shared host moves one sample of an op, not its median."""
    return [statistics.median(getattr(p[1][i], attr) for p in passes)
            for i in range(len(passes[0][1]))]


def tail(medians: list[float]) -> tuple[float, float]:
    """(latency, percentile): nearest-rank value of the per-op medians at
    the tail percentile."""
    base = TAIL_PASSES * len(medians)
    below = max(base - TAIL_BEYOND, 1)
    rank = -(-below * len(medians) // base)
    return sorted(medians)[rank - 1], 100.0 * below / base


def class_medians(ops, passes) -> dict[str, float]:
    """Median latency (s) of each op class over the given passes."""
    by_label: dict[str, list[float]] = {}
    for _, outcomes, _ in passes:
        for op, oc in zip(ops, outcomes):
            by_label.setdefault(op.label, []).append(oc.latency)
    return {label: statistics.median(v) for label, v in by_label.items()}


def scaling(by_label: dict[str, float]):
    """Construct-edge time over n and construct-vertex time over m, with the
    log-log slopes, from the tree-design class medians."""
    curves = {}
    for prefix, key in (("edge-n", "edge_systems"), ("vertex-m", "vertex_systems")):
        pts = sorted((int(lab[len(prefix):]), t)
                     for lab, t in by_label.items() if lab.startswith(prefix))
        curves[key] = {"sizes": [p[0] for p in pts], "median_s": [p[1] for p in pts],
                       "exponent": _slope(pts)}
    return curves


def _slope(points):
    if len(points) < 2:
        return 0.0
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def metadata():
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
            elif packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def more_setup(rounds: list[float], traced: bool) -> bool:
    """Whether to run another set-up round; a traced run sets up once."""
    if not rounds:
        return True
    if traced or len(rounds) >= SETUP_MAX_ROUNDS:
        return False
    return len(rounds) < SETUP_MIN_ROUNDS or sum(rounds) < SETUP_BUDGET_S


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: {SRC / PACKAGE} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)

    setup_times, setup_raw = [], []
    gauge = host_gauge()
    while more_setup(setup_raw, traced):
        # Free the previous round's modules and inputs outside the timing, so
        # that peak memory does not grow with the number of rounds.
        lib = wl = None
        unload_program()
        gc.collect()
        start = time.perf_counter()
        lib = load_program()
        wl = workloads.setup(name, seed, workdir, lib)
        setup_raw.append(time.perf_counter() - start)
        after = host_gauge()
        setup_times.append(normalise(setup_raw[-1], gauge, after))
        gauge = after
    if not lib.cli.__file__.startswith(str(SRC)):
        print(f"error: imported {lib.cli.__file__}, not the checkout's source", file=sys.stderr)
        return 2
    ops = wl.ops
    if not ops:
        print("error: set-up produced no ops: " + "; ".join(wl.setup_problems), file=sys.stderr)
        return 1

    tally = Tally()
    tally.failures["setup"] = len(wl.setup_problems)
    tally.mismatches += [f"setup: {p}" for p in wl.setup_problems]
    trace = tracer.Tracer() if traced else None
    plain, with_spans, span_lists = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()  # every pass starts from the same heap state
        on = traced and len(plain) > len(with_spans)
        if on:
            trace.install()
        try:
            result = run_pass(lib.cli, ops, trace if on else None)
        finally:
            if on:
                trace.uninstall()
        tally.check(ops, result[1])
        if on:
            with_spans.append(result)
            span_lists.append(trace.take())
        else:
            plain.append(result)
        if (time.perf_counter() >= deadline and len(plain) >= MIN_PASSES
                and (not traced or with_spans)):
            break

    attempted = len(ops) * (len(plain) + len(with_spans)) + len(wl.setup_problems)
    failures, sizes, wins, tries = +tally.failures, tally.sizes, tally.wins, tally.tries
    failed = sum(failures.values())

    medians = op_medians(plain)
    tail_s, tail_pct = tail(medians)
    classes = class_medians(ops, plain)
    curves = scaling(classes) if name == "tree-design" else {}
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        **metadata(),
        "ops_per_pass": len(ops), "passes": len(plain), "traced_passes": len(with_spans),
        "op_tail_percentile": tail_pct, "op_samples": len(ops) * len(plain),
        "success_base": tries, "failures_by_kind": dict(failures), "mismatches": tally.mismatches,
        "setup_rounds_s": setup_times, "setup_rounds_raw_s": setup_raw,
        "pass_raw_s": [p[0] for p in plain], "run_raw_s": sum(op_medians(plain, "raw")),
        "host_gauge_ms": 1000 * statistics.median(g for p in plain for g in p[2]),
        "class_median_s": classes, "scaling": curves,
    }

    if traced:
        per_pass = [tracer.layer_metrics(spans, ops) for spans in span_lists]
        layer = tracer.median_metrics(per_pass)
        layer["edge_systems.exponent"] = curves.get("edge_systems", {}).get("exponent", 0.0)
        layer["vertex_systems.exponent"] = curves.get("vertex_systems", {}).get("exponent", 0.0)
        plain_s = sum(medians)
        layer["trace.overhead_frac"] = (sum(op_medians(with_spans)) - plain_s) / plain_s
        details["traced_pass_raw_s"] = [p[0] for p in with_spans]
        details["spans_per_pass"] = [len(s) for s in span_lists]
        write_spans(workdir / "spans.tsv", span_lists)
        metrics = {k: metric(v, unit_of(k)) for k, v in layer.items()}
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "run_s": metric(sum(medians), "s"),
            "op_p50_ms": metric(1000 * statistics.median(medians), "ms"),
            "op_tail_ms": metric(1000 * tail_s, "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "mean_paths": metric(statistics.fmean(sizes) if sizes else 0.0, "paths"),
            "ok_frac": metric((attempted - failed) / attempted, "ratio"),
            "success_rate": metric(wins / tries if tries else 0.0, "ratio"),
        }
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("exponent"):
        return "slope"
    return "count"


def write_spans(path: Path, span_lists) -> None:
    with path.open("w") as fh:
        fh.write("pass\top\tname\tstart\tend\tparent\tinfo\n")
        for k, spans in enumerate(span_lists):
            for name, start, end, parent, op, info in spans:
                fh.write(f"{k}\t{op}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{info}\n")


def run_all(args) -> int:
    """Each workload in its own process; prints every metric by name and unit."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False,
                              timeout=SUBPROCESS_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print(lines[-2])
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            print(f"{name:15s} {key:45s} {m['value']:>14.6g} {m['unit']}")
            total["metrics"][f"{name}/{key}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
