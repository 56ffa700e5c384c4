"""Run every workload over several seeds and append a trajectory entry.

    python3 bench/record.py --seeds 1-10 --label "seed commit"

Each run is a separate ``run.py`` process.  For every end-to-end metric the
entry stores the median, the quartiles and the spread (quartile distance over
median) across the seeds, plus one traced run per workload on the first seed.
The spreads are printed as well, so the same command shows whether the
benchmark is steady on this machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
TRAJECTORY = HERE / "trajectory.json"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=900)
    details, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(details), json.loads(result)


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--label", required=True)
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seeds = seed_list(args.seeds)
    entry = {"label": args.label, "seeds": seeds, "run_seconds": seconds, "workloads": {}}
    for name in workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        failed, gauges, raw = 0, [], []
        for seed in seeds:
            details, result = run(name, seed, seconds, 0)
            failed += result["failed"]
            gauges.append(details["host_gauge_ms"])
            raw.append(details["run_raw_s"])
            for key, m in result["metrics"].items():
                values.setdefault(key, []).append(m["value"])
            print(f"{name} seed {seed}: passes {details['passes']} failed {result['failed']}",
                  flush=True)
        details, traced = run(name, seeds[0], seconds, 1)
        entry.setdefault("meta", {k: details[k] for k in ("nproc", "python", "commit",
                                                          "source_sha256")})
        entry["workloads"][name] = {
            "failed": failed,
            "host_gauge_ms": summarize(gauges),
            "run_raw_s": summarize(raw),
            "end_to_end": {k: summarize(v) for k, v in values.items()},
            "per_layer_seed": seeds[0],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        g = entry["workloads"][name]["host_gauge_ms"]
        print(f"  host gauge     median {g['median']:12.6g}  spread {g['spread']:.3f}")
        g = entry["workloads"][name]["run_raw_s"]
        print(f"  raw run_s      median {g['median']:12.6g}  spread {g['spread']:.3f}")
        for k, s in entry["workloads"][name]["end_to_end"].items():
            print(f"  {k:14s} median {s['median']:12.6g}  spread {s['spread']:.3f}", flush=True)
    history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.is_file() else []
    history.append(entry)
    TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
