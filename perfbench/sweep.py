#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --runs 10 --traced 1 --out perfbench/baseline.json

Each run is a fresh `perfbench/run.py` process, with the run length from
BENCHMARK.json; the workloads take turns, seed by seed.  For every
end-to-end metric the summary gives the median, the quartiles and the
spread (distance between the quartiles over the median) next to the
metric's bound, and the raw verdict and set-up times get the same summary.
Traced runs, made after the untraced ones at the reference
seed, add the per-layer metrics with `trace.overhead`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = os.path.join(ROOT, ".bench_out",
                               f"{workload}-seed{seed}-trace{trace}.json")
    with open(record_path) as fh:
        record = json.load(fh)
    return result, record


def summarise(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread < bound / 3.0,
            "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", type=int, default=0,
                        help="traced runs per workload")
    parser.add_argument("--out", help="summary JSON path")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    runs = {w: [] for w in names}
    machine = None
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in names:
            result, record = run_once(w, seed, seconds, 0)
            machine = record["machine"]
            runs[w].append({"seed": seed, **result,
                            "raw": record["operation"]["raw"],
                            "raw_setup_s": statistics.median(
                                record["raw_setup_times"])})
            values = {k: round(v["value"], 4)
                      for k, v in result["metrics"].items()}
            print(f"{w} seed={seed} correct={result['correct']} {values}",
                  flush=True)
    traced = {w: [] for w in names}
    for i in range(args.traced):
        for w in names:
            result, record = run_once(w, 0, seconds, 1)
            machine = record["machine"]
            traced[w].append(result)
            print(f"{w} traced correct={result['correct']} overhead="
                  f"{result['metrics']['trace.overhead']['value']:.4f}",
                  flush=True)

    summary = {"machine": machine, "run_seconds": seconds, "workloads": {}}
    for w in names:
        entry = {"runs": len(runs[w]),
                 "failed": sum(r["failed"] for r in runs[w] + traced[w]),
                 "attempted": sum(r["attempted"] for r in runs[w] + traced[w]),
                 "all_correct": all(r["correct"] for r in runs[w] + traced[w])}
        if len(runs[w]) >= 2:
            entry["end_to_end"] = {
                name: summarise([r["metrics"][name]["value"] for r in runs[w]],
                                bound) for name, bound in bounds.items()}
            # the uncalibrated times, against the bounds of the calibrated
            # metrics, for comparison
            entry["raw"] = {
                "verdict_s": summarise([r["raw"]["wall_s"] for r in runs[w]],
                                       bounds["verdict_s"]),
                "setup_s": summarise([r["raw_setup_s"] for r in runs[w]],
                                     bounds["setup_s"]),
                "host_speed": [r["raw"]["host_speed"] for r in runs[w]]}
            for name, s in entry["end_to_end"].items():
                print(f"{w:11s} {name:12s} median {s['median']:.6g} "
                      f"spread {s['spread']:.4f} bound {s['bound']} "
                      f"{'steady' if s['steady'] else 'NOT STEADY'}")
            for name, s in entry["raw"].items():
                if name != "host_speed":
                    print(f"{w:11s} raw {name:8s} median {s['median']:.6g} "
                          f"spread {s['spread']:.4f}")
        if traced[w]:
            entry["traced"] = [{k: v["value"] for k, v in r["metrics"].items()}
                               for r in traced[w]]
        summary["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
