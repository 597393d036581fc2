#!/usr/bin/env python3
"""Run one workload of the cbplab benchmark in this process and print its
metrics.

    python3 perfbench/run.py --workload construct8 --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it imports cbplab from `src/` there.
Untraced (`--trace 0`), it times the set-up in a few fresh processes, then
runs the timed operation once, cold, and reports the end-to-end metrics; the
operation is sized to take about `--seconds`, which is recorded but does not
change the work.  Traced (`--trace 1`), it runs the operation once with the
span tracer installed, then starts an untraced run of the same workload and
seed, checks that both give identical outputs, and reports the per-layer
metrics with the tracing overhead.  Every run checks all its outputs
against `perfbench/references/<workload>.json`, at every seed: no seed
changes a number (see `workloads.py`).  The times are calibrated against
the host's speed while they are measured (see `calibration.py`); the raw
times are printed and recorded too.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The full record, with the
machine it ran on, goes to `.bench_out/<workload>-seed<n>-trace<t>.json`.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_SEED = 0
SETUP_REPEATS = 5
# one process, single-threaded BLAS: the load comes from this process alone
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine(seed, seconds) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "git_commit": _git_commit(),
        "seed": seed,
        "seconds": seconds,
    }


# One set-up in a fresh interpreter: import cbplab and build the workload's
# inputs, timed from inside the child.  Interpreter start-up and the numpy
# and scipy imports come before the timer, so the figure is cbplab's own.
# The calibration kernel runs just before and just after it.
SETUP_PROBE = """
import sys, time
import numpy
from scipy import integrate, interpolate, linalg, sparse, special, stats
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import calibration
before = calibration.slowdown()
t0 = time.perf_counter()
import workloads
workloads.WORKLOADS[sys.argv[3]]().setup(int(sys.argv[4]))
t1 = time.perf_counter()
after = calibration.slowdown()
print(t1 - t0, (before + after) / 2)
"""


def setup_times(name, seed) -> tuple[list[float], list[float]]:
    """Calibrated and raw set-up times of SETUP_REPEATS fresh processes.

    The set-ups themselves take a few milliseconds, and every user of the
    library pays cbplab's import first.
    """
    # compile cbplab and the benchmark first, as an installed package is, so
    # that the probes time the same work whether or not Python writes
    # bytecode when it imports
    compileall.compile_dir(os.path.join(SRC, "cbplab"), quiet=1)
    compileall.compile_dir(HERE, maxlevels=0, quiet=1)
    calibrated, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, SRC, HERE, name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        seconds, slowdown = map(float, proc.stdout.split()[-2:])
        raw.append(seconds)
        calibrated.append(seconds / slowdown)
    return calibrated, raw


def _run_op(workload, inputs, check, reference):
    """Run one operation, check it, and return its Outcome (outputs None
    when it raised)."""
    from workloads import Outcome

    start = time.perf_counter()
    cpu = time.process_time()
    try:
        outcome = workload.run(inputs)
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc()
        outcome = Outcome(None, time.perf_counter() - start,
                          time.process_time() - cpu)
    outcome.wall = time.perf_counter() - start
    if reference is not None:
        check.outcome(workload, outcome, reference)
    return outcome


def _untraced_twin(name, seed) -> dict:
    """Record of a one-operation untraced run of the workload."""
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    with open(_record_path(name, seed, 0)) as fh:
        return json.load(fh)


def _record_path(name, seed, trace):
    from workloads import out_dir

    return os.path.join(out_dir(), f"{name}-seed{seed}-trace{trace}.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the reference "
                             "(reference seed, untraced only)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cbplab", "__init__.py")):
        print(f"error: no cbplab sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    import cbplab
    import workloads

    if not os.path.abspath(cbplab.__file__).startswith(SRC + os.sep):
        print(f"error: imported cbplab from {cbplab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    if args.write_reference and (args.seed != REFERENCE_SEED or args.trace):
        parser.error("--write-reference needs the reference seed and "
                     "--trace 0")
    workload = workloads.WORKLOADS[args.workload]()
    ref_path = os.path.join(HERE, "references", f"{workload.name}.json")
    reference = None
    if not args.write_reference:
        try:
            with open(ref_path) as fh:
                reference = json.load(fh)
        except OSError as exc:
            print(f"error: cannot read the reference: {exc}", file=sys.stderr)
            return 2

    info = machine(args.seed, args.seconds)
    setups, raw_setups = (([], []) if args.trace
                          else setup_times(workload.name, args.seed))
    inputs = workload.setup(args.seed)

    check = workloads.Check()
    extra = {}
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        with tracer:
            traced = _run_op(workload, inputs, check, reference)
        # the untraced twin runs in a fresh process too, so both operations
        # pay the same cold-start costs
        plain = _untraced_twin(workload.name, args.seed)
        check.attempted += plain["attempted"]
        check.failures += [f"untraced: {f}" for f in plain["failures"]]
        if traced.outputs is None or plain["outputs"] is None:
            check.fail("trace.identical", "an operation raised")
        elif json.loads(json.dumps(traced.outputs)) != plain["outputs"]:
            check.fail("trace.identical",
                       "traced and untraced outputs differ")
        else:
            check.attempted += 1
        outcome = traced
        metrics = tracer.metrics()
        metrics.update(dict.fromkeys(workloads.OUTPUT_METRICS, 0))
        if traced.outputs is not None:
            metrics.update(workload.layer_counts(traced))
        metrics["trace.overhead"] = (
            traced.verdict_s / plain["operation"]["verdict_s"] - 1.0)
        spans = os.path.join(workloads.out_dir(),
                             f"{workload.name}-seed{args.seed}-spans.npz")
        tracer.dump(spans)
        extra = {"spans": os.path.relpath(spans, ROOT),
                 "calls": tracer.calls(), "batches": tracer.batches,
                 "sections_per_profile": tracer.children_per_parent(
                     "fourier.fractional.profile",
                     "sections.parallel_section")}
    else:
        # one cold operation: a second one in this process would reuse the
        # caches the first filled
        outcome = _run_op(workload, inputs, check, reference)
        metrics = {
            "setup_s": statistics.median(setups),
            "verdict_s": outcome.verdict_s,
            "cpu_s": outcome.cpu_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    units = _units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           f"disagree with BENCHMARK.json")
    failed = len(check.failures)
    fail_ratio = failed / check.attempted if check.attempted else 1.0
    print("machine " + json.dumps(info, sort_keys=True))
    print(f"{workload.name} seed={args.seed} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units.get(name, '')}")
    if outcome.raw:
        print(f"  raw (uncalibrated): verdict {outcome.raw['wall_s']:.6g} s, "
              f"cpu {outcome.raw['cpu_s']:.6g} s, host speed "
              f"{outcome.raw['host_speed']:.4g} of nominal"
              + (f", set-up {statistics.median(raw_setups):.6g} s"
                 if raw_setups else ""))
    print(f"  {'fail_ratio':40s} {fail_ratio:.6g} 1 "
          f"({failed} of {check.attempted} checked operations failed; "
          f"largest relative deviation {check.max_rel_dev:.3g})")
    for failure in check.failures[:20]:
        print(f"  FAILED {failure}")

    if args.write_reference:
        if outcome.outputs is None:
            print("error: the operation raised; no reference written",
                  file=sys.stderr)
            return 1
        with open(ref_path, "w") as fh:
            json.dump(outcome.outputs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(ref_path, ROOT)}")

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "machine": info, "metrics": metrics, "attempted": check.attempted,
        "failed": failed, "fail_ratio": fail_ratio,
        "max_rel_dev": check.max_rel_dev, "failures": check.failures,
        "setup_times": setups, "raw_setup_times": raw_setups,
        "operation": {"verdict_s": outcome.verdict_s,
                      "cpu_s": outcome.cpu_s, "wall": outcome.wall,
                      "raw": outcome.raw, **outcome.timings},
        "outputs": outcome.outputs, **extra,
    }
    with open(_record_path(workload.name, args.seed, args.trace), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    result = {
        "correct": failed == 0 and check.attempted > 0,
        "attempted": max(check.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _units(kind) -> dict:
    """Metric name -> unit for `end_to_end` or `per_layer`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


if __name__ == "__main__":
    sys.exit(main())
