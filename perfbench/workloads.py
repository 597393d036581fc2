"""The benchmark's three workloads.

Each workload makes its inputs from the seed (`setup`), runs one timed
operation (`run`) and splits the operation's outputs into the checked
operations that the correctness check compares with the committed reference
(`ops`).  An operation is one per-direction value, one verdict or one CLI
call.

The two orbit grids are thinned so that one run stays well under a minute
on two cores; the thinning keeps every layer each workload exercises.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

import cbplab
from cbplab import busemann_petty, cli
from cbplab.frames import DirectionGrid
from cbplab.quadrature import sphere_area
from calibration import Sampler

HERE = os.path.dirname(os.path.abspath(__file__))
PAIR_FILE = os.path.join(HERE, "data", "pair_n4_q4_seed0.json")


@dataclass
class Outcome:
    """One operation: outputs to check, and the calibrated wall and CPU
    time of the interval the workload defines as its verdict time."""

    outputs: dict | None
    verdict_s: float
    cpu_s: float
    timings: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)  # uncalibrated times
    wall: float = 0.0  # the whole operation, set by the runner


def thinned_grid(dim, step, seed):
    """Every `step`-th direction of the orbit-reduced, moduli-sorted res-8
    grid, weights rescaled to the sphere area, and the positions that put
    the grid's directions back in reference order.

    Seed 0 keeps the grid order; another seed shuffles it.  Every direction
    is evaluated on its own, so the order changes no per-direction value.
    """
    full = cbplab.make_grid(dim, 8, reduction="orbit_reduced",
                            sort_moduli=True)
    idx = np.arange(0, len(full.points), step)
    if seed:
        idx = np.random.default_rng(seed).permutation(idx)
    w = full.weights[idx]
    w = w * (sphere_area(dim) / math.fsum(w))
    grid = DirectionGrid(dim, full.points[idx].copy(), full.reduction,
                         full.resolution, seed, w)
    return grid, np.argsort(idx)


def _in_order(values, order):
    """Per-direction values of a shuffled grid, in reference order."""
    return [float(values[i]) for i in order]


def _dirs(prefix, values, stderrs, value_key="value"):
    return [(f"{prefix}[{i}]", {value_key: v, "stderr": e})
            for i, (v, e) in enumerate(zip(values, stderrs))]


class Construct8:
    """bp_construct(4, 4.0) with its defaults (width 0.1, seed 0) on one
    direction in 16 of the orbit-reduced res-8 grid: 16 directions."""

    name = "construct8"
    step = 16

    def setup(self, seed):
        # the grid keeps its order at every seed: the gaps are small
        # differences of section volumes, and a shuffled grid reorders the
        # sums of the bump fit, which moves them by up to 7.5e-12 relative,
        # beyond the check's tolerance
        return thinned_grid(8, self.step, 0)

    def run(self, inputs) -> Outcome:
        grid, order = inputs
        # bp_construct does not return its sign scan; a pass-through keeps
        # it so that the per-direction transform values can be checked
        scans = []
        scan = busemann_petty.scan

        def keep_scan(*args, **kwargs):
            scans.append(scan(*args, **kwargs))
            return scans[-1]

        busemann_petty.scan = keep_scan
        try:
            with Sampler() as clock:
                _, _, report, trace = cbplab.bp_construct(4, 4.0, grid=grid)
        finally:
            busemann_petty.scan = scan
        verdict = scans[0]
        record = report.as_record()
        outputs = {
            "scan": {
                "p": verdict.exponent,
                "conclusion": verdict.conclusion,
                "min_value": verdict.min_value,
                "min_stderr": verdict.min_stderr,
                "confirm_value": verdict.routes["confirm_value"],
                "confirm_stderr": verdict.routes["confirm_stderr"],
                "values": _in_order(verdict.values, order),
                "stderrs": _in_order(verdict.stderrs, order),
            },
            "bp": {k: record[k] for k in (
                "verdict", "flags", "max_gap", "max_gap_stderr", "vol_K",
                "vol_K_stderr", "vol_L", "vol_L_stderr", "vol_gap",
                "vol_gap_stderr")},
            "eps": trace["eps"],
            "eps_trace": trace["eps_trace"],
            "gaps": _in_order(report.gaps, order),
            "gap_stderrs": _in_order(report.gap_stderrs, order),
        }
        return Outcome(outputs, clock.wall_s, clock.cpu_s, raw=clock.raw)

    def ops(self, out):
        scan = out["scan"]
        return ([("scan", {k: v for k, v in scan.items()
                           if k not in ("values", "stderrs")}),
                 ("bp", dict(out["bp"], eps=out["eps"],
                             eps_trace=out["eps_trace"]))]
                + _dirs("scan.dir", scan["values"], scan["stderrs"])
                + _dirs("gap.dir", out["gaps"], out["gap_stderrs"], "gap"))

    def layer_counts(self, outcome):
        steps = outcome.outputs["eps_trace"]
        return {"busemann_petty.halvings": len(steps) - 1,
                "busemann_petty.probe_violations":
                    sum(s.get("violations", 0) for s in steps)}


class Frac4:
    """embedding_interval(mollify(clq(2,4), 0.2), [1.5, 1.0]) on every
    other direction of the orbit-reduced dim-4 grid: 2 directions."""

    name = "frac4"
    step = 2
    exponents = (1.5, 1.0)

    def setup(self, seed):
        body = cbplab.mollify(cbplab.ComplexLqBall(2, 4.0), 0.2)
        return (body, *thinned_grid(4, self.step, seed))

    def run(self, inputs) -> Outcome:
        body, grid, order = inputs
        with Sampler() as clock:
            verdicts = cbplab.embedding_interval(body, list(self.exponents),
                                                 grid)
        outputs = {}
        for p, v in verdicts.items():
            outputs[f"p={p:g}"] = {
                "conclusion": v.conclusion,
                "min_value": v.min_value,
                "min_stderr": v.min_stderr,
                "confirm_value": v.routes["confirm_value"],
                "confirm_stderr": v.routes["confirm_stderr"],
                "agreement_z": float(v.routes["agreement_z"]),
                "values": _in_order(v.values, order),
                "stderrs": _in_order(v.stderrs, order),
            }
        return Outcome(outputs, clock.wall_s, clock.cpu_s, raw=clock.raw)

    def ops(self, out):
        ops = []
        for key, v in out.items():
            ops.append((key, {k: x for k, x in v.items()
                              if k not in ("values", "stderrs")}))
            ops += _dirs(f"{key}.dir", v["values"], v["stderrs"])
        return ops

    def layer_counts(self, outcome):
        return {}


class Verify8:
    """`cbplab bp-verify --pair <committed pair>` twice on a fresh cache
    directory: a cold call, then a cache hit.  The CLI builds the bodies
    itself, so the verdict time is the cold call."""

    name = "verify8"

    def setup(self, seed):
        with open(PAIR_FILE) as fh:
            pair = json.load(fh)["pair"]
        missing = {"K", "L", "eps", "exponent", "bump"} - set(pair)
        if missing:
            raise ValueError(f"pair file lacks {sorted(missing)}")
        return seed

    def run(self, seed) -> Outcome:
        work = tempfile.mkdtemp(prefix="verify8-", dir=out_dir())
        try:
            argv = ["bp-verify", "--pair", PAIR_FILE, "--seed", str(seed),
                    "--cache-dir", os.path.join(work, "cache")]
            paths = [os.path.join(work, f"report{i}.json") for i in (0, 1)]
            table = os.path.join(work, "gaps.csv")
            with Sampler() as cold:
                codes = [cli.main(argv + ["--out", paths[0], "--csv", table])]
            with Sampler() as hit:
                codes.append(cli.main(argv + ["--out", paths[1]]))
            reports = []
            for path in paths:
                with open(path) as fh:
                    reports.append(json.load(fh))
            with open(table, newline="") as fh:
                rows = list(csv.DictReader(fh))
        finally:
            shutil.rmtree(work)
        outputs = {
            "calls": [{"exit_code": c, "cached": r["cached"]}
                      for c, r in zip(codes, reports)],
            "identical": reports[0]["results"] == reports[1]["results"],
            "bp": reports[0]["results"][0],
            "gaps": [float(r["gap"]) for r in rows],
            "gap_stderrs": [float(r["stderr"]) for r in rows],
        }
        return Outcome(outputs, cold.wall_s, cold.cpu_s,
                       {"cli.cold_s": cold.wall_s,
                        "cli.cache_hit_s": hit.wall_s},
                       raw=dict(cold.raw, cache_hit_wall_s=hit.wall))

    def ops(self, out):
        cold, replay = out["calls"]
        return ([("cli.cold", cold),
                 ("cli.replay", dict(replay, identical=out["identical"])),
                 ("bp", out["bp"])]
                + _dirs("gap.dir", out["gaps"], out["gap_stderrs"], "gap"))

    def layer_counts(self, outcome):
        return dict(outcome.timings)


WORKLOADS = {w.name: w for w in (Construct8, Frac4, Verify8)}

# per-layer metrics read from a workload's outputs rather than its spans;
# 0 on the workloads that do not produce them
OUTPUT_METRICS = ("busemann_petty.halvings", "busemann_petty.probe_violations",
                  "cli.cold_s", "cli.cache_hit_s")


def out_dir() -> str:
    """Directory for results, spans and cache files, inside the
    checkout and ignored by git."""
    path = os.path.join(os.path.dirname(HERE), ".bench_out")
    os.makedirs(path, exist_ok=True)
    return path


REL_TOL = 1e-12


def _deviation(got, want):
    """Largest relative deviation between two JSON values, or None when
    their shapes or non-numeric parts differ."""
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return 0.0 if got == want else None
    if isinstance(want, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return None
        if got == want:
            return 0.0
        dev = abs(got - want) / max(abs(got), abs(want))
        return dev if math.isfinite(dev) else None  # NaN or inf never match
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return None
        devs = [_deviation(g, w) for g, w in zip(got, want)]
    elif isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return None
        devs = [_deviation(got[k], want[k]) for k in want]
    else:
        raise TypeError(f"unexpected reference value {want!r}")
    if any(d is None for d in devs):
        return None
    return max(devs, default=0.0)


class Check:
    """Counts checked operations and failures across a run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.max_rel_dev = 0.0

    def op(self, name, got, want):
        self.attempted += 1
        for key in want:
            dev = _deviation(got.get(key), want[key])
            if dev is not None:
                self.max_rel_dev = max(self.max_rel_dev, dev)
            if dev is None or dev > REL_TOL:
                self.failures.append(
                    f"{name}.{key}: got {got.get(key)!r}, want {want[key]!r}")
                return

    def fail(self, name, reason):
        self.attempted += 1
        self.failures.append(f"{name}: {reason}")

    def outcome(self, workload, outcome: Outcome, reference: dict):
        want = workload.ops(reference)
        if outcome.outputs is None:
            for name, _ in want:
                self.fail(name, "the operation raised")
            return
        got = dict(workload.ops(outcome.outputs))
        for name, expected in want:
            if name not in got:
                self.fail(name, "missing from the outputs")
            else:
                self.op(name, got[name], expected)
