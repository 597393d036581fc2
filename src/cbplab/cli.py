"""Command-line interface: spec parsing, JSON/CSV reports, and a
content-addressed cache.

Every command writes a report `{config_hash, inputs, results[],
baselines_checked[], exit_code, cached}`.  `inputs` holds the command's
name, NUMERICS_VERSION, the numpy and scipy versions, and every option the
command takes but those that cannot move a number (--out, --csv,
--cache-dir, --no-cache, --workers), with body specs canonical and rule
and grid defaults filled in; bp-verify --pair hashes the file's name and
its pair record.  The sha256 of their canonical serialization is the
config hash, which keys the result cache.  Each command takes only the
options it reads, each setting has one spelling (a rule's node count is
`--rule qmc:nodes=N`, its sphere the command's), and argparse refuses any
other option with exit code 2.  Exit codes: 0 on success, 1 on errors,
and 2 when a verdict is undecided: an inconclusive scan or `ft` sample, or
a bp-verify tie.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict

import numpy as np
import scipy

from .bodies import EuclideanBall
from .busemann_petty import (ConstructionFailedError,
                             ConstructionImpossibleError, bp_construct,
                             bp_verify, pair_from_record, pair_record,
                             read_pair_record)
from .embedding import _TOL, scan
from .fourier import _METHODS, classical_multiplier, ft_values
from .frames import make_frame
from .sections import section_volume, volume
from .specs import SpecError, parse_body, parse_grid, parse_rule

CACHE_ENV = "CBPLAB_CACHE_DIR"
#: the parsed options that are not inputs: they cannot move a number
UNHASHED = ("func", "out", "csv", "cache_dir", "no_cache", "workers")
#: hashed with every command's inputs, so cached results of older numerics
#: are not served: a change that moves any computed number bumps it
NUMERICS_VERSION = 4
#: hashed too: numbers hang on numpy's and scipy's releases (Sobol, QUADPACK)
LIBRARY_VERSIONS = {"numpy": np.__version__, "scipy": scipy.__version__}


# ---------------------------------------------------------------------------
# config hashing, cache, atomic reports
# ---------------------------------------------------------------------------

def config_hash(inputs: dict) -> str:
    canon = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def cache_get(inputs: dict, root: str):
    """The cached report of `inputs`, or None on a miss.  An entry that is
    not a report of exactly these inputs (unreadable, not a JSON object,
    another hash or other inputs, no results or exit code) is ignored with
    a warning, so the command computes afresh."""
    chash = config_hash(inputs)
    path = os.path.join(root, chash + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            record = json.load(fh)
        if not isinstance(record, dict):
            raise ValueError("not a JSON object")
        if record.get("config_hash") != chash or record.get("inputs") != inputs:
            raise ValueError("hash or inputs mismatch")
        if not {"results", "exit_code"} <= record.keys():
            raise ValueError("no results or exit code")
        return record
    except (ValueError, OSError) as exc:
        print(f"warning: ignoring corrupted cache entry {path}: {exc}",
              file=sys.stderr)
        return None


def cache_put(record: dict, root: str):
    _atomic_write_json(os.path.join(root, record["config_hash"] + ".json"),
                       record)


def _atomic_write_json(path: str, record: dict):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_table(path: str, grid, name: str, values, stderrs):
    """The --csv table: per grid direction its coordinates, value, stderr."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"xi{i}" for i in range(grid.dim)]
                        + [name, "stderr"])
        writer.writerows(list(np.round(pt, 12)) + [v, e] for pt, v, e in
                         zip(grid.points, values, stderrs))


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _parse_xi(text: str, dim: int):
    if text is None:
        xi = np.zeros(dim)
        xi[0] = 1.0
        return xi
    try:
        vals = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise SpecError(f"direction {text!r}: not a number") from None
    if len(vals) != dim:
        raise SpecError(f"direction needs {dim} components, got {len(vals)}")
    if not np.all(np.isfinite(vals)):
        raise SpecError(f"direction {text!r} has a non-finite component")
    nrm = np.linalg.norm(vals)
    if nrm == 0.0:
        raise SpecError(f"direction {text!r} must be nonzero")
    return vals / nrm


def _ball_baseline(name, expected, est, floor):
    """A ball's estimate against its closed form: it passes when the
    relative gap is below max(floor, 4 stderr / |expected|)."""
    scale = max(abs(expected), 1e-300)
    gap = abs(est.value - expected) / scale
    return [{"name": name, "expected": expected, "observed": est.value,
             "rel_gap": gap,
             "passed": bool(gap < max(floor, 4.0 * est.stderr / scale))}]


def _rule(args, spec, dim):
    """The SphereRule of a rule spec on S^{dim-1}, or None for None; a seed
    the spec leaves open comes from --seed."""
    return None if spec is None else parse_rule(spec, dim=dim,
                                                default_seed=args.seed)


def _grid_spec(args, dim):
    """--grid, or the default grid: the orbit-reduced res 8 grid in R^dim.
    A seed the spec leaves open comes from --seed (see parse_grid)."""
    return args.grid or f"grid:dim={dim},res=8,reduce=orbit"


def _run(args, compute, **canonical) -> int:
    """The one path from a command's options to its report: hash them, with
    the `canonical` forms of some, replay a cache hit, or store the report
    whose keys `compute()` returns.  With --csv the command always
    computes, as reports do not keep the table.  The report goes to --out
    or stdout; its exit code is returned."""
    inputs = {k: v for k, v in vars(args).items() if k not in UNHASHED}
    inputs.update(canonical, numerics_version=NUMERICS_VERSION,
                  libraries=LIBRARY_VERSIONS)
    root = args.cache_dir or os.environ.get(
        CACHE_ENV, os.path.join(os.path.expanduser("~"), ".cache", "cbplab"))
    fresh = args.no_cache or getattr(args, "csv", None)
    record = None if fresh else cache_get(inputs, root)
    if record is not None:
        record["cached"] = True
    else:
        record = {"config_hash": config_hash(inputs), "inputs": inputs,
                  "baselines_checked": [], "exit_code": 0, **compute(),
                  "cached": False}
        if not args.no_cache:
            cache_put(record, root)
    if args.out:
        _atomic_write_json(args.out, record)
    else:
        json.dump(record, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return record["exit_code"]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_volume(args) -> int:
    body = parse_body(args.body)
    rule_spec = args.rule or "qmc"

    def compute():
        est = volume(body, _rule(args, rule_spec, body.dim))
        n = body.dim // 2
        return {"results": [asdict(est)], "baselines_checked":
                _ball_baseline(f"ball_volume_dim{body.dim}",
                               math.pi ** n / math.factorial(n), est, 0.005)
                if isinstance(body, EuclideanBall) else []}

    return _run(args, compute, body=body.spec(), rule=rule_spec)


def cmd_section(args) -> int:
    body = parse_body(args.body)
    rule_spec = args.rule or "qmc"

    def compute():
        xi = _parse_xi(args.xi, body.dim)
        est = section_volume(body, make_frame(xi),
                             _rule(args, rule_spec, body.dim - 2))
        return {"results": [{"xi": list(xi), **asdict(est)}]}

    return _run(args, compute, body=body.spec(), rule=rule_spec)


def cmd_ft(args) -> int:
    body = parse_body(args.body)

    def compute():
        xi = _parse_xi(args.xi, body.dim)
        # the pairing route integrates over S^{d-1}, the others over the
        # section sphere S^{d-3}
        pairing = args.method == "pairing"
        rule = _rule(args, args.rule or (f"qmc:nodes={2 ** 19}" if pairing
                                         else None),
                     body.dim if pairing else body.dim - 2)
        [sample] = ft_values(body, xi, [args.p], rule, None
                             if args.method == "auto" else args.method)
        return {"results": [{"xi": list(xi), "p": sample.exponent,
                             "value": sample.value, "stderr": sample.stderr,
                             "method": sample.method,
                             "flags": list(sample.flags)}],
                "baselines_checked": _ball_baseline(
                    f"ball_ft_dim{body.dim}_p{sample.exponent:g}",
                    classical_multiplier(0, sample.exponent, body.dim),
                    sample, 0.02) if isinstance(body, EuclideanBall) else [],
                "exit_code": 2 if "inconclusive" in sample.flags else 0}

    return _run(args, compute, body=body.spec())


def cmd_scan(args) -> int:
    body = parse_body(args.body)
    grid_spec = _grid_spec(args, body.dim)

    def compute():
        grid = parse_grid(grid_spec, args.seed)
        verdict = scan(body, args.p, grid,
                       rule=_rule(args, args.rule, body.dim - 2),
                       tol=args.tol, workers=args.workers)
        if args.csv:
            _write_table(args.csv, grid, "value", verdict.values,
                         verdict.stderrs)
        return {"results": [verdict.as_record()], "exit_code":
                2 if verdict.conclusion == "inconclusive" else 0}

    return _run(args, compute, body=body.spec(), grid=grid_spec)


def cmd_bp_verify(args) -> int:
    if args.pair and (args.K or args.L):
        raise SpecError("bp-verify takes --pair or --K and --L, not both")
    if args.pair:
        with open(args.pair) as fh:
            pair = read_pair_record(json.load(fh), args.pair)
        # the key comes from the record alone, so a cache hit builds no
        # body; K names the bump by its label only, so the hash of the
        # record keys the cache on the bump coefficients too
        canonical = {"pair": os.path.basename(args.pair), "K": pair["K"],
                     "L": pair["L"], "pair_sha256": config_hash(pair)}
    elif args.K and args.L:
        bodies = parse_body(args.K), parse_body(args.L)
        canonical = {"K": bodies[0].spec(), "L": bodies[1].spec()}
    else:
        raise SpecError("bp-verify needs --pair or both --K and --L")

    def compute():
        K, L = pair_from_record(pair) if args.pair else bodies
        grid = parse_grid(_grid_spec(args, K.dim), args.seed)
        # without --rule bp_verify picks the rule for the pair
        report = bp_verify(K, L, grid, rule=_rule(args, args.rule, K.dim - 2))
        if args.csv:
            _write_table(args.csv, grid, "gap", report.gaps,
                         report.gap_stderrs)
        return {"results": [report.as_record()],
                "exit_code": 2 if "tie" in report.flags else 0}

    return _run(args, compute, **canonical)


def cmd_bp_construct(args) -> int:
    def compute():
        try:
            K, L, report, trace = bp_construct(args.n, args.q, args.width,
                                               seed=args.seed)
        except (ConstructionImpossibleError, ConstructionFailedError) as exc:
            kind = ("impossible" if isinstance(exc, ConstructionImpossibleError)
                    else "failed")
            return {"results": [{"error": f"construction-{kind}",
                                 "message": str(exc)}], "exit_code": 1}
        return {"results": [report.as_record()], "pair": pair_record(K, L),
                "trace": {k: v for k, v in trace.items() if k != "bump"}}

    return _run(args, compute)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbplab",
        description="Sections, Fourier transforms of norm powers, and "
                    "volume comparisons for invariant convex bodies.")
    # option groups; each command takes the groups whose options it reads
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=1)
    common.add_argument("--out", help="report path (default: stdout)")
    common.add_argument("--cache-dir", default=None,
                        help=f"cache root (default ${CACHE_ENV} or ~/.cache/cbplab)")
    common.add_argument("--no-cache", action="store_true")
    rules = argparse.ArgumentParser(add_help=False)
    rules.add_argument("--rule", help="rule spec on the command's sphere: "
                       "qmc[:nodes=N,seed=S] (2^16 nodes) or gauss:level=L")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--csv", help="per-direction CSV table path; the "
                       "command then computes afresh, never from the cache")

    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("volume", parents=[common, rules])
    p.add_argument("--body", required=True)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("section", parents=[common, rules])
    p.add_argument("--body", required=True)
    p.add_argument("--xi", help="comma-separated direction (default e1)")
    p.set_defaults(func=cmd_section)

    p = sub.add_parser("ft", parents=[common, rules])
    p.add_argument("--body", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--method", default="auto", choices=["auto", *_METHODS])
    p.add_argument("--xi")
    p.set_defaults(func=cmd_ft)

    p = sub.add_parser("scan", parents=[common, rules, table])
    p.add_argument("--body", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--grid")
    p.add_argument("--tol", type=float, default=_TOL,
                   help="floor of the sign threshold, as a fraction of "
                        "max(1, largest |value|)")
    p.add_argument("--workers", type=int, default=1,
                   help="threads that evaluate the directions; the results "
                        "do not depend on it")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("bp-verify", parents=[common, rules, table])
    p.add_argument("--K")
    p.add_argument("--L")
    p.add_argument("--pair", help="pair file from bp-construct")
    p.add_argument("--grid")
    p.set_defaults(func=cmd_bp_verify)

    p = sub.add_parser("bp-construct", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--width", type=float, default=0.1)
    p.set_defaults(func=cmd_bp_construct)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        kind = "usage error" if isinstance(exc, SpecError) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
