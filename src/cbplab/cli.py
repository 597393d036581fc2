"""Command-line interface: spec parsing, JSON/CSV reports, and a
content-addressed cache.

Every command writes a report `{config_hash, inputs, results[],
baselines_checked[]}`.  The config hash is the sha256 of the canonical
input serialization (worker count and output paths excluded: they must not
change numbers); the same hash keys the result cache.  Exit codes: 0 on
success, 2 when a verdict is inconclusive, 1 on errors.
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

import numpy as np

from .bodies import EuclideanBall, RadialPerturbation
from .busemann_petty import (ConstructionFailedError,
                             ConstructionImpossibleError, HarmonicBump,
                             bp_construct, bp_verify)
from .embedding import scan
from .fourier import classical_ft_constant, ft_value, pairing_oracle
from .frames import make_frame
from .sections import section_volume, volume
from .specs import SpecError, parse_body, parse_grid, parse_rule

CACHE_ENV = "CBPLAB_CACHE_DIR"
#: hashed with every command's inputs, so cached results of older numerics
#: are not served: a change that moves any computed number bumps it
NUMERICS_VERSION = 1


# ---------------------------------------------------------------------------
# config hashing, cache, atomic reports
# ---------------------------------------------------------------------------

def config_hash(inputs: dict) -> str:
    canon = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def cache_root(override=None) -> str:
    if override:
        return override
    return os.environ.get(
        CACHE_ENV, os.path.join(os.path.expanduser("~"), ".cache", "cbplab"))


def cache_get(chash: str, root: str):
    path = os.path.join(root, chash + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            record = json.load(fh)
        if record.get("config_hash") != chash:
            raise ValueError("hash mismatch")
        return record
    except (ValueError, OSError) as exc:
        print(f"warning: ignoring corrupted cache entry {path}: {exc}",
              file=sys.stderr)
        return None


def cache_put(chash: str, record: dict, root: str):
    os.makedirs(root, exist_ok=True)
    _atomic_write_json(os.path.join(root, chash + ".json"), record)


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


def _write_csv(path: str, header, rows):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _parse_xi(text: str, dim: int):
    if text is None:
        xi = np.zeros(dim)
        xi[0] = 1.0
        return xi
    vals = np.array([float(v) for v in text.split(",")], dtype=float)
    if len(vals) != dim:
        raise SpecError(f"direction needs {dim} components, got {len(vals)}")
    if not np.all(np.isfinite(vals)):
        raise SpecError(f"direction {text!r} has a non-finite component")
    nrm = np.linalg.norm(vals)
    if nrm == 0.0:
        raise SpecError("direction must be nonzero")
    return vals / nrm


def _ball_volume_baseline(body, est):
    if not isinstance(body, EuclideanBall):
        return []
    n = body.dim // 2
    expected = math.pi ** n / math.factorial(n)
    gap = abs(est.value - expected) / expected
    return [{"name": f"ball_volume_dim{body.dim}", "expected": expected,
             "observed": est.value, "rel_gap": gap,
             "passed": bool(gap < max(0.005, 4.0 * est.stderr / expected))}]


def _ball_ft_baseline(body, sample):
    if not isinstance(body, EuclideanBall):
        return []
    expected = classical_ft_constant(body.dim, sample.exponent)
    scale = max(abs(expected), 1e-300)
    gap = abs(sample.value - expected) / scale
    tol = max(0.02, 4.0 * sample.stderr / scale)
    return [{"name": f"ball_ft_dim{body.dim}_p{sample.exponent:g}",
             "expected": expected, "observed": sample.value, "rel_gap": gap,
             "passed": bool(gap < tol)}]


def _finish(args, inputs, results, baselines, exit_code=0, extra=None):
    chash = config_hash(inputs)
    record = {"config_hash": chash, "inputs": inputs, "results": results,
              "baselines_checked": baselines, "cached": False}
    if extra:
        record.update(extra)
    root = cache_root(args.cache_dir)
    if not args.no_cache:
        cache_put(chash, record, root)
    if args.out:
        _atomic_write_json(args.out, record)
    else:
        json.dump(record, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return exit_code


def _inputs(args, command, **fields):
    """A command's hashed inputs: its own fields, the shared --seed,
    --nodes and --tol, and NUMERICS_VERSION."""
    return {"command": command, **fields, "seed": args.seed,
            "nodes": args.nodes, "tol": args.tol,
            "numerics_version": NUMERICS_VERSION}


def _try_cache(args, inputs):
    """Replay a cached report; its exit code, or None on a miss."""
    if args.no_cache:
        return None
    record = cache_get(config_hash(inputs), cache_root(args.cache_dir))
    if record is None:
        return None
    record = dict(record)
    record["cached"] = True
    if args.out:
        _atomic_write_json(args.out, record)
    else:
        json.dump(record, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return record.get("exit_code", 0)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_volume(args) -> int:
    body = parse_body(args.body)
    rule_spec = args.rule or f"qmc:dim={body.dim}"
    inputs = _inputs(args, "volume", body=body.spec(), rule=rule_spec)
    if (code := _try_cache(args, inputs)) is not None:
        return code
    rule = parse_rule(rule_spec, dim=body.dim, default_nodes=args.nodes,
                      default_seed=args.seed)
    est = volume(body, rule)
    results = [{"value": est.value, "stderr": est.stderr,
                "node_count": est.node_count, "method": est.method}]
    return _finish(args, inputs, results, _ball_volume_baseline(body, est))


def cmd_section(args) -> int:
    body = parse_body(args.body)
    rule_spec = args.rule or f"qmc:dim={body.dim - 2}"
    inputs = _inputs(args, "section", body=body.spec(), rule=rule_spec,
                     xi=args.xi)
    if (code := _try_cache(args, inputs)) is not None:
        return code
    xi = _parse_xi(args.xi, body.dim)
    rule = parse_rule(rule_spec, dim=body.dim - 2, default_nodes=args.nodes,
                      default_seed=args.seed)
    est = section_volume(body, make_frame(xi), rule)
    results = [{"xi": list(xi), "value": est.value, "stderr": est.stderr,
                "node_count": est.node_count, "method": est.method}]
    return _finish(args, inputs, results, [])


def cmd_ft(args) -> int:
    body = parse_body(args.body)
    inputs = _inputs(args, "ft", body=body.spec(), p=args.p,
                     method=args.method, rule=args.rule, xi=args.xi)
    if (code := _try_cache(args, inputs)) is not None:
        return code
    xi = _parse_xi(args.xi, body.dim)
    method = None if args.method == "auto" else args.method
    if method == "pairing":
        rule_spec = args.rule or f"qmc:dim={body.dim},nodes={2 ** 19}"
        rule = parse_rule(rule_spec, dim=body.dim, default_nodes=args.nodes,
                          default_seed=args.seed)
        sample = pairing_oracle(body, xi, [args.p], rule=rule)[0]
    else:
        rule = None
        if args.rule:
            rule = parse_rule(args.rule, dim=body.dim - 2,
                              default_nodes=args.nodes,
                              default_seed=args.seed)
        sample = ft_value(body, xi, args.p, rule=rule, method=method)
    results = [{"xi": list(xi), "p": sample.exponent, "value": sample.value,
                "stderr": sample.stderr, "method": sample.method,
                "flags": list(sample.flags)}]
    code = 2 if "inconclusive" in sample.flags else 0
    return _finish(args, inputs, results, _ball_ft_baseline(body, sample),
                   exit_code=code, extra={"exit_code": code})


def cmd_scan(args) -> int:
    body = parse_body(args.body)
    grid_spec = args.grid or f"grid:dim={body.dim},res=8,reduce=orbit,seed={args.seed}"
    inputs = _inputs(args, "scan", body=body.spec(), p=args.p,
                     grid=grid_spec, rule=args.rule)
    if (code := _try_cache(args, inputs)) is not None:
        return code
    grid = parse_grid(grid_spec)
    rule = None
    if args.rule:
        rule = parse_rule(args.rule, dim=body.dim - 2,
                          default_nodes=args.nodes, default_seed=args.seed)
    verdict = scan(body, args.p, grid, rule=rule, tol=args.tol,
                   workers=args.workers)
    results = [verdict.as_record()]
    if args.csv:
        rows = [list(np.round(pt, 12)) + [v, e] for pt, v, e in
                zip(grid.points, verdict.values, verdict.stderrs)]
        header = [f"xi{i}" for i in range(body.dim)] + ["value", "stderr"]
        _write_csv(args.csv, header, rows)
    code = 2 if verdict.conclusion == "inconclusive" else 0
    return _finish(args, inputs, results, [], exit_code=code,
                   extra={"exit_code": code})


def _pair_from_file(pair):
    """Build K and L from the `pair` record of a bp-construct report."""
    L = parse_body(pair["L"])
    poly = {tuple(int(t) for t in key.split()): float(v)
            for key, v in pair["bump"]["c_poly"].items()}
    bump = HarmonicBump(poly, label=pair["bump"]["label"])
    K = RadialPerturbation(L, pair["exponent"], pair["eps"], bump,
                           bump_id=pair["bump"]["label"])
    return K, L


def cmd_bp_verify(args) -> int:
    if args.pair:
        with open(args.pair) as fh:
            pair = json.load(fh)["pair"]
        # the key comes from the record alone, so a cache hit builds no
        # body; K names the bump by its label only, so the hash of the
        # record keys the cache on the bump coefficients too
        inputs = _inputs(args, "bp-verify", pair=os.path.basename(args.pair),
                         pair_sha256=config_hash(pair), K=pair["K"],
                         L=pair["L"], grid=args.grid, rule=args.rule)
        if (code := _try_cache(args, inputs)) is not None:
            return code
        K, L = _pair_from_file(pair)
        if (K.spec(), L.spec()) != (pair["K"], pair["L"]):
            raise SpecError(
                f"pair file {args.pair}: the rebuilt bodies {K.spec()!r} and "
                f"{L.spec()!r} differ from the recorded K and L")
    else:
        if not (args.K and args.L):
            raise SpecError("bp-verify needs --pair or both --K and --L")
        K = parse_body(args.K)
        L = parse_body(args.L)
        inputs = _inputs(args, "bp-verify", K=K.spec(), L=L.spec(),
                         grid=args.grid, rule=args.rule)
        if (code := _try_cache(args, inputs)) is not None:
            return code
    grid_spec = args.grid or f"grid:dim={K.dim},res=8,reduce=orbit,seed={args.seed}"
    grid = parse_grid(grid_spec)
    rule = None  # bp_verify picks the rule that suits the pair
    if args.rule or args.nodes is not None:
        rule = parse_rule(args.rule or "qmc", dim=K.dim - 2,
                          default_nodes=args.nodes, default_seed=args.seed)
    report = bp_verify(K, L, grid, rule=rule)
    results = [report.as_record()]
    if args.csv:
        rows = [list(np.round(pt, 12)) + [g, e] for pt, g, e in
                zip(grid.points, report.gaps, report.gap_stderrs)]
        header = [f"xi{i}" for i in range(K.dim)] + ["gap", "stderr"]
        _write_csv(args.csv, header, rows)
    code = 2 if "tie" in report.flags else 0
    return _finish(args, inputs, results, [], exit_code=code,
                   extra={"exit_code": code})


def cmd_bp_construct(args) -> int:
    inputs = _inputs(args, "bp-construct", n=args.n, q=args.q,
                     width=args.width)
    if (code := _try_cache(args, inputs)) is not None:
        return code
    try:
        K, L, report, trace = bp_construct(args.n, args.q, width=args.width,
                                           seed=args.seed)
    except ConstructionImpossibleError as exc:
        results = [{"error": "construction-impossible", "message": str(exc)}]
        return _finish(args, inputs, results, [], exit_code=1,
                       extra={"exit_code": 1})
    except ConstructionFailedError as exc:
        results = [{"error": "construction-failed", "message": str(exc)}]
        return _finish(args, inputs, results, [], exit_code=1,
                       extra={"exit_code": 1})
    pair = {"K": K.spec(), "L": L.spec(), "eps": trace["eps"],
            "exponent": K.dim - 2, "bump": trace["bump"]}
    results = [report.as_record()]
    return _finish(args, inputs, results, [],
                   extra={"pair": pair, "trace": {
                       k: v for k, v in trace.items() if k != "bump"}})


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbplab",
        description="Sections, Fourier transforms of norm powers, and "
                    "volume comparisons for invariant convex bodies.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=1)
    common.add_argument("--nodes", type=int, default=None,
                        help="node count for default quadrature rules")
    common.add_argument("--tol", type=float, default=1e-3)
    common.add_argument("--out", help="report path (default: stdout)")
    common.add_argument("--csv", help="per-direction CSV table path")
    common.add_argument("--cache-dir", default=None,
                        help=f"cache root (default ${CACHE_ENV} or ~/.cache/cbplab)")
    common.add_argument("--no-cache", action="store_true")

    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("volume", parents=[common])
    p.add_argument("--body", required=True)
    p.add_argument("--rule")
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("section", parents=[common])
    p.add_argument("--body", required=True)
    p.add_argument("--rule")
    p.add_argument("--xi", help="comma-separated direction (default e1)")
    p.set_defaults(func=cmd_section)

    p = sub.add_parser("ft", parents=[common])
    p.add_argument("--body", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--method", default="auto",
                   choices=["auto", "derivative", "fractional", "pairing",
                            "multiplier"])
    p.add_argument("--rule")
    p.add_argument("--xi")
    p.set_defaults(func=cmd_ft)

    p = sub.add_parser("scan", parents=[common])
    p.add_argument("--body", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--grid")
    p.add_argument("--rule")
    p.add_argument("--workers", type=int, default=1,
                   help="threads that evaluate the directions; the results "
                        "do not depend on it")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("bp-verify", parents=[common])
    p.add_argument("--K")
    p.add_argument("--L")
    p.add_argument("--pair", help="pair file from bp-construct")
    p.add_argument("--grid")
    p.add_argument("--rule", help="section-sphere rule spec")
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
    except SpecError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
