import ast
import csv
import json
import math
import os
import types

import numpy as np
import pytest
import scipy
from hypothesis import given
from hypothesis import strategies as st

from cbplab import busemann_petty, cli, embedding, fourier
from cbplab.bodies import EuclideanBall
from cbplab.busemann_petty import (bp_verify, pair_from_record, pair_record,
                                   read_pair_record)
from cbplab.cli import CACHE_ENV, config_hash, main
from cbplab.fourier import FtSample, ft_derivative_route, ft_values
from cbplab.frames import make_grid
from cbplab.quadrature import SphereRule, fractional_radial
from cbplab.specs import SpecError, parse_body, parse_grid


def run(tmp_path, *argv, name="report.json", cache=None, extra_env=None):
    out = tmp_path / name
    args = list(argv) + ["--out", str(out)]
    if cache is None:
        args += ["--no-cache"]
    else:
        args += ["--cache-dir", str(cache)]
    code = main(args)
    record = json.loads(out.read_text()) if out.exists() else None
    return code, record


def test_volume_ball_matches_kappa6(tmp_path):
    code, rec = run(tmp_path, "volume", "--body", "ball:dim=6",
                    "--rule", "gauss:level=10")
    assert code == 0
    assert rec["results"][0]["value"] == pytest.approx(math.pi ** 3 / 6.0,
                                                       rel=1e-9)
    assert rec["baselines_checked"][0]["passed"]
    assert rec["config_hash"]
    assert rec["cached"] is False


def test_section_ball(tmp_path):
    code, rec = run(tmp_path, "section", "--body", "ball:dim=6",
                    "--rule", "gauss:level=8")
    assert code == 0
    assert rec["results"][0]["value"] == pytest.approx(math.pi ** 2 / 2.0,
                                                       rel=1e-9)


def test_ft_auto_uses_derivative_and_checks_the_baseline(tmp_path):
    code, rec = run(tmp_path, "ft", "--body", "ball:dim=6", "--p", "2")
    assert code == 0
    result = rec["results"][0]
    assert result["method"] == "derivative"
    assert rec["baselines_checked"][0]["passed"]


def test_ft_multiplier_at_an_explicit_direction(tmp_path):
    code, rec = run(tmp_path, "ft", "--body", "ball:dim=4", "--p", "2",
                    "--method", "multiplier", "--xi", "0,3,0,4")
    assert code == 0
    [result] = rec["results"]
    assert result["xi"] == [0.0, 0.6, 0.0, 0.8]
    assert result["method"] == "multiplier"
    [baseline] = rec["baselines_checked"]
    assert baseline["passed"] and baseline["rel_gap"] < 1e-12


def test_ft_pairs_on_a_gauss_rule(tmp_path):
    # the subsphere rule is Gauss at the same level; the rule is
    # deterministic, so the error bar is the extrapolation residual / 3
    # alone: measured 1.83e-6, and a baseline gap of 2.28e-6
    code, rec = run(tmp_path, "ft", "--body", "ball:dim=4", "--p", "1.5",
                    "--method", "pairing", "--rule", "gauss:level=16")
    assert code == 0
    [result] = rec["results"]
    assert result["method"] == "pairing" and result["flags"] == []
    assert result["stderr"] == pytest.approx(1.83e-6, rel=1e-2)
    [baseline] = rec["baselines_checked"]
    assert baseline["passed"] and baseline["rel_gap"] < 1e-5


def test_ft_reports_the_requested_fractional_exponent(tmp_path):
    # the route works at q = 2n - p - 2, and 2n - q - 2 would read
    # 0.20000000000000018
    code, rec = run(tmp_path, "ft", "--body", "ball:dim=4", "--p", "0.2")
    assert code == 0
    [result] = rec["results"]
    assert result["method"] == "fractional"
    assert result["p"] == rec["inputs"]["p"] == 0.2
    # value and error bar as when the report echoed 2n - q - 2
    assert (result["value"], result["stderr"]) == (13.89768292386431, 0.0)


def test_an_inconclusive_scan_exits_two_with_its_report(tmp_path,
                                                        monkeypatch):
    # a confirmation far from the primary route: the routes disagree
    monkeypatch.setattr(embedding, "confirm_sample", lambda body, xi, ps: [
        FtSample(p, 1e6, 1.0, "pairing") for p in ps])
    code, rec = run(tmp_path, "scan", "--body", "ball:dim=4", "--p", "2")
    assert code == 2 and rec["exit_code"] == 2
    [result] = rec["results"]
    assert result["conclusion"] == "inconclusive"
    assert result["routes"]["agreement_z"] > 5.0


def test_scan_writes_csv_and_exits_zero(tmp_path):
    csv_path = tmp_path / "scan.csv"
    code, rec = run(tmp_path, "scan", "--body",
                    "mollify:base=(clq:n=2,q=4),width=0.2", "--p", "2",
                    "--grid", "grid:dim=4,res=16,reduce=orbit,seed=3",
                    "--csv", str(csv_path))
    assert code == 0
    assert rec["results"][0]["conclusion"] == "nonnegative_up_to_tol"
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["xi0", "xi1", "xi2", "xi3", "value", "stderr"]
    # dim-4 orbit representatives form a 1-D family: res=16 gives 8 of them
    assert len(rows) == 9


def test_bp_verify_specs(tmp_path):
    code, rec = run(tmp_path, "bp-verify",
                    "--K", "scale:base=(ball:dim=6),lam=0.9",
                    "--L", "ball:dim=6",
                    "--grid", "grid:dim=6,res=10,reduce=orbit,seed=2")
    assert code == 0
    assert rec["results"][0]["verdict"] == "consistent"
    code, rec = run(tmp_path, "bp-verify", "--K", "ball:dim=6",
                    "--L", "scale:base=(ball:dim=6),lam=0.9",
                    "--grid", "grid:dim=6,res=10,reduce=orbit,seed=2")
    assert code == 0
    assert rec["results"][0]["verdict"] == "not_dominated"


def test_cache_replay_is_identical(tmp_path):
    cache = tmp_path / "cache"
    args = ("volume", "--body", "ball:dim=4", "--rule",
            "qmc:nodes=4096,seed=5")
    code1, rec1 = run(tmp_path, *args, name="r1.json", cache=cache)
    code2, rec2 = run(tmp_path, *args, name="r2.json", cache=cache)
    assert code1 == code2 == 0
    assert rec1["cached"] is False
    assert rec2["cached"] is True
    assert rec1["results"] == rec2["results"]
    assert rec1["config_hash"] == rec2["config_hash"]
    # the cache store is keyed by the config hash
    assert (cache / (rec1["config_hash"] + ".json")).exists()


def test_no_cache_recomputation_matches_cache(tmp_path):
    cache = tmp_path / "cache"
    args = ("volume", "--body", "ball:dim=4", "--rule",
            "qmc:nodes=4096,seed=5")
    _, cached = run(tmp_path, *args, name="r1.json", cache=cache)
    _, fresh = run(tmp_path, *args, name="r2.json")
    assert fresh["results"] == cached["results"]


@pytest.mark.parametrize("entry", [
    lambda rec: "{ this is not json",
    lambda rec: "[1, 2]",
    lambda rec: json.dumps({"config_hash": rec["config_hash"]}),
    lambda rec: json.dumps(dict(rec, inputs=dict(rec["inputs"], seed=99))),
], ids=["not-json", "not-an-object", "no-results", "other-inputs"])
def test_corrupted_cache_entry_is_recomputed(tmp_path, capsys, entry):
    cache = tmp_path / "cache"
    args = ("volume", "--body", "ball:dim=4", "--rule",
            "qmc:nodes=4096,seed=5")
    _, rec1 = run(tmp_path, *args, name="r1.json", cache=cache)
    path = cache / (rec1["config_hash"] + ".json")
    path.write_text(entry(rec1))
    code, rec2 = run(tmp_path, *args, name="r2.json", cache=cache)
    assert code == 0
    assert rec2["cached"] is False
    assert rec2["results"] == rec1["results"]
    assert "corrupted cache" in capsys.readouterr().err


def test_cache_env_var_is_honored(tmp_path, monkeypatch):
    cachedir = tmp_path / "envcache"
    monkeypatch.setenv(CACHE_ENV, str(cachedir))
    out = tmp_path / "r.json"
    code = main(["volume", "--body", "ball:dim=4",
                 "--rule", "qmc:nodes=4096,seed=5", "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())
    assert (cachedir / (rec["config_hash"] + ".json")).exists()


def test_the_config_hash_ignores_key_order():
    inputs = {"command": "scan", "body": "ball:dim=4", "p": 2.0}
    assert config_hash(inputs) == config_hash(dict(reversed(inputs.items())))


#: config hashes at the default rule, taken before the rule's default moved
#: into the parsers, with these library versions
_PINNED_HASHES = {
    "volume": (["--body", "ball:dim=4"], "fbdab87f758443def03ba36d49b498394"
               "eca9c5e0c7f22cd385d84889774db57"),
    "section": (["--body", "ball:dim=6"], "a061aea4c7c1079414458598c651be8f"
                "df84abbfd47c27c80ce16f709a5ff9fd")}


@pytest.mark.parametrize("command", sorted(_PINNED_HASHES))
def test_the_default_rule_keeps_its_config_hash(tmp_path, monkeypatch,
                                                 command):
    monkeypatch.setattr(cli, "LIBRARY_VERSIONS",
                        {"numpy": "2.4.6", "scipy": "1.17.1"})
    argv, want = _PINNED_HASHES[command]
    code, rec = run(tmp_path, command, *argv)
    assert code == 0 and rec["inputs"]["rule"] == "qmc"
    assert rec["config_hash"] == want


#: config hashes taken when scan's tolerance floor and bp-construct's width
#: became constants, with these library versions
_CONSTANT_HASHES = {
    "scan": (["--body", "ball:dim=4", "--p", "2",
              "--grid", "grid:dim=4,res=8,reduce=orbit,seed=3"], 0,
             "ada94ed2e4e1f1258a8b48d0d947f89e"
             "8ced08a2d62435b5006a381d9fce7e61"),
    "bp-construct": (["--n", "4", "--q", "4"], 1,
                     "7192acd4ffb804719811028dfe678141"
                     "d6bef59eceb14ed3451ee53964b254fa")}


@pytest.mark.parametrize("command", sorted(_CONSTANT_HASHES))
def test_commands_that_lost_a_setting_keep_their_config_hash(
        tmp_path, monkeypatch, command):
    def impossible(*args, **kwargs):
        raise cli.ConstructionImpossibleError("no negativity region")

    monkeypatch.setattr(cli, "bp_construct", impossible)
    monkeypatch.setattr(cli, "LIBRARY_VERSIONS",
                        {"numpy": "2.4.6", "scipy": "1.17.1"})
    argv, want_code, want = _CONSTANT_HASHES[command]
    code, rec = run(tmp_path, command, *argv)
    assert code == want_code
    assert rec["config_hash"] == want


_REQUIRED = {"volume": ["--body", "ball:dim=4"],
             "section": ["--body", "ball:dim=4"],
             "ft": ["--body", "ball:dim=4", "--p", "2"],
             "scan": ["--body", "ball:dim=4", "--p", "2"],
             "bp-verify": [], "bp-construct": ["--n", "4", "--q", "4"]}


@pytest.mark.parametrize("command,flag", [
    ("volume", "--workers"), ("volume", "--nodes"),
    ("volume", "--tol"), ("volume", "--csv"),
    ("section", "--nodes"), ("section", "--tol"), ("section", "--csv"),
    ("ft", "--nodes"), ("ft", "--tol"), ("ft", "--csv"),
    ("scan", "--workers"), ("scan", "--nodes"), ("scan", "--tol"),
    ("bp-verify", "--nodes"), ("bp-verify", "--tol"),
    ("bp-construct", "--nodes"), ("bp-construct", "--tol"),
    ("bp-construct", "--csv"), ("bp-construct", "--width"),
], ids=lambda value: value.lstrip("-"))
def test_only_scan_takes_workers(capsys, command, flag):
    # a command refuses every flag it does not read: --workers, which no
    # command takes now that every one runs on one thread (the name is from
    # when scan took it, and stays so that the cases keep their ids), each
    # option that once reached a command only through the shared parent,
    # and --nodes, which a rule spec spells `qmc:nodes=N`
    with pytest.raises(SystemExit) as exc:
        main([command, *_REQUIRED[command], flag, "2", "--no-cache"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_inputs_hold_only_the_options_a_command_reads(tmp_path, monkeypatch):
    def impossible(*args, **kwargs):
        raise cli.ConstructionImpossibleError("no negativity region")

    monkeypatch.setattr(cli, "bp_construct", impossible)
    argvs = {
        "volume": ["--body", "ball:dim=4", "--rule", "qmc:nodes=512"],
        "section": ["--body", "ball:dim=4", "--rule", "gauss:level=6"],
        "ft": ["--body", "ball:dim=4", "--p", "2"],
        "scan": ["--body", "ball:dim=4", "--p", "2",
                 "--grid", "grid:dim=4,res=8,reduce=orbit,seed=3"],
        "bp-verify": ["--K", "scale:base=(ball:dim=4),lam=0.9",
                      "--L", "ball:dim=4",
                      "--grid", "grid:dim=4,res=8,reduce=orbit,seed=3"],
        "bp-construct": ["--n", "4", "--q", "4"],
    }
    for command, argv in argvs.items():
        code, rec = run(tmp_path, command, *argv, name=f"{command}.json")
        assert code == (1 if command == "bp-construct" else 0), command
        assert rec["exit_code"] == code
        for constant in ("nodes", "tol", "width"):
            assert constant not in rec["inputs"], (command, constant)
    # the rule spec sets the node count
    assert json.loads((tmp_path / "volume.json").read_text())[
        "results"][0]["node_count"] == 512


def test_seed_reaches_a_grid_spec_that_leaves_it_open(tmp_path):
    def directions(grid, seed):
        table = tmp_path / "grid.csv"
        code, _ = run(tmp_path, "scan", "--body", "ball:dim=4", "--p", "2",
                      "--grid", grid, "--seed", seed, "--csv", str(table))
        assert code == 0
        with open(table, newline="") as fh:
            return [row[:4] for row in csv.reader(fh)]

    assert (directions("grid:dim=4,res=8", "0")
            != directions("grid:dim=4,res=8", "1"))
    # a seed in the spec wins over --seed
    seeded = directions("grid:dim=4,res=8,seed=7", "0")
    assert seeded == directions("grid:dim=4,res=8,seed=7", "1")
    assert seeded == directions("grid:dim=4,res=8", "7")


def test_csv_is_written_on_every_call(tmp_path):
    cache = tmp_path / "cache"
    for name in ("a", "b"):
        table = tmp_path / f"{name}.csv"
        code, rec = run(tmp_path, "scan", "--body", "clq:n=2,q=4", "--p",
                        "2", "--grid", "grid:dim=4,res=8,reduce=orbit,seed=3",
                        "--csv", str(table), name=f"{name}.json", cache=cache)
        assert code == 0 and rec["cached"] is False
        assert len(table.read_text().splitlines()) == 5
    code, rec = run(tmp_path, "scan", "--body", "clq:n=2,q=4", "--p", "2",
                    "--grid", "grid:dim=4,res=8,reduce=orbit,seed=3",
                    name="c.json", cache=cache)
    assert code == 0 and rec["cached"] is True


def test_empty_rules_are_refused(tmp_path, capsys):
    # an empty rule made every section gap 0: a false violation
    pair = ["--K", "ball:dim=6", "--L", "scale:base=(ball:dim=6),lam=0.9"]
    for nodes in ("-3", "0"):
        code, rec = run(tmp_path, "bp-verify", *pair,
                        "--rule", f"qmc:nodes={nodes}")
        assert code == 1 and rec is None
        assert "node_count" in capsys.readouterr().err
    code, rec = run(tmp_path, "volume", "--body", "ball:dim=6",
                    "--rule", "qmc:nodes=0")
    assert code == 1 and rec is None
    assert "node_count" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["volume", "--body", "ball:dim=4", "--seed", "-1"],
    ["scan", "--body", "ball:dim=4", "--p", "2",
     "--grid", "grid:dim=4,res=8,seed=-1"],
    ["bp-construct", "--n", "4", "--q", "4", "--seed", "-1"],
], ids=["qmc-negative", "grid-negative", "construct-negative"])
def test_a_seed_out_of_range_is_refused_by_name(tmp_path, capsys, argv):
    code, rec = run(tmp_path, *argv)
    assert code == 1 and rec is None
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("xi", ["nan,0,0,0", "inf,0,0,0", "1,-inf,0,0",
                                "0,0,0,0"])
def test_non_finite_directions_are_refused_by_name(tmp_path, capsys, xi):
    code, rec = run(tmp_path, "ft", "--body", "ball:dim=4", "--p", "2",
                    "--xi", xi)
    assert code == 1 and rec is None
    err = capsys.readouterr().err
    assert "usage error" in err and repr(xi) in err


@pytest.mark.parametrize("xi", ["1,x,0,0", "1,,0,0", "1;0,0,0"])
def test_a_direction_that_is_not_numbers_is_refused_by_name(tmp_path, capsys,
                                                            xi):
    code, rec = run(tmp_path, "section", "--body", "ball:dim=4", "--xi", xi)
    assert code == 1 and rec is None
    err = capsys.readouterr().err
    assert "usage error" in err and repr(xi) in err and "not a number" in err


def test_malformed_specs_exit_one(tmp_path, capsys):
    assert main(["volume", "--body", "mystery:dim=6", "--no-cache"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["ft", "--body", "ball:dim=6", "--p", "2",
                 "--xi", "1,0", "--no-cache"]) == 1
    assert main(["bp-verify", "--K", "ball:dim=6", "--no-cache"]) == 1


def test_unreachable_exponent_exits_one(tmp_path, capsys):
    assert main(["ft", "--body", "ball:dim=6", "--p", "0.5",
                 "--no-cache"]) == 1
    assert "error" in capsys.readouterr().err


def _no_work(*args, **kwargs):
    raise AssertionError("work began before the exponent was routed")


def test_bp_construct_refuses_dimension_ten_before_any_build(monkeypatch,
                                                            capsys):
    # p = 2 in dim 10 needs Delta^3, which laplacian_at_zero lacks
    monkeypatch.setattr(busemann_petty, "mollify", _no_work)
    assert main(["bp-construct", "--n", "5", "--q", "4", "--no-cache"]) == 1
    err = capsys.readouterr().err
    assert "no implemented route reaches p=2.0 in dim 10" in err
    assert "order m=3" in err


def test_ft_refuses_a_derivative_order_above_two_at_routing(monkeypatch,
                                                           capsys):
    monkeypatch.setattr(fourier, "ft_derivative_route", _no_work)
    assert main(["ft", "--body", "ball:dim=10", "--p", "2",
                 "--no-cache"]) == 1
    err = capsys.readouterr().err
    assert "no implemented route reaches p=2.0 in dim 10" in err


@pytest.mark.parametrize("p", ["inf", "nan"])
def test_non_finite_exponent_is_refused_by_name(capsys, p):
    assert main(["ft", "--body", "ball:dim=6", "--p", p, "--no-cache"]) == 1
    assert f"no implemented route reaches p={p}" in capsys.readouterr().err


def test_report_goes_to_stdout_without_out(capsys, tmp_path):
    code = main(["volume", "--body", "ball:dim=4",
                 "--rule", "gauss:level=6", "--no-cache"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["results"][0]["value"] == pytest.approx(math.pi ** 2 / 2.0,
                                                       rel=1e-9)


_PAIR_K = "perturb:base=(clq:n=2,q=4),eps=0.01,bump=bump,exponent=2"


def _pair(**changes):
    """The pair record of a valid n = 2 pair file, with `changes`."""
    pair = {"K": _PAIR_K, "L": "clq:n=2,q=4", "eps": 0.01, "exponent": 2,
            "bump": {"label": "bump", "c_poly": {"2 0": 1.0, "0 2": 1.0}}}
    pair.update(changes)
    return pair


def _write_pair(path, **changes):
    path.write_text(json.dumps({"pair": _pair(**changes)}))
    return str(path)


def test_pair_cache_hit_builds_no_body(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    path = _write_pair(tmp_path / "pair.json")
    code, cold = run(tmp_path, "bp-verify", "--pair", path, name="a.json",
                     cache=cache)
    assert code == 0 and cold["cached"] is False
    assert cold["inputs"]["K"] == _PAIR_K

    def refuse(pair):
        raise AssertionError("a cache hit must not build the bodies")

    monkeypatch.setattr(cli, "pair_from_record", refuse)
    code, hit = run(tmp_path, "bp-verify", "--pair", path, name="b.json",
                    cache=cache)
    assert code == 0 and hit["cached"] is True
    assert hit["results"] == cold["results"]


def test_a_pair_file_refuses_k_and_l_before_building_a_body(
        tmp_path, capsys, monkeypatch):
    # the hashed inputs would name the pair's bodies, not the ones passed
    def refuse(*args):
        raise AssertionError("a refused call must not build a body")

    monkeypatch.setattr(cli, "pair_from_record", refuse)
    monkeypatch.setattr(cli, "parse_body", refuse)
    path = _write_pair(tmp_path / "pair.json")
    for bodies in (["--K", _PAIR_K], ["--L", "ball:dim=4"],
                   ["--K", "ball:dim=4", "--L", "ball:dim=4"]):
        code, rec = run(tmp_path, "bp-verify", "--pair", path, *bodies)
        assert code == 1 and rec is None
        err = capsys.readouterr().err
        assert "--pair" in err and "--K" in err and "--L" in err


def test_a_constructed_pair_report_is_verified_from_its_file(tmp_path,
                                                           monkeypatch):
    K, L = pair_from_record(_pair())
    report = bp_verify(K, L, parse_grid("grid:dim=4,res=8,reduce=orbit", 0))

    def construct(n, q, seed):
        return K, L, report, {"eps": [K.eps], "halvings": 0}

    monkeypatch.setattr(cli, "bp_construct", construct)
    code, built = run(tmp_path, "bp-construct", "--n", "2", "--q", "4",
                      name="pair.json")
    assert code == 0 and built["exit_code"] == 0
    assert built["pair"] == pair_record(K, L)
    assert built["trace"] == {"eps": [K.eps], "halvings": 0}
    [made] = built["results"]
    assert made["verdict"] == report.verdict

    table = tmp_path / "t.csv"
    code, verified = run(tmp_path, "bp-verify", "--pair",
                         str(tmp_path / "pair.json"), "--csv", str(table))
    assert code == 0
    [result] = verified["results"]
    assert result["verdict"] == made["verdict"]
    with open(table) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(report.gaps)
    # the file's sorted keys reorder the bump's terms: round-off only
    assert max(float(r["gap"]) for r in rows) == pytest.approx(
        made["max_gap"], rel=1e-9)


def test_a_construction_that_exhausts_its_halvings_fails(tmp_path,
                                                         monkeypatch):
    # a negativity region on the grid, but no amplitude that bp_verify
    # calls a violation: every halving is spent and the command fails
    perturb, built = busemann_petty.RadialPerturbation, []

    def first_not_positive(*args, **kwargs):
        built.append(args)
        if len(built) == 1:
            raise ValueError("the perturbed radial function is not positive")
        return perturb(*args, **kwargs)

    def witness(body, p, grid, rule):
        values = -np.cos(np.arange(len(grid.points)))
        k = int(np.argmin(values))
        return embedding.EmbeddingVerdict(
            body.spec(), p, values, np.zeros(len(values)), values[k],
            0.0, grid.points[k], "negativity_witness")

    verified = []

    def consistent(K, L, grid):
        verified.append(K.eps)
        return types.SimpleNamespace(verdict="consistent")

    monkeypatch.setattr(busemann_petty, "RadialPerturbation",
                        first_not_positive)
    monkeypatch.setattr(busemann_petty, "scan", witness)
    monkeypatch.setattr(busemann_petty, "bp_verify", consistent)
    code, rec = run(tmp_path, "bp-construct", "--n", "2", "--q", "4")
    assert code == 1 and rec["exit_code"] == 1
    [failed] = rec["results"]
    assert failed["error"] == "construction-failed"
    trace = ast.literal_eval(failed["message"].split("trace: ", 1)[1])
    eps = [step["eps"] for step in trace]
    assert eps == [eps[0] / 2 ** i for i in range(busemann_petty._MAX_HALVINGS
                                                  + 1)]
    assert trace[0]["status"] == "not_positive"
    assert verified == [step["eps"] for step in trace
                        if step["status"] == "consistent"] != []


def test_pair_whose_specs_do_not_match_its_bodies_is_refused(tmp_path,
                                                             capsys):
    path = _write_pair(tmp_path / "pair.json", K="perturb:label")
    code, rec = run(tmp_path, "bp-verify", "--pair", path)
    assert code == 1 and rec is None
    assert "differ from the recorded K and L" in capsys.readouterr().err


def _bump(**changes):
    return dict({"label": "bump", "c_poly": {"2 0": 1.0, "0 2": 1.0}},
                **changes)


@pytest.mark.parametrize("doc, missing", [
    ({}, "no 'pair'"),
    ([1], "not an object"),
    ({"pair": {"K": "x"}}, "no 'L'"),
    ({"pair": {"K": "x", "L": "ball:dim=8"}}, "no 'eps'"),
    ({"pair": _pair(L=5)}, "'L' must be a body spec string"),
    ({"pair": _pair(K=None)}, "'K' must be a body spec string"),
    ({"pair": _pair(exponent="2")}, "'exponent' must be a finite number"),
    ({"pair": _pair(exponent=None)}, "'exponent' must be a finite number"),
    ({"pair": _pair(exponent=True)}, "'exponent' must be a finite number"),
    ({"pair": _pair(eps=None)}, "'eps' must be a finite number"),
    ({"pair": _pair(eps=math.nan)}, "'eps' must be a finite number"),
    ({"pair": _pair(eps=10 ** 400)}, "'eps' must be a finite number"),
    ({"pair": _pair(bump=_bump(label=3))}, "'label' must be a string"),
    ({"pair": _pair(bump=_bump(c_poly=[1.0]))}, "'c_poly' must be an object"),
    ({"pair": _pair(bump=_bump(c_poly={"2 0": None}))}, "'c_poly' must be"),
    ({"pair": _pair(bump=_bump(c_poly={"2 0": math.inf}))},
     "'c_poly' must be"),
    ({"pair": _pair(bump=_bump(c_poly={"2 -1": 1.0}))}, "'c_poly' must be"),
    ({"pair": _pair(bump=_bump(c_poly={"2,0": 1.0}))}, "'c_poly' must be")],
    ids=["no_pair", "not_an_object", "no_L", "no_eps", "int_L", "null_K",
         "string_exponent", "null_exponent", "bool_exponent", "null_eps",
         "nan_eps", "huge_eps", "int_label", "list_c_poly",
         "null_coefficient", "inf_coefficient", "negative_power",
         "comma_key"])
def test_malformed_pair_files_are_refused_by_name(tmp_path, capsys, doc,
                                                  missing):
    path = tmp_path / "bad_pair.json"
    path.write_text(json.dumps(doc))
    code, rec = run(tmp_path, "bp-verify", "--pair", str(path))
    assert code == 1 and rec is None
    err = capsys.readouterr().err
    assert "usage error" in err and str(path) in err and missing in err


@pytest.mark.parametrize("key", ["2", "2 0 0"])
def test_bump_keys_need_one_exponent_per_block(tmp_path, capsys, key):
    path = _write_pair(tmp_path / "pair.json", bump=_bump(c_poly={key: 1.0}))
    code, rec = run(tmp_path, "bp-verify", "--pair", path)
    assert code == 1 and rec is None
    err = capsys.readouterr().err
    assert f"c_poly key {key!r} needs 2 exponents, one per block" in err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(), inner, max_size=3)),
    max_leaves=6)


@given(field=st.sampled_from(["K", "L", "eps", "exponent", "bump", "label",
                              "c_poly"]),
       value=_JSON)
def test_a_pair_record_rebuilds_or_is_refused_as_a_value_error(field, value):
    # one field of a valid record replaced by any JSON value: reading and
    # rebuilding it never ends in a TypeError, AttributeError, KeyError,
    # IndexError or OverflowError
    pair = _pair()
    if field in ("label", "c_poly"):
        pair["bump"] = _bump(**{field: value})
    else:
        pair[field] = value
    try:
        record = read_pair_record({"pair": pair}, "drawn.json")
    except SpecError:
        return  # a malformed record, refused by name
    try:
        K, L = pair_from_record(record)
    except ValueError:
        return  # a well-formed record whose bodies cannot be built
    assert (K.spec(), L.spec()) == (pair["K"], pair["L"])


def test_bp_construct_at_n_two_is_impossible_and_replays(tmp_path):
    # the default res-224 grid of n = 2 has no negativity region
    cache = tmp_path / "cache"
    for cached in (False, True):
        code, rec = run(tmp_path, "bp-construct", "--n", "2", "--q", "4",
                        cache=cache)
        assert code == 1 and rec["exit_code"] == 1
        assert rec["cached"] is cached
        [result] = rec["results"]
        assert result["error"] == "construction-impossible"
        assert "nonnegative_up_to_tol" in result["message"]


@pytest.mark.parametrize("argv, token", [
    (["volume", "--body", ":dim=4"], "missing spec head"),
    (["volume", "--body", "scale:base=(ball:dim=4,lam=2"], "unbalanced '('"),
    (["volume", "--body", "scale:base=ball:dim=4),lam=2"], "unbalanced ')'"),
    (["volume", "--body", "ball:dim"], "'dim'"),
    (["volume", "--body", "ball:dim=x"], "bad value for 'dim'"),
    (["volume", "--body", "clq:n=2"], "missing field 'q'"),
    (["volume", "--body", "scale:lam=2"], "missing field 'base'"),
    (["scan", "--body", "ball:dim=4", "--p", "2", "--grid",
      "gird:dim=4,res=8"], "'gird'"),
    (["volume", "--body", "ball:dim=4", "--rule", "sobol:nodes=64"],
     "'sobol'"),
    (["volume", "--body", "ball:dim=4", "--rule", "gauss:level=1"],
     "level must be >= 2"),
    (["section", "--body", "ball:dim=10", "--rule", "gauss:level=4"],
     "dim <= 6"),
    (["scan", "--body", "ball:dim=4", "--p", "2", "--grid",
      "grid:dim=4,res=4"], "resolution must be >= 8"),
    (["volume", "--body", "ball:dim=4", "--rule", "mc:nodes=64"], "'mc'"),
    # a rule spec names only its own fields: the sphere is the command's,
    # and a Gauss rule has no seed
    (["volume", "--body", "ball:dim=4", "--rule", "qmc:dim=4"],
     "unknown field 'dim'"),
    (["volume", "--body", "ball:dim=4", "--rule", "gauss:level=8,seed=3"],
     "unknown field 'seed'"),
    # the multiplier route reads no rule, so naming one is an error
    (["ft", "--body", "ball:dim=4", "--p", "2", "--method", "multiplier",
      "--rule", "qmc:nodes=64"], "multiplier route reads no rule"),
    # sort orders an orbit-reduced grid only: on another it would be a
    # second key for the same points
    (["scan", "--body", "ball:dim=4", "--p", "2", "--grid",
      "grid:dim=4,res=8,sort=0"], "'sort' needs reduce=orbit"),
    # the series degree is a constant, not a field
    (["volume", "--body",
      "mollify:base=(clq:n=2,q=4),width=0.2,max_degree=8"],
     "unknown field 'max_degree'"),
    # sort is a flag: any other integer would be a second key for one grid
    (["scan", "--body", "ball:dim=4", "--p", "2", "--grid",
      "grid:dim=4,res=8,reduce=orbit,sort=5"], "'sort'"),
    (["scan", "--body", "ball:dim=4", "--p", "2", "--grid",
      "grid:dim=4,res=8,reduce=orbit,sort=-1"], "'sort'"),
    (["scan", "--body", "ball:dim=4", "--p", "2", "--grid",
      "grid:dim=4,res=8,sort=1"], "'sort' needs reduce=orbit")])
def test_a_bad_spec_exits_one_naming_its_token(capsys, argv, token):
    assert main([*argv, "--no-cache"]) == 1
    assert token in capsys.readouterr().err


def _not_invariant(body):
    body.rotation_invariant = False
    return body


def _cache_entry_without_results(tmp_path):
    inputs = {"command": "volume", "body": "ball:dim=4"}
    chash = config_hash(inputs)
    (tmp_path / f"{chash}.json").write_text(json.dumps(
        {"config_hash": chash, "inputs": inputs, "exit_code": 0}))
    assert cli.cache_get(inputs, str(tmp_path)) is None


#: refusals that no other test reaches, each with its whole message
_REFUSALS = {
    "bp-verify-invariance": (lambda tmp: bp_verify(
        _not_invariant(EuclideanBall(4)), EuclideanBall(4),
        make_grid(4, 8, "orbit_reduced")),
        "ball:dim=4 is not complex-rotation invariant"),
    "multiplier-p": (lambda tmp: ft_values(
        EuclideanBall(4), np.eye(4)[0], [5.0], None, "multiplier"),
        "p must lie in (0, dim)"),
    # laplacian_at_zero itself takes m = 2 in dim 6
    "derivative-order": (lambda tmp: ft_derivative_route(
        EuclideanBall(6), np.eye(6)[0], 2, SphereRule.gauss(4, 6)),
        "m=2 needs 0 <= m < n-1 = 2"),
    "fractional-q": (lambda tmp: fractional_radial(lambda t: 0.0, 2.0, 1.0),
                     "q must lie in (0, 2)"),
    "fractional-cutoff": (lambda tmp: fractional_radial(
        lambda t: 0.0, 1.0, 0.0), "cutoff must be positive"),
    "mollify-width": (lambda tmp: parse_body(
        "mollify:base=(ball:dim=4),width=1.5"), "width must lie in (0, 1)"),
    "ball-dim": (lambda tmp: parse_body("ball:dim=5"),
                 "dim must be even and >= 4"),
    "clq-n": (lambda tmp: parse_body("clq:n=1,q=4"), "n must be >= 2"),
    "mollify-base": (lambda tmp: parse_body("mollify:width=0.1"),
                     "missing field 'base' in 'mollify:width=0.1'"),
    "grid-reduction": (lambda tmp: parse_grid(
        "grid:dim=4,res=8,reduce=diag", 0),
        "unknown reduction 'diag' in 'grid:dim=4,res=8,reduce=diag'"),
    "rule-dim": (lambda tmp: SphereRule.qmc(1, 64, 0), "dim must be >= 2"),
    # a cache entry is warned of and ignored, not refused with an error
    "cache-results": (_cache_entry_without_results, "no results or exit code"),
}


@pytest.mark.parametrize("name", sorted(_REFUSALS))
def test_each_refusal_names_its_cause(tmp_path, capsys, name):
    call, text = _REFUSALS[name]
    try:
        call(tmp_path)
    except ValueError as exc:
        assert str(exc) == text
    else:
        assert capsys.readouterr().err.endswith(f": {text}\n")


@pytest.mark.parametrize("spec, field", [
    ("clq:n=2,q=inf", "q"), ("clq:n=2,q=1e400", "q"), ("clq:n=2,q=nan", "q"),
    ("clq:n=2,q=-inf", "q"), ("scale:base=(ball:dim=4),lam=nan", "lam"),
    ("scale:base=(ball:dim=4),lam=inf", "lam")])
def test_non_finite_body_parameters_are_refused_by_name(capsys, spec, field):
    with pytest.raises(ValueError, match=rf"\b{field} must be finite"):
        parse_body(spec)
    assert main(["volume", "--body", spec, "--no-cache"]) == 1
    assert f"{field} must be finite" in capsys.readouterr().err


def test_a_tie_exits_two_with_its_report(tmp_path, monkeypatch):
    # one positive section gap inside its own 3-stderr band, all others
    # clearly negative
    def tied(K, L, grid, rule):
        gaps = np.full(len(grid.points), -1.0)
        gaps[0] = 2e-3
        return gaps, np.full(len(grid.points), 1e-3)

    monkeypatch.setattr(busemann_petty, "_section_gaps", tied)
    K, L = parse_body("scale:base=(ball:dim=4),lam=0.9"), parse_body(
        "ball:dim=4")
    report = busemann_petty.bp_verify(K, L, parse_grid(
        "grid:dim=4,res=8,reduce=orbit", 0))
    assert report.verdict == "not_dominated" and report.flags == ("tie",)
    assert report.details == {"exceed_count": 0, "tie_count": 1}
    code, rec = run(tmp_path, "bp-verify", "--K", K.spec(), "--L", L.spec())
    assert code == 2 and rec["exit_code"] == 2
    [result] = rec["results"]
    assert result["verdict"] == "not_dominated"
    assert result["flags"] == ["tie"]
    assert result["details"]["tie_count"] == 1


def test_pair_files_with_different_bumps_do_not_share_a_cache_entry(tmp_path):
    # same file name, bump label and eps; only the bump polynomial differs,
    # which K.spec() does not show
    cache = tmp_path / "cache"
    records = []
    for sub, c_poly in (("a", {"0 0": 1.0}), ("b", {"2 0": 1.0, "0 2": 1.0})):
        (tmp_path / sub).mkdir()
        path = _write_pair(tmp_path / sub / "pair.json",
                           bump={"label": "bump", "c_poly": c_poly})
        code, rec = run(tmp_path, "bp-verify", "--pair", path,
                        name=f"{sub}.json", cache=cache)
        assert code == 0
        records.append(rec)
    assert records[0]["inputs"]["K"] == records[1]["inputs"]["K"]
    assert records[1]["cached"] is False
    assert records[0]["config_hash"] != records[1]["config_hash"]


def test_a_new_numerics_version_misses_the_cache(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    args = ("volume", "--body", "ball:dim=4", "--rule",
            "qmc:nodes=4096,seed=5")
    _, rec1 = run(tmp_path, *args, name="r1.json", cache=cache)
    _, rec2 = run(tmp_path, *args, name="r2.json", cache=cache)
    assert rec2["cached"] is True
    assert rec1["inputs"]["numerics_version"] == cli.NUMERICS_VERSION
    monkeypatch.setattr(cli, "NUMERICS_VERSION", cli.NUMERICS_VERSION + 1)
    _, rec3 = run(tmp_path, *args, name="r3.json", cache=cache)
    assert rec3["cached"] is False
    assert rec3["config_hash"] != rec1["config_hash"]
    assert rec3["results"] == rec1["results"]


def test_a_new_library_version_misses_the_cache(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    args = ("volume", "--body", "ball:dim=4", "--rule", "qmc:nodes=4096")
    _, rec1 = run(tmp_path, *args, name="r1.json", cache=cache)
    assert rec1["inputs"]["libraries"] == {"numpy": np.__version__,
                                           "scipy": scipy.__version__}
    for lib in ("numpy", "scipy"):
        monkeypatch.setattr(cli, "LIBRARY_VERSIONS",
                            {**cli.LIBRARY_VERSIONS, lib: "0.0"})
        _, rec2 = run(tmp_path, *args, name=f"{lib}.json", cache=cache)
        assert rec2["cached"] is False
        assert rec2["config_hash"] != rec1["config_hash"]
        assert rec2["results"] == rec1["results"]
        monkeypatch.undo()


def test_default_rule_specs_name_no_field(tmp_path):
    for command in ("volume", "section"):
        code, rec = run(tmp_path, command, "--body", "ball:dim=6")
        assert code == 0 and rec["inputs"]["rule"] == "qmc", command
        assert rec["results"][0]["node_count"] == 2 ** 16

