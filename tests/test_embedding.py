import math

import numpy as np
import pytest

from cbplab import embedding, fourier
from cbplab.bodies import ComplexLqBall, EuclideanBall, mollify
from cbplab.embedding import (_assemble, confirm_sample, embedding_interval,
                              scan)
from cbplab.fourier import (FtSample, UnsupportedRouteError,
                            classical_multiplier)
from cbplab.frames import make_grid


@pytest.fixture(scope="module")
def grid4():
    return make_grid(4, 48, reduction="orbit_reduced", sort_moduli=True)


@pytest.fixture(scope="module")
def b42():
    return mollify(ComplexLqBall(2, 4.0), 0.2)


@pytest.fixture(scope="module")
def b42_scans(grid4, b42):
    """One scan per exponent: each confirms its own minimum."""
    return {p: scan(b42, p, grid4, None) for p in (2.0, 1.5, 1.0)}


def _counted(monkeypatch, module, name):
    """Count the calls that reach module.name, looked up at call time."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: (
        calls.append(args) or original(*args, **kwargs)))
    return calls


def test_ball_scan_is_nonnegative_and_constant(grid4):
    verdict = scan(EuclideanBall(4), 2.0, grid4, None)
    assert verdict.conclusion == "nonnegative_up_to_tol"
    truth = classical_multiplier(0, 2.0, 4)
    assert np.allclose(verdict.values, truth, rtol=1e-6)
    assert verdict.routes["agreement_z"] < 5.0
    assert verdict.routes["confirm"] == "pairing"


def test_mollified_dim4_scan_nonnegative(b42_scans):
    for p in (2.0, 1.5):
        verdict = b42_scans[p]
        assert verdict.conclusion == "nonnegative_up_to_tol", p
        assert verdict.min_value > -3.0 * verdict.min_stderr - 1e-3 * np.max(
            np.abs(verdict.values))


def test_embedding_interval_shares_profiles(grid4, b42, b42_scans,
                                           monkeypatch):
    confirms = _counted(monkeypatch, embedding, "confirm_sample")
    out = embedding_interval(b42, [2.0, 1.5, 1.0], grid4)
    assert set(out) == {2.0, 1.5, 1.0}
    for p, verdict in out.items():
        assert verdict.conclusion == "nonnegative_up_to_tol", p
    # the derivative route serves p = 2, the fractional route the others
    assert out[2.0].routes["primary"] == "derivative"
    assert out[1.5].routes["primary"] == "fractional"
    # all three minima lie on one direction: one confirmation pass serves
    # them, and each verdict is that of a scan confirming on its own
    assert len(confirms) == 1
    assert confirms[0][2] == [2.0, 1.5, 1.0]
    for p, verdict in out.items():
        alone = b42_scans[p]
        assert np.array_equal(verdict.values, alone.values), p
        assert np.array_equal(verdict.stderrs, alone.stderrs), p
        assert verdict.conclusion == alone.conclusion, p
        for key in ("confirm_value", "confirm_stderr", "agreement_z"):
            assert verdict.routes[key] == alone.routes[key], (p, key)


def test_embedding_interval_confirms_once_per_minimum_direction(
        monkeypatch):
    # on this body and grid the minimum of p = 0.5 moves one direction
    # away from that of p = 2 and p = 1
    body = mollify(ComplexLqBall(2, 8.0), 0.1)
    grid = make_grid(4, 16, reduction="orbit_reduced", sort_moduli=True)
    confirms = _counted(monkeypatch, embedding, "confirm_sample")
    out = embedding_interval(body, [2.0, 1.0, 0.5], grid)
    argmins = {p: int(np.argmin(v.values)) for p, v in out.items()}
    assert argmins[2.0] == argmins[1.0] != argmins[0.5]
    assert len(confirms) == 2
    for _, xi, ps in confirms:
        assert all(np.array_equal(xi, grid.points[argmins[p]]) for p in ps)
    assert sorted(p for _, _, ps in confirms for p in ps) == [0.5, 1.0, 2.0]
    # each confirmation is the one a one-exponent call gives
    for p, verdict in out.items():
        [alone] = confirm_sample(body, grid.points[argmins[p]], [p])
        assert verdict.routes["confirm_value"] == alone.value, p
        assert verdict.routes["confirm_stderr"] == alone.stderr, p


@pytest.mark.parametrize("bad", [math.nan, 3.5, 0.0, -1.0])
def test_embedding_interval_rejects_a_bad_exponent_before_any_work(
        grid4, b42, monkeypatch, bad):
    profiles = _counted(monkeypatch, fourier, "section_profile")
    derivatives = _counted(monkeypatch, fourier, "ft_derivative_route")
    with pytest.raises(UnsupportedRouteError,
                       match=rf"no implemented route reaches p={bad} in dim 4"):
        embedding_interval(b42, [1.5, 2.0, bad], grid4)
    assert profiles == [] and derivatives == []


def test_a_grid_of_another_dimension_is_refused_before_any_work(
        b42, monkeypatch):
    values = _counted(monkeypatch, embedding, "ft_values")
    grid = make_grid(6, 8, reduction="orbit_reduced")
    with pytest.raises(ValueError, match="grid dim 6 != body dim 4"):
        scan(b42, 2.0, grid, None)
    with pytest.raises(ValueError, match="grid dim 6 != body dim 4"):
        embedding_interval(b42, [1.5, 2.0], grid)
    assert values == []


def test_embedding_interval_evaluates_a_repeated_exponent_once(monkeypatch):
    body = mollify(ComplexLqBall(2, 4.0), 0.2)
    grid = make_grid(4, 8, reduction="orbit_reduced", sort_moduli=True)
    finishes = _counted(monkeypatch, fourier, "fractional_from_profile")
    out = embedding_interval(body, [1.5, 1.5, 1], grid)
    assert list(out) == [1.5, 1.0]
    assert len(finishes) == 2 * len(grid.points)


def test_confirm_sample_matches_the_classical_constant():
    xi = np.array([0.6, 0.0, 0.8, 0.0])
    [sample] = confirm_sample(EuclideanBall(4), xi, [2.0])
    truth = classical_multiplier(0, 2.0, 4)
    assert abs(sample.value - truth) < 3.0 * sample.stderr + 0.01 * truth


def test_verdict_record_is_serializable(grid4):
    verdict = scan(EuclideanBall(4), 2.0, grid4, None)
    rec = verdict.as_record()
    assert rec["conclusion"] == "nonnegative_up_to_tol"
    assert len(rec["argmin"]) == 4
    import json
    json.dumps(rec)


def test_embedding_interval_values_are_those_of_scan_at_any_exponent():
    # 2n - 2 - p and 2n - p - 2 round apart at p = 0.2: both paths must
    # take q from one expression
    body = mollify(ComplexLqBall(2, 4.0), 0.2)
    grid = make_grid(4, 8, reduction="orbit_reduced", sort_moduli=True)
    interval = embedding_interval(body, [0.2], grid)[0.2]
    alone = scan(body, 0.2, grid, None)
    assert np.array_equal(interval.values, alone.values)
    assert np.array_equal(interval.stderrs, alone.stderrs)


def _samples(values, stderr, method="derivative"):
    return [FtSample(2.0, v, stderr, method) for v in values]


def test_routes_that_disagree_are_inconclusive():
    grid = make_grid(4, 8, reduction="orbit_reduced", sort_moduli=True)
    values = 1.0 + np.arange(len(grid.points))
    [confirm] = _samples([10.0], 0.1, "pairing")
    verdict = _assemble(EuclideanBall(4), 2.0, grid,
                        _samples(values, 0.1), 0, confirm)
    assert verdict.routes["agreement_z"] > 5.0
    assert verdict.conclusion == "inconclusive"


def test_a_witness_the_confirmation_does_not_share_is_inconclusive():
    grid = make_grid(4, 8, reduction="orbit_reduced", sort_moduli=True)
    values = np.full(len(grid.points), 2.0)
    values[0] = -1.0  # below -3 stderr - floor on the primary route
    # the routes agree (z <= 5), but the confirmation is not below -3 stderr
    [confirm] = _samples([-0.25], 0.2, "pairing")
    verdict = _assemble(EuclideanBall(4), 2.0, grid,
                        _samples(values, 0.1), 0, confirm)
    assert verdict.routes["agreement_z"] <= 5.0
    assert confirm.value >= -3.0 * confirm.stderr
    assert verdict.min_value < -(3.0 * verdict.min_stderr)
    assert verdict.conclusion == "inconclusive"
