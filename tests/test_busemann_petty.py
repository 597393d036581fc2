import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cbplab import busemann_petty
from cbplab.bodies import (ComplexLqBall, EuclideanBall, RadialPerturbation,
                           ScaledBody, mollify)
from cbplab.busemann_petty import (ConstructionImpossibleError, HarmonicBump,
                                   _default_section_rule,
                                   _negative_weighted_square, _section_gaps,
                                   _transform_bump, _volumes, bp_construct,
                                   bp_verify, pair_from_record, pair_record)
from cbplab.fourier import UnsupportedRouteError, ft_multiplier_route
from cbplab.frames import DirectionGrid, make_frame, make_grid
from cbplab.harmonics import (c_add, c_eval, c_mul, c_scale,
                              symmetric_harmonic_atoms)
from cbplab.quadrature import (SphereRule, integrate_sphere, kahan_reduce,
                               sphere_area)
from cbplab.sections import _polar, volume
from cbplab.specs import parse_grid
from checks import (WiggledBall, block_moduli, committed_pair,
                    exact_section_gaps, holder_chain_check, rotate,
                    section_gap_profile, volume_lower_bound)


@pytest.fixture(scope="module")
def grid6():
    return make_grid(6, 12, reduction="orbit_reduced", sort_moduli=True)


def test_scaled_ball_is_consistent(grid6):
    report = bp_verify(ScaledBody(EuclideanBall(6), 0.9), EuclideanBall(6),
                       grid6)
    assert report.verdict == "consistent"
    assert report.max_gap < 0.0
    assert report.vol_gap.value < 0.0


def test_identical_bodies_are_consistent_with_zero_gaps(grid6):
    ball = EuclideanBall(6)
    report = bp_verify(ball, ball, grid6)
    assert report.verdict == "consistent"
    assert np.allclose(report.gaps, 0.0, atol=1e-12)
    assert report.vol_gap.value == pytest.approx(0.0, abs=1e-12)


def test_reversed_pair_is_not_dominated(grid6):
    report = bp_verify(EuclideanBall(6), ScaledBody(EuclideanBall(6), 0.9),
                       grid6)
    assert report.verdict == "not_dominated"
    assert report.details["exceed_count"] == len(grid6.points)


def test_dimension_mismatch_rejected(grid6):
    with pytest.raises(ValueError):
        bp_verify(EuclideanBall(8), EuclideanBall(6), grid6)
    with pytest.raises(ValueError):
        bp_verify(EuclideanBall(8), EuclideanBall(8), grid6)


def test_holder_chain_for_scaled_pair():
    out = holder_chain_check(ScaledBody(EuclideanBall(6), 0.9),
                             EuclideanBall(6))
    assert out["ok"]
    assert out["slack1"] > 0.0
    # both radial functions are constant, so Hoelder's step is an equality
    # and the sign of slack2 is round-off (it reads -2.8e-14 under another
    # BLAS kernel): it must be as tight as for equal bodies
    assert abs(out["slack2"]) <= 3.0 * out["slack2_stderr"] + 1e-10


def test_holder_chain_is_tight_for_equal_bodies():
    ball = EuclideanBall(6)
    out = holder_chain_check(ball, ball)
    assert out["ok"]
    assert abs(out["slack1"]) <= 3.0 * out["slack1_stderr"] + 1e-10
    assert abs(out["slack2"]) <= 3.0 * out["slack2_stderr"] + 1e-10


def _batch_loop_gaps(K, L, grid, rule):
    """The explicit per-batch loop the gaps were computed with before they
    went through the sphere integrator: each batch sum divided by m."""
    m = K.dim - 2
    gaps, errs = [], []
    for xi in grid.points:
        basis = make_frame(xi).basis
        sums = []
        for pts, w in rule.batches():
            x = pts @ basis
            sums.append(float(np.dot(w, K.radial(x) ** m - L.radial(x) ** m)) / m)
        gaps.append(kahan_reduce(sums))
        errs.append(0.0 if rule.deterministic else float(
            np.std(np.asarray(sums) * len(sums), ddof=1) / math.sqrt(len(sums))))
    return np.array(gaps), np.array(errs)


def _batch_loop_volume_gap(K, L, rule):
    d = K.dim
    sums = [float(np.dot(w, K.radial(pts) ** d - L.radial(pts) ** d)) / d
            for pts, w in rule.batches()]
    if rule.deterministic:
        return kahan_reduce(sums), 0.0
    ests = np.asarray(sums) * len(sums)
    return kahan_reduce(sums), float(np.std(ests, ddof=1) / math.sqrt(len(sums)))


@pytest.mark.parametrize("n", [3, 4])
def test_gaps_match_the_explicit_batch_loop(n):
    # the integrator divides the total by m (or d) where the loop divided
    # each batch sum; that moves the gaps by round-off only
    d = 2 * n
    L = ComplexLqBall(n, 4.0)
    atom = [a for a in symmetric_harmonic_atoms(n, 4) if a.degree == 4][0]
    poly = dict(atom.c_poly)
    poly[(0,) * n] = poly.get((0,) * n, 0.0) + 1.0
    K = RadialPerturbation(L, d - 2, 0.01, HarmonicBump(poly, "test"),
                           bump_id="test")
    full = make_grid(d, 8, reduction="orbit_reduced", sort_moduli=True)
    grid = DirectionGrid(d, full.points[::7], full.reduction, full.resolution)
    for rule in (SphereRule.qmc(d - 2, 2 ** 10, 3),
                 SphereRule.gauss(d - 2, 6)):
        gaps, errs = _section_gaps(K, L, grid, rule)
        want_gaps, want_errs = _batch_loop_gaps(K, L, grid, rule)
        assert np.all(want_gaps != 0.0)
        np.testing.assert_allclose(gaps, want_gaps, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(errs, want_errs, rtol=1e-12, atol=0.0)
    vol_rules = [SphereRule.qmc(d, 2 ** 12, 4)]
    if d <= 6:
        vol_rules.append(SphereRule.gauss(d, 6))
    for rule in vol_rules:
        est = _volumes(K, L, rule)[2]
        value, stderr = _batch_loop_volume_gap(K, L, rule)
        assert est.value == pytest.approx(value, rel=1e-12, abs=0.0)
        assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)


def test_harmonic_bump_is_invariant_and_serializable():
    bump = HarmonicBump({(2, 0, 0, 0): 1.0, (0, 1, 1, 0): -2.0}, label="b")
    g = np.random.Generator(np.random.Philox(key=3))
    x = g.standard_normal((64, 8))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    vals = bump(x)
    assert np.allclose(bump(rotate(x, 1.2)), vals, atol=1e-12)
    # scale invariance through the moduli normalization
    assert np.allclose(bump(2.5 * x), vals, atol=1e-12)
    rec = bump.as_record()
    json.dumps(rec)
    assert rec["label"] == "b"


def test_a_bump_not_symmetric_under_block_permutations_is_refused():
    # a c-polynomial depends on the block moduli alone, but this one is not
    # symmetric in them; the multiplier route and mollify would symmetrize
    # the body without a word
    bump = HarmonicBump({(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0,
                         (1, 1, 0): -2.0}, label="b")
    assert not bump.moduli_symmetric
    K = RadialPerturbation(mollify(ComplexLqBall(3, 4.0), 0.1), 4, 0.3, bump,
                           bump_id="skew")
    xi = np.array([0.8, 0.0, 0.6, 0.0, 0.0, 0.0])
    assert K.radial(xi) != K.radial(xi[[4, 5, 0, 1, 2, 3]])
    assert K.rotation_invariant and not K.moduli_symmetric
    with pytest.raises(UnsupportedRouteError, match="block moduli"):
        ft_multiplier_route(K, xi, 2.0)
    with pytest.raises(ValueError, match="block moduli"):
        mollify(K, 0.1)
    # a symmetric one, off by round-off, keeps the full group
    assert HarmonicBump({(1, 0): 1.0, (0, 1): 1.0 + 1e-15},
                        label="near").moduli_symmetric
    assert not HarmonicBump({(1, 0): 1.0, (0, 1): 1.0 + 1e-11},
                            label="off").moduli_symmetric


def test_negative_weighted_square_minimizes_the_pairing():
    grid = make_grid(8, 8, reduction="orbit_reduced", sort_moduli=True)
    # an invariant weight profile that is negative near the axis orbit
    m = block_moduli(grid.points)
    values = 1.0 - 3.0 * np.max(m, axis=1) ** 4
    f_poly, coefs, lam = _negative_weighted_square(4, grid, values)
    fvals = c_eval(f_poly, m ** 2)
    assert np.min(fvals) >= -1e-10
    weighted = float(np.dot(grid.weights, fvals * values))
    assert weighted == pytest.approx(lam, rel=1e-10)
    assert lam < 0.0


def test_negative_weighted_square_gives_a_grid_without_weights_equal_ones():
    grid = make_grid(4, 16, reduction="none")
    assert grid.weights is None
    uniform = DirectionGrid(grid.dim, grid.points, grid.reduction,
                            grid.resolution, grid.seed,
                            np.full(len(grid.points),
                                    sphere_area(4) / len(grid.points)))
    values = 1.0 - 3.0 * np.max(block_moduli(grid.points), axis=1) ** 4
    f_poly, coefs, lam = _negative_weighted_square(2, grid, values)
    assert (f_poly, coefs, lam) == _negative_weighted_square(
        2, uniform, values)


@pytest.mark.parametrize("n", [2, 3])
def test_construction_impossible_in_low_dimension(n):
    # the paper's "yes" side: no negativity region to build a pair from
    grid = make_grid(2 * n, {2: 16, 3: 10}[n], reduction="orbit_reduced",
                     sort_moduli=True)
    with pytest.raises(ConstructionImpossibleError):
        bp_construct(n, 4.0, grid=grid)


@pytest.fixture(scope="module")
def pair8():
    # the paper's n = 4 side, on every 16th direction of the res-8 grid
    full = make_grid(8, 8, reduction="orbit_reduced", sort_moduli=True)
    idx = np.arange(0, len(full.points), 16)
    w = full.weights[idx]
    grid = DirectionGrid(8, full.points[idx], full.reduction, full.resolution,
                         weights=w * (sphere_area(8) / math.fsum(w)))
    return bp_construct(4, 4.0, grid=grid)


def test_construction_gives_a_counterexample_in_dimension_eight(pair8):
    _, _, report, trace = pair8
    assert report.verdict == "violation"
    assert [step["status"] for step in trace["eps_trace"]] == [
        "not_convex", "not_convex", "violation"]


def test_a_constructed_pair_survives_its_record(pair8):
    K, L, report, trace = pair8
    # the trace is returned, not kept in the report a second time
    assert set(report.details) == {"exceed_count", "tie_count"}
    record = json.loads(json.dumps(pair_record(K, L)))
    assert record["eps"] == trace["eps"]
    assert record["bump"] == K.bump.as_record()
    K2, L2 = pair_from_record(record)
    assert (K2.spec(), L2.spec()) == (K.spec(), L.spec())
    g = np.random.Generator(np.random.Philox(key=11))
    x = g.standard_normal((4096, 8))
    assert np.array_equal(K2.norm(x), K.norm(x))
    assert np.array_equal(L2.norm(x), L.norm(x))
    assert pair_record(K2, L2) == record
    # the slice engine's brackets too
    assert (K2.r_min, K2.r_max) == (K.r_min, K.r_max)
    assert K.bump.moduli_symmetric and K.moduli_symmetric


def test_construction_routes_its_scan_before_any_build(monkeypatch):
    # the p = 2 scan in dim 10 needs Delta^3, which no route implements:
    # the n = 5 mollifier must not be built first
    def no_build(*args, **kwargs):
        raise AssertionError("bp_construct built L before routing its scan")

    monkeypatch.setattr(busemann_petty, "mollify", no_build)
    with pytest.raises(UnsupportedRouteError, match="p=2.0 in dim 10"):
        bp_construct(5, 4.0)


@pytest.mark.parametrize("seed", [-1, -4])
def test_construction_refuses_a_negative_seed_before_any_build(monkeypatch,
                                                               seed):
    def no_build(*args, **kwargs):
        raise AssertionError("bp_construct built L before checking its seed")

    monkeypatch.setattr(busemann_petty, "mollify", no_build)
    monkeypatch.setattr(busemann_petty, "_route", no_build)
    with pytest.raises(ValueError, match=f"seed must be >= 0: {seed}$"):
        bp_construct(4, 4.0, seed=seed)


def test_construct_rejects_tiny_n():
    with pytest.raises(ValueError):
        bp_construct(1, 4.0)


def _three_volume_passes(K, L, rule):
    """bp_verify's volumes as three integrals over its rule, as they were
    before they shared one reading of the nodes."""
    d = K.dim
    gap = integrate_sphere(rule, lambda pts: K.radial(pts) ** d
                           - L.radial(pts) ** d)
    return (volume(K, rule), volume(L, rule),
            _polar(gap, d, "polar_volume_gap"))


def _verify_recording_rules(monkeypatch, K, L, grid):
    """bp_verify's report, and every SphereRule it made."""
    made = []

    class Recorded(SphereRule):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(busemann_petty, "SphereRule", Recorded)
    return bp_verify(K, L, grid), made


def _small_pair(n):
    L = ComplexLqBall(n, 4.0)
    atom = [a for a in symmetric_harmonic_atoms(n, 4) if a.degree == 4][0]
    poly = dict(atom.c_poly)
    poly[(0,) * n] = poly.get((0,) * n, 0.0) + 1.0
    K = RadialPerturbation(L, 2 * n - 2, 0.01, HarmonicBump(poly, "test"),
                           bump_id="test")
    return K, L


@pytest.mark.parametrize("pair", ["n2", "pair8"])
def test_one_volume_pass_gives_the_three_volume_integrals(monkeypatch, pair,
                                                          request):
    if pair == "pair8":
        K, L, built, _ = request.getfixturevalue("pair8")
        grid = built.grid
    else:
        K, L = _small_pair(2)
        grid = make_grid(4, 8, reduction="orbit_reduced", sort_moduli=True)
    report, made = _verify_recording_rules(monkeypatch, K, L, grid)
    [vol_rule] = [rule for rule in made if rule.dim == K.dim]
    [section_rule] = [rule for rule in made if rule.dim == K.dim - 2]
    # the volume rule and the section rule, for all the directions, were
    # each read once and kept no batches
    assert (vol_rule._passes, vol_rule._batches) == (1, None)
    assert (section_rule._passes, section_rule._batches) == (1, None)
    want = _three_volume_passes(K, L, SphereRule.qmc(K.dim, 2 ** 16, 12))
    assert (report.vol_K, report.vol_L, report.vol_gap) == want


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _assert_closed_form_gaps(gaps, K, L, grid):
    # measured 9.9e-15 of the largest gap on the committed verify8 gaps
    exact = exact_section_gaps(K, L, grid)
    assert np.max(np.abs(gaps - exact)) <= 1e-12 * np.max(np.abs(gaps))


def test_committed_section_gaps_equal_their_closed_form():
    # the closed form checks the paper's section formula, the multipliers,
    # the harmonic split, the bump, the frames and the slice quadrature
    # against each other; the reference file is only read
    K, L = committed_pair()
    grid = parse_grid("grid:dim=8,res=8,reduce=orbit", 0)  # bp-verify's
    with open(_PERFBENCH / "references" / "verify8.json") as fh:
        gaps = np.array(json.load(fh)["gaps"])
    _assert_closed_form_gaps(gaps, K, L, grid)
    # gap / (-eps f) is the paper's constant (2 pi)^{2n-1} / (2n - 2):
    # measured 2.4e-15 away
    const = (2.0 * math.pi) ** 7 / 6
    ratio = float(np.median(gaps / section_gap_profile(K, L, grid)))
    assert abs(ratio - const) <= 1e-13 * const
    # a thinned bp_verify of the committed pair, every 32nd direction
    idx = np.arange(0, len(grid.points), 32)
    thin = DirectionGrid(8, grid.points[idx], grid.reduction, grid.resolution,
                         weights=grid.weights[idx])
    _assert_closed_form_gaps(bp_verify(K, L, thin).gaps, K, L, thin)
    with pytest.raises(ValueError, match=r"RadialPerturbation\(L, 6, eps, "
                       r"HarmonicBump\) of L itself"):
        exact_section_gaps(L, L, grid)


def test_the_committed_volume_gap_lies_above_its_bernoulli_bound():
    # Vol K - Vol L >= -eps / (d - 2) I, I = int rho_L^2 g, for every
    # amplitude with t = eps g / rho_L^{d-2} < 1; measured I =
    # -10,006.688363291298 at res 32 and -10,006.688363291327 at res 48,
    # bound 3.78924e-3, moduli-Gauss gap 4.173768e-3, QMC gap 4.150e-3
    # +- 3.58e-4, largest t 0.1026
    K, L = committed_pair()
    coarse, fine = (volume_lower_bound(K, L, res) for res in (32, 48))
    assert fine["I"] < 0.0
    assert abs(coarse["I"] - fine["I"]) <= 1e-12 * abs(fine["I"])
    assert fine["bound"] < fine["gap"]
    # bp_verify's volume rule
    _, _, qmc = _volumes(K, L, SphereRule.qmc(K.dim, 2 ** 16, 12))
    assert fine["bound"] < qmc.value + 3.0 * qmc.stderr
    assert fine["max_t"] < 1.0
    with pytest.raises(ValueError, match=r"^a volume lower bound needs K = "
                       r"RadialPerturbation\(L, 6, eps, HarmonicBump\)"):
        volume_lower_bound(L, L, 32)
    # the moduli rule sees only functions of the block moduli
    wiggled = WiggledBall(8, 0.1, 2.0)
    with pytest.raises(ValueError, match="needs a moduli_symmetric L"):
        volume_lower_bound(RadialPerturbation(wiggled, 6, K.eps, K.bump,
                                              bump_id="b"), wiggled, 32)


def test_constructed_section_gaps_equal_their_closed_form(pair8):
    K, L, report, _ = pair8
    _assert_closed_form_gaps(report.gaps, K, L, report.grid)


def _hand_built_pair(n):
    """(K, L) as bp_construct would build them at n, where it refuses: L the
    mollified l_4 ball, f = h^2 for h a seeded combination of the degree
    <= 6 symmetric atoms, and K = RadialPerturbation(L, 2n - 2, eps, g) at
    a quarter of the positivity bound eps = r_min^{2n-2} / sup|g|."""
    d = 2 * n
    L = mollify(ComplexLqBall(n, 4.0), 0.1)
    atoms = symmetric_harmonic_atoms(n, 6)
    coefs = np.random.Generator(np.random.Philox(key=n)).standard_normal(
        len(atoms))
    h = {}
    for atom, coef in zip(atoms, coefs):
        h = c_add(h, c_scale(atom.c_poly, float(coef)))
    bump = HarmonicBump(_transform_bump(c_mul(h, h), n), f"sq_hand{n}")
    sup_g = float(np.max(np.abs(bump(SphereRule.qmc(d, 2 ** 14, 3).nodes()))))
    eps = 0.25 * L.r_min ** (d - 2) / sup_g
    return RadialPerturbation(L, d - 2, eps, bump, bump_id=bump.label), L


@pytest.mark.parametrize("n, res", [(2, 64), (3, 16)])
def test_hand_built_section_gaps_equal_their_closed_form(n, res):
    # the closed form below the paper's threshold, on 32 (n = 2) and 128
    # (n = 3) directions: measured 2.8e-15 and 4.1e-15 of the largest gap
    K, L = _hand_built_pair(n)
    grid = make_grid(2 * n, res, reduction="orbit_reduced", sort_moduli=True)
    gaps = bp_verify(K, L, grid).gaps
    _assert_closed_form_gaps(gaps, K, L, grid)
    # f = h^2 >= 0, so every section of K is smaller than L's
    assert np.all(gaps < 0.0)


#: tracemalloc peak of _section_gaps on pair8 in bytes: 5,575,820 measured
#: (numpy 2.4), plus a margin of 2^19 (9%); a section rule that keeps its
#: 32 lifted batches through the sweep reads 9,068,209
_SECTION_SWEEP_PEAK = 5_575_820 + 2 ** 19


def test_the_section_sweep_holds_one_batch_at_a_time(pair8):
    K, L, report, _ = pair8
    rule = _default_section_rule(K, L)
    tracemalloc.start()
    try:
        gaps, _ = _section_gaps(K, L, report.grid, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(gaps, report.gaps)
    assert peak <= _SECTION_SWEEP_PEAK, peak
