import math
import os
import re
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest
from scipy import special, stats

import cbplab
from cbplab import quadrature
from cbplab.bodies import ComplexLqBall, mollify
from cbplab.fourier import section_profile
from cbplab.frames import make_frame
from cbplab.quadrature import (Estimate, PoisonedEstimateError, SphereRule,
                               fractional_radial, integrate_sphere,
                               integrate_subsphere, kahan_reduce, sphere_area)
from checks import (kappa, scipy_fractional_radial, scipy_sobol_sphere,
                    sobol_directions_full, whole_grid_gauss_batches)


def test_sphere_area_matches_gamma_formula():
    assert sphere_area(4) == pytest.approx(2.0 * math.pi ** 2)
    assert sphere_area(6) == pytest.approx(math.pi ** 3)
    assert sphere_area(8) == pytest.approx(math.pi ** 4 / 3.0)


def test_weights_sum_to_area_for_every_kind():
    for kind, kw in [("quasi_monte_carlo", {"node_count": 2 ** 12}),
                     ("product_gauss", {"level": 8})]:
        rule = SphereRule(6, kind, seed=3, **kw)
        total = sum(float(np.sum(w)) for _, w in rule.batches())
        assert total == pytest.approx(sphere_area(6), rel=1e-12)


def test_nodes_live_on_the_sphere():
    rule = SphereRule(8, "quasi_monte_carlo", node_count=2 ** 10, seed=5)
    pts = rule.nodes()
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    rule = SphereRule(4, "product_gauss", level=6)
    pts = rule.nodes()
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_batches_are_deterministic_per_seed():
    a = SphereRule(6, "quasi_monte_carlo", node_count=2 ** 10, seed=11)
    b = SphereRule(6, "quasi_monte_carlo", node_count=2 ** 10, seed=11)
    c = SphereRule(6, "quasi_monte_carlo", node_count=2 ** 10, seed=12)
    pa, pb, pc = a.nodes(), b.nodes(), c.nodes()
    assert np.array_equal(pa, pb)
    assert not np.array_equal(pa, pc)


def test_ball_volume_by_polar_integral():
    # int rho^d / d with rho = 1 gives kappa_d
    for d, kind, tol in [(4, "quasi_monte_carlo", 5e-3),
                         (6, "quasi_monte_carlo", 1e-3),
                         (6, "product_gauss", 1e-12)]:
        kw = {"level": 10} if kind == "product_gauss" else {"node_count": 2 ** 14}
        rule = SphereRule(d, kind, seed=2, **kw)
        est = integrate_sphere(rule, lambda x: np.ones(len(x)) / d)
        assert est.value == pytest.approx(kappa(d), rel=tol)


def test_gauss_polynomial_exactness():
    # int x1^2 over S^{d-1} = area / d
    rule = SphereRule(6, "product_gauss", level=8)
    est = integrate_sphere(rule, lambda x: x[:, 0] ** 2)
    assert est.value == pytest.approx(sphere_area(6) / 6.0, rel=1e-13)
    assert est.stderr == 0.0


def test_gauss_batches_are_the_whole_grid_split_bit_for_bit():
    # each batch is made from the inner grid's rows, never from the whole
    # grid, and is the whole grid's np.array_split batch
    for dim, level in [(2, 16), (3, 8), (4, 16), (5, 6), (6, 8), (6, 12)]:
        rule = SphereRule(dim, "product_gauss", level=level)
        got = list(rule.batches())
        want = list(whole_grid_gauss_batches(rule))
        assert len(got) == len(want) == rule.batch_count == 32
        for (p1, w1), (p2, w2) in zip(got, want):
            assert p1.shape == p2.shape and np.array_equal(p1, p2)
            assert w1.shape == w2.shape and np.array_equal(w1, w2)


def test_stderr_shrinks_with_node_count():
    def f(x):
        return x[:, 0] ** 4
    coarse = integrate_sphere(SphereRule(6, "quasi_monte_carlo",
                                         node_count=2 ** 10, seed=4), f)
    fine = integrate_sphere(SphereRule(6, "quasi_monte_carlo",
                                       node_count=2 ** 16, seed=4), f)
    assert fine.stderr < coarse.stderr / 3.0


def test_error_bar_is_calibrated():
    # the true value should land within 4 stderr for most seeds
    # int x1^6 over S^5: E[x1^6] = 5!! / (d (d+2) (d+4)) times the area
    truth = sphere_area(6) * 15.0 / (6.0 * 8.0 * 10.0)
    hits = 0
    for seed in range(12):
        est = integrate_sphere(
            SphereRule(6, "quasi_monte_carlo", node_count=2 ** 12, seed=seed),
            lambda x: x[:, 0] ** 6)
        if abs(est.value - truth) < 4.0 * est.stderr:
            hits += 1
    assert hits >= 10


def test_poisoned_estimate_raises_with_node():
    rule = SphereRule(4, "quasi_monte_carlo", node_count=2 ** 8, seed=1)

    def bad(x):
        out = np.ones(len(x))
        out[3] = np.nan
        return out

    with pytest.raises(PoisonedEstimateError) as err:
        integrate_sphere(rule, bad)
    assert err.value.node.shape == (4,)


def test_kahan_reduce_compensates():
    parts = [1e16, 1.0, -1e16, 1.0]
    assert kahan_reduce(parts) == 2.0


def test_estimate_rejects_negative_stderr():
    with pytest.raises(ValueError):
        Estimate(1.0, -0.1, 10, "x")


@pytest.mark.parametrize("stderr", [math.nan, math.inf])
def test_estimate_rejects_a_non_finite_stderr(stderr):
    with pytest.raises(ValueError, match="finite"):
        Estimate(1.0, stderr, 10, "x")


@pytest.mark.parametrize("kind, least", [("quasi_monte_carlo", 2),
                                         ("product_gauss", 1)])
def test_rules_need_enough_batches_for_their_error_bar(kind, least):
    # a random rule's error bar is the spread of at least two batch sums
    rule = SphereRule(4, kind, node_count=64, level=4)
    assert rule.batch_count == 32 >= least
    est = integrate_sphere(rule, lambda x: np.ones(len(x)))
    assert est.value == pytest.approx(sphere_area(4), rel=1e-12)
    assert math.isfinite(est.stderr)


@pytest.mark.parametrize("kind", ["quasi_monte_carlo"])
def test_random_rules_need_a_node(kind):
    # an empty rule integrates everything to 0 with stderr 0
    for count in (0, -3):
        with pytest.raises(ValueError, match="node_count"):
            SphereRule(4, kind, node_count=count)
    assert SphereRule(4, kind, node_count=1).node_count == 32


@pytest.mark.parametrize("dim, kind, args", [
    (4, "quasi_monte_carlo", {"node_count": 100}),
    (2, "product_gauss", {"level": 4}),  # 8 nodes
    (4, "product_gauss", {"level": 4}),  # 128 nodes
    (4, "product_gauss", {"level": 129}),  # > 2^22 nodes, 32 batches too
], ids=["qmc", "gauss-8", "gauss-128", "gauss-streamed"])
def test_batch_count_is_the_number_of_batches_the_rule_yields(dim, kind,
                                                              args):
    # slice and pairing sums are sized by batch_count, one column a batch
    rule = SphereRule(dim, kind, **args)
    assert rule.batch_count == sum(1 for _ in rule.batches())


def test_a_product_rule_needs_its_level():
    with pytest.raises(ValueError, match="level"):
        SphereRule(4, "product_gauss")


@pytest.mark.parametrize("kind, seed", [("quasi_monte_carlo", -2)])
def test_random_rules_refuse_a_seed_they_cannot_key_by_name(kind, seed):
    with pytest.raises(ValueError, match="seed"):
        SphereRule(4, kind, node_count=64, seed=seed)
    # a product rule ignores its seed
    assert SphereRule(4, "product_gauss", level=4, seed=seed).node_count == 128


@pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
def test_fractional_radial_closed_form(q):
    # g = (1 - t^2) on [0, 1]: int (g - g(0)) t^{-1-q}
    # = -int_0^1 t^{1-q} dt - int_1^inf t^{-1-q} dt = -1/(2-q) - 1/q
    def g(t):
        t = float(t)
        return 1.0 - t ** 2 if t <= 1.0 else 0.0

    expected = -1.0 / (2.0 - q) - 1.0 / q
    assert fractional_radial(g, q, 1.0) == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("q", [0.5, 1.0])
def test_fractional_radial_is_the_scipy_quad_code_bit_for_bit(q):
    # frac4's exponents p = 1.5 and 1.0 in dim 4; a t^(q + 0.1) profile
    # makes a t^-0.9 integrand, whose singular end QAGS extrapolates, and a
    # real section profile is the route's own case
    def power(t):
        return 1.0 - float(t) ** (q + 0.1) if t <= 1.0 else 0.0

    body = mollify(ComplexLqBall(2, 4.0), 0.2)
    spline, cutoff, _ = section_profile(body, np.array([1.0, 0, 0, 0]), None)

    def profile(t):
        return spline(t) if t < cutoff else 0.0

    for g, end in ((power, 1.0), (profile, cutoff)):
        assert fractional_radial(g, q, end) == scipy_fractional_radial(g, q,
                                                                       end)


def test_a_missing_quadpack_extension_is_refused_by_name(monkeypatch,
                                                         tmp_path):
    # and so is every other extension cbplab loads, or a routine it calls
    for package, name in (("integrate", "_quadpack"),
                          ("special", "_special_ufuncs"),
                          ("special", "_ufuncs"), ("linalg", "_flapack")):
        monkeypatch.delitem(sys.modules, f"scipy.{package}.{name}",
                            raising=False)
    monkeypatch.setattr(quadrature.scipy, "__file__",
                        str(tmp_path / "__init__.py"))
    with pytest.raises(ImportError, match=r"scipy\.integrate\._quadpack is"):
        quadrature._quadpack.__wrapped__()
    with pytest.raises(ImportError,
                       match=r"scipy\.special\._special_ufuncs is missing"):
        quadrature._load_scipy("special", ("_special_ufuncs", "_ufuncs"),
                               ("gamma",))
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack is"):
        quadrature._load_scipy("linalg", ("_flapack",), ("dgtsv",))
    monkeypatch.undo()
    with pytest.raises(ImportError,
                       match=r"scipy\.linalg\._flapack has no dgtsv2, dsyevq$"):
        quadrature._load_scipy("linalg", ("_flapack",),
                               ("dgtsv", "dgtsv2", "dsyevq"))


@pytest.mark.parametrize("qagse", [
    lambda f, a, b: (0.5, 0.0, 0),  # a changed signature
    lambda *args: (0.5, 0.0),  # a changed result
    lambda *args: (0.25, 0.0, 0)])  # a wrong integral
def test_a_changed_qagse_is_refused_by_name(monkeypatch, qagse):
    monkeypatch.setitem(sys.modules, "scipy.integrate._quadpack",
                        types.SimpleNamespace(_qagse=qagse))
    with pytest.raises(ImportError, match=r"_quadpack\._qagse does not"):
        quadrature._quadpack.__wrapped__()


@pytest.mark.parametrize("count", [1, 2, 3, 8, 16, 29, 64, 400])
def test_gauss_jacobi_is_scipys_roots_jacobi_bit_for_bit(count):
    # the exponents of product rules up to S^5 and of the pairing oracle's
    # latitudes up to dim 10
    for a in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5):
        ours = quadrature._gauss_jacobi(count, a)
        theirs = special.roots_jacobi(count, a, a)
        assert [x.tobytes() for x in ours] == [x.tobytes() for x in theirs]
    for count, a in ((0, 0.5), (4, -0.5), (4, 170.0), (4, math.nan)):
        with pytest.raises(ValueError, match="Gauss-Jacobi nodes need"):
            quadrature._gauss_jacobi.__wrapped__(count, a)


def test_gauss_legendre_is_numpys_leggauss_bit_for_bit():
    # the moduli-angle and latitude rules, and the bump moment's 600 nodes
    for count in (*range(2, 131), 400, 600, 601):
        ours = quadrature._gauss_legendre.__wrapped__(count)
        theirs = np.polynomial.legendre.leggauss(count)
        assert [x.tobytes() for x in ours] == [x.tobytes() for x in theirs], \
            count
    for count in (1, 0, -3):
        with pytest.raises(ValueError, match=rf"count >= 2: {count}$"):
            quadrature._gauss_legendre.__wrapped__(count)


def test_sobol_directions_read_by_prefix_are_the_full_tables():
    for d in (*range(1, 65), 1111, 21201):
        assert np.array_equal(quadrature._sobol_directions.__wrapped__(d),
                              sobol_directions_full(d)), d


def test_a_joe_kuo_table_not_read_by_prefix_is_refused_by_name(tmp_path):
    with np.load(quadrature._JOE_KUO) as table:
        poly, vinit = table["poly"][:100], table["vinit"][:100]
    # an uncompressed table is read by prefix too
    np.savez(tmp_path / "stored.npz", poly=poly, vinit=np.asfortranarray(vinit))
    ours = quadrature._joe_kuo(str(tmp_path / "stored.npz"), 50)
    assert np.array_equal(ours[0], poly[:50])
    assert np.array_equal(ours[1], vinit[:50, :ours[1].shape[1]])
    for name, arrays, reason in (
            ("rows", {"poly": poly, "vinit": np.ascontiguousarray(vinit)},
             "vinit is not stored column-major"),
            ("no_vinit", {"poly": poly}, "vinit.npy")):
        path = str(tmp_path / f"{name}.npz")
        np.savez_compressed(path, **arrays)
        with pytest.raises(ImportError, match=rf"Joe-Kuo table "
                           rf"{re.escape(path)} cannot be read by prefix: "
                           rf".*{re.escape(reason)}"):
            quadrature._joe_kuo(path, 3)


def test_a_qags_warning_names_its_code_and_reason():
    def wild(t):  # sin(1/t^2) on [1e-3, 1] exhausts QAGS's 200 subintervals
        return float(t) ** 1.5 * math.sin(float(t) ** -2) if t > 0 else 0.0

    with warnings.catch_warnings(record=True) as ours:
        warnings.simplefilter("always")
        value = fractional_radial(wild, 0.5, 1.0)
    with warnings.catch_warnings(record=True) as scipys:
        warnings.simplefilter("always")
        want = scipy_fractional_radial(wild, 0.5, 1.0)
    # scipy's quad warns at the same outcome, and the value is its value
    [ours], [_] = ours, scipys
    assert ours.category is UserWarning
    assert str(ours.message) == ("QUADPACK QAGS, ier=1: the 200 subintervals "
                                 "are used up")
    assert value == want


def test_worker_independent_batch_stream():
    # the batch stream is index-keyed, so consuming it in any order gives
    # the same set of nodes
    rule = SphereRule(6, "quasi_monte_carlo", node_count=2 ** 10, seed=9)
    batches = list(rule.batches())
    again = list(rule.batches())
    for (p1, w1), (p2, w2) in zip(batches, again):
        assert np.array_equal(p1, p2)
        assert np.array_equal(w1, w2)


def _per_batch(rule, f, basis=None):
    """The integrators before passes: one integrand call per batch."""
    sums = []
    for pts, w in rule.batches():
        x = pts if basis is None else pts @ basis
        sums.append(float(np.dot(w, np.asarray(f(x), dtype=float))))
    return Estimate.from_batches(sums, rule, rule.kind)


def _counted(f):
    def g(x):
        g.calls += 1
        return f(x)
    g.calls = 0
    return g


def _pass_count(rule, limit):
    """Passes of consecutive batches of at most `limit` nodes together (a
    larger batch is a pass of its own)."""
    passes, held = 0, 0
    for _, w in rule.batches():
        if held and held + len(w) > limit:
            passes, held = passes + 1, 0
        held += len(w)
    return passes + (held > 0)


_BODY4 = mollify(ComplexLqBall(2, 4.0), 0.2)


# passes_2_16: integrand calls when passes hold up to 2^16 nodes
@pytest.mark.parametrize("rule, passes_2_16", [
    (SphereRule(4, "quasi_monte_carlo", node_count=2 ** 17, seed=3), 2),
    (SphereRule(4, "product_gauss", level=30), 1)])
def test_integrate_sphere_matches_the_per_batch_loop(rule, passes_2_16,
                                                     monkeypatch):
    f = _counted(lambda x: _BODY4.radial(x) ** 4)
    est = integrate_sphere(rule, f)
    assert f.calls == _pass_count(rule, quadrature._PASS_NODES)
    assert est == _per_batch(rule, f)
    monkeypatch.setattr(quadrature, "_PASS_NODES", 2 ** 16)
    f.calls = 0
    assert integrate_sphere(rule, f) == est
    assert f.calls == passes_2_16
    monkeypatch.undo()
    body8 = ComplexLqBall(4, 3.0)
    rule8 = SphereRule(8, "quasi_monte_carlo", node_count=2 ** 17, seed=4)
    assert (integrate_sphere(rule8, lambda x: body8.radial(x) ** 8)
            == _per_batch(rule8, lambda x: body8.radial(x) ** 8))


@pytest.mark.parametrize("rule, passes_2_16", [
    (SphereRule(2, "product_gauss", level=16), 1),
    (SphereRule(6, "product_gauss", level=9), 2),
    (SphereRule(6, "quasi_monte_carlo", node_count=2 ** 17, seed=5), 2)])
def test_integrate_subsphere_matches_the_per_batch_loop(rule, passes_2_16,
                                                        monkeypatch):
    xi = np.random.Generator(np.random.Philox(key=2)).standard_normal(
        rule.dim + 2)
    basis = make_frame(xi / np.linalg.norm(xi)).basis
    body = _BODY4 if rule.dim == 2 else ComplexLqBall(4, 3.0)
    f = _counted(lambda x: body.radial(x) ** rule.dim)
    est = integrate_subsphere(rule, basis, f)
    assert f.calls == _pass_count(rule, quadrature._PASS_NODES)
    assert est == _per_batch(rule, f, basis)
    monkeypatch.setattr(quadrature, "_PASS_NODES", 2 ** 16)
    f.calls = 0
    assert integrate_subsphere(rule, basis, f) == est
    assert f.calls == passes_2_16


def test_poisoned_estimate_names_the_first_bad_node():
    rule = SphereRule(4, "quasi_monte_carlo", node_count=2 ** 8, seed=1)
    batches = list(rule.batches())
    first, later = batches[1][0][5], batches[3][0][0]

    def bad(x):
        hit = np.all(x == first, axis=1) | np.all(x == later, axis=1)
        return np.where(hit, np.nan, 1.0)

    with pytest.raises(PoisonedEstimateError) as err:
        integrate_sphere(rule, bad)
    assert np.array_equal(err.value.node, first)


def test_a_stack_of_integrands_gives_each_ones_estimate():
    rule = SphereRule(4, "quasi_monte_carlo", node_count=2 ** 12, seed=2)
    fs = [lambda x: x[:, 0] ** 2, lambda x: np.ones(len(x)),
          lambda x: x[:, 1] * x[:, 2]]
    stacked = integrate_sphere(rule, lambda x: np.stack([f(x) for f in fs]))
    assert stacked == [integrate_sphere(rule, f) for f in fs]
    later = list(rule.batches())[2][0][7]

    def bad(x):
        hit = np.all(x == later, axis=1)
        return np.stack([np.ones(len(x)), np.where(hit, np.inf, 1.0)])

    with pytest.raises(PoisonedEstimateError) as err:
        integrate_sphere(rule, bad)
    assert np.array_equal(err.value.node, later)


def test_rules_keep_their_batches_read_only(monkeypatch):
    made = {"_gauss_nodes": 0, "_qmc_batch": 0}
    for name in made:
        original = getattr(SphereRule, name)

        def counted(self, *args, _name=name, _f=original):
            made[_name] += 1
            return _f(self, *args)
        monkeypatch.setattr(SphereRule, name, counted)
    gauss = SphereRule(6, "product_gauss", level=8)
    qmc = SphereRule(6, "quasi_monte_carlo", node_count=2 ** 12, seed=9)
    for rule in (gauss, qmc):
        once = list(rule.batches())
        first = list(rule.batches())
        again = list(rule.batches())
        assert not any(p1 is p2 for (p1, _), (p2, _) in zip(once, first))
        assert all(p1 is p2 and w1 is w2
                   for (p1, w1), (p2, w2) in zip(first, again))
        fresh = list(SphereRule(6, rule.kind, node_count=2 ** 12, seed=9,
                                level=8).batches())
        assert all(np.array_equal(p1, p2) and np.array_equal(w1, w2)
                   for (p1, w1), (p2, w2) in zip(first, fresh))
        pts, w = first[0]
        with pytest.raises(ValueError):
            pts[0, 0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0
    # a rule read once keeps nothing; the second pass is kept; the fresh
    # twin builds its own
    assert made == {"_gauss_nodes": 3, "_qmc_batch": 3 * 32}


def test_streamed_gauss_rules_keep_no_batches(monkeypatch):
    # a rule above the cache bound builds its inner grid on every read and
    # lets each batch go once it is yielded
    rule = SphereRule(4, "product_gauss", level=129)
    assert rule.node_count > 2 ** 22 and rule.batch_count == 32
    calls = []
    original = SphereRule._gauss_nodes
    monkeypatch.setattr(SphereRule, "_gauss_nodes",
                        lambda self: calls.append(1) or original(self))
    for _ in range(2):
        assert sum(len(w) for _, w in rule.batches()) == rule.node_count
    assert len(calls) == 2 and rule._batches is None


@pytest.mark.parametrize("d", [*range(1, 13), 40])
def test_sobol_points_are_scipys_bit_for_bit(d):
    with warnings.catch_warnings():
        # scipy warns on a count that is not a power of two
        warnings.simplefilter("ignore", UserWarning)
        for seed in (0, 7, 5 * 1000003 + 31, 2 ** 40 + 3):
            for n in (1, 3, 64, 2048, 16384):
                ref = stats.qmc.Sobol(d=d, scramble=True, seed=seed).random(n)
                assert np.array_equal(quadrature._sobol(d, n, seed), ref)


def test_ndtri_is_the_normal_quantile_bit_for_bit():
    u = np.random.default_rng(3).random(10 ** 6)
    u[:4] = 0.0, 1.0, 1e-15, 1 - 1e-15
    u = np.clip(u, 1e-15, 1 - 1e-15)
    assert np.array_equal(special.ndtri(u), stats.norm.ppf(u))


@pytest.mark.parametrize("dim, seed", [(4, 0), (6, 5), (8, 3)])
def test_qmc_batches_are_the_scipy_formulas_bit_for_bit(dim, seed):
    rule = SphereRule(dim, "quasi_monte_carlo", node_count=2 ** 12, seed=seed)
    for b, (pts, _) in enumerate(rule.batches()):
        assert np.array_equal(pts, scipy_sobol_sphere(dim, 128,
                                                      seed * 1000003 + b))


def test_sobol_points_refuse_what_the_table_cannot_give_by_name():
    with pytest.raises(ValueError, match="d <= 21201.*: 21202, 8"):
        quadrature._sobol(21202, 8, 0)
    for n in (0, 2 ** 30 + 1):
        with pytest.raises(ValueError, match=rf"1 <= n <= 2\^30: 2, {n}$"):
            quadrature._sobol(2, n, 0)
    # as before, numpy refuses a negative seed
    with pytest.raises(ValueError, match="negative"):
        quadrature._sobol(2, 8, -1)


def _fresh_python(code):
    """Standard output of `code` run in a fresh interpreter on this cbplab."""
    src = os.path.dirname(os.path.dirname(cbplab.__file__))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src}).stdout


#: touches every scipy routine cbplab calls, and prints what it computed
_PIPELINE = (
    "import zlib\n"
    "import cbplab\n"
    "from cbplab import quadrature\n"
    "rule = cbplab.SphereRule(6, 'quasi_monte_carlo', 2 ** 10, 3)\n"
    "nodes = rule.nodes()\n"
    "assert len(nodes) == 2 ** 10\n"
    "grid = cbplab.make_grid(8, 64, reduction='none', seed=5)\n"
    "body = cbplab.mollify(cbplab.ComplexLqBall(2, 4.0), 0.2)\n"
    "xi = cbplab.make_grid(4, 8, 'orbit_reduced').points[1]\n"
    "[sample] = cbplab.ft_values(body, xi, [1.5])\n"
    "assert sample.method == 'fractional'\n"
    "[pair] = cbplab.pairing_oracle(\n"
    "    body, xi, [2.0], cbplab.SphereRule(4, 'product_gauss', level=8))\n"
    "atoms = cbplab.symmetric_harmonic_atoms(3, 12)\n"
    "print(*(zlib.crc32(x.tobytes())\n"
    "        for x in (nodes, grid.points, body._power_form[1])),\n"
    "      sample.value, pair.value, cbplab.sphere_area(7),\n"
    "      *(list(a.c_poly.items()) for a in atoms))\n")


def test_the_pipeline_imports_no_scipy_subpackage():
    # importing scipy.stats costs about 17 MB and 0.4 s; scipy.integrate and
    # scipy.interpolate (with optimize, sparse, spatial and fft) 23 MB;
    # scipy.special and scipy.linalg 30 MB and 0.35 s; numpy.polynomial,
    # which numpy imports only on first use, 0.8 MB
    code = (_PIPELINE + "import sys\n"
            "print(*(m for m in [*('scipy.' + m for m in ('stats', "
            "'integrate', 'interpolate', 'optimize', 'sparse', 'spatial', "
            "'fft', 'special', 'linalg')), 'numpy.polynomial']\n"
            "        if m in sys.modules))\n")
    assert _fresh_python(code).splitlines()[-1] == ""


def test_the_pipeline_is_the_same_in_either_import_order():
    # cbplab loads the extensions itself, or takes the ones the scipy
    # packages loaded; either way the packages then hand out those same
    # ufuncs and LAPACK wrappers
    packages = "from scipy import linalg, special\n"
    same = ("print(special._ufuncs is quadrature._ufuncs,\n"
            "      special.ndtri is quadrature._ufuncs.ndtri,\n"
            "      special.eval_gegenbauer is quadrature._ufuncs.eval_gegenbauer,"
            "\n      linalg.lapack.dsyevr is quadrature._flapack.dsyevr)\n")
    after = _fresh_python(_PIPELINE + packages + same).splitlines()
    before = _fresh_python(packages + _PIPELINE + same).splitlines()
    assert after == before
    assert after[-1].split() == ["True"] * 4


@pytest.mark.parametrize("scipy_first", [False, True])
def test_direct_qags_is_scipy_quad_in_either_import_order(scipy_first):
    # cbplab loads the extension itself, or takes the one scipy.integrate
    # loaded; either way scipy.integrate.quad then runs that same module
    code = ("from scipy import integrate\n" * scipy_first
            + "from cbplab import quadrature\n"
            "f = lambda t: t ** -0.9 + 3.0 * t\n"
            "mid, err, ier = quadrature._quadpack()._qagse(f, 1e-3, 1.0, (), "
            "0, 1.49e-8, 1.49e-8, 200)\n"
            "from scipy import integrate\n"
            "from scipy.integrate import _quadpack\n"
            "print((mid, err) == integrate.quad(f, 1e-3, 1.0, limit=200), "
            "ier, quadrature._quadpack() is _quadpack)\n")
    assert _fresh_python(code).split() == ["True", "0", "True"]
