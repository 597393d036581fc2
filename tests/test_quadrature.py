import math

import numpy as np
import pytest

from cbplab import quadrature
from cbplab.bodies import ComplexLqBall, mollify
from cbplab.frames import make_frame
from cbplab.quadrature import (Estimate, PoisonedEstimateError, SphereRule,
                               fractional_radial, integrate_sphere,
                               integrate_subsphere, kahan_reduce, sphere_area)


def kappa(d):
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def test_sphere_area_matches_gamma_formula():
    assert sphere_area(4) == pytest.approx(2.0 * math.pi ** 2)
    assert sphere_area(6) == pytest.approx(math.pi ** 3)
    assert sphere_area(8) == pytest.approx(math.pi ** 4 / 3.0)


def test_weights_sum_to_area_for_every_kind():
    for kind, kw in [("monte_carlo", {"node_count": 2 ** 12}),
                     ("quasi_monte_carlo", {"node_count": 2 ** 12}),
                     ("product_gauss", {"level": 8})]:
        rule = SphereRule(6, kind, seed=3, **kw)
        total = sum(float(np.sum(w)) for _, w in rule.batches())
        assert total == pytest.approx(sphere_area(6), rel=1e-12)


def test_nodes_live_on_the_sphere():
    for kind in ("monte_carlo", "quasi_monte_carlo"):
        rule = SphereRule(8, kind, node_count=2 ** 10, seed=5)
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
    for d, kind, tol in [(4, "monte_carlo", 5e-3),
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


def test_streamed_gauss_matches_materialized():
    # above the streaming threshold the same nodes arrive in outer slices
    small = SphereRule(4, "product_gauss", level=6)
    est1 = integrate_sphere(small, lambda x: x[:, 0] ** 4 + x[:, 2] ** 2)
    total = sum(float(np.dot(w, p[:, 0] ** 4 + p[:, 2] ** 2))
                for p, w in small.batches())
    assert total == pytest.approx(est1.value, rel=1e-14)


def test_stderr_shrinks_with_node_count():
    def f(x):
        return x[:, 0] ** 4
    coarse = integrate_sphere(SphereRule(6, "monte_carlo", node_count=2 ** 10,
                                         seed=4), f)
    fine = integrate_sphere(SphereRule(6, "monte_carlo", node_count=2 ** 16,
                                       seed=4), f)
    assert fine.stderr < coarse.stderr / 3.0


def test_error_bar_is_calibrated():
    # the true value should land within 4 stderr for most seeds
    # int x1^6 over S^5: E[x1^6] = 5!! / (d (d+2) (d+4)) times the area
    truth = sphere_area(6) * 15.0 / (6.0 * 8.0 * 10.0)
    hits = 0
    for seed in range(12):
        est = integrate_sphere(
            SphereRule(6, "monte_carlo", node_count=2 ** 12, seed=seed),
            lambda x: x[:, 0] ** 6)
        if abs(est.value - truth) < 4.0 * est.stderr:
            hits += 1
    assert hits >= 10


def test_poisoned_estimate_raises_with_node():
    rule = SphereRule(4, "monte_carlo", node_count=2 ** 8, seed=1)

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


@pytest.mark.parametrize("kind, least", [("monte_carlo", 2),
                                         ("quasi_monte_carlo", 2),
                                         ("product_gauss", 1)])
def test_rules_need_enough_batches_for_their_error_bar(kind, least):
    for count in (least - 1, least - 2):
        with pytest.raises(ValueError, match="batch_count"):
            SphereRule(4, kind, node_count=64, batch_count=count)
    rule = SphereRule(4, kind, node_count=64, batch_count=least, level=4)
    est = integrate_sphere(rule, lambda x: np.ones(len(x)))
    assert est.value == pytest.approx(sphere_area(4), rel=1e-12)
    assert math.isfinite(est.stderr)


@pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
def test_fractional_radial_closed_form(q):
    # g = (1 - t^2) on [0, 1]: int (g - g(0)) t^{-1-q}
    # = -int_0^1 t^{1-q} dt - int_1^inf t^{-1-q} dt = -1/(2-q) - 1/q
    def g(t):
        t = float(t)
        return 1.0 - t ** 2 if t <= 1.0 else 0.0

    expected = -1.0 / (2.0 - q) - 1.0 / q
    assert fractional_radial(g, q, 1.0) == pytest.approx(expected, rel=1e-6)


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
    rule = SphereRule(4, "monte_carlo", node_count=2 ** 8, seed=1)
    batches = list(rule.batches())
    first, later = batches[1][0][5], batches[3][0][0]

    def bad(x):
        hit = np.all(x == first, axis=1) | np.all(x == later, axis=1)
        return np.where(hit, np.nan, 1.0)

    with pytest.raises(PoisonedEstimateError) as err:
        integrate_sphere(rule, bad)
    assert np.array_equal(err.value.node, first)


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
    rule = SphereRule(4, "product_gauss", level=129)
    assert rule.node_count > 2 ** 22
    calls = []
    original = SphereRule._gauss_nodes
    monkeypatch.setattr(SphereRule, "_gauss_nodes",
                        lambda self, *a, **k: calls.append(k)
                        or original(self, *a, **k))
    for _ in range(2):
        assert sum(len(w) for _, w in rule.batches()) == rule.node_count
    assert calls == [{"skip_outer": 1}] * 2
