import math

import numpy as np
import pytest
from scipy import special

from cbplab.bodies import (ComplexLqBall, EuclideanBall, RadialPerturbation,
                           mollify)
from cbplab.fourier import (FtSample, UnsupportedRouteError,
                            _gauss_jacobi, _gauss_legendre,
                            _harmonic_bump_moment, _pairing_core,
                            classical_ft_constant, classical_multiplier,
                            ft_derivative_route, ft_fractional_route,
                            ft_multiplier_route, ft_value, pairing_oracle,
                            parseval_check, sph_identity_check)
from cbplab.frames import make_grid, rotate
from cbplab.harmonics import symmetric_harmonic_atoms
from cbplab.quadrature import SphereRule, sphere_area


def unit(dim, seed=0):
    g = np.random.Generator(np.random.Philox(key=seed))
    x = g.standard_normal(dim)
    return x / np.linalg.norm(x)


def test_gamma_identity_for_the_classical_constant():
    for d in (4, 6, 8):
        for p in (1.0, 2.0, 3.0):
            prod = classical_ft_constant(d, p) * classical_ft_constant(d, d - p)
            assert prod == pytest.approx((2.0 * math.pi) ** d, rel=1e-12)


def test_degree_zero_multiplier_is_the_classical_constant():
    for d in (4, 8):
        for p in (1.5, 2.0, 3.0):
            assert classical_multiplier(0, p, d) == pytest.approx(
                classical_ft_constant(d, p), rel=1e-12)


def test_derivative_route_on_the_ball():
    # (|x|^{-p})^ = c(d, p) |y|^{-(d-p)}, so the sample at a unit direction
    # must equal the classical constant
    for d, m in [(4, 0), (6, 0), (6, 1), (8, 1)]:
        p = d - 2 - 2 * m
        xi = unit(d, seed=d + m)
        sample = ft_derivative_route(EuclideanBall(d), xi, m)
        assert sample.method == "derivative"
        assert sample.value == pytest.approx(
            classical_ft_constant(d, p), rel=1e-3)


def test_fractional_route_on_the_ball_dim4():
    # q = 1 in dim 4 targets p = 1 and c(4, 1) = 4 pi^2
    xi = unit(4, seed=1)
    sample = ft_fractional_route(EuclideanBall(4), xi, 1.0)
    assert sample.value == pytest.approx(4.0 * math.pi ** 2, rel=0.02)
    assert sample.value == pytest.approx(classical_ft_constant(4, 1.0),
                                         rel=0.02)


def test_pairing_oracle_on_the_ball():
    xi = unit(6, seed=2)
    sample = pairing_oracle(EuclideanBall(6), xi, 2.0)
    truth = classical_ft_constant(6, 2.0)
    assert abs(sample.value - truth) < 3.0 * sample.stderr + 0.01 * truth


def test_pairing_oracle_rejects_wide_bumps():
    with pytest.raises(ValueError):
        pairing_oracle(EuclideanBall(6), unit(6, seed=3), 2.0, sigma=0.3)


def test_multiplier_route_on_the_ball():
    xi = unit(6, seed=4)
    sample = ft_multiplier_route(EuclideanBall(6), xi, 2.0, max_degree=4,
                                 tail_degree=8)
    truth = classical_ft_constant(6, 2.0)
    assert abs(sample.value - truth) < 3.0 * sample.stderr + 0.01 * truth
    # rho^p = 1 has only a degree-0 component, and lambda(0, p) is exact
    assert sample.value == pytest.approx(truth, rel=1e-10)


def test_pairing_oracle_audits_the_closed_form_multiplier():
    # calibrate lambda(4, 2) on R^6 against one degree-4 symmetric atom at
    # the direction where the atom peaks; the exact bump moment of a
    # degree-4 harmonic makes a single bump width unbiased
    d, j, p, sigma = 6, 4, 2.0, 0.2
    atom = [a for a in symmetric_harmonic_atoms(d // 2, j) if a.degree == j][0]
    probe = SphereRule(d, "quasi_monte_carlo", node_count=2 ** 12,
                       seed=101).nodes()
    xi = probe[int(np.argmax(np.abs(atom(probe))))]
    ref = float(atom(xi[None, :])[0])
    rule = SphereRule(d, "quasi_monte_carlo", node_count=2 ** 19, seed=13)
    value, stderr, _ = _pairing_core(
        atom, d, xi, p, sigma, rule, levels=1,
        masses=[_harmonic_bump_moment(d, p, j, sigma)])
    lam, err = value / ref, abs(stderr / ref)
    assert 0.0 < err < 0.01 * abs(lam)
    assert abs(lam - classical_multiplier(j, p, d)) < 3.0 * err


def test_routes_agree_on_a_mollified_body():
    body = mollify(ComplexLqBall(3, 4.0), 0.2)
    xi = unit(6, seed=5)
    der = ft_derivative_route(body, xi, 1)
    par = pairing_oracle(body, xi, 2.0, sigma=0.1)
    mul = ft_multiplier_route(body, xi, 2.0, max_degree=8, tail_degree=16)
    assert der.agrees_with(par, factor=4.0)
    assert der.agrees_with(mul, factor=4.0)


def test_ft_samples_constant_on_rotation_orbits():
    body = mollify(ComplexLqBall(2, 4.0), 0.2)
    xi = unit(4, seed=6)
    base = ft_derivative_route(body, xi, 0)
    for theta in (0.7, 1.9, 3.1):
        other = ft_derivative_route(body, rotate(xi, theta), 0)
        assert base.agrees_with(other)
        assert abs(other.value - base.value) <= max(
            3.0 * math.hypot(base.stderr, other.stderr),
            1e-8 * abs(base.value))


def test_ft_value_dispatch():
    body = EuclideanBall(6)
    xi = unit(6, seed=7)
    assert ft_value(body, xi, 2.0).method == "derivative"
    assert ft_value(body, xi, 3.5).method == "fractional"
    assert ft_value(body, xi, 2.0, method="pairing").method == "pairing"
    with pytest.raises(UnsupportedRouteError):
        ft_value(body, xi, 3.5, method="derivative")
    with pytest.raises(UnsupportedRouteError):
        ft_value(body, xi, 0.5)  # q = 2n - p - 2 outside (0, 2)


def test_ft_value_passes_its_rule_to_the_pairing_oracle():
    body = ComplexLqBall(3, 4.0)
    xi = unit(6, seed=10)
    rule = SphereRule(6, "quasi_monte_carlo", node_count=2 ** 14, seed=3)
    got = ft_value(body, xi, 2.0, rule=rule, method="pairing")
    want = pairing_oracle(body, xi, 2.0, rule=rule)
    assert (got.value, got.stderr) == (want.value, want.stderr)


def test_invariance_is_required_by_symmetry_routes():
    def wiggle(theta):
        theta = np.atleast_2d(theta)
        return np.cos(4.0 * theta[:, 0])

    body = RadialPerturbation(EuclideanBall(6), 2.0, 0.05, wiggle,
                              bump_id="wiggle")
    xi = unit(6, seed=8)
    with pytest.raises(UnsupportedRouteError):
        ft_derivative_route(body, xi, 1)
    with pytest.raises(UnsupportedRouteError):
        ft_multiplier_route(body, xi, 2.0)
    # the pairing oracle needs no invariance
    sample = pairing_oracle(body, xi, 2.0, sigma=0.1,
                            rule=SphereRule(6, "quasi_monte_carlo",
                                            node_count=2 ** 16, seed=9))
    assert np.isfinite(sample.value)


def test_sph_identity():
    for q in (-1.25, -1.5, -1.75):
        out = sph_identity_check(np.array([0.3, -0.4]), q)
        assert out["rel_gap"] < 1e-8


def test_parseval_on_balls():
    grid = make_grid(4, 64, reduction="orbit_reduced")
    out = parseval_check(EuclideanBall(4), EuclideanBall(4), 2.0, grid)
    assert out["rel_gap"] < 0.01


def test_agrees_with_uses_combined_error():
    xi = np.array([1.0, 0.0, 0.0, 0.0])
    a = FtSample(xi, 2.0, 1.0, 0.1, "pairing")
    b = FtSample(xi, 2.0, 1.25, 0.05, "derivative")
    assert a.agrees_with(b)
    c = FtSample(xi, 2.0, 1.6, 0.05, "derivative")
    assert not a.agrees_with(c)


def _uncached_bump_moment(d, p, j, sigma, r_nodes=600, t_nodes=400):
    """_harmonic_bump_moment with its Gauss tables made on every call."""
    nu = (d - 2) / 2.0
    t, wt = special.roots_jacobi(t_nodes, (d - 3) / 2.0, (d - 3) / 2.0)
    gegen = (special.eval_gegenbauer(j, nu, t)
             / special.eval_gegenbauer(j, nu, 1.0))
    hi = 1.0 + 15.0 * sigma
    r, wr = np.polynomial.legendre.leggauss(r_nodes)
    r = 0.5 * hi * (r + 1.0)
    wr = 0.5 * hi * wr
    expo = (-(r[:, None] ** 2 - 2.0 * r[:, None] * t[None, :] + 1.0)
            / (2.0 * sigma ** 2))
    inner = np.exp(expo) @ (wt * gegen)
    radial = float(np.dot(wr, r ** (p - 1) * inner))
    return ((2.0 * math.pi * sigma ** 2) ** (-d / 2.0)
            * sphere_area(d - 1) * radial)


def test_bump_moments_read_cached_read_only_gauss_tables():
    for d, p, j, sigma in [(8, 4.0, 0, 0.2), (8, 4.0, 0, 0.1),
                           (6, 2.0, 4, 0.2), (4, 1.5, 0, 0.05)]:
        for _ in range(2):  # the second call reads the cached tables
            assert (_harmonic_bump_moment(d, p, j, sigma)
                    == _uncached_bump_moment(d, p, j, sigma))
    assert _gauss_legendre(600) is _gauss_legendre(600)
    for table in (_gauss_legendre(600), _gauss_jacobi(400, 2.5)):
        for arr in table:
            with pytest.raises(ValueError):
                arr[0] = 0.0
