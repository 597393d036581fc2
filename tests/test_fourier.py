import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import interpolate, special

from cbplab import fourier
from cbplab.bodies import ComplexLqBall, EuclideanBall, mollify
from cbplab.fourier import (FtSample, UnsupportedRouteError,
                            _gauss_jacobi, _gauss_legendre,
                            _harmonic_bump_moments, _pairing_core,
                            classical_multiplier,
                            ft_derivative_route, ft_multiplier_route,
                            ft_values, pairing_oracle)
from cbplab.frames import make_frame, make_grid
from cbplab.harmonics import symmetric_harmonic_atoms
from cbplab.quadrature import Estimate, SphereRule, sphere_area
from cbplab.sections import parallel_sections
from checks import (WiggledBall, agrees, bump_moment, parseval_check, rotate,
                    sph_identity_check, unit)


def test_gamma_identity_for_the_classical_constant():
    for d in (4, 6, 8):
        for p in (1.0, 2.0, 3.0):
            prod = (classical_multiplier(0, p, d)
                    * classical_multiplier(0, d - p, d))
            assert prod == pytest.approx((2.0 * math.pi) ** d, rel=1e-12)


def test_degree_zero_multiplier_is_the_classical_constant():
    # c(d, p) = 2^{d-p} pi^{d/2} Gamma((d-p)/2) / Gamma(p/2), bit for bit
    for d in range(4, 11):
        for p in (0.5, 1.0, 1.5, 2.0, 3.0, d - 0.5):
            assert classical_multiplier(0, p, d) == (
                2.0 ** (d - p) * math.pi ** (d / 2.0)
                * special.gamma((d - p) / 2.0) / special.gamma(p / 2.0))


def test_derivative_route_on_the_ball():
    # (|x|^{-p})^ = c(d, p) |y|^{-(d-p)}, so the sample at a unit direction
    # must equal the classical constant
    for d, m in [(4, 0), (6, 0), (6, 1), (8, 1)]:
        p = d - 2 - 2 * m
        xi = unit(d, seed=d + m)
        sample = ft_derivative_route(EuclideanBall(d), xi, m,
                                     fourier.default_section_rule(d))
        assert sample.method == "derivative"
        assert sample.value == pytest.approx(
            classical_multiplier(0, p, d), rel=1e-3)


@pytest.mark.parametrize("value", [2.0, -2.0])
def test_derivative_route_flags_an_error_bar_above_a_quarter_of_the_value(
        monkeypatch, value):
    # the noise gate lives in the derivative route: exactly a quarter of
    # |value| passes, the next float above it is flagged, and m = 0 is not
    # gated; the sample keeps its value and error bar either way
    def laplacian(body, frame, m, rule, stderr):
        return Estimate(value, stderr, 1, f"laplacian_m{m}")

    xi = unit(6, seed=3)
    rule = fourier.default_section_rule(6)
    scale = 4.0 * math.pi
    for stderr, flags in [(0.5, ()), (np.nextafter(0.5, 1.0), ("noisy",))]:
        monkeypatch.setattr(fourier, "laplacian_at_zero",
                            lambda *args, s=stderr: laplacian(*args, s))
        sample = ft_derivative_route(EuclideanBall(6), xi, 1, rule)
        assert sample.flags == flags, stderr
        assert (sample.value, sample.stderr) == (-scale * value,
                                                 scale * stderr)
    monkeypatch.setattr(fourier, "section_volume",
                        lambda *args: Estimate(value, 10.0, 1, "section"))
    assert ft_derivative_route(EuclideanBall(6), xi, 0, rule).flags == ()


def test_fractional_route_on_the_ball_dim4():
    # q = 1 in dim 4 targets p = 1 and c(4, 1) = 4 pi^2
    xi = unit(4, seed=1)
    [sample] = ft_values(EuclideanBall(4), xi, [1.0], None, "fractional")
    assert sample.value == pytest.approx(4.0 * math.pi ** 2, rel=0.02)
    assert sample.value == pytest.approx(classical_multiplier(0, 1.0, 4),
                                         rel=0.02)


def _assert_is_scipys_spline(x, y, ours):
    ref = interpolate.CubicSpline(x, y, bc_type=((1, 0.0), "not-a-knot"))
    assert np.array_equal(ours.c, ref.c)
    # the knots, points between and outside them, and past the last knot
    # up to 2% beyond it (the route reads up to the cutoff, just past it)
    mid = (x[:-1] + x[1:]) / 2
    ts = np.concatenate([x, mid, x[:-1] + 1e-3 * np.diff(x), [-0.1 * x[1]],
                         x[-1] + np.linspace(0.0, 0.02, 9) * x[-1]])
    assert [ours(t) for t in ts] == [float(ref(t)) for t in ts]
    assert [ours(float(t)) for t in ts] == [float(ref(t)) for t in ts]


@given(st.integers(4, 120), st.integers(0, 2 ** 32 - 1))
def test_profile_spline_is_scipys_cubic_spline_bit_for_bit(count, seed):
    rng = np.random.default_rng(seed)
    x = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0, count - 1))])
    y = rng.normal(size=count)
    if np.all(np.diff(x) > 0):
        _assert_is_scipys_spline(x, y, fourier._ProfileSpline(x, y))


def test_section_profile_is_scipys_cubic_spline_bit_for_bit():
    body = mollify(ComplexLqBall(2, 4.0), 0.2)
    xi = make_grid(4, 8, reduction="orbit_reduced").points[3]
    rule = fourier.default_section_rule(4)
    spline, cutoff, _ = fourier.section_profile(body, xi, rule)
    ts = np.linspace(0.0, cutoff * (1.0 - 1e-9), fourier._PROFILE_POINTS)
    vals = [e.value for e in parallel_sections(
        body, make_frame(xi), np.stack([ts, np.zeros_like(ts)], axis=1), rule)]
    _assert_is_scipys_spline(ts, vals, spline)


def test_pairing_oracle_on_the_ball():
    xi = unit(6, seed=2)
    [sample] = pairing_oracle(EuclideanBall(6), xi, [2.0],
                              SphereRule.qmc(6, 2 ** 19, 5))
    truth = classical_multiplier(0, 2.0, 6)
    assert abs(sample.value - truth) < 3.0 * sample.stderr + 0.01 * truth


def test_pairing_oracle_shares_one_pass_bit_for_bit():
    # several exponents in one call give, in order, each exponent's sample
    # of a one-exponent call, to the bit
    rule = SphereRule.qmc(4, 2 ** 14, 3)
    xi = unit(4, seed=11)
    ps = [2.0, 1.5, 3.0]
    for body in (EuclideanBall(4), mollify(ComplexLqBall(2, 4.0), 0.2)):
        together = pairing_oracle(body, xi, ps, rule=rule)
        assert [s.exponent for s in together] == ps
        for p, got in zip(ps, together):
            [alone] = pairing_oracle(body, xi, [p], rule=rule)
            assert (got.value, got.stderr, got.flags) == (
                alone.value, alone.stderr, alone.flags), (body.spec(), p)
    with pytest.raises(ValueError):
        pairing_oracle(EuclideanBall(4), xi, [2.0, 4.0], rule=rule)


def test_multiplier_route_on_the_ball():
    xi = unit(6, seed=4)
    sample = ft_multiplier_route(EuclideanBall(6), xi, 2.0)
    truth = classical_multiplier(0, 2.0, 6)
    assert abs(sample.value - truth) < 3.0 * sample.stderr + 0.01 * truth
    # rho^p = 1 has only a degree-0 component, and lambda(0, p) is exact
    assert sample.value == pytest.approx(truth, rel=1e-10)


def test_pairing_oracle_audits_the_closed_form_multiplier():
    # calibrate lambda(4, 2) on R^6 against one degree-4 symmetric atom at
    # the direction where the atom peaks, with the exact degree-4 bump
    # moments at both pairing widths
    d, j, p = 6, 4, 2.0
    atom = [a for a in symmetric_harmonic_atoms(d // 2, j) if a.degree == j][0]
    probe = SphereRule.qmc(d, 2 ** 12, 101).nodes()
    xi = probe[int(np.argmax(np.abs(atom(probe))))]
    ref = float(atom(xi[None, :])[0])
    rule = SphereRule.qmc(d, 2 ** 19, 13)
    [(value, stderr, _)] = _pairing_core(lambda x: [atom(x)], d, xi, [p],
                                         rule, j)
    lam, err = value / ref, abs(stderr / ref)
    assert 0.0 < err < 0.01 * abs(lam)
    assert abs(lam - classical_multiplier(j, p, d)) < 3.0 * err


def test_routes_agree_on_a_mollified_body():
    body = mollify(ComplexLqBall(3, 4.0), 0.2)
    xi = unit(6, seed=5)
    der = ft_derivative_route(body, xi, 1, fourier.default_section_rule(6))
    [par] = pairing_oracle(body, xi, [2.0], SphereRule.qmc(6, 2 ** 19, 5))
    mul = ft_multiplier_route(body, xi, 2.0)
    assert agrees(der, par, factor=4.0)
    assert agrees(der, mul, factor=4.0)


def test_ft_samples_constant_on_rotation_orbits():
    body = mollify(ComplexLqBall(2, 4.0), 0.2)
    xi = unit(4, seed=6)
    rule = fourier.default_section_rule(4)
    base = ft_derivative_route(body, xi, 0, rule)
    for theta in (0.7, 1.9, 3.1):
        other = ft_derivative_route(body, rotate(xi, theta), 0, rule)
        assert agrees(base, other)
        assert abs(other.value - base.value) <= max(
            3.0 * math.hypot(base.stderr, other.stderr),
            1e-8 * abs(base.value))


def test_ft_value_dispatch():
    body = EuclideanBall(6)
    xi = unit(6, seed=7)

    def route(p, method=None):
        [sample] = ft_values(body, xi, [p], None, method=method)
        return sample.method

    assert route(2.0) == "derivative"
    assert route(3.5) == "fractional"
    assert route(2.0, method="pairing") == "pairing"
    with pytest.raises(UnsupportedRouteError):
        route(3.5, method="derivative")
    with pytest.raises(UnsupportedRouteError,
                       match="no implemented route reaches p=0.5 in dim 6"):
        route(0.5)  # q = 2n - p - 2 outside (0, 2)
    with pytest.raises(UnsupportedRouteError, match="fractional route"):
        route(2.0, method="fractional")  # q = 2


def test_an_unknown_method_is_refused_before_any_work(monkeypatch):
    def no_profile(*args):
        raise AssertionError("a section profile was computed")

    monkeypatch.setattr(fourier, "section_profile", no_profile)
    names = "derivative, fractional, pairing, multiplier"
    with pytest.raises(UnsupportedRouteError,
                       match=f"unknown method 'derivtive'; choose one of "
                             f"{names}"):
        ft_values(EuclideanBall(4), unit(4), [1.0], None, method="derivtive")
    with pytest.raises(UnsupportedRouteError, match="unknown method"):
        fourier._route(1.0, 2, "derivtive")


def test_the_multiplier_route_refuses_a_rule_before_any_work(monkeypatch):
    # the route expands on its own harmonic tables: a rule would be read
    # by nothing, yet name a second result for the same value
    def no_expansion(*args):
        raise AssertionError("the multiplier route ran")

    monkeypatch.setattr(fourier, "ft_multiplier_route", no_expansion)
    with pytest.raises(UnsupportedRouteError,
                       match="reads no rule, not quasi_monte_carlo on S\\^1"):
        ft_values(EuclideanBall(4), unit(4), [2.0],
                  SphereRule.qmc(2, 64, 0), method="multiplier")
    with pytest.raises(UnsupportedRouteError,
                       match="reads no rule, not product_gauss on S\\^1"):
        ft_values(EuclideanBall(4), unit(4), [2.0],
                  SphereRule.gauss(2, 8), method="multiplier")


@pytest.fixture(scope="module")
def b42_alone():
    """mollify(clq(2, 4), 0.2), a direction, and one one-exponent
    ft_values call per exponent the routes reach in dim 4 (p = 2
    derivative, 1 and 1.5 fractional)."""
    body = mollify(ComplexLqBall(2, 4.0), 0.2)
    xi = unit(4, seed=4)
    return body, xi, {p: ft_values(body, xi, [p], None)[0]
                      for p in (1.0, 1.5, 2.0)}


def _key(sample):
    return (sample.value, sample.stderr, sample.exponent, sample.method,
            sample.flags)


@given(good=st.lists(st.sampled_from([1.0, 1.5, 2.0]), max_size=5),
       bad=st.lists(st.sampled_from([0.0, 3.5, math.nan]), max_size=1),
       data=st.data())
def test_ft_values_routes_first_and_equals_one_exponent_calls(
        b42_alone, good, bad, data):
    body, xi, alone = b42_alone
    ps = data.draw(st.permutations(good + bad))
    calls = {"section_profile": [], "ft_derivative_route": []}
    with pytest.MonkeyPatch.context() as mp:
        for name, seen in calls.items():
            mp.setattr(fourier, name, lambda *args, f=getattr(fourier, name),
                       seen=seen, **kwargs: seen.append(args)
                       or f(*args, **kwargs))
        if bad:
            with pytest.raises(UnsupportedRouteError):
                ft_values(body, xi, ps, None)
            assert calls == {"section_profile": [], "ft_derivative_route": []}
            return
        got = ft_values(body, xi, ps, None)
    assert [_key(s) for s in got] == [_key(alone[p]) for p in ps]
    # one profile serves every fractional exponent; a repeat is evaluated
    # once
    assert len(calls["section_profile"]) == int(bool({1.0, 1.5} & set(ps)))
    assert len(calls["ft_derivative_route"]) == int(2.0 in ps)


def test_ft_value_passes_its_rule_to_the_pairing_oracle():
    body = ComplexLqBall(3, 4.0)
    xi = unit(6, seed=10)
    rule = SphereRule.qmc(6, 2 ** 14, 3)
    [got] = ft_values(body, xi, [2.0], rule=rule, method="pairing")
    [want] = pairing_oracle(body, xi, [2.0], rule=rule)
    assert (got.value, got.stderr) == (want.value, want.stderr)


def _on_default_rule(route, body, xi, p):
    """The sample of `route` at p on the rule ft_values defaults it to."""
    section = fourier.default_section_rule(body.dim)
    if route == "derivative":
        return ft_derivative_route(body, xi, (body.dim - 2 - round(p)) // 2,
                                   section)
    if route == "fractional":
        return fourier.fractional_from_profile(
            *fourier.section_profile(body, xi, section), p,
            body.dim - p - 2, body.dim // 2)
    [sample] = pairing_oracle(body, xi, [p],
                              SphereRule.qmc(body.dim, 2 ** 19, 5))
    return sample


@pytest.mark.parametrize("route, body, p, method", [
    ("derivative", lambda: EuclideanBall(6), 2.0, None),
    ("fractional", lambda: mollify(ComplexLqBall(2, 4.0), 0.2), 1.5, None),
    ("pairing", lambda: EuclideanBall(4), 1.0, "pairing")],
    ids=["derivative", "fractional", "pairing"])
def test_ft_values_holds_each_routes_default_rule(route, body, p, method):
    # a None rule gives, bit for bit, the route on its default rule
    body = body()
    xi = unit(body.dim, seed=11)
    [got] = ft_values(body, xi, [p], None, method=method)
    assert got.method == route
    assert _key(got) == _key(_on_default_rule(route, body, xi, p))


def test_invariance_is_required_by_symmetry_routes():
    body = WiggledBall(6, 0.05, 4.0)
    xi = unit(6, seed=8)
    with pytest.raises(UnsupportedRouteError):
        ft_derivative_route(body, xi, 1, fourier.default_section_rule(6))
    with pytest.raises(UnsupportedRouteError):
        ft_multiplier_route(body, xi, 2.0)
    # the pairing oracle needs no invariance
    [sample] = pairing_oracle(body, xi, [2.0],
                              rule=SphereRule.qmc(6, 2 ** 16, 9))
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
    a = FtSample(2.0, 1.0, 0.1, "pairing")
    b = FtSample(2.0, 1.25, 0.05, "derivative")
    assert agrees(a, b)
    c = FtSample(2.0, 1.6, 0.05, "derivative")
    assert not agrees(a, c)


def _uncached_bump_moment(d, p, j, sigma, r_nodes=600, t_nodes=400):
    """_harmonic_bump_moments at one exponent, with its Gauss tables made on
    every call."""
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


@pytest.mark.parametrize("sigma", [0.2, 0.1])
@pytest.mark.parametrize("d, p", [(4, 1.0), (4, 1.5), (6, 2.0), (8, 2.0)])
def test_the_bump_moment_matches_its_closed_form(d, p, sigma):
    # the 600 x 400 quadrature is within 4.2e-12 here (at d = 4, p = 1.5,
    # sigma = 0.2); at p = 0.5 and sigma = 0.2 it misses r^(p-1)'s
    # singularity at 0 by 3e-6 relative (ROADMAP, Parked)
    assert _harmonic_bump_moments(d, [p], 0, sigma)[0] == pytest.approx(
        bump_moment(d, p, sigma), rel=1e-11, abs=0.0)


def test_bump_moments_read_cached_read_only_gauss_tables():
    for d, p, j, sigma in [(8, 4.0, 0, 0.2), (8, 4.0, 0, 0.1),
                           (6, 2.0, 4, 0.2), (4, 1.5, 0, 0.05)]:
        for _ in range(2):  # the second call reads the cached tables
            assert (_harmonic_bump_moments(d, [p], j, sigma)[0]
                    == _uncached_bump_moment(d, p, j, sigma))
    # the exponents of one call share the radial profile, bit for bit
    assert (_harmonic_bump_moments(8, [4.0, 1.5, 2.0], 0, 0.2)
            == [_uncached_bump_moment(8, p, 0, 0.2) for p in (4.0, 1.5, 2.0)])
    assert _gauss_legendre(600) is _gauss_legendre(600)
    for table in (_gauss_legendre(600), _gauss_jacobi(400, 2.5)):
        for arr in table:
            with pytest.raises(ValueError):
                arr[0] = 0.0
