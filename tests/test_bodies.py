import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cbplab.bodies import (ComplexLqBall, EuclideanBall, MollifiedBody,
                           RadialPerturbation, ScaledBody, _sum_squares,
                           convexity_probe, mollify)
from cbplab.busemann_petty import HarmonicBump
from cbplab.frames import rotate
from cbplab.harmonics import c_eval
from cbplab.quadrature import SphereRule
from cbplab.sections import volume
from cbplab.specs import parse_body
from checks import block_moduli, kappa, radial_metric


def unit_sample(dim, count=512, seed=0):
    g = np.random.Generator(np.random.Philox(key=seed))
    x = g.standard_normal((count, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_block_moduli():
    x = np.array([[3.0, 4.0, 0.0, 1.0]])
    assert np.allclose(block_moduli(x), [[5.0, 1.0]])


def test_ball_norm_is_euclidean():
    ball = EuclideanBall(6)
    x = unit_sample(6, 32, seed=1) * 2.5
    assert np.allclose(ball.norm(x), 2.5)
    assert ball.radial(unit_sample(6, 1, seed=2)[0]) == 1.0


def test_ball_volume_oracle():
    for d in (4, 6, 8):
        rule = SphereRule(d, "quasi_monte_carlo", node_count=2 ** 14, seed=3)
        est = volume(EuclideanBall(d), rule)
        assert est.value == pytest.approx(kappa(d), rel=1e-6)


def test_clq_volume_dirichlet_oracle():
    # complex l_q ball: Vol = pi^n Gamma(2/q+1)^n / Gamma(2n/q+1);
    # n=4, q=4 gives pi^6/32
    body = ComplexLqBall(4, 4.0)
    rule = SphereRule(8, "quasi_monte_carlo", node_count=2 ** 16, seed=4)
    est = volume(body, rule)
    assert est.value == pytest.approx(math.pi ** 6 / 32.0, rel=5e-3)


def test_clq_q2_is_the_ball():
    body = ComplexLqBall(3, 2.0)
    x = unit_sample(6, 64, seed=5) * 1.7
    assert np.allclose(body.norm(x), EuclideanBall(6).norm(x), rtol=1e-13)


def test_clq_norm_homogeneous_and_invariant():
    body = ComplexLqBall(4, 4.0)
    x = unit_sample(8, 64, seed=6)
    assert np.allclose(body.norm(3.0 * x), 3.0 * body.norm(x), rtol=1e-13)
    assert np.allclose(body.norm(rotate(x, 0.8)), body.norm(x), rtol=1e-12)
    # blockwise permutation symmetry
    perm = x[:, [2, 3, 0, 1, 6, 7, 4, 5]]
    assert np.allclose(body.norm(perm), body.norm(x), rtol=1e-13)


def test_scaled_body():
    ball = EuclideanBall(6)
    big = ScaledBody(ball, 2.0)
    x = unit_sample(6, 16, seed=7)
    assert np.allclose(big.norm(x), 0.5)
    assert big.r_min == big.r_max == 2.0
    assert radial_metric(big, ball) == pytest.approx(1.0, rel=1e-12)


def test_mollified_ball_stays_a_ball():
    # the smoothing is an average of rotations, so a ball is a fixed point
    body = mollify(EuclideanBall(6), 0.2)
    theta = unit_sample(6, 256, seed=8)
    assert np.allclose(body.radial(theta), 1.0, atol=1e-8)


def test_mollified_body_invariance_and_symmetry():
    body = mollify(ComplexLqBall(2, 4.0), 0.2)
    assert body.moduli_symmetric
    theta = unit_sample(4, 256, seed=9)
    r = body.radial(theta)
    assert np.allclose(body.radial(rotate(theta, 1.3)), r, atol=1e-10)
    # blockwise swap
    assert np.allclose(body.radial(theta[:, [2, 3, 0, 1]]), r, atol=1e-10)


def test_mollified_body_interpolates_towards_the_base():
    base = ComplexLqBall(2, 4.0)
    near = mollify(base, 0.02)
    far = mollify(base, 0.3)
    assert radial_metric(near, base) < radial_metric(far, base)
    assert radial_metric(near, base) < 5e-3


def test_mollify_rejects_a_body_not_moduli_symmetric():
    def wiggle(theta):
        theta = np.atleast_2d(theta)
        return np.cos(4.0 * theta[:, 0])

    body = RadialPerturbation(EuclideanBall(4), 2.0, 0.05, wiggle,
                              bump_id="wiggle")
    assert not body.moduli_symmetric
    with pytest.raises(ValueError, match="block moduli"):
        mollify(body, 0.2)


@pytest.mark.parametrize("max_degree", [-2, 3, 2.5, math.nan, math.inf])
def test_mollify_refuses_a_max_degree_not_even_and_nonnegative(monkeypatch,
                                                              max_degree):
    def no_build(self):
        raise AssertionError("the series was built")

    monkeypatch.setattr(MollifiedBody, "_build_series", no_build)
    with pytest.raises(ValueError, match="max_degree must be an even integer"):
        MollifiedBody(ComplexLqBall(2, 4.0), 0.2, max_degree=max_degree)


def test_mollified_body_is_convex():
    body = mollify(ComplexLqBall(2, 4.0), 0.2)
    report = convexity_probe(body, samples=2 ** 14, seed=10)
    assert report.violations == 0


def test_convexity_probe_flags_a_star_body():
    base = EuclideanBall(4)

    def wiggle(theta):
        theta = np.atleast_2d(theta)
        return np.cos(8.0 * theta[:, 0])

    body = RadialPerturbation(base, 2.0, 0.3, wiggle, bump_id="wiggle")
    report = convexity_probe(body, samples=2 ** 14, seed=11)
    assert report.violations > 0


def test_radial_perturbation_zero_amplitude_is_identity():
    base = mollify(ComplexLqBall(2, 4.0), 0.2)
    body = RadialPerturbation(base, 4.0, 0.0, lambda t: np.ones(len(np.atleast_2d(t))),
                              bump_id="const")
    assert radial_metric(body, base) < 1e-13


def test_radial_perturbation_rejects_lost_positivity():
    with pytest.raises(ValueError):
        RadialPerturbation(EuclideanBall(4), 2.0, 2.0,
                           lambda t: np.ones(len(np.atleast_2d(t))),
                           bump_id="const")


def _wiggle(theta):
    theta = np.atleast_2d(theta)
    return np.cos(4.0 * theta[:, 0])


@pytest.mark.parametrize("field", ["exponent", "amplitude"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_radial_perturbation_refuses_a_non_finite_field_by_name(field, bad):
    calls = []

    def bump(theta):
        calls.append(theta)
        return _wiggle(theta)

    fields = {"exponent": 2.0, "amplitude": 0.05, field: bad}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        RadialPerturbation(EuclideanBall(4), bump=bump, bump_id="wiggle",
                           **fields)
    assert calls == []  # refused before any sampling


@pytest.mark.parametrize("base", [ComplexLqBall(2, 4.0),  # 1 <= rho <= 2^1/4
                                  ScaledBody(EuclideanBall(4), 2.0)])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_radial_perturbation_refuses_bounds_past_the_float_range(base):
    with pytest.raises(ValueError, match="bounds overflow at exponent 4097"):
        RadialPerturbation(base, 4097, 0.01, bump=_wiggle, bump_id="wiggle")


def test_radial_perturbation_builds_a_valid_body_as_before():
    body = RadialPerturbation(EuclideanBall(4), 2.0, 0.05, _wiggle,
                              bump_id="wiggle")
    x = np.array([[1.0, 0, 0, 0], [0.6, 0, 0.8, 0], [0.5, 0.5, 0.5, 0.5]])
    assert (body.r_min, body.r_max) == (0.9733961166990268, 1.025914226416093)
    assert list(body.norm(x)) == [0.9840488504365432, 0.9820597489247793,
                                  0.9897559188119114]


def test_spec_round_trip():
    bodies = [EuclideanBall(8), ComplexLqBall(4, 4.0),
              ScaledBody(EuclideanBall(6), 0.9),
              mollify(ComplexLqBall(2, 4.0), 0.2)]
    for body in bodies:
        again = parse_body(body.spec())
        assert again.spec() == body.spec()
        theta = unit_sample(body.dim, 64, seed=12)
        assert np.allclose(again.radial(theta), body.radial(theta),
                           rtol=1e-12, atol=1e-12)


def _params(body):
    """Every number a body is built from, through its bases."""
    own = tuple(getattr(body, k, None)
                for k in ("dim", "q", "lam", "width", "max_degree"))
    base = getattr(body, "base", None)
    return (type(body).__name__,) + own + (
        _params(base) if base is not None else ())


@st.composite
def _bodies(draw, depth=2, dim=None):
    heads = ["ball", "clq"] + (["scale", "mollify"] if depth else [])
    head = draw(st.sampled_from(heads))
    if head == "ball":
        return EuclideanBall(dim or draw(st.sampled_from([4, 6, 8])))
    if head == "clq":
        n = dim // 2 if dim else draw(st.integers(2, 4))
        return ComplexLqBall(n, draw(st.floats(1.0, 64.0)))
    if head == "scale":
        return ScaledBody(draw(_bodies(depth - 1, dim)),
                          draw(st.floats(1e-3, 1e3)))
    # the series build is cheap in dimension 4 only
    base = draw(_bodies(depth - 1, 4))
    try:
        return mollify(base, draw(st.floats(0.05, 0.5)),
                       max_degree=draw(st.sampled_from([4, 8, 12, 16])))
    except ValueError:  # a series too short to stay positive
        assume(False)


@settings(max_examples=40, deadline=None)
@given(body=_bodies())
def test_every_body_spec_round_trips_exactly(body):
    again = parse_body(body.spec())
    assert again.spec() == body.spec()
    assert _params(again) == _params(body)
    x = unit_sample(body.dim, 16, seed=14)
    assert np.array_equal(again.norm(x), body.norm(x))


def test_default_specs_keep_their_short_form():
    assert (mollify(ComplexLqBall(2, 4.0), 0.1).spec()
            == "mollify:base=(clq:n=2,q=4),width=0.1")
    assert (ScaledBody(EuclideanBall(6), 0.9).spec()
            == "scale:base=(ball:dim=6),lam=0.9")
    assert (mollify(EuclideanBall(4), 0.1234567891, max_degree=8).spec()
            == "mollify:base=(ball:dim=4),width=0.1234567891,max_degree=8")


def test_radial_bounds_bracket_the_radial_function():
    for body in (ComplexLqBall(3, 4.0), mollify(ComplexLqBall(2, 4.0), 0.2)):
        theta = unit_sample(body.dim, 512, seed=13)
        r = body.radial(theta)
        assert np.all(r >= body.r_min - 1e-9)
        assert np.all(r <= body.r_max + 1e-9)


def _old_norm(body, x):
    """MollifiedBody.norm before the points-last layout: row-major moduli
    and power sums."""
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    flat = pts.reshape(-1, body.dim)
    r = np.linalg.norm(flat, axis=-1)
    xhat = flat / r[:, None]
    m2 = xhat[..., 0::2] ** 2 + xhat[..., 1::2] ** 2
    m2 /= np.sum(m2, axis=-1, keepdims=True)
    exps, coefs = body._power_form
    pows = [np.sum(m2 ** k, axis=1) for k in range(2, m2.shape[1] + 1)]
    rho = np.zeros(m2.shape[0])
    for exps_row, coef in zip(exps, coefs):
        term = None
        for j, e in enumerate(exps_row):
            if e:
                f = pows[j] if e == 1 else pows[j] ** e
                term = f if term is None else term * f
        rho += coef if term is None else coef * term
    out = (r / rho).reshape(pts.shape[:-1])
    return float(out[0]) if x.ndim == 1 else out.reshape(x.shape[:-1])


_MOLLIFIED = {}


def _mollified(n):
    """Mollified complex l_4 balls for n = 2, 3, 4; at n = 5, where the
    series build is too slow for a test, a body with a made-up power form
    (the evaluation does not care whether it came from a series)."""
    if n not in _MOLLIFIED:
        if n < 5:
            body = mollify(ComplexLqBall(n, 4.0), 0.2 if n < 4 else 0.1)
        else:
            body = object.__new__(MollifiedBody)
            body.dim = 2 * n
            g = np.random.Generator(np.random.Philox(key=n))
            exps = g.integers(0, 3, size=(12, n - 1))
            exps[0] = 0
            body._power_form = (exps, 1.0 + 0.1 * g.standard_normal(12))
        _MOLLIFIED[n] = body
    return _MOLLIFIED[n]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mollified_norm_is_bit_identical_to_the_row_major_form(n):
    body = _mollified(n)
    g = np.random.Generator(np.random.Philox(key=40 + n))
    for shape in [(1000, 2 * n), (3, 7, 2 * n), (2 * n,), (1, 2 * n)]:
        x = g.standard_normal(shape)
        new, old = body.norm(x), _old_norm(body, x)
        assert np.shape(new) == np.shape(old) == shape[:-1]
        assert np.array_equal(new, old)
    assert isinstance(body.norm(x[0]), float)


def _block_permutation(x, perm):
    cols = np.ravel([[2 * j, 2 * j + 1] for j in perm])
    return x[..., cols]


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32 - 1),
       t=st.floats(1e-3, 1e3), angle=st.floats(-7.0, 7.0))
def test_mollified_norm_is_homogeneous_and_invariant(n, seed, t, angle):
    body = _mollified(n)
    g = np.random.Generator(np.random.Philox(key=seed))
    x = g.standard_normal((64, 2 * n))
    v = body.norm(x)
    assert np.allclose(body.norm(t * x), t * v, rtol=1e-13, atol=0)
    assert np.allclose(body.norm(rotate(x, angle)), v, rtol=1e-13, atol=0)
    perm = g.permutation(n)
    assert np.allclose(body.norm(_block_permutation(x, perm)), v,
                       rtol=1e-13, atol=0)


@settings(max_examples=15, deadline=None)
@given(n=st.sampled_from([2, 3]), rows=st.integers(1, 20000),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mollified_norm_is_bit_identical_at_any_row_count(n, rows, seed):
    body = _mollified(n)
    x = np.random.Generator(np.random.Philox(key=seed)).standard_normal(
        (rows, 2 * n))
    assert np.array_equal(body.norm(x), _old_norm(body, x))


# ---------------------------------------------------------------------------
# points-last gauges: bit for bit the row-major forms, whatever the layout
# ---------------------------------------------------------------------------

def test_sum_squares_is_numpys_row_reduction():
    # pins numpy's summation order: if a numpy release reorders the row
    # reduction, this fails before any body does
    g = np.random.Generator(np.random.Philox(key=50))
    for dim in range(2, 25):
        x = g.standard_normal((4000, dim)) * np.exp(
            3.0 * g.standard_normal((4000, dim)))
        assert np.array_equal(np.sqrt(_sum_squares(np.ascontiguousarray(x.T))),
                              np.linalg.norm(x, axis=-1)), dim


# The gauges as they were before they read points as coordinate columns:
# reductions along the rows of the (N, dim) input.

def _old_rows(f, x, dim):
    """f applied to x (..., dim) as C-ordered rows, shaped as x."""
    x = np.asarray(x, dtype=float)
    out = f(np.ascontiguousarray(x.reshape(-1, dim)))
    return out[0] if x.ndim == 1 else out.reshape(x.shape[:-1])


def _old_ball_norm(body, x):
    return _old_rows(lambda rows: np.linalg.norm(rows, axis=-1), x, body.dim)


def _old_clq_norm(body, x):
    return _old_rows(
        lambda rows: np.sum(block_moduli(rows) ** body.q, axis=-1)
        ** (1.0 / body.q), x, body.dim)


def _old_bump(bump, x):
    def rows_bump(rows):
        m2 = block_moduli(rows) ** 2
        m2 /= np.sum(m2, axis=-1, keepdims=True)
        return c_eval(bump.c_poly, m2)
    return _old_rows(rows_bump, x, np.shape(x)[-1])


def _old_perturb_norm(body, x):
    """RadialPerturbation.norm over a mollified base and a HarmonicBump."""
    def rows_norm(rows):
        r = np.linalg.norm(rows, axis=-1)
        xhat = rows / r[..., None]
        rad_pow = (1.0 / _old_norm(body.base, xhat)) ** body.s \
            - body.eps * _old_bump(body.bump, xhat)
        return r * rad_pow ** (-1.0 / body.s)
    return _old_rows(rows_norm, x, body.dim)


def _sym_bump(n):
    """sum_j c_j^2 - 2 c_1 c_2: a c-polynomial bump, symmetric in the
    blocks except for the cross term."""
    poly = {tuple(2 if i == j else 0 for i in range(n)): 1.0
            for j in range(n)}
    poly[(1, 1) + (0,) * (n - 2)] = -2.0
    return HarmonicBump(poly, label="sq")


_PERTURBED = {}


def _perturbed(n):
    if n not in _PERTURBED:
        _PERTURBED[n] = RadialPerturbation(_mollified(n), 2 * n - 2, 0.02,
                                           _sym_bump(n), bump_id="sq")
    return _PERTURBED[n]


def _pin_shapes(dim, seed):
    g = np.random.Generator(np.random.Philox(key=seed))
    return [g.standard_normal(shape)
            for shape in [(3000, dim), (3, 7, dim), (dim,), (1, dim)]]


@pytest.mark.parametrize("dim", [4, 8, 10])
def test_ball_and_clq_norms_are_bit_identical_to_the_row_major_forms(dim):
    for body, old in [(EuclideanBall(dim), _old_ball_norm),
                      (ComplexLqBall(dim // 2, 3.0), _old_clq_norm),
                      (ComplexLqBall(dim // 2, 4.0), _old_clq_norm)]:
        for x in _pin_shapes(dim, seed=60 + dim):
            new = body.norm(x)
            assert np.shape(new) == x.shape[:-1]
            assert np.array_equal(new, old(body, x)), (body.spec(), x.shape)
        assert isinstance(body.norm(x[0]), float)


@pytest.mark.parametrize("n", [2, 4, 5])
def test_bump_and_perturbed_norm_are_bit_identical_to_the_row_major_forms(n):
    body = _perturbed(n)
    for x in _pin_shapes(2 * n, seed=70 + n):
        unit_x = x / np.linalg.norm(x, axis=-1, keepdims=True)
        assert np.array_equal(np.reshape(body.bump(unit_x), -1),
                              np.reshape(_old_bump(body.bump, unit_x), -1))
        new = body.norm(x)
        assert np.shape(new) == x.shape[:-1]
        assert np.array_equal(new, _old_perturb_norm(body, x)), x.shape
    assert body.bump(x[0]).shape == (1,)


def _layouts(x):
    """The same points (N, dim) C-ordered, Fortran-ordered, as the
    transposed view of a (dim, N) array and as a strided row view."""
    wide = np.zeros((2 * len(x), x.shape[1] + 3))
    wide[::2, 1:-2] = x
    return {"C": np.ascontiguousarray(x), "F": np.asfortranarray(x),
            "T": np.ascontiguousarray(x.T).T, "strided": wide[::2, 1:-2]}


@pytest.mark.parametrize("dim", [4, 8, 10])
def test_every_norm_is_independent_of_the_memory_layout(dim):
    n = dim // 2
    bodies = [EuclideanBall(dim), ComplexLqBall(n, 3.0),
              ScaledBody(ComplexLqBall(n, 4.0), 0.8), _mollified(n),
              _perturbed(n)]
    x = np.random.Generator(np.random.Philox(key=80 + dim)).standard_normal(
        (5000, dim))
    for body in bodies:
        views = _layouts(x)
        want = body.norm(views.pop("C"))
        for name, view in views.items():
            assert np.array_equal(view, x)
            assert np.array_equal(body.norm(view), want), (type(body), name)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", [4, 8])
def test_every_gauge_is_zero_at_the_origin(dim):
    # a 1-homogeneous gauge, with no warning; the slice engine reads
    # f(0) = norm(base) - 1 for every base point, the origin among them
    n = dim // 2
    bodies = [EuclideanBall(dim), ComplexLqBall(n, 3.0),
              ScaledBody(ComplexLqBall(n, 4.0), 0.8), _mollified(n),
              _perturbed(n)]
    x = np.random.Generator(np.random.Philox(key=90 + dim)).standard_normal(
        (64, dim))
    x[::5] = 0.0
    zero = np.all(x == 0.0, axis=1)
    for body in bodies:
        at_origin = body.norm(np.zeros(dim))
        assert isinstance(at_origin, float) and at_origin == 0.0, type(body)
        got = body.norm(x)
        assert np.all(got[zero] == 0.0), type(body)
        # the other rows are those of a batch without the origin
        assert np.array_equal(got[~zero], body.norm(x[~zero])), type(body)
