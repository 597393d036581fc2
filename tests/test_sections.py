import math

import numpy as np
import pytest
from scipy import interpolate

from cbplab.bodies import ComplexLqBall, EuclideanBall, mollify, scale
from cbplab.fourier import default_section_rule, section_profile
from cbplab.frames import make_frame, make_grid
from cbplab import quadrature
from cbplab.quadrature import Estimate, SphereRule
from cbplab.sections import (_STENCILS, NoisyEstimateError, RootBracketError,
                             _slice_batch_sums, _slice_radii,
                             laplacian_at_zero,
                             parallel_section, parallel_sections,
                             section_volume, volume)


def kappa(d):
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def unit(dim, seed=0):
    g = np.random.Generator(np.random.Philox(key=seed))
    x = g.standard_normal(dim)
    return x / np.linalg.norm(x)


def test_volume_of_scaled_ball():
    body = scale(EuclideanBall(6), 1.3)
    rule = SphereRule(6, "product_gauss", level=8)
    est = volume(body, rule)
    assert est.value == pytest.approx(kappa(6) * 1.3 ** 6, rel=1e-12)
    assert est.stderr == 0.0


def test_section_volume_of_the_ball_is_lower_dimensional_kappa():
    for d in (4, 6, 8):
        frame = make_frame(unit(d, seed=d))
        rule = SphereRule(d - 2, "quasi_monte_carlo", node_count=2 ** 12,
                          seed=1)
        est = section_volume(EuclideanBall(d), frame, rule)
        assert est.value == pytest.approx(kappa(d - 2), rel=1e-6)


def test_parallel_section_of_the_ball_matches_the_offset_formula():
    # slice of B^d at distance u from the center: kappa_{d-2} (1-u^2)^{(d-2)/2}
    d = 6
    frame = make_frame(unit(d, seed=3))
    rule = SphereRule(d - 2, "product_gauss", level=8)
    for u in [(0.0, 0.0), (0.3, 0.0), (0.0, -0.5), (0.4, 0.4)]:
        est = parallel_section(EuclideanBall(d), frame, u, rule)
        s = u[0] ** 2 + u[1] ** 2
        assert est.value == pytest.approx(
            kappa(d - 2) * (1.0 - s) ** ((d - 2) / 2.0), rel=1e-10)


def test_parallel_section_is_zero_outside_the_body():
    frame = make_frame(unit(6, seed=4))
    rule = SphereRule(4, "product_gauss", level=6)
    est = parallel_section(EuclideanBall(6), frame, (1.2, 0.0), rule)
    assert est.value == 0.0


def test_central_slice_maximal_for_a_symmetric_convex_body():
    body = mollify(ComplexLqBall(3, 4.0), 0.2)
    frame = make_frame(unit(6, seed=5))
    rule = SphereRule(4, "product_gauss", level=10)
    a0 = parallel_section(body, frame, (0.0, 0.0), rule).value
    for u in [(0.2, 0.0), (0.0, 0.35), (0.3, 0.3)]:
        assert parallel_section(body, frame, u, rule).value < a0


def test_section_volume_agrees_with_the_zero_offset_slice():
    body = mollify(ComplexLqBall(2, 4.0), 0.2)
    frame = make_frame(unit(4, seed=6))
    rule = SphereRule(2, "product_gauss", level=16)
    a = section_volume(body, frame, rule).value
    b = parallel_section(body, frame, (0.0, 0.0), rule).value
    assert a == pytest.approx(b, rel=1e-10)


def test_laplacian_of_the_ball_slice_function():
    # A(u) = kappa_m (1 - |u|^2)^{m/2} with m = d - 2, so at the origin
    # Delta A = -2 m kappa_m and Delta^2 A = 8 m (m - 2) kappa_m
    d = 8
    m = d - 2
    frame = make_frame(unit(d, seed=7))
    rule = SphereRule(m, "product_gauss", level=8)
    ball = EuclideanBall(d)
    # Richardson over {h, h/2} leaves an h^4 term with 6th derivatives
    est1 = laplacian_at_zero(ball, frame, 1, 0.1, rule)
    assert est1.value == pytest.approx(-2.0 * m * kappa(m), rel=1e-4)
    # for Delta^2 the h^4 term needs 8th derivatives, which vanish here
    est2 = laplacian_at_zero(ball, frame, 2, 0.1, rule)
    assert est2.value == pytest.approx(8.0 * m * (m - 2) * kappa(m), rel=1e-8)


def test_laplacian_rejects_out_of_range_orders():
    frame = make_frame(unit(6, seed=8))
    rule = SphereRule(4, "product_gauss", level=6)
    with pytest.raises(ValueError):
        laplacian_at_zero(EuclideanBall(6), frame, 3, 0.1, rule)
    frame4 = make_frame(unit(4, seed=8))
    rule4 = SphereRule(2, "product_gauss", level=6)
    with pytest.raises(ValueError):
        # Delta^2 needs a section of dimension at least 4
        laplacian_at_zero(EuclideanBall(4), frame4, 2, 0.1, rule4)


def test_laplacian_raises_when_the_stencil_leaves_the_body():
    frame = make_frame(unit(8, seed=9))
    rule = SphereRule(6, "product_gauss", level=4)
    with pytest.raises(RootBracketError):
        laplacian_at_zero(EuclideanBall(8), frame, 2, 0.6, rule)


def test_noisy_estimate_carries_the_value():
    # slices of the ball are constant over section directions, so the test
    # needs a body whose slice integrand actually varies
    body = mollify(ComplexLqBall(3, 4.0), 0.2)
    frame = make_frame(unit(6, seed=10))
    rule = SphereRule(4, "monte_carlo", node_count=2 ** 10, seed=11)
    with pytest.raises(NoisyEstimateError) as err:
        laplacian_at_zero(body, frame, 1, 0.1, rule, noise_limit=1e-15)
    est = err.value.estimate
    assert est is not None
    assert est.stderr > 0.0
    quiet = laplacian_at_zero(body, frame, 1, 0.1,
                              SphereRule(4, "product_gauss", level=10))
    assert est.value == pytest.approx(quiet.value, abs=5.0 * est.stderr)


def test_shared_nodes_make_differences_quiet():
    # the finite-difference combination on shared Monte Carlo nodes has an
    # error bar far below the raw slice error bar divided by h^2
    body = mollify(ComplexLqBall(3, 4.0), 0.2)
    frame = make_frame(unit(6, seed=12))
    rule = SphereRule(4, "monte_carlo", node_count=2 ** 12, seed=13)
    raw = parallel_section(body, frame, (0.1, 0.0), rule)
    assert raw.stderr > 0.0
    try:
        fd = laplacian_at_zero(body, frame, 1, 0.1, rule)
    except NoisyEstimateError as err:
        fd = err.estimate
    assert fd.stderr * 0.1 ** 2 < raw.stderr


def test_an_understated_r_max_raises_a_root_bracket_error():
    body = EuclideanBall(6)
    body.r_max = 0.5  # the true radius is 1
    frame = make_frame(unit(6, seed=14))
    rule = SphereRule(4, "product_gauss", level=6)
    with pytest.raises(RootBracketError, match=r"offset \(0\.1, 0\)"):
        parallel_section(body, frame, (0.1, 0.0), rule)
    with pytest.raises(RootBracketError):
        laplacian_at_zero(body, frame, 1, 0.05, rule)


# The slice engine as it was before it bisected every (offset, node) pair
# in one pass: a loop over offsets for the inside test and over batches for
# the bisection.  The one-pass engine must reproduce it exactly.

def _loop_slice_batch_sums(body, frame, offsets, rule):
    offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
    m = body.dim - 2
    bases = (offsets[:, 0:1] * frame.xi[None, :]
             + offsets[:, 1:2] * frame.xi_perp[None, :])
    inside = np.ones(len(offsets), dtype=bool)
    unorm = np.linalg.norm(offsets, axis=1)
    for k, u in enumerate(unorm):
        if u == 0.0:
            continue
        if float(np.asarray(body.norm(bases[k:k + 1])).reshape(-1)[0]) >= 1.0:
            inside[k] = False
    sums = np.zeros((len(offsets), rule.batch_count))
    act = np.nonzero(inside)[0]
    if len(act) == 0:
        return sums, inside
    r_hi = body.r_max * 1.01 + unorm[act]
    for bi, (pts, w) in enumerate(rule.batches()):
        theta = pts @ frame.basis
        lo = np.zeros((len(act), len(theta)))
        hi = np.broadcast_to(r_hi[:, None], lo.shape).copy()
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            x = bases[act][:, None, :] + mid[..., None] * theta[None, :, :]
            val = body.norm(x.reshape(-1, body.dim)).reshape(mid.shape)
            less = val < 1.0
            lo = np.where(less, mid, lo)
            hi = np.where(less, hi, mid)
        r = 0.5 * (lo + hi)
        sums[act, bi] = (r ** m) @ w / m
    return sums, inside


def _loop_parallel_section(body, frame, u, rule):
    """The old parallel_section, one offset per call; an outside base point
    gives 0 without the empty-slice probe."""
    zero = Estimate(0.0, 0.0, 0, "parallel_section")
    if np.linalg.norm(u) >= body.r_max:
        return zero
    sums, inside = _loop_slice_batch_sums(body, frame, [u], rule)
    return (Estimate.from_batches(sums[0], rule, "parallel_section")
            if inside[0] else zero)


def test_one_pass_matches_the_loop_on_one_node_gauss_batches():
    body = mollify(ComplexLqBall(2, 4.0), 0.2)
    rule = default_section_rule(4)
    assert rule.node_count == rule.batch_count
    # mapping the nodes of all batches through the frame in one matrix
    # product moves 9 of the 97 profile values in this direction
    xi = make_grid(4, 8, reduction="orbit_reduced", sort_moduli=True).points[1]
    frame = make_frame(xi)
    spline, cutoff, err = section_profile(body, xi, rule)
    ts = np.linspace(0.0, cutoff * (1.0 - 1e-9), 97)
    # with one node per batch each batch sum is one product, so a single
    # loop call gives what one call per profile point gave
    sums, inside = _loop_slice_batch_sums(
        body, frame, np.stack([ts, np.zeros_like(ts)], axis=1), rule)
    assert inside.all()
    ref = interpolate.CubicSpline(
        ts, [Estimate.from_batches(row, rule, "").value for row in sums],
        bc_type=((1, 0.0), "not-a-knot"))
    assert np.array_equal(spline.c, ref.c)
    assert err == 0.0

    # base point outside the body but within r_max; then beyond r_max
    offsets = [(t, 0.0) for t in ts[::12]]
    offsets += [(1.02 * cutoff, 0.0), (0.0, 1.01 * body.r_max)]
    assert 1.02 * cutoff < body.r_max
    want = [_loop_parallel_section(body, frame, u, rule) for u in offsets]
    assert parallel_sections(body, frame, offsets, rule) == want
    assert all(e.value > 0.0 for e in want[:-2])
    assert want[-2].value == 0.0 and want[-1].value == 0.0


def test_one_pass_matches_the_loop_on_the_dim8_laplacian_offsets(
        monkeypatch):
    body = ComplexLqBall(4, 4.0)
    frame = make_frame(unit(8, seed=15))
    rule = SphereRule(6, "quasi_monte_carlo", node_count=2 ** 10, seed=5)
    offsets = np.array(sorted({(i * s, j * s) for s in (0.1, 0.05)
                               for i, j in _STENCILS[2][0]}))
    sums, inside = _slice_batch_sums(body, frame, offsets, rule)
    want_sums, want_inside = _loop_slice_batch_sums(body, frame, offsets,
                                                    rule)
    assert np.array_equal(sums, want_sums)
    assert np.array_equal(inside, want_inside)
    # passes of 8 nodes split every 32-node batch across four passes
    monkeypatch.setattr(quadrature, "_PASS_NODES", 8 * len(offsets))
    assert np.array_equal(_slice_batch_sums(body, frame, offsets, rule)[0],
                          want_sums)
    monkeypatch.undo()
    got = parallel_sections(body, frame, offsets, rule)
    assert got == [Estimate.from_batches(row, rule, "parallel_section")
                   for row in want_sums]
    assert all(e.stderr > 0.0 for e in got)
    # one offset per call the loop summed each batch with a 1-row matrix
    # product, which rounds differently from the K-row product of a
    # multi-offset call
    for u, est in zip(offsets, got):
        alone = _loop_parallel_section(body, frame, u, rule)
        assert est.value == pytest.approx(alone.value, rel=1e-14, abs=0.0)


def _old_slice_radii(norm, dim, bases, r_hi, theta):
    """_slice_radii before its point buffer: (K, W, dim) rows made anew
    each step and evaluated by a row-major gauge `norm`."""
    lo = np.zeros((len(bases), len(theta)))
    hi = np.broadcast_to(r_hi[:, None], lo.shape).copy()
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        x = bases[:, None, :] + mid[..., None] * theta[None, :, :]
        val = norm(x.reshape(-1, dim)).reshape(mid.shape)
        less = val < 1.0
        lo = np.where(less, mid, lo)
        hi = np.where(less, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("dim", [6, 8, 10])
def test_buffered_roots_are_bit_identical_to_the_row_major_bisection(dim):
    g = np.random.Generator(np.random.Philox(key=90 + dim))
    frame = make_frame(unit(dim, seed=dim))
    offsets = 0.1 * g.standard_normal((5, 2))
    bases = (offsets[:, 0:1] * frame.xi[None, :]
             + offsets[:, 1:2] * frame.xi_perp[None, :])
    theta = g.standard_normal((300, dim - 2))
    theta = (theta / np.linalg.norm(theta, axis=1, keepdims=True)) @ frame.basis
    clq = ComplexLqBall(dim // 2, 4.0)
    ball = scale(EuclideanBall(dim), 1.2)
    for body, old_norm in [
            (clq, lambda x: np.sum(np.sqrt(x[:, 0::2] ** 2 + x[:, 1::2] ** 2)
                                   ** 4.0, axis=-1) ** 0.25),
            (ball, lambda x: np.linalg.norm(x, axis=-1) / 1.2)]:
        r_hi = body.r_max * 1.01 + np.linalg.norm(offsets, axis=1)
        got = _slice_radii(body, bases, offsets, r_hi, theta)
        want = _old_slice_radii(old_norm, dim, bases, r_hi, theta)
        assert np.array_equal(got, want), body.spec()
