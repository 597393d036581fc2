import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import interpolate

from cbplab import sections
from cbplab.bodies import ComplexLqBall, EuclideanBall, ScaledBody, mollify
from cbplab.fourier import default_section_rule, section_profile
from cbplab.frames import make_frame, make_grid
from cbplab import quadrature
from cbplab.quadrature import Estimate, SphereRule
from cbplab.sections import (_STENCILS, RootBracketError,
                             _slice_batch_sums, _slice_radii,
                             laplacian_at_zero,
                             parallel_section, parallel_sections,
                             section_volume, volume)
from checks import (bisect_slice_radii, committed_pair, dented_ball, kappa,
                    unit)


def test_volume_of_scaled_ball():
    body = ScaledBody(EuclideanBall(6), 1.3)
    rule = SphereRule.gauss(6, 8)
    est = volume(body, rule)
    assert est.value == pytest.approx(kappa(6) * 1.3 ** 6, rel=1e-12)
    assert est.stderr == 0.0


_SCALED_RULE = SphereRule.qmc(4, 2 ** 10, 1)
_SCALED_BODIES = {"ball": EuclideanBall(4), "clq": ComplexLqBall(2, 4.0),
                  "mollified": mollify(ComplexLqBall(2, 4.0), 0.2)}


@settings(max_examples=30)
@given(kind=st.sampled_from(sorted(_SCALED_BODIES)),
       a=st.floats(0.1, 10.0), ratio=st.floats(1.0 + 1e-6, 10.0))
def test_volume_is_monotone_and_homogeneous_under_scaling(kind, a, ratio):
    # all volumes on one rule, hence on the same nodes
    body = _SCALED_BODIES[kind]
    small, large = (volume(ScaledBody(body, lam), _SCALED_RULE).value
                    for lam in (a, a * ratio))
    assert small < large
    unit_volume = volume(body, _SCALED_RULE).value
    assert small == pytest.approx(a ** 4 * unit_volume, rel=1e-12, abs=0.0)


def test_section_volume_of_the_ball_is_lower_dimensional_kappa():
    for d in (4, 6, 8):
        frame = make_frame(unit(d, seed=d))
        rule = SphereRule.qmc(d - 2, 2 ** 12, 1)
        est = section_volume(EuclideanBall(d), frame, rule)
        assert est.value == pytest.approx(kappa(d - 2), rel=1e-6)


def test_parallel_section_of_the_ball_matches_the_offset_formula():
    # slice of B^d at distance u from the center: kappa_{d-2} (1-u^2)^{(d-2)/2}
    d = 6
    frame = make_frame(unit(d, seed=3))
    rule = SphereRule.gauss(d - 2, 8)
    for u in [(0.0, 0.0), (0.3, 0.0), (0.0, -0.5), (0.4, 0.4)]:
        est = parallel_section(EuclideanBall(d), frame, u, rule)
        s = u[0] ** 2 + u[1] ** 2
        assert est.value == pytest.approx(
            kappa(d - 2) * (1.0 - s) ** ((d - 2) / 2.0), rel=1e-10)


def test_a_streamed_product_rule_slices_every_batch():
    # 4.3M nodes on S^3 stream as 32 batches, one sum column each
    rule = SphereRule.gauss(4, 129)
    [est] = parallel_sections(EuclideanBall(6), make_frame(np.eye(6)[0]),
                              [[0.0, 0.0]], rule)
    assert est.value == pytest.approx(kappa(4), rel=1e-13)


def test_parallel_section_is_zero_outside_the_body():
    frame = make_frame(unit(6, seed=4))
    rule = SphereRule.gauss(4, 6)
    est = parallel_section(EuclideanBall(6), frame, (1.2, 0.0), rule)
    assert est.value == 0.0


def test_central_slice_maximal_for_a_symmetric_convex_body():
    body = mollify(ComplexLqBall(3, 4.0), 0.2)
    frame = make_frame(unit(6, seed=5))
    rule = SphereRule.gauss(4, 10)
    a0 = parallel_section(body, frame, (0.0, 0.0), rule).value
    for u in [(0.2, 0.0), (0.0, 0.35), (0.3, 0.3)]:
        assert parallel_section(body, frame, u, rule).value < a0


def test_section_volume_agrees_with_the_zero_offset_slice():
    body = mollify(ComplexLqBall(2, 4.0), 0.2)
    frame = make_frame(unit(4, seed=6))
    rule = SphereRule.gauss(2, 16)
    a = section_volume(body, frame, rule).value
    b = parallel_section(body, frame, (0.0, 0.0), rule).value
    assert a == pytest.approx(b, rel=1e-10)


def test_laplacian_of_the_ball_slice_function():
    # A(u) = kappa_m (1 - |u|^2)^{m/2} with m = d - 2, so at the origin
    # Delta A = -2 m kappa_m and Delta^2 A = 8 m (m - 2) kappa_m
    d = 8
    m = d - 2
    frame = make_frame(unit(d, seed=7))
    rule = SphereRule.gauss(m, 8)
    ball = EuclideanBall(d)
    # Richardson over {h, h/2} leaves an h^4 term with 6th derivatives
    est1 = laplacian_at_zero(ball, frame, 1, 0.1, rule)
    assert est1.value == pytest.approx(-2.0 * m * kappa(m), rel=1e-4)
    # for Delta^2 the h^4 term needs 8th derivatives, which vanish here
    est2 = laplacian_at_zero(ball, frame, 2, 0.1, rule)
    assert est2.value == pytest.approx(8.0 * m * (m - 2) * kappa(m), rel=1e-8)


def test_laplacian_rejects_out_of_range_orders():
    frame = make_frame(unit(6, seed=8))
    rule = SphereRule.gauss(4, 6)
    with pytest.raises(ValueError):
        laplacian_at_zero(EuclideanBall(6), frame, 3, 0.1, rule)
    frame4 = make_frame(unit(4, seed=8))
    rule4 = SphereRule.gauss(2, 6)
    with pytest.raises(ValueError):
        # Delta^2 needs a section of dimension at least 4
        laplacian_at_zero(EuclideanBall(4), frame4, 2, 0.1, rule4)


def test_laplacian_raises_when_the_stencil_leaves_the_body():
    frame = make_frame(unit(8, seed=9))
    rule = SphereRule.gauss(6, 4)
    with pytest.raises(RootBracketError):
        laplacian_at_zero(EuclideanBall(8), frame, 2, 0.6, rule)


def test_noisy_estimate_carries_the_value():
    # slices of the ball are constant over section directions, so the test
    # needs a body whose slice integrand actually varies
    body = mollify(ComplexLqBall(3, 4.0), 0.2)
    frame = make_frame(unit(6, seed=10))
    rule = SphereRule.qmc(4, 2 ** 10, 11)
    est = laplacian_at_zero(body, frame, 1, 0.1, rule)
    assert est is not None
    assert est.stderr > 0.0
    quiet = laplacian_at_zero(body, frame, 1, 0.1,
                              SphereRule.gauss(4, 10))
    assert est.value == pytest.approx(quiet.value, abs=5.0 * est.stderr)


def test_shared_nodes_make_differences_quiet():
    # the finite-difference combination on shared QMC nodes has an
    # error bar far below the raw slice error bar divided by h^2
    body = mollify(ComplexLqBall(3, 4.0), 0.2)
    frame = make_frame(unit(6, seed=12))
    rule = SphereRule.qmc(4, 2 ** 12, 13)
    raw = parallel_section(body, frame, (0.1, 0.0), rule)
    assert raw.stderr > 0.0
    fd = laplacian_at_zero(body, frame, 1, 0.1, rule)
    assert fd.stderr * 0.1 ** 2 < raw.stderr


def test_an_understated_r_max_raises_a_root_bracket_error():
    body = EuclideanBall(6)
    body.r_max = 0.5  # the true radius is 1
    frame = make_frame(unit(6, seed=14))
    rule = SphereRule.gauss(4, 6)
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
    rule = SphereRule.qmc(6, 2 ** 10, 5)
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
    ball = ScaledBody(EuclideanBall(dim), 1.2)
    for body, old_norm in [
            (clq, lambda x: np.sum(np.sqrt(x[:, 0::2] ** 2 + x[:, 1::2] ** 2)
                                   ** 4.0, axis=-1) ** 0.25),
            (ball, lambda x: np.linalg.norm(x, axis=-1) / 1.2)]:
        r_hi = body.r_max * 1.01 + np.linalg.norm(offsets, axis=1)
        got = _slice_radii(body, bases, offsets, r_hi, theta,
                           body.norm(bases))
        want = _old_slice_radii(old_norm, dim, bases, r_hi, theta)
        assert np.array_equal(got, want), body.spec()


# The secant search and the replayed halvings of _slice_radii against the
# plain halvings, checks.bisect_slice_radii: the same roots bit for bit
# wherever a ray crosses the boundary once.

_LAPLACIAN_OFFSETS = np.array(sorted({(i * s, j * s) for s in (0.1, 0.05)
                                      for i, j in _STENCILS[2][0]}))


@functools.lru_cache(maxsize=None)
def _oracle_body(name):
    if name in ("mollified", "committed K"):
        # the committed pair's L is mollify(ComplexLqBall(4, 4.0), 0.1)
        K, L = committed_pair()
        return L if name == "mollified" else K
    return {"ball": lambda: EuclideanBall(8),
            "scaled ball": lambda: ScaledBody(EuclideanBall(8), 1.3),
            "clq(4, 4)": lambda: ComplexLqBall(4, 4.0),
            "clq(3, 1)": lambda: ComplexLqBall(3, 1.0),
            "dented ball": dented_ball}[name]()


def _against_the_oracle(monkeypatch):
    """Make every _slice_radii call also run the plain halvings; returns
    the list of (roots, plain roots) it fills."""
    calls = []
    secant = sections._slice_radii

    def both(body, bases, labels, r_hi, theta, base_norms):
        got = secant(body, bases, labels, r_hi, theta, base_norms)
        calls.append((got, bisect_slice_radii(body, bases, labels, r_hi,
                                              theta)))
        return got

    monkeypatch.setattr(sections, "_slice_radii", both)
    return calls


# 2^12 nodes make 86,016 Laplacian roots (21 offsets), enough for the
# mollified body to show that a margin of 2^-50 is too small: one root
# then differs.  K's norm is the slowest, so it gets fewer
@pytest.mark.parametrize("name,nodes", [
    ("ball", 2 ** 10), ("scaled ball", 2 ** 10), ("clq(4, 4)", 2 ** 10),
    ("clq(3, 1)", 2 ** 10), ("mollified", 2 ** 12), ("committed K", 2 ** 9),
    ("dented ball", 2 ** 10)])
def test_secant_roots_are_the_plain_halvings_bit_for_bit(name, nodes,
                                                         monkeypatch):
    body = _oracle_body(name)
    frame = make_frame(unit(body.dim, seed=15))
    calls = _against_the_oracle(monkeypatch)
    rule = SphereRule.qmc(body.dim - 2, nodes, 5)
    _slice_batch_sums(body, frame, _LAPLACIAN_OFFSETS, rule)
    laplacian_passes = len(calls)
    # a profile out to 0.99 r_max, sliced in passes of four nodes; the
    # base points near the boundary see rays at a grazing angle, where the
    # computed f is flat over many ulps of r
    ts = np.linspace(0.0, 0.99 * body.r_max, 97)
    monkeypatch.setattr(quadrature, "_PASS_NODES", 4 * len(ts))
    rule = SphereRule.qmc(body.dim - 2, 2 ** 7, 5)
    _slice_batch_sums(body, frame, np.stack([ts, 0.0 * ts], axis=1), rule)
    assert len(calls) == laplacian_passes + 32
    for got, want in calls:
        assert np.array_equal(got, want)


def test_a_ray_that_crosses_the_boundary_thrice_still_ends_on_it():
    # the dented ball is not convex: some rays from base points half way
    # out cross its boundary three times.  Where a ray crosses once the
    # root is the plain halvings'; where it crosses thrice it is one of the
    # crossings, and maybe not the one the halvings find
    body = _oracle_body("dented ball")
    frame = make_frame(unit(6, seed=16))
    rule = SphereRule.qmc(4, 2 ** 8, 16)
    theta = np.concatenate([pts for pts, _ in rule.batches()]) @ frame.basis
    ts = np.array([0.5, 0.52, 0.55])
    offsets = np.stack([ts, 0.0 * ts], axis=1)
    bases = ts[:, None] * frame.xi[None, :]
    r_hi = body.r_max * 1.01 + ts
    got = _slice_radii(body, bases, offsets, r_hi, theta, body.norm(bases))
    want = bisect_slice_radii(body, bases, offsets, r_hi, theta)
    rs = np.linspace(0.0, r_hi.max(), 161)
    f = body.norm(rs[:, None, None, None] * theta[None, None, :, :]
                  + bases[None, :, None, :]) - 1.0
    crossings = np.count_nonzero(np.diff(np.sign(f), axis=0), axis=0)
    assert set(np.unique(crossings)) == {1, 3}
    once = crossings == 1
    assert np.array_equal(got[once], want[once])
    ends = body.norm(got[..., None] * theta[None] + bases[:, None]) - 1.0
    assert np.max(np.abs(ends)) < 1e-13


class _CountedClq(ComplexLqBall):
    """clq(4, 4) that keeps a copy of the points of every norm call."""

    def __init__(self):
        super().__init__(4, 4.0)
        self.calls = []

    def norm(self, x):
        self.calls.append(np.array(x))
        return super().norm(x)


def test_a_pass_checks_its_brackets_first_and_evaluates_few_points(
        monkeypatch):
    body = _CountedClq()
    frame = make_frame(unit(8, seed=15))
    rule = SphereRule.qmc(6, 2 ** 10, 5)
    passes = []
    secant = sections._slice_radii

    def spy(body_, bases, labels, r_hi, theta, base_norms):
        body.calls.clear()
        roots = secant(body_, bases, labels, r_hi, theta, base_norms)
        passes.append((bases, r_hi, np.array(theta), roots.size,
                       list(body.calls)))
        return roots

    monkeypatch.setattr(sections, "_slice_radii", spy)
    _slice_batch_sums(body, frame, _LAPLACIAN_OFFSETS, rule)
    assert len(passes) == 2
    for bases, r_hi, theta, pairs, calls in passes:
        # the first call is the r_hi bracket check over the whole pass
        ends = r_hi[:, None, None] * theta[None, :, :] + bases[:, None, :]
        assert np.array_equal(calls[0], ends.reshape(-1, 8))
        # 49 points a pair with plain halvings; 10.69 and 10.70 with the
        # secant search
        assert sum(len(x) for x in calls) <= 11 * pairs


def test_a_slice_sweep_reads_its_base_point_norms_once(monkeypatch):
    # f(0) of every pass comes from the inside test's norms: the one gauge
    # call at the base points themselves, whose rows lie in span(xi,
    # xi_perp), where every other call's rows base + r theta (r > 0) do not
    body = _CountedClq()
    frame = make_frame(unit(8, seed=15))
    monkeypatch.setattr(quadrature, "_PASS_NODES",
                        64 * len(_LAPLACIAN_OFFSETS))
    passes = []
    secant = sections._slice_radii

    def spy(*args):
        passes.append(1)
        return secant(*args)

    monkeypatch.setattr(sections, "_slice_radii", spy)
    _slice_batch_sums(body, frame, _LAPLACIAN_OFFSETS,
                      SphereRule.qmc(6, 2 ** 10, 5))
    assert len(passes) == 16
    bases = (_LAPLACIAN_OFFSETS[:, 0:1] * frame.xi[None, :]
             + _LAPLACIAN_OFFSETS[:, 1:2] * frame.xi_perp[None, :])
    at_bases = [x for x in body.calls
                if np.max(np.abs(x @ frame.basis.T)) < 1e-12]
    assert len(at_bases) == 1
    assert np.array_equal(at_bases[0], bases)


def test_an_understated_r_max_is_reported_as_by_the_plain_halvings():
    body = ScaledBody(EuclideanBall(6), 1.0)
    body.r_max = 0.5  # the true radius is 1
    frame = make_frame(unit(6, seed=14))
    offsets = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.2]])
    bases = (offsets[:, 0:1] * frame.xi[None, :]
             + offsets[:, 1:2] * frame.xi_perp[None, :])
    theta = np.concatenate(
        [pts for pts, _ in SphereRule.gauss(4, 6).batches()]
    ) @ frame.basis
    r_hi = body.r_max * 1.01 + np.linalg.norm(offsets, axis=1)
    with pytest.raises(RootBracketError) as got:
        _slice_radii(body, bases, offsets, r_hi, theta, body.norm(bases))
    with pytest.raises(RootBracketError) as want:
        bisect_slice_radii(body, bases, offsets, r_hi, theta)
    assert str(got.value) == str(want.value)
    assert str(got.value) == ("bracket end r = 0.505 lies inside the body at "
                              "offset (0, 0); r_max = 0.5 is understated")
