"""The Fourier transform of negative powers of a norm, evaluated on the
sphere by four routes: Laplacian powers of the section function, a
fractional pairing of the section profile, a pairing with an explicit
Gaussian test pair (the invariance-free oracle), and a harmonic expansion
times the closed-form multipliers.  Also the Parseval and circle-integral
identity checks.

Conventions: f_hat(y) = int f(x) exp(-i<x,y>) dx, so that
(|x|^{-p})^ = c(d, p) |y|^{-(d-p)} with c as in classical_ft_constant.
For a body K invariant under the common blockwise rotation, the transform
of ||x||_K^{-p} restricted to the unit sphere is constant along rotation
orbits, and values at non-unit y follow by (p - d)-homogeneity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import interpolate, special

from . import quadrature
from .bodies import StarBody, block_moduli
from .frames import make_frame, ComplexFrame
from .harmonics import (c_eval, moduli_gauss_quadrature,
                        symmetric_harmonic_atoms)
from .quadrature import (Estimate, SphereRule, fractional_radial,
                         integrate_sphere, kahan_reduce, sphere_area)
from .sections import (NoisyEstimateError, laplacian_at_zero,
                       parallel_sections, section_volume)


class UnsupportedRouteError(ValueError):
    """The requested route does not apply to this body or exponent."""


@dataclass(frozen=True)
class FtSample:
    """One evaluation of (||x||^{-p})^ at a unit direction."""

    direction: np.ndarray
    exponent: float
    value: float
    stderr: float
    method: str  # derivative | fractional | pairing | multiplier
    flags: tuple = field(default=())

    def agrees_with(self, other: "FtSample", factor: float = 3.0) -> bool:
        # the relative floor lets two deterministic (stderr 0) samples that
        # match to round-off count as agreeing
        tol = factor * math.hypot(self.stderr, other.stderr)
        tol += 1e-9 * max(abs(self.value), abs(other.value))
        return abs(self.value - other.value) <= tol


def classical_ft_constant(d: int, p: float) -> float:
    """c(d, p) with (|x|^{-p})^ = c(d, p)|y|^{-(d-p)}, 0 < p < d."""
    if not 0.0 < p < d:
        raise ValueError("p must lie in (0, d)")
    return (2.0 ** (d - p) * math.pi ** (d / 2.0)
            * special.gamma((d - p) / 2.0) / special.gamma(p / 2.0))


def _require_invariant(body: StarBody):
    if body.invariance_class not in ("complex_rotation", "independent_rotation"):
        raise UnsupportedRouteError(
            "this route needs a body invariant under the common blockwise "
            "rotation; use pairing_oracle instead")


def default_section_rule(dim, seed=0, node_count=2 ** 14) -> SphereRule:
    """Default rule on the (dim-2)-dimensional section sphere."""
    if dim - 2 <= 4:
        return SphereRule(dim - 2, "product_gauss", level=16)
    return SphereRule(dim - 2, "quasi_monte_carlo", node_count=node_count,
                      seed=seed)


# ---------------------------------------------------------------------------
# route 1: Laplacian powers of the parallel section function
# ---------------------------------------------------------------------------

def ft_derivative_route(body: StarBody, xi, m: int, rule: SphereRule = None,
                        h: float = 0.1) -> FtSample:
    """(||x||^{-p})^(xi) for p = 2n - 2m - 2 from Delta^m A_{K,H_xi}(0).

    value = (-1)^m 4 pi (n - m - 1) Delta^m A(0); m = 0 uses the central
    section volume directly.
    """
    _require_invariant(body)
    n = body.dim // 2
    if not 0 <= m < n - 1:
        raise UnsupportedRouteError(f"m={m} needs 0 <= m < n-1 = {n - 1}")
    xi = np.asarray(xi, dtype=float)
    frame = make_frame(xi)
    if rule is None:
        rule = default_section_rule(body.dim)
    p = 2 * n - 2 * m - 2
    flags = ()
    if m == 0:
        est = section_volume(body, frame, rule)
        scale = 4.0 * math.pi * (n - 1)
    else:
        scale = (-1.0) ** m * 4.0 * math.pi * (n - m - 1)
        try:
            est = laplacian_at_zero(body, frame, m, h, rule)
        except NoisyEstimateError as exc:
            # near a zero of the transform the relative noise gate cannot
            # pass; keep the estimate with its honest error bar and flag it
            if exc.estimate is None:
                raise
            est = exc.estimate
            flags = ("noisy",)
    return FtSample(xi, float(p), scale * est.value, abs(scale) * est.stderr,
                    "derivative", flags)


# ---------------------------------------------------------------------------
# route 2: fractional pairing of the section profile
# ---------------------------------------------------------------------------

def section_profile(body: StarBody, xi, rule: SphereRule = None,
                    profile_points: int = 97):
    """Spline of the section profile t -> A_{K,H_xi}(t xi) on [0, rho(xi)].

    By rotation invariance the profile does not depend on the offset
    direction within span{xi, xi_perp}.  All profile points are sliced in
    one parallel_sections pass on shared nodes; each batch is mapped into
    the section subspace on its own, so the values equal those of one call
    per point whenever the rule's batches hold one node (the default
    Gauss rule on S^1), and differ by round-off otherwise.  Returns
    (spline, cutoff, worst_node_stderr); the profile can be reused for
    every fractional exponent at this direction.
    """
    _require_invariant(body)
    xi = np.asarray(xi, dtype=float)
    frame = make_frame(xi)
    if rule is None:
        rule = default_section_rule(body.dim)
    cutoff = float(body.radial(xi))
    # stop a hair inside the boundary: at t = cutoff the base point sits on
    # the surface and its inside/outside classification is round-off noise
    ts = np.linspace(0.0, cutoff * (1.0 - 1e-9), profile_points)
    ests = parallel_sections(body, frame,
                             np.stack([ts, np.zeros_like(ts)], axis=1), rule)
    vals = np.array([e.value for e in ests])
    errs = np.array([e.stderr for e in ests])
    spline = interpolate.CubicSpline(ts, vals, bc_type=((1, 0.0), "not-a-knot"))
    return spline, cutoff, float(np.max(errs))


def fractional_from_profile(spline, cutoff, max_err, q, n, xi) -> FtSample:
    """Finish the fractional route from a precomputed section profile."""
    if not 0.0 < q < 2.0:
        raise UnsupportedRouteError("q must lie strictly inside (0, 2)")

    def profile(t):
        return float(spline(t)) if t < cutoff else 0.0

    radial = fractional_radial(profile, q, cutoff)
    pairing = 2.0 * math.pi * radial / special.gamma(-q / 2.0)
    p = 2.0 * n - q - 2.0
    scale = 2.0 ** (q + 1.0) * special.gamma((q + 2.0) / 2.0) * (2 * n - q - 2)
    # profile noise enters nearly linearly; bound it by the worst node error
    stderr = abs(scale * 2.0 * math.pi / special.gamma(-q / 2.0)) * (
        max_err * (1.0 / q + 1.0 / (2.0 - q)) * max(cutoff, 1.0))
    return FtSample(np.asarray(xi, dtype=float), p, scale * pairing, stderr,
                    "fractional")


def ft_fractional_route(body: StarBody, xi, q: float,
                        rule: SphereRule = None,
                        profile_points: int = 97) -> FtSample:
    """(||x||^{-p})^(xi) for p = 2n - q - 2, q in (0, 2).

    The section profile t -> A(t theta) is constant over the circle of
    offset directions theta by rotation invariance, so the planar pairing
    <|u|^{-q-2}/Gamma(-q/2), A(u)> collapses to 2 pi times the fractional
    radial integral of one spline-interpolated profile.
    """
    spline, cutoff, max_err = section_profile(body, xi, rule, profile_points)
    return fractional_from_profile(spline, cutoff, max_err, q,
                                   body.dim // 2, xi)


# ---------------------------------------------------------------------------
# route 3: distributional pairing against an explicit Gaussian bump pair
# ---------------------------------------------------------------------------

def _radial_cos_integral(t, mu, beta):
    """Exact int_0^inf r^{mu-1} exp(-beta r^2) cos(r t) dr (elementwise)."""
    return (0.5 * beta ** (-mu / 2.0) * special.gamma(mu / 2.0)
            * special.hyp1f1(mu / 2.0, 0.5, -np.square(t) / (4.0 * beta)))


@lru_cache(maxsize=None)
def _gauss_legendre(count):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(count)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None)
def _gauss_jacobi(count, a):
    """Read-only Gauss-Jacobi nodes and weights for (1-t)^a (1+t)^a."""
    t, w = special.roots_jacobi(count, a, a)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def _harmonic_bump_moment(d, p, j, sigma, r_nodes=600, t_nodes=400):
    """int P_j(y/|y|) |y|^{-(d-p)} phi_sigma(y) dy / P_j(xi) for the unit
    Gaussian pair phi at +-xi, any degree-j harmonic P_j.

    Funk-Hecke collapses the angular integral onto the Gegenbauer kernel,
    leaving a 2-D (radius x cosine) quadrature with a stable combined
    exponent exp(-(r^2 - 2rt + 1)/(2 sigma^2)).
    """
    nu = (d - 2) / 2.0
    t, wt = _gauss_jacobi(t_nodes, (d - 3) / 2.0)
    gegen = special.eval_gegenbauer(j, nu, t) / special.eval_gegenbauer(j, nu, 1.0)
    hi = 1.0 + 15.0 * sigma
    r, wr = _gauss_legendre(r_nodes)
    r = 0.5 * hi * (r + 1.0)
    wr = 0.5 * hi * wr
    expo = -(r[:, None] ** 2 - 2.0 * r[:, None] * t[None, :] + 1.0) / (2.0 * sigma ** 2)
    inner = np.exp(expo) @ (wt * gegen)
    radial = float(np.dot(wr, r ** (p - 1) * inner))
    return ((2.0 * math.pi * sigma ** 2) ** (-d / 2.0)
            * sphere_area(d - 1) * radial)


def _perp_basis(xi):
    """Orthonormal rows spanning the hyperplane orthogonal to unit xi."""
    d = len(xi)
    proj = np.eye(d) - np.outer(xi, xi)
    _, s, vt = np.linalg.svd(proj)
    return vt[: d - 1]


def _latitude_nodes(d, sigma_min):
    """Composite Gauss rule in t = <xi, theta> resolving the width-sigma
    band of the bump response around the equator; returns (t, w) on [0, 1]
    with the surface jacobian (1-t^2)^{(d-3)/2} folded into w."""
    edges = [0.0, min(10.0 * sigma_min, 0.5), min(30.0 * sigma_min, 0.75), 1.0]
    counts = [48, 24, 16]
    ts, ws = [], []
    for (a, b), m in zip(zip(edges[:-1], edges[1:]), counts):
        if b <= a:
            continue
        x, w = _gauss_legendre(m)
        ts.append(0.5 * (b - a) * (x + 1.0) + a)
        ws.append(0.5 * (b - a) * w)
    t = np.concatenate(ts)
    w = np.concatenate(ws) * (1.0 - t ** 2) ** ((d - 3) / 2.0)
    return t, w


def _pairing_core(angular, d, xi, p, sigma, rule, levels=2, masses=None):
    """<f^, phi> / weighted-mass for f = angular(x/|x|) |x|^{-p}, with
    `angular` even on the sphere.

    phi is the even pair of unit-mass Gaussians at +-xi with width sigma.
    <f^, phi> = <f, phi^> with phi^(x) = cos(<xi, x>) exp(-sigma^2|x|^2/2);
    the radial integral is exact (confluent hypergeometric), leaving a
    spherical integral whose latitude profile G(t) concentrates in a
    width-sigma band around the equator t = <xi, theta> = 0.  The sphere
    integral therefore splits into an exact composite Gauss rule in t and a
    quadrature over the orthogonal subsphere, which removes the 1/sigma
    variance blow-up of uniform sampling.  Richardson extrapolation in
    sigma^2 over {sigma, sigma/2, ...} removes the bump-width bias; all
    widths share nodes.  Callers with an exactly-known bump moment pass it
    via `masses` (with levels=1 the result is then unbiased).

    The points theta = t xi + sqrt(1 - t^2) u of a subsphere batch are built
    a few latitudes at a time as coordinate columns, a C-contiguous
    (d, k, U) array, and `angular` gets its (k U, d) transposed view: at
    most quadrature._PASS_NODES points (or one latitude), each value the
    same two products and one sum as in a (T, U, d) array of rows.
    """
    mu = d - p
    sigmas = [sigma / 2 ** i for i in range(levels)]
    if masses is None:
        masses = [_harmonic_bump_moment(d, p, 0, s) for s in sigmas]
    xi = np.asarray(xi, dtype=float)
    t, wt = _latitude_nodes(d, sigmas[-1])
    # even integrand: fold to t >= 0 and double
    gw = np.stack([2.0 * wt * _radial_cos_integral(t, mu, s ** 2 / 2.0)
                   for s in sigmas])  # (levels, T)
    basis = _perp_basis(xi)
    if rule.dim == d:
        n_u = max(rule.node_count // len(t), 2 ** 10)
        n_u = 1 << (n_u - 1).bit_length()  # Sobol wants powers of two
        u_rule = SphereRule(d - 1, rule.kind, node_count=n_u, seed=rule.seed,
                            level=rule.level, batch_count=rule.batch_count)
    elif rule.dim == d - 1:
        u_rule = rule
    else:
        raise ValueError("rule dimension must be d or d-1")
    root = np.sqrt(1.0 - t ** 2)
    txi = t[None, :, None] * xi[:, None, None]  # (d, T, 1)
    per = np.zeros((levels, u_rule.batch_count))
    for bi, (pts, w) in enumerate(u_rule.batches()):
        ut = (pts @ basis).T[:, None, :]  # (d, 1, U)
        k = max(1, quadrature._PASS_NODES // ut.shape[2])
        a = np.empty((len(t), ut.shape[2]))
        for s in range(0, len(t), k):
            if s == 0 or len(t) - s < k:  # the last group may be shorter
                cols = np.empty((d, min(k, len(t) - s), ut.shape[2]))
            np.multiply(root[None, s:s + k, None], ut, out=cols)
            np.add(txi[:, s:s + k], cols, out=cols)
            a[s:s + k] = np.asarray(angular(cols.reshape(d, -1).T),
                                    dtype=float).reshape(len(cols[0]), -1)
        lat = a @ w  # (T,) subsphere integrals at each latitude
        for li in range(levels):
            per[li, bi] = float(np.dot(gw[li], lat)) / masses[li]
    # eliminate sigma^2, sigma^4, ... terms batchwise (shared nodes)
    prev = per
    for stage in range(1, levels):
        fac = 4.0 ** stage
        prev = per
        per = (fac * per[1:] - per[:-1]) / (fac - 1.0)
    comb = per[0]
    est = Estimate.from_batches(comb, u_rule, "pairing")
    # the gap to the previous extrapolation order (on the finest widths)
    # estimates the residual width bias
    residual = (abs(est.value - float(kahan_reduce(prev[-1])))
                if levels > 1 else 0.0)
    return est.value, est.stderr, residual


def pairing_oracle(body: StarBody, xi, p: float, sigma: float = 0.2,
                   rule: SphereRule = None, levels: int = 2) -> FtSample:
    """(||x||^{-p})^(xi) by pairing with an explicit Gaussian test pair.

    Needs no invariance assumption; serves as the independent oracle for
    the derivative and fractional routes.  Flags the sample as
    'inconclusive' when the error bar exceeds 10% of the value.
    """
    if not 0.0 < p < body.dim:
        raise ValueError("p must lie in (0, dim)")
    if sigma > 0.2:
        raise ValueError("sigma must be <= 0.2 for a usable bump")
    xi = np.asarray(xi, dtype=float)
    if rule is None:
        rule = SphereRule(body.dim, "quasi_monte_carlo", node_count=2 ** 19,
                          seed=5)
    value, stderr, residual = _pairing_core(
        lambda pts: body.radial(pts) ** p, body.dim, xi, p, sigma, rule,
        levels=levels)
    # fold the residual extrapolation bias estimate into the error bar
    stderr = stderr + residual / 3.0
    flags = ("inconclusive",) if stderr > 0.1 * abs(value) else ()
    return FtSample(xi, float(p), value, stderr, "pairing", flags)


# ---------------------------------------------------------------------------
# route 4: harmonic expansion times closed-form multipliers
# ---------------------------------------------------------------------------

def classical_multiplier(j, p, d):
    """Closed-form lambda(j, p) with (P_j(x/|x|)|x|^{-p})^ =
    lambda P_j(y/|y|)|y|^{-(d-p)} for a degree-j spherical harmonic P_j
    (Bochner / Funk-Hecke; Koldobsky, Fourier Analysis in Convex Geometry,
    section 3).  Degree 0 is classical_ft_constant."""
    return ((-1.0) ** (j // 2) * 2.0 ** (d - p) * math.pi ** (d / 2.0)
            * special.gamma((j + d - p) / 2.0)
            / special.gamma((j + p) / 2.0))


def ft_multiplier_route(body: StarBody, xi, p: float, max_degree: int = 12,
                        tail_degree: int = 24,
                        quad_res: int = 64) -> FtSample:
    """(||x||^{-p})^(xi) by harmonic expansion of the norm power.

    rho^p is projected onto the fully symmetric harmonic atoms (spectrally
    accurate moduli-angle quadrature) and each degree is multiplied by its
    closed-form lambda(j, p).  Degrees in (max_degree, tail_degree] are
    left out of the value; their contribution bounds the truncation error
    and is the whole error bar.
    """
    _require_invariant(body)
    if not body.moduli_symmetric:
        raise UnsupportedRouteError(
            "the multiplier route needs a body whose radial function "
            "depends only on the block moduli")
    if not 0.0 < p < body.dim:
        raise ValueError("p must lie in (0, dim)")
    n = body.dim // 2
    xi = np.asarray(xi, dtype=float)
    m, w = moduli_gauss_quadrature(n, quad_res)
    pts = np.zeros((m.shape[0], body.dim))
    pts[:, 0::2] = m
    a = body.radial(pts) ** p
    cxi = np.atleast_2d(block_moduli(xi) ** 2)
    value = 0.0
    tail = 0.0
    for atom in symmetric_harmonic_atoms(n, tail_degree):
        coef = float(np.dot(w, a * c_eval(atom.c_poly, m ** 2)))
        contrib = coef * float(c_eval(atom.c_poly, cxi)[0])
        term = classical_multiplier(atom.degree, p, body.dim) * contrib
        if atom.degree <= max_degree:
            value += term
        else:
            tail += abs(term)
    return FtSample(xi, float(p), value, tail, "multiplier")


# ---------------------------------------------------------------------------
# route dispatch
# ---------------------------------------------------------------------------

def ft_value(body: StarBody, xi, p: float, rule: SphereRule = None,
             method: str = None) -> FtSample:
    """Evaluate (||x||^{-p})^(xi) by the natural route for this exponent:
    derivative when p = 2m + 2, fractional when 2n - p - 2 in (0, 2)."""
    n = body.dim // 2
    q = 2 * n - p - 2
    if method == "pairing":
        return pairing_oracle(body, xi, p, rule=rule)
    if method == "multiplier":
        return ft_multiplier_route(body, xi, p)
    if method in (None, "derivative"):
        if abs(p - round(p)) < 1e-12 and round(p) % 2 == 0:
            m = (2 * n - 2 - round(p)) // 2
            if 0 <= m < n - 1:
                return ft_derivative_route(body, xi, m, rule)
        if method == "derivative":
            raise UnsupportedRouteError(f"p={p} is not of the form 2m+2")
    if 0.0 < q < 2.0:
        return ft_fractional_route(body, xi, q, rule)
    raise UnsupportedRouteError(f"no implemented route reaches p={p} in dim {2 * n}")


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def parseval_check(bodyK: StarBody, bodyL: StarBody, p: float, grid,
                   rule: SphereRule = None,
                   sphere_rule: SphereRule = None) -> dict:
    """Two-sided spherical Parseval check.

    lhs = int_S (||x||_K^{-p})^ (||x||_L^{-(d-p)})^ dxi  (direction grid),
    rhs = (2 pi)^d int_S ||th||_K^{-p} ||th||_L^{-(d-p)} dth.
    """
    d = bodyK.dim
    if bodyL.dim != d:
        raise ValueError("bodies must share a dimension")
    _require_invariant(bodyK)
    _require_invariant(bodyL)
    if grid.weights is None:
        raise ValueError("parseval_check needs an orbit-reduced grid "
                         "with quadrature weights")
    lhs = 0.0
    var = 0.0
    for w, xi in zip(grid.weights, grid.points):
        fk = ft_value(bodyK, xi, p, rule)
        fl = ft_value(bodyL, xi, d - p, rule)
        lhs += w * fk.value * fl.value
        var += (w * math.hypot(fk.stderr * fl.value,
                               fl.stderr * fk.value)) ** 2
    if sphere_rule is None:
        sphere_rule = SphereRule(d, "quasi_monte_carlo", node_count=2 ** 16,
                                 seed=2)
    rhs = (2.0 * math.pi) ** d * integrate_sphere(
        sphere_rule, lambda pts: (bodyK.radial(pts) ** p
                                  * bodyL.radial(pts) ** (d - p))).value
    rel_gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    return {"lhs": lhs, "rhs": rhs, "rel_gap": rel_gap,
            "lhs_stderr": math.sqrt(var)}


def sph_identity_check(v, q: float, level: int = 40) -> dict:
    """Check |v|^{-q-2} = Gamma(-q/2) / (2 Gamma((-q-1)/2) sqrt(pi)) *
    int_{S^1} |<v, u>|^{-q-2} du for q in (-2, -1).

    The circle integral has integrable |cos|^s singularities (s = -q-2 in
    (-1, 0)); writing the quarter period as int_0^{pi/2} u^s (sin u / u)^s du
    and using a Gauss-Jacobi rule with endpoint weight u^s leaves a smooth
    integrand, so the rule converges spectrally.
    """
    v = np.asarray(v, dtype=float)
    if not -2.0 < q < -1.0:
        raise ValueError("q must lie in (-2, -1)")
    r = float(np.linalg.norm(v))
    if r == 0.0:
        raise ValueError("v must be nonzero")
    s = -q - 2.0
    c = math.pi / 2.0
    t, w = special.roots_jacobi(level, 0.0, s)
    u = c * (t + 1.0) / 2.0
    quarter = (c / 2.0) ** (s + 1.0) * float(np.dot(w, (np.sin(u) / u) ** s))
    circle = 4.0 * quarter
    # |<v,u>| = |v| |cos(t - t0)|; the shift drops out over a full period
    integral = r ** s * circle
    factor = special.gamma(-q / 2.0) / (
        2.0 * special.gamma((-q - 1.0) / 2.0) * math.sqrt(math.pi))
    lhs = r ** s
    rhs = factor * integral
    return {"lhs": lhs, "rhs": rhs,
            "rel_gap": abs(lhs - rhs) / max(abs(lhs), abs(rhs))}
