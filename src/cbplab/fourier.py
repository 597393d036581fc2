"""The Fourier transform of negative powers of a norm, evaluated on the
sphere by four routes: Laplacian powers of the section function, a
fractional pairing of the section profile, a pairing with an explicit
Gaussian test pair (the invariance-free oracle), and a harmonic expansion
times the closed-form multipliers.

Conventions: f_hat(y) = int f(x) exp(-i<x,y>) dx, so that
(|x|^{-p})^ = c(d, p) |y|^{-(d-p)} with c(d, p) the degree-0 multiplier
classical_multiplier(0, p, d).
For a body K invariant under the common blockwise rotation, the transform
of ||x||_K^{-p} restricted to the unit sphere is constant along rotation
orbits, and values at non-unit y follow by (p - d)-homogeneity.

Exponents are routed in one place, `_route`; `ft_values` evaluates a list
of them at one direction and shares what the routes allow.  The fractional
route splines the section profile by a numpy port of scipy's CubicSpline,
which solves its system by LAPACK dgtsv.  Gamma, 1F1, the Gegenbauer
polynomials and dgtsv come from the compiled scipy extensions that
quadrature loads, as the scipy.special and scipy.linalg packages would
cost about 30 MB and 0.35 s of import.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .bodies import StarBody
from .frames import make_frame
from .harmonics import symmetric_coefficients
from .quadrature import (Estimate, SphereRule, _gauss_jacobi,
                         _gauss_legendre, _lapack, _ufuncs, fractional_radial,
                         kahan_reduce, sphere_area)
from .sections import (_STENCILS, laplacian_at_zero, parallel_sections,
                       section_volume)


_FD_STEP = 0.1  # difference step h of the derivative route (and h / 2)
_NOISE_LIMIT = 0.25  # stderr share of |value| above which 'noisy' is set
_PROFILE_POINTS = 97  # section profile points, equally spaced on [0, rho]
_MOMENT_NODES = (600, 400)  # radius x cosine nodes of the bump moment
_SIGMA = 0.2  # widest pairing bump; the oracle also pairs at _SIGMA / 2
_MAX_DEGREE = 12  # highest harmonic degree the multiplier route sums
_TAIL_DEGREE = 24  # degrees in (_MAX_DEGREE, _TAIL_DEGREE] give its error


class UnsupportedRouteError(ValueError):
    """The requested route does not apply to this body or exponent."""


@dataclass(frozen=True)
class FtSample:
    """One evaluation of (||x||^{-p})^ at a unit direction."""

    exponent: float
    value: float
    stderr: float
    method: str  # derivative | fractional | pairing | multiplier
    flags: tuple = field(default=())


def _require_invariant(body: StarBody):
    if not body.rotation_invariant:
        raise UnsupportedRouteError(
            "this route needs a body invariant under the common blockwise "
            "rotation; use pairing_oracle instead")


def default_section_rule(dim) -> SphereRule:
    """Default rule on the (dim-2)-dimensional section sphere."""
    if dim - 2 <= 4:
        return SphereRule.gauss(dim - 2, 16)
    return SphereRule.qmc(dim - 2, 2 ** 14, 0)


# ---------------------------------------------------------------------------
# route 1: Laplacian powers of the parallel section function
# ---------------------------------------------------------------------------

def ft_derivative_route(body: StarBody, xi, m: int,
                        rule: SphereRule) -> FtSample:
    """(||x||^{-p})^(xi) for p = 2n - 2m - 2 from Delta^m A_{K,H_xi}(0),
    on `rule` over the section sphere S^{d-3} (ft_values holds the
    default).

    value = (-1)^m 4 pi (n - m - 1) Delta^m A(0) at step _FD_STEP; m = 0
    uses the central section volume directly.  An m >= 1 sample whose error
    bar exceeds _NOISE_LIMIT times its value (near a zero) is kept, flagged
    'noisy'.
    """
    _require_invariant(body)
    n = body.dim // 2
    if not 0 <= m < n - 1:
        raise UnsupportedRouteError(f"m={m} needs 0 <= m < n-1 = {n - 1}")
    xi = np.asarray(xi, dtype=float)
    frame = make_frame(xi)
    p = 2 * n - 2 * m - 2
    flags = ()
    if m == 0:
        est = section_volume(body, frame, rule)
        scale = 4.0 * math.pi * (n - 1)
    else:
        scale = (-1.0) ** m * 4.0 * math.pi * (n - m - 1)
        est = laplacian_at_zero(body, frame, m, _FD_STEP, rule)
        if est.value != 0.0 and est.stderr > _NOISE_LIMIT * abs(est.value):
            flags = ("noisy",)
    return FtSample(float(p), scale * est.value, abs(scale) * est.stderr,
                    "derivative", flags)


# ---------------------------------------------------------------------------
# route 2: fractional pairing of the section profile
# ---------------------------------------------------------------------------

class _ProfileSpline:
    """scipy's CubicSpline(x, y, bc_type=((1, 0.0), "not-a-knot")) on n >= 4
    knots, bit for bit: the same banded system and coefficients `c`, and a
    scalar evaluated as PPoly evaluates it (not by Horner's rule), on the
    first or last piece outside the knots."""

    def __init__(self, x, y):
        n, dx = len(x), np.diff(x)
        slope = np.diff(y) / dx
        A, b = np.zeros((3, n)), np.empty(n)
        A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
        A[0, 2:] = dx[:-1]
        A[-1, :-2] = dx[1:]
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        A[1, 0], b[0] = 1, 0.0  # zero slope at t = 0
        d = x[-1] - x[-3]  # not-a-knot at the far end
        A[1, -1], A[-1, -2] = dx[-2], d
        b[-1] = ((dx[-1]**2 * slope[-2] + (2*d + dx[-1]) * dx[-2] * slope[-1])
                 / d)
        # solve_banded((1, 1), A, b, overwrite_ab=True, overwrite_b=True)
        s = _lapack("dgtsv", A[2, :-1], A[1], A[0, 1:], b.reshape(n, -1),
                    1, 1, 1, 1)[-1].reshape(n)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))
        self._knots, self._pieces = x[:-1].tolist(), self.c.T[:, ::-1].tolist()

    def __call__(self, t):
        i = max(bisect.bisect_right(self._knots, t) - 1, 0)
        res, z, dt = 0.0, 1.0, t - self._knots[i]
        for coef in self._pieces[i]:
            res = res + coef * z
            z *= dt
        return res


def section_profile(body: StarBody, xi, rule: SphereRule):
    """Spline of the section profile t -> A_{K,H_xi}(t xi) on [0, rho(xi)]:
    a _ProfileSpline, CubicSpline's clamped (zero slope at 0) cubic, on
    `rule` over the section sphere S^{d-3} (ft_values holds the default).

    By rotation invariance the profile does not depend on the offset
    direction within span{xi, xi_perp}.  All profile points are sliced in
    one parallel_sections pass on shared nodes; each batch is mapped into
    the section subspace on its own, so the values equal those of one call
    per point whenever the rule's batches hold one node (the default
    Gauss rule on S^1), and differ by round-off otherwise.  Returns
    (spline, cutoff, worst_node_stderr); the profile can be reused for
    every fractional exponent at this direction.  Each slice must be
    star-shaped about its base point: on a non-convex body, A(u) integrates
    one crossing per ray, unflagged.
    """
    _require_invariant(body)
    xi = np.asarray(xi, dtype=float)
    frame = make_frame(xi)
    cutoff = float(body.radial(xi))
    # stop a hair inside the boundary: at t = cutoff the base point sits on
    # the surface and its inside/outside classification is round-off noise
    ts = np.linspace(0.0, cutoff * (1.0 - 1e-9), _PROFILE_POINTS)
    ests = parallel_sections(body, frame,
                             np.stack([ts, np.zeros_like(ts)], axis=1), rule)
    vals = np.array([e.value for e in ests])
    errs = np.array([e.stderr for e in ests])
    return _ProfileSpline(ts, vals), cutoff, float(np.max(errs))


def fractional_from_profile(spline, cutoff, max_err, p, q, n) -> FtSample:
    """Finish the fractional route at p (order q) from a section profile."""
    if not 0.0 < q < 2.0:
        raise UnsupportedRouteError("q must lie strictly inside (0, 2)")

    def profile(t):
        return spline(t) if t < cutoff else 0.0

    radial = fractional_radial(profile, q, cutoff)
    pairing = 2.0 * math.pi * radial / _ufuncs.gamma(-q / 2.0)
    scale = 2.0 ** (q + 1.0) * _ufuncs.gamma((q + 2.0) / 2.0) * (2 * n - q - 2)
    # profile noise enters nearly linearly; bound it by the worst node error
    stderr = abs(scale * 2.0 * math.pi / _ufuncs.gamma(-q / 2.0)) * (
        max_err * (1.0 / q + 1.0 / (2.0 - q)) * max(cutoff, 1.0))
    return FtSample(float(p), scale * pairing, stderr, "fractional")


# ---------------------------------------------------------------------------
# route 3: distributional pairing against an explicit Gaussian bump pair
# ---------------------------------------------------------------------------

def _radial_cos_integral(t, mu, beta):
    """Exact int_0^inf r^{mu-1} exp(-beta r^2) cos(r t) dr (elementwise)."""
    return (0.5 * beta ** (-mu / 2.0) * _ufuncs.gamma(mu / 2.0)
            * _ufuncs.hyp1f1(mu / 2.0, 0.5, -np.square(t) / (4.0 * beta)))


def _harmonic_bump_moments(d, ps, j, sigma):
    """int P_j(y/|y|) |y|^{-(d-p)} phi_sigma(y) dy / P_j(xi) for the unit
    Gaussian pair phi at +-xi, any degree-j harmonic P_j: a list, one per
    exponent p of `ps`.

    Funk-Hecke collapses the angular integral onto the Gegenbauer kernel,
    leaving a 2-D (radius x cosine) quadrature with a stable combined
    exponent exp(-(r^2 - 2rt + 1)/(2 sigma^2)).  Its radial profile does
    not depend on p, so every exponent shares it; the exponent table is
    made in place.
    """
    nu = (d - 2) / 2.0
    r_nodes, t_nodes = _MOMENT_NODES
    t, wt = _gauss_jacobi(t_nodes, (d - 3) / 2.0)
    gegen = (_ufuncs.eval_gegenbauer(j, nu, t)
             / _ufuncs.eval_gegenbauer(j, nu, 1.0))
    hi = 1.0 + 15.0 * sigma
    r, wr = _gauss_legendre(r_nodes)
    r = 0.5 * hi * (r + 1.0)
    wr = 0.5 * hi * wr
    expo = 2.0 * r[:, None] * t[None, :]
    np.subtract(r[:, None] ** 2, expo, out=expo)
    np.add(expo, 1.0, out=expo)
    np.negative(expo, out=expo)
    np.divide(expo, 2.0 * sigma ** 2, out=expo)
    inner = np.exp(expo, out=expo) @ (wt * gegen)
    scale = (2.0 * math.pi * sigma ** 2) ** (-d / 2.0) * sphere_area(d - 1)
    return [scale * float(np.dot(wr, r ** (p - 1) * inner)) for p in ps]


def _perp_basis(xi):
    """Orthonormal rows spanning the hyperplane orthogonal to unit xi."""
    d = len(xi)
    proj = np.eye(d) - np.outer(xi, xi)
    _, s, vt = np.linalg.svd(proj)
    return vt[: d - 1]


def _latitude_nodes(d):
    """Composite Gauss rule in t = <xi, theta> resolving the width-sigma
    band (sigma <= _SIGMA) of the bump response around the equator with 48,
    24 and 16 nodes on the fixed cells [0, 0.5], [0.5, 0.75], [0.75, 1];
    returns (t, w) on [0, 1] with the surface jacobian (1-t^2)^{(d-3)/2}
    folded into w."""
    edges = (0.0, 0.5, 0.75, 1.0)
    ts, ws = [], []
    for a, b, m in zip(edges[:-1], edges[1:], (48, 24, 16)):
        x, w = _gauss_legendre(m)
        ts.append(0.5 * (b - a) * (x + 1.0) + a)
        ws.append(0.5 * (b - a) * w)
    t = np.concatenate(ts)
    w = np.concatenate(ws) * (1.0 - t ** 2) ** ((d - 3) / 2.0)
    return t, w


def _pairing_core(angular, d, xi, ps, rule, j):
    """<f^, phi> / weighted-mass for f = angular(x/|x|) |x|^{-p}, with
    `angular` even on the sphere, for each exponent p of `ps`: a list of
    (value, stderr, residual), one per exponent, in order.

    phi is the even pair of unit-mass Gaussians at +-xi with width
    sigma = _SIGMA.
    <f^, phi> = <f, phi^> with phi^(x) = cos(<xi, x>) exp(-sigma^2|x|^2/2);
    the radial integral is exact (confluent hypergeometric), leaving a
    spherical integral whose latitude profile G(t) concentrates in a
    width-sigma band around the equator t = <xi, theta> = 0.  The sphere
    integral therefore splits into an exact composite Gauss rule in t and a
    quadrature over the orthogonal subsphere, which removes the 1/sigma
    variance blow-up of uniform sampling.  Richardson extrapolation in
    sigma^2 over {sigma, sigma/2}, (4 fine - wide) / 3 per batch, removes
    the leading bump-width bias; both widths share nodes, and the gap of
    the result to the sigma/2 value is the residual.  Each exponent's value
    is divided by its bump moments at both widths for harmonic degree `j`:
    `angular` is a degree-j harmonic, or of degree 0 in pairing_oracle.
    The subsphere rule is `rule`'s kind on S^{d-2}: Gauss at its level, or
    about rule.node_count / T Sobol nodes (at least 2^10, a power of two)
    on its seed.

    The points theta = t xi + sqrt(1 - t^2) u of a subsphere batch are built
    a few latitudes at a time as coordinate columns, a C-contiguous
    (d, k, U) array, and `angular` gets its (k U, d) transposed view: at
    most quadrature._PASS_NODES points (or one latitude), each value the
    same two products and one sum as in a (T, U, d) array of rows.
    `angular` returns one row of values per exponent, so every exponent
    shares the nodes, the points and the call; the latitude weights, the
    bump moments and the extrapolation are each exponent's own.
    """
    sigmas = (_SIGMA, _SIGMA / 2)
    masses = list(zip(*(_harmonic_bump_moments(d, ps, j, s) for s in sigmas)))
    xi = np.asarray(xi, dtype=float)
    t, wt = _latitude_nodes(d)
    # even integrand: fold to t >= 0 and double
    gw = [np.stack([2.0 * wt * _radial_cos_integral(t, d - p, s ** 2 / 2.0)
                    for s in sigmas]) for p in ps]  # per exponent (2, T)
    basis = _perp_basis(xi)
    if rule.dim != d:
        raise ValueError("rule dimension must be d")
    if rule.kind == "product_gauss":
        u_rule = SphereRule.gauss(d - 1, rule.level)
    else:
        n_u = max(rule.node_count // len(t), 2 ** 10)
        # Sobol wants powers of two
        u_rule = SphereRule.qmc(d - 1, 1 << (n_u - 1).bit_length(), rule.seed)
    root = np.sqrt(1.0 - t ** 2)
    txi = t[None, :, None] * xi[:, None, None]  # (d, T, 1)
    per = np.zeros((len(ps), len(sigmas), u_rule.batch_count))
    for bi, (pts, w) in enumerate(u_rule.batches()):
        ut = (pts @ basis).T[:, None, :]  # (d, 1, U)
        k = max(1, quadrature._PASS_NODES // ut.shape[2])
        a = np.empty((len(ps), len(t), ut.shape[2]))
        for s in range(0, len(t), k):
            if s == 0 or len(t) - s < k:  # the last group may be shorter
                cols = np.empty((d, min(k, len(t) - s), ut.shape[2]))
            np.multiply(root[None, s:s + k, None], ut, out=cols)
            np.add(txi[:, s:s + k], cols, out=cols)
            a[:, s:s + k] = np.asarray(angular(cols.reshape(d, -1).T),
                                       dtype=float).reshape(len(ps),
                                                            len(cols[0]), -1)
        for pi in range(len(ps)):
            lat = a[pi] @ w  # (T,) subsphere integrals at each latitude
            for li in range(len(sigmas)):
                per[pi, li, bi] = (float(np.dot(gw[pi][li], lat))
                                   / masses[pi][li])
    out = []
    for wide, fine in per:
        est = Estimate.from_batches((4.0 * fine - wide) / 3.0, u_rule,
                                    "pairing")
        residual = abs(est.value - float(kahan_reduce(fine)))
        out.append((est.value, est.stderr, residual))
    return out


def pairing_oracle(body: StarBody, xi, ps,
                   rule: SphereRule) -> list[FtSample]:
    """(||x||^{-p})^(xi) for each exponent p of the sequence `ps` by
    pairing with an explicit Gaussian test pair, Richardson extrapolated
    over the widths _SIGMA = 0.2 and _SIGMA / 2, on `rule` over S^{d-1}
    (ft_values holds the default); one FtSample per exponent, in order.

    All exponents share one pass over the nodes: each gauge call computes
    the radial function once and every exponent takes its own power of it,
    so each sample equals that of a one-exponent call.  Needs no invariance
    assumption; serves as the independent oracle for the derivative and
    fractional routes.  Flags a sample as 'inconclusive' when its error
    bar exceeds 10% of its value.
    """
    ps = list(ps)
    if not all(0.0 < p < body.dim for p in ps):
        raise ValueError("p must lie in (0, dim)")
    xi = np.asarray(xi, dtype=float)

    def powers(pts):
        r = body.radial(pts)
        return [r ** p for p in ps]

    samples = []
    for p, (value, stderr, residual) in zip(
            ps, _pairing_core(powers, body.dim, xi, ps, rule, 0)):
        # fold the residual extrapolation bias estimate into the error bar
        stderr = stderr + residual / 3.0
        flags = ("inconclusive",) if stderr > 0.1 * abs(value) else ()
        samples.append(FtSample(float(p), value, stderr, "pairing", flags))
    return samples


# ---------------------------------------------------------------------------
# route 4: harmonic expansion times closed-form multipliers
# ---------------------------------------------------------------------------

def classical_multiplier(j, p, d):
    """Closed-form lambda(j, p) with (P_j(x/|x|)|x|^{-p})^ =
    lambda P_j(y/|y|)|y|^{-(d-p)} for a degree-j spherical harmonic P_j
    (Bochner / Funk-Hecke; Koldobsky, Fourier Analysis in Convex Geometry,
    section 3).  Degree 0 is the constant c(d, p) of the classical
    (|x|^{-p})^ = c(d, p) |y|^{-(d-p)}."""
    return ((-1.0) ** (j // 2) * 2.0 ** (d - p) * math.pi ** (d / 2.0)
            * _ufuncs.gamma((j + d - p) / 2.0)
            / _ufuncs.gamma((j + p) / 2.0))


def ft_multiplier_route(body: StarBody, xi, p: float) -> FtSample:
    """(||x||^{-p})^(xi) by harmonic expansion of the norm power.

    rho^p is projected onto the fully symmetric harmonic atoms
    (harmonics.symmetric_coefficients) and each degree is multiplied by its
    closed-form lambda(j, p).  Degrees up to _MAX_DEGREE = 12 make the
    value; those in (12, _TAIL_DEGREE = 24] are left out of it, and their
    contribution bounds the truncation error and is the whole error bar.
    """
    _require_invariant(body)
    if not body.moduli_symmetric:
        raise UnsupportedRouteError(
            "the multiplier route needs a body whose radial function "
            "depends only on the block moduli")
    if not 0.0 < p < body.dim:
        raise ValueError("p must lie in (0, dim)")
    xi = np.asarray(xi, dtype=float)
    atoms, coefs = symmetric_coefficients(
        lambda pts: body.radial(pts) ** p, body.dim // 2, _TAIL_DEGREE)
    value = 0.0
    tail = 0.0
    for atom, coef in zip(atoms, coefs):
        contrib = coef * float(atom(xi)[0])
        term = classical_multiplier(atom.degree, p, body.dim) * contrib
        if atom.degree <= _MAX_DEGREE:
            value += term
        else:
            tail += abs(term)
    return FtSample(float(p), value, tail, "multiplier")


# ---------------------------------------------------------------------------
# route dispatch
# ---------------------------------------------------------------------------

#: the Fourier routes a caller may name
_METHODS = ("derivative", "fractional", "pairing", "multiplier")


def _route(p: float, n: int, method: str):
    """(route, order) of p in dim 2n by the named method, or by the natural
    route: 'derivative' with m where p = 2n - 2m - 2 and 0 <= m < n - 1,
    else 'fractional' with q = 2n - p - 2 in (0, 2).  'pairing' and
    'multiplier' take any p and no order.  Raises UnsupportedRouteError
    when the route does not reach p, when p needs a derivative order that
    laplacian_at_zero does not implement, or for a method of another
    name."""
    if method not in (None, *_METHODS):
        raise UnsupportedRouteError(
            f"unknown method {method!r}; choose one of {', '.join(_METHODS)}")
    if method in ("pairing", "multiplier"):
        return method, None
    if (method in (None, "derivative") and math.isfinite(p)
            and abs(p - round(p)) < 1e-12 and not round(p) % 2
            and 0 <= (m := (2 * n - 2 - round(p)) // 2) < n - 1):
        if m > max(_STENCILS):
            raise UnsupportedRouteError(
                f"no implemented route reaches p={p} in dim {2 * n}: the "
                f"derivative route needs order m={m}, and laplacian_at_zero "
                f"implements m <= {max(_STENCILS)}")
        return "derivative", m
    if method == "derivative":
        raise UnsupportedRouteError(f"p={p} is not of the form 2m+2")
    q = 2 * n - p - 2
    if 0.0 < q < 2.0:
        return "fractional", q
    if method is None:
        raise UnsupportedRouteError(
            f"no implemented route reaches p={p} in dim {2 * n}")
    raise UnsupportedRouteError(
        f"the fractional route needs 2n - p - 2 in (0, 2), not {q}")


def ft_values(body: StarBody, xi, ps, rule: SphereRule = None,
              method: str = None) -> list[FtSample]:
    """Evaluate (||x||^{-p})^(xi) for each exponent of `ps`, by the named
    method or each one's natural route; one FtSample per exponent, in
    order.  Every exponent is routed before any work and a repeated one is
    evaluated once; fractional exponents share one section profile and
    pairing ones one pass, so each sample equals a one-exponent call's.

    This is the one place where a Fourier route gets a default rule: with
    `rule` None, the derivative and fractional routes take
    default_section_rule(d) and the pairing route 2^19 Sobol nodes on
    S^{d-1} with seed 5.  The multiplier route reads no rule, so it
    refuses one."""
    if method == "multiplier" and rule is not None:
        raise UnsupportedRouteError(f"the multiplier route reads no rule, "
                                    f"not {rule.kind} on S^{rule.dim - 1}")
    n = body.dim // 2
    routes = {p: _route(p, n, method) for p in ps}
    if rule is None and method != "multiplier":
        # no method routes an exponent to pairing but "pairing" itself
        rule = (SphereRule.qmc(body.dim, 2 ** 19, 5) if method == "pairing"
                else default_section_rule(body.dim))
    done, profile = {}, None
    for p, (route, order) in routes.items():
        if route == "derivative":
            done[p] = ft_derivative_route(body, xi, order, rule)
        elif route == "multiplier":
            done[p] = ft_multiplier_route(body, xi, p)
        elif route == "fractional":
            profile = profile or section_profile(body, xi, rule)
            done[p] = fractional_from_profile(*profile, p, order, n)
    pair = [p for p, (route, _) in routes.items() if route == "pairing"]
    if pair:
        done.update(zip(pair, pairing_oracle(body, xi, pair, rule)))
    return [done[p] for p in ps]

