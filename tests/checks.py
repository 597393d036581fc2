"""Audits and reference implementations that only the tests call, and the
helpers several test modules share.

Each audit checks a library result against an independent identity or
closed form (the Hoelder volume chain, spherical Parseval, the circle
integral, exact Dirichlet moments, the closed-form section gaps of a
constructed pair, Bernoulli's lower bound on its volume gap, the
boundary curvature that decides convexity); none of them is part of the
pipeline.
The reference implementations at the end are earlier one-shot forms of
pipeline functions, kept as oracles the streamed forms must match bit for
bit.
"""

import functools
import json
import math
import os

import numpy as np
import scipy
from scipy import integrate, special, stats

from cbplab.bodies import (ConvexityReport, EuclideanBall, RadialPerturbation,
                           StarBody, _columns, _shaped, _sum_squares)
from cbplab.busemann_petty import _require_invariant as _require_bp
from cbplab.busemann_petty import pair_from_record, read_pair_record
from cbplab.fourier import (FtSample, _require_invariant, classical_multiplier,
                            ft_values)
from cbplab.harmonics import (HarmonicBump, _factorials, c_add, c_eval,
                              c_harmonic_components, c_scale,
                              symmetric_harmonic_atoms)
from cbplab.quadrature import (SphereRule, _gauss_legendre, integrate_sphere,
                               sphere_area)
from cbplab.sections import _BISECT_ITERS, RootBracketError


def kappa(d):
    """Volume of the unit ball in R^d."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def unit(dim, seed=0):
    """A random unit vector in R^dim, the same for the same seed."""
    g = np.random.Generator(np.random.Philox(key=seed))
    x = g.standard_normal(dim)
    return x / np.linalg.norm(x)


def block_moduli(x):
    """Per-block moduli sqrt(x_{j1}^2 + x_{j2}^2) of points in R^{2n}."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(x[..., 0::2] ** 2 + x[..., 1::2] ** 2)


def agrees(a: FtSample, b: FtSample, factor: float = 3.0) -> bool:
    """Whether two samples agree within `factor` combined standard errors."""
    # the relative floor lets two deterministic (stderr 0) samples that
    # match to round-off count as agreeing
    tol = factor * math.hypot(a.stderr, b.stderr)
    tol += 1e-9 * max(abs(a.value), abs(b.value))
    return abs(a.value - b.value) <= tol


def holder_chain_check(K: StarBody, L: StarBody) -> dict:
    """Numerical check of the volume comparison chain on the sphere:

        2n Vol(K) = int rho_K^{2n}
                 <= int rho_L^{2n-2} rho_K^2          (section dominance)
                 <= (2n Vol L)^{(n-1)/n} (2n Vol K)^{1/n}   (Hoelder)

    Returns the three integrals and both slacks with error bars; a slack
    below -3 stderr marks the corresponding inequality as failed.
    """
    _require_bp(K)
    _require_bp(L)
    if K.dim != L.dim:
        raise ValueError("bodies must share a dimension")
    d = K.dim
    n = d // 2
    rule = SphereRule.qmc(d, 2 ** 16, 17)
    # three integrals on the same rule, hence on the same nodes
    one = integrate_sphere(rule, lambda pts: K.radial(pts) ** d)
    two = integrate_sphere(rule, lambda pts: L.radial(pts) ** (d - 2)
                           * K.radial(pts) ** 2)
    vol = integrate_sphere(rule, lambda pts: L.radial(pts) ** d)
    i1, e1 = one.value, one.stderr
    i2, e2 = two.value, two.stderr
    voll, evoll = vol.value, vol.stderr
    i3 = voll ** ((n - 1.0) / n) * i1 ** (1.0 / n)
    # first-order error propagation through the product of powers
    e3 = abs(i3) * math.hypot((n - 1.0) / n * evoll / voll, e1 / (n * i1))
    slack1 = i2 - i1
    err1 = math.hypot(e1, e2)
    slack2 = i3 - i2
    err2 = math.hypot(e2, e3)
    # round-off floor: with deterministic or variance-free integrands the
    # stderrs vanish and a slack of a few ulps must not count as a failure
    floor = 1e-12 * max(abs(i1), abs(i2), abs(i3))
    return {
        "i1": i1, "i1_stderr": e1,
        "i2": i2, "i2_stderr": e2,
        "i3": i3, "i3_stderr": e3,
        "slack1": slack1, "slack1_stderr": err1,
        "slack2": slack2, "slack2_stderr": err2,
        "ok": bool(slack1 >= -(3.0 * err1 + floor)
                   and slack2 >= -(3.0 * err2 + floor)),
    }


def parseval_check(bodyK: StarBody, bodyL: StarBody, p: float,
                   grid) -> dict:
    """Two-sided spherical Parseval check, on default rules.

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
        [fk] = ft_values(bodyK, xi, [p], None)
        [fl] = ft_values(bodyL, xi, [d - p], None)
        lhs += w * fk.value * fl.value
        var += (w * math.hypot(fk.stderr * fl.value,
                               fl.stderr * fk.value)) ** 2
    rhs = (2.0 * math.pi) ** d * integrate_sphere(
        SphereRule.qmc(d, 2 ** 16, 2),
        lambda pts: bodyK.radial(pts) ** p * bodyL.radial(pts) ** (d - p)
    ).value
    rel_gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    return {"lhs": lhs, "rhs": rhs, "rel_gap": rel_gap,
            "lhs_stderr": math.sqrt(var)}


def sph_identity_check(v, q: float) -> dict:
    """Check |v|^{-q-2} = Gamma(-q/2) / (2 Gamma((-q-1)/2) sqrt(pi)) *
    int_{S^1} |<v, u>|^{-q-2} du for q in (-2, -1).

    The circle integral has integrable |cos|^s singularities (s = -q-2 in
    (-1, 0)); writing the quarter period as int_0^{pi/2} u^s (sin u / u)^s du
    and using a 40-node Gauss-Jacobi rule with endpoint weight u^s leaves a
    smooth integrand, so the rule converges spectrally.
    """
    v = np.asarray(v, dtype=float)
    if not -2.0 < q < -1.0:
        raise ValueError("q must lie in (-2, -1)")
    r = float(np.linalg.norm(v))
    if r == 0.0:
        raise ValueError("v must be nonzero")
    s = -q - 2.0
    c = math.pi / 2.0
    t, w = special.roots_jacobi(40, 0.0, s)
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


def c_sphere_integral(p, n):
    """Exact integral over S^{2n-1}: block moduli^2 are Dirichlet(1,..,1)."""
    total = 0.0
    for mono, coef in p.items():
        k = sum(mono)
        mom = (math.factorial(n - 1)
               * math.prod(math.factorial(e) for e in mono)
               / math.factorial(n - 1 + k))
        total += coef * mom
    return total * sphere_area(2 * n)


def bump_moment(d, p, sigma):
    """Closed form of fourier._harmonic_bump_moments at degree 0: the mean of
    |Y|^{p-d} for Y ~ N(xi, sigma^2 I_d) at a unit xi, a moment of the
    noncentral chi-square law, (2 sigma^2)^{(p-d)/2} Gamma(p/2) / Gamma(d/2)
    1F1((d-p)/2; d/2; -1/(2 sigma^2)).  scipy's hyp1f1 gives it to within
    9e-16 of mpmath at 40 digits at the points the tests use."""
    return ((2.0 * sigma ** 2) ** ((p - d) / 2.0) * special.gamma(p / 2.0)
            / special.gamma(d / 2.0)
            * special.hyp1f1((d - p) / 2.0, d / 2.0, -0.5 / sigma ** 2))


def _require_constructed(K, L, need):
    """Refuse any pair but one as bp_construct builds it, K =
    RadialPerturbation(L, 2n - 2, eps, g) of L itself with g a
    HarmonicBump, by a ValueError that opens with `need`, the audit's name
    and verb, and names that form."""
    d = K.dim
    if not (isinstance(K, RadialPerturbation) and K.base is L
            and K.s == d - 2 and isinstance(K.bump, HarmonicBump)):
        raise ValueError(f"{need} K = "
                         f"RadialPerturbation(L, {d - 2}, eps, HarmonicBump) "
                         f"of L itself, not K = {K.spec()}, L = {L.spec()}")


def section_gap_profile(K, L, grid):
    """-eps f(xi) at each grid direction, for a pair as bp_construct builds
    it: K = RadialPerturbation(L, 2n - 2, eps, g) with g a HarmonicBump.
    f = sum_j [g]_j / lambda(j, 2, 2n) undoes _transform_bump degree by
    degree, so (f(x/|x|) |x|^{-2})^ = g(y/|y|) |y|^{-(2n-2)}.  Any other
    pair raises ValueError naming the form it needs."""
    _require_constructed(K, L, "closed-form section gaps need")
    d = K.dim
    f = {}
    for deg, poly in c_harmonic_components(K.bump.c_poly, d // 2).items():
        f = c_add(f, c_scale(poly, 1.0 / classical_multiplier(deg, 2.0, d)))
    return -K.eps * HarmonicBump(f, "f")(grid.points)


def exact_section_gaps(K, L, grid):
    """Closed-form central section gaps A_K(xi) - A_L(xi) of a pair as
    bp_construct builds it (section_gap_profile, which refuses any other):
    -eps (2 pi)^{2n-1} / (2n - 2) f(xi).  A central complex section is the
    Fourier transform of ||x||^{-2n+2} up to that constant (arXiv
    0707.3851), and the perturbation's transform is -eps f."""
    d = K.dim
    return ((2.0 * math.pi) ** (d - 1) / (d - 2)
            * section_gap_profile(K, L, grid))


def volume_lower_bound(K, L, res):
    """Bernoulli's lower bound on Vol(K) - Vol(L) for a pair as
    bp_construct builds it (any other raises ValueError naming the form it
    needs), on the moduli Gauss rule of `res` nodes per angle.

    With t = eps g / rho_L^{d-2} < 1 and a = d / (d - 2), rho_K^d =
    rho_L^d (1 - t)^a >= rho_L^d (1 - a t), so Vol(K) - Vol(L) >=
    -eps / (d - 2) I with I = int rho_L^2 g over S^{d-1}: the volume of K
    exceeds L's whatever eps once I < 0 and t < 1.  rho_L and g depend on
    the block moduli alone, so the rule integrates them exactly up to its
    order.  Returns I, the bound, the gap (int rho_K^d - rho_L^d) / d on
    the same nodes, and the largest t on them."""
    _require_constructed(K, L, "a volume lower bound needs")
    if not L.moduli_symmetric:
        raise ValueError(f"a volume lower bound needs a moduli_symmetric L, "
                         f"not {L.spec()}")
    d = K.dim
    m, weights = moduli_gauss_quadrature(d // 2, res)
    pts = np.zeros((len(m), d))
    pts[:, 0::2] = m
    rho_L, g = L.radial(pts), K.bump(pts)
    integral = float(np.dot(weights, rho_L ** 2 * g))
    gap = float(np.dot(weights, K.radial(pts) ** d - rho_L ** d)) / d
    return {"I": integral, "bound": -K.eps / (d - 2) * integral, "gap": gap,
            "max_t": float(np.max(K.eps * g / rho_L ** (d - 2)))}


def curvature_margin(body: StarBody, res):
    """The smallest curvature of the boundary of `body` over the midpoint
    grid of res^(n-1) moduli angles, and the moduli (n,) where it occurs.

    Curvature is the smallest eigenvalue of the Hessian of the gauge,
    restricted to the tangent space (the gradient's complement), at the
    boundary point x/||x|| over each unit moduli point x = (m_1, 0, m_2,
    0, ...).  A C^2 gauge bounds a convex body exactly when it is >= 0
    everywhere (Schneider, Convex Bodies, section 2.5), and for a body
    whose radial function depends only on the block moduli the moduli
    grid covers every orbit.  Gradient and Hessian are central
    differences of `norm` with step h = 1e-4.  A body that is not
    moduli_symmetric or not smooth raises ValueError naming it."""
    for need in ("moduli_symmetric", "smooth"):
        if not getattr(body, need):
            raise ValueError(f"curvature_margin needs a {need} body, "
                             f"not {body.spec()}")
    n, d, h = body.n_blocks, body.dim, 1e-4
    m, _ = moduli_angle_map((np.arange(res) + 0.5) * (0.5 * math.pi / res),
                            n, ())
    b = np.zeros((len(m), d))
    b[:, 0::2] = m
    b /= body.norm(b)[:, None]
    step = h * np.eye(d)
    grad = (body.norm(b[:, None] + step)
            - body.norm(b[:, None] - step)) / (2.0 * h)

    def shifted(si, sj):  # norm at b + si h e_i + sj h e_j, (N, d, d)
        return body.norm(b[:, None, None] + (si * step[:, None]
                                             + sj * step[None, :]))

    hess = (shifted(1, 1) - shifted(1, -1) - shifted(-1, 1)
            + shifted(-1, -1)) / (4.0 * h * h)
    hess = 0.5 * (hess + hess.transpose(0, 2, 1))
    # rows 1..d-1 of the SVD's right factor span the gradient's complement
    tangent = np.linalg.svd(grad[:, None, :])[2][:, 1:]
    low = np.linalg.eigvalsh(tangent @ hess @ tangent.transpose(0, 2, 1))
    worst = int(np.argmin(low[:, 0]))
    return float(low[worst, 0]), m[worst]


def radial_metric(a: StarBody, b: StarBody) -> float:
    """Sampled sup-distance between radial functions (2^12 directions)."""
    g = np.random.Generator(np.random.Philox(key=3))
    theta = g.standard_normal((2 ** 12, a.dim))
    theta /= np.linalg.norm(theta, axis=1, keepdims=True)
    return float(np.max(np.abs(a.radial(theta) - b.radial(theta))))


def dented_ball():
    """A star body that is not convex: rho^4 = 1 - 0.9 sum_j c_j^2 on S^5,
    the ball(6) with a dent of amplitude 0.9 along each block's square."""
    return RadialPerturbation(EuclideanBall(6), 4, 0.9, HarmonicBump(
        {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}, "dent"),
        bump_id="dent")


class WiggledBall(StarBody):
    """The ball(dim) with rho^2 = 1 - a cos(k x_0/|x|): a smooth star body
    that is neither R_theta-invariant nor moduli_symmetric, which no
    RadialPerturbation is, as its bump is a polynomial in the block moduli.
    Not convex for large a k^2."""

    def __init__(self, dim, amplitude, frequency):
        self.dim, self.a, self.k = dim, float(amplitude), float(frequency)
        self.r_min = math.sqrt(1.0 - self.a)
        self.r_max = math.sqrt(1.0 + self.a)

    def norm(self, x):
        x = np.asarray(x, dtype=float)
        xt = _columns(x, self.dim)
        r = np.sqrt(_sum_squares(xt))
        with np.errstate(invalid="ignore", divide="ignore"):
            values = r / np.sqrt(1.0 - self.a * np.cos(self.k * xt[0] / r))
        values[r == 0.0] = 0.0  # the origin, whose direction is NaN
        return _shaped(values, x)

    def spec(self):
        return f"wiggle:dim={self.dim},a={self.a:g},k={self.k:g}"


@functools.lru_cache(maxsize=None)
def committed_pair():
    """(K, L) of the committed n = 4 pair, perfbench/data/pair_n4_q4_seed0
    .json, read through read_pair_record; built once per process."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "data",
        "pair_n4_q4_seed0.json")
    with open(path) as fh:
        return pair_from_record(read_pair_record(json.load(fh), path))


def rotate(x, theta):
    """Apply the blockwise rotation R_theta to every coordinate pair of x."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 2 != 0:
        raise ValueError("rotate requires an even-dimensional vector")
    c, s = math.cos(theta), math.sin(theta)
    a = x[..., 0::2]
    b = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = c * a - s * b
    out[..., 1::2] = s * a + c * b
    return out


def orbit_distance(p, q, samples=256):
    """min over theta of |R_theta p - q|, estimated on a theta grid."""
    thetas = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    best = math.inf
    for t in thetas:
        best = min(best, float(np.linalg.norm(rotate(p, t) - q)))
    return best


# ---------------------------------------------------------------------------
# one-shot reference forms: full meshgrids, one (2n, N) point array, one
# moment array per pair of polynomials
# ---------------------------------------------------------------------------

def moduli_angle_map(angles, n, lead):
    """Moduli vectors on S^{n-1}_+ at the product grid of the 1-D `angles`
    in each of the n-1 spherical angles (first angle slowest), and the
    surface element prod_i sin^{n-2-i}(phi_i) of S^{n-1} there; `lead`
    cuts the grid to one slice of `angles` per leading angle.

    Returns (m, jac) with m of shape (N, n).  Callers supply their own
    nodes and weights; the pushforward of the uniform measure on S^{2n-1}
    to the moduli adds the density prod_j m_j.
    """
    axes = [angles[c] for c in lead] + [angles] * (n - 1 - len(lead))
    grids = np.meshgrid(*axes, indexing="ij")
    phis = np.stack([g.ravel() for g in grids], axis=1)  # (N, n-1)
    m = np.empty((phis.shape[0], n))
    sin_prod = np.ones(phis.shape[0])
    for i in range(n - 1):
        m[:, i] = sin_prod * np.cos(phis[:, i])
        sin_prod = sin_prod * np.sin(phis[:, i])
    m[:, n - 1] = sin_prod
    jac = np.ones(phis.shape[0])
    for i in range(n - 1):
        jac = jac * np.sin(phis[:, i]) ** (n - 2 - i)
    return m, jac


def moduli_gauss_quadrature(n, res=64):
    """Gauss-Legendre quadrature in the block-moduli angles of S^{2n-1}.

    Returns (m, weights): m is an (N, n) array of nonnegative moduli with
    sum(m^2) = 1 per row, and weights carry the invariant surface measure,
    normalized so that any function of the moduli alone integrates over the
    sphere as weights . f(m).  Spectrally accurate for smooth integrands.
    """
    res = int(res)
    x, w = _gauss_legendre(res)
    m, jac = moduli_angle_map(0.25 * math.pi * (x + 1.0), n, ())
    wgrids = np.meshgrid(*([0.25 * math.pi * w] * (n - 1)), indexing="ij")
    weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    weights = weights * jac * np.prod(m, axis=1)
    weights *= sphere_area(2 * n) / weights.sum()
    return m, weights


def symmetric_coefficients(f, n, max_degree, res=64):
    """Inner products <f, P> over S^{2n-1} of a function f of the block
    moduli with the symmetric atoms P of degree <= max_degree, on the nodes
    (m_1, 0, m_2, 0, ...) of moduli_gauss_quadrature, which f gets as the
    (N, 2n) view of coordinate columns.  Returns (atoms, coefs)."""
    m, weights = moduli_gauss_quadrature(n, res)
    pts = np.zeros((2 * n, m.shape[0]))
    pts[0::2] = m.T
    vals = f(pts.T)
    m2 = m ** 2
    atoms = symmetric_harmonic_atoms(n, max_degree)
    coefs = [float(np.dot(weights, vals * c_eval(atom.c_poly, m2)))
             for atom in atoms]
    return atoms, coefs


def c_sphere_inner(p, q, n):
    """Exact <p, q> over S^{2n-1}, vectorized over the merged exponents."""
    if not p or not q:
        return 0.0
    m1 = list(p)
    m2 = list(q)
    v1 = np.array([p[m] for m in m1])
    v2 = np.array([q[m] for m in m2])
    E = (np.array(m1, dtype=int)[:, None, :]
         + np.array(m2, dtype=int)[None, :, :])
    fact = _factorials(0, int(E.max()) + 1)
    k = E.sum(axis=2)
    kfact = _factorials(n - 1, n + int(k.max()))
    mom = (math.factorial(n - 1) * np.prod(fact[E], axis=2)
           / kfact[k])
    return float(v1 @ mom @ v2) * sphere_area(2 * n)


def scipy_sobol_sphere(d, n, seed):
    """n scrambled Sobol points on S^{d-1} as scipy.stats made them: the
    formula of SphereRule's QMC batches and make_grid(reduction="none")
    before they drew their points with numpy."""
    u = stats.qmc.Sobol(d=d, scramble=True, seed=seed).random(n)
    z = stats.norm.ppf(np.clip(u, 1e-15, 1 - 1e-15))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def scipy_fractional_radial(g, q, cutoff):
    """quadrature.fractional_radial as it was when it called
    scipy.integrate.quad: the reference for its direct QUADPACK call."""
    T = float(cutoff)
    g0 = float(g(0.0))
    delta = T * 1e-3
    ts = np.linspace(delta / 5, delta, 5)
    dg = np.array([float(g(t)) - g0 for t in ts])
    design = np.stack([ts**2, ts**4], axis=1)
    (a2, a4), *_ = np.linalg.lstsq(design, dg, rcond=None)
    head = a2 * delta ** (2.0 - q) / (2.0 - q) + a4 * delta ** (4.0 - q) / (4.0 - q)
    mid, _ = integrate.quad(
        lambda t: (float(g(t)) - g0) / t ** (1.0 + q),
        delta, T, limit=200,
    )
    tail = -g0 * T ** (-q) / q
    return float(head + mid + tail)


def whole_grid_gauss_batches(rule):
    """The batches of a product rule as SphereRule made them when it built
    the whole grid first and split it by np.array_split: the reference for
    the batches it now builds from the inner grid."""
    t_axes = rule._axes[0:-1]
    ang, wang = rule._axes[-1]
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    w = wang.copy()
    for t, wt in reversed(t_axes):
        # lift S^{d-2} nodes to S^{d-1}: x = (sqrt(1-t^2) y, t)
        s = np.sqrt(1.0 - t**2)
        n_old = pts.shape[0]
        new = np.empty((len(t) * n_old, pts.shape[1] + 1))
        new[:, :-1] = np.repeat(s, n_old)[:, None] * np.tile(pts, (len(t), 1))
        new[:, -1] = np.repeat(t, n_old)
        w = (wt[:, None] * w[None, :]).ravel()
        pts = new
    for idx in np.array_split(np.arange(len(w)), min(32, len(w))):
        yield pts[idx], w[idx]


def bisect_slice_radii(body, bases, labels, r_hi, theta):
    """sections._slice_radii as it was before its secant search: 48
    halvings of [0, r_hi], each with one gauge call over every (base, node)
    pair.  The reference for the roots the secant search and the replayed
    halvings give."""
    bases_t = bases.T[:, :, None]
    theta_t = theta.T[:, None, :]
    buf = np.empty((body.dim, len(bases), len(theta)))
    pts = buf.reshape(body.dim, -1).T

    def gauge(r):
        np.multiply(r, theta_t, out=buf)
        np.add(buf, bases_t, out=buf)
        return body.norm(pts).reshape(r.shape)

    hi = np.broadcast_to(r_hi[:, None], (len(bases), len(theta))).copy()
    short = np.nonzero(np.any(gauge(hi) < 1.0, axis=1))[0]
    if len(short):
        k = short[0]
        raise RootBracketError(
            f"bracket end r = {r_hi[k]:.6g} lies inside the body at offset "
            f"({labels[k][0]:.6g}, {labels[k][1]:.6g}); r_max = "
            f"{body.r_max:.6g} is understated")
    lo = np.zeros_like(hi)
    mid = np.empty_like(hi)
    for _ in range(_BISECT_ITERS):
        np.add(lo, hi, out=mid)
        mid *= 0.5
        less = gauge(mid) < 1.0
        np.copyto(lo, mid, where=less)
        np.copyto(hi, mid, where=~less)
    return 0.5 * (lo + hi)


def sobol_directions_full(d):
    """quadrature._sobol_directions as it was before it read the Joe-Kuo
    table by prefix: both arrays inflated whole by np.load, then cut to d
    rows.  The reference for the direction numbers the prefix read gives."""
    with np.load(os.path.join(os.path.dirname(scipy.__file__), "stats",
                              "_sobol_direction_numbers.npz")) as table:
        poly, vinit = table["poly"][:d], table["vinit"][:d]
    v = np.ones((d, 30), dtype=np.uint32)
    for j in range(1, d):
        p, m = int(poly[j]), int(poly[j]).bit_length() - 1
        row = [int(c) for c in vinit[j, :m]]
        for i in range(m, 30):
            row.append(row[i - m])
            for t in range(1, m + 1):
                row[i] ^= (p >> m - t & 1) * row[i - t] << t
        v[j] = row
    v <<= np.arange(29, -1, -1, dtype=np.uint32)
    return v


def one_shot_convexity_probe(body, samples, seed):
    """bodies.convexity_probe as it was before it tested its pairs in row
    groups: each 2^14-pair block normalised whole, and one radial call per
    end over the whole block.  The reference for the row-group form."""
    g = np.random.Generator(np.random.Philox(key=seed))
    worst = -math.inf
    violations = 0
    batch = 2**14
    done = 0
    while done < samples:
        k = min(batch, samples - done)
        theta = g.standard_normal((2, k, body.dim))
        theta /= np.linalg.norm(theta, axis=2, keepdims=True)
        for ends in theta:
            ends *= body.radial(ends)[:, None]
        mid = theta[0]
        mid += theta[1]
        mid *= 0.5
        nrm = body.norm(mid)
        worst = max(worst, float(np.max(nrm) - 1.0))
        violations += int(np.count_nonzero(nrm > 1.0 + 1e-9))
        done += k
    return ConvexityReport(violations=violations, worst_gap=worst,
                           samples=samples)


def recursive_monomials(d, deg):
    """Exponent tuples of all degree-`deg` monomials in d variables by the
    recursion harmonics._monomials once used: each leading exponent from 0
    up, the rest recursively."""
    if deg == 0:
        return (tuple([0] * d),)
    out = []

    def rec(prefix, rem, slots):
        if slots == 1:
            out.append(tuple(prefix + [rem]))
            return
        for k in range(rem + 1):
            rec(prefix + [k], rem - k, slots - 1)

    rec([], deg, d)
    return tuple(out)


def recursive_partitions(k, max_parts):
    """Partitions of k into at most max_parts parts (tuples padded with 0),
    largest first part first, by the recursion harmonics._partitions once
    used."""
    def rec(rem, maxv, parts):
        if rem == 0:
            yield tuple(parts + [0] * (max_parts - len(parts)))
            return
        if len(parts) == max_parts:
            return
        for v in range(min(rem, maxv), 0, -1):
            yield from rec(rem - v, v, parts + [v])

    yield from rec(k, k, [])
