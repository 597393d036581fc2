"""Audits and reference implementations that only the tests call, and the
helpers several test modules share.

Each audit checks a library result against an independent identity or
closed form (the Hoelder volume chain, spherical Parseval, the circle
integral, exact Dirichlet moments); none of them is part of the pipeline.
The reference implementations at the end are earlier one-shot forms of
pipeline functions, kept as oracles the streamed forms must match bit for
bit.
"""

import math
import os

import numpy as np
import scipy
from scipy import integrate, special, stats

from cbplab.bodies import StarBody
from cbplab.busemann_petty import _require_invariant as _require_bp
from cbplab.fourier import FtSample, _require_invariant, ft_values
from cbplab.frames import rotate
from cbplab.harmonics import _factorials, c_eval, symmetric_harmonic_atoms
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
    rule = SphereRule(d, "quasi_monte_carlo", node_count=2 ** 16, seed=17)
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
        [fk] = ft_values(bodyK, xi, [p])
        [fl] = ft_values(bodyL, xi, [d - p])
        lhs += w * fk.value * fl.value
        var += (w * math.hypot(fk.stderr * fl.value,
                               fl.stderr * fk.value)) ** 2
    rhs = (2.0 * math.pi) ** d * integrate_sphere(
        SphereRule(d, "quasi_monte_carlo", node_count=2 ** 16, seed=2),
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
    """Closed form of fourier._harmonic_bump_moment at degree 0: the mean of
    |Y|^{p-d} for Y ~ N(xi, sigma^2 I_d) at a unit xi, a moment of the
    noncentral chi-square law, (2 sigma^2)^{(p-d)/2} Gamma(p/2) / Gamma(d/2)
    1F1((d-p)/2; d/2; -1/(2 sigma^2)).  scipy's hyp1f1 gives it to within
    9e-16 of mpmath at 40 digits at the points the tests use."""
    return ((2.0 * sigma ** 2) ** ((p - d) / 2.0) * special.gamma(p / 2.0)
            / special.gamma(d / 2.0)
            * special.hyp1f1((d - p) / 2.0, d / 2.0, -0.5 / sigma ** 2))


def radial_metric(a: StarBody, b: StarBody) -> float:
    """Sampled sup-distance between radial functions (2^12 directions)."""
    g = np.random.Generator(np.random.Philox(key=3))
    theta = g.standard_normal((2 ** 12, a.dim))
    theta /= np.linalg.norm(theta, axis=1, keepdims=True)
    return float(np.max(np.abs(a.radial(theta) - b.radial(theta))))


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
