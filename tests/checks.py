"""Audits and reference implementations that only the tests call, and the
helpers several test modules share.

Each audit checks a library result against an independent identity or
closed form (the Hoelder volume chain, spherical Parseval, the circle
integral, exact Dirichlet moments); none of them is part of the pipeline.
"""

import math

import numpy as np
from scipy import special

from cbplab.bodies import StarBody
from cbplab.busemann_petty import _require_invariant as _require_bp
from cbplab.fourier import FtSample, _require_invariant, ft_value
from cbplab.frames import rotate
from cbplab.quadrature import SphereRule, integrate_sphere, sphere_area


def kappa(d):
    """Volume of the unit ball in R^d."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def unit(dim, seed=0):
    """A random unit vector in R^dim, the same for the same seed."""
    g = np.random.Generator(np.random.Philox(key=seed))
    x = g.standard_normal(dim)
    return x / np.linalg.norm(x)


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
        fk = ft_value(bodyK, xi, p)
        fl = ft_value(bodyL, xi, d - p)
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
