"""Origin-symmetric star bodies in R^{2n} encoded by their Minkowski
functionals, with the invariance structure of complex norms.

Every body exposes a vectorized gauge `norm(X)` over (N, dim) arrays; all
downstream geometry (volumes, sections, Fourier routes) consumes only
`norm` / `radial`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import rotate


class StarBody:
    """Base class: a 1-homogeneous even gauge with certified radial bounds."""

    dim: int
    invariance_class: str = "general"
    smoothness_hint: str = "C2"
    r_min: float = 1.0
    r_max: float = 1.0
    #: radial function depends only on the block moduli (full symmetry group)
    moduli_symmetric: bool = False

    def norm(self, x):
        raise NotImplementedError

    def radial(self, theta):
        """rho(theta) = 1/norm(theta) for unit directions."""
        return 1.0 / self.norm(theta)

    def spec(self) -> str:
        raise NotImplementedError

    @property
    def n_blocks(self) -> int:
        return self.dim // 2


def block_moduli(x):
    """Per-block moduli sqrt(x_{j1}^2 + x_{j2}^2) of points in R^{2n}."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(x[..., 0::2] ** 2 + x[..., 1::2] ** 2)


def norm_eval(body: StarBody, x) -> float:
    """Minkowski functional of the body at x (x != 0)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1 and not np.any(x):
        raise ValueError("norm is undefined at the zero vector")
    return float(body.norm(x)) if x.ndim == 1 else body.norm(x)


def radial_eval(body: StarBody, theta) -> float:
    """Radius of the body in a unit direction."""
    theta = np.asarray(theta, dtype=float)
    nrm = np.linalg.norm(theta, axis=-1)
    if np.any(np.abs(nrm - 1.0) > 1e-12):
        raise ValueError("radial_eval requires a unit direction")
    r = 1.0 / body.norm(theta)
    return float(r) if theta.ndim == 1 else r


class EuclideanBall(StarBody):
    def __init__(self, dim):
        if dim % 2 != 0 or dim < 4:
            raise ValueError("dim must be even and >= 4")
        self.dim = int(dim)
        self.invariance_class = "independent_rotation"
        self.smoothness_hint = "C_infinity"
        self.r_min = self.r_max = 1.0
        self.moduli_symmetric = True

    def norm(self, x):
        return np.linalg.norm(np.asarray(x, dtype=float), axis=-1)

    def spec(self):
        return f"ball:dim={self.dim}"


class ComplexLqBall(StarBody):
    """Unit ball of the complex l_q^n space viewed in R^{2n}."""

    def __init__(self, n, q):
        if n < 2:
            raise ValueError("n must be >= 2")
        if q < 1:
            raise ValueError("q must be >= 1")
        self.n = int(n)
        self.q = float(q)
        self.dim = 2 * self.n
        self.invariance_class = "independent_rotation"
        if self.q % 2 == 0:
            self.smoothness_hint = "C_infinity"
        else:
            self.smoothness_hint = "C2" if self.q > 2 else "nonsmooth"
        bounds = sorted([1.0, self.n ** (0.5 - 1.0 / self.q)])
        self.r_min, self.r_max = bounds
        self.moduli_symmetric = True

    def norm(self, x):
        m = block_moduli(x)
        return np.sum(m ** self.q, axis=-1) ** (1.0 / self.q)

    def spec(self):
        q = self.q
        qs = int(q) if q == int(q) else q
        return f"clq:n={self.n},q={qs}"


class ScaledBody(StarBody):
    """lam * K: the gauge divides by lam, the radius multiplies."""

    def __init__(self, base: StarBody, lam: float):
        if lam <= 0:
            raise ValueError("scale factor must be positive")
        self.base = base
        self.lam = float(lam)
        self.dim = base.dim
        self.invariance_class = base.invariance_class
        self.smoothness_hint = base.smoothness_hint
        self.r_min = base.r_min * self.lam
        self.r_max = base.r_max * self.lam
        self.moduli_symmetric = base.moduli_symmetric

    def norm(self, x):
        return self.base.norm(x) / self.lam

    def spec(self):
        return f"scale:base=({self.base.spec()}),lam={self.lam:g}"


def scale(body: StarBody, lam: float) -> ScaledBody:
    return ScaledBody(body, lam)


class RadialPerturbation(StarBody):
    """Body K with rho_K^s = rho_L^s - eps * g on the sphere, i.e.
    ||x||_K^{-s} = ||x||_L^{-s} - eps g(x/|x|) |x|^{-s}."""

    def __init__(self, base: StarBody, exponent: float, amplitude: float, bump,
                 bump_id="custom", check_samples=2**14, seed=7):
        if exponent <= 0:
            raise ValueError("exponent must be positive")
        self.base = base
        self.s = float(exponent)
        self.eps = float(amplitude)
        self.bump = bump
        self.bump_id = bump_id
        self.dim = base.dim

        g = np.random.Generator(np.random.Philox(key=seed))
        theta = g.standard_normal((check_samples, self.dim))
        theta /= np.linalg.norm(theta, axis=1, keepdims=True)
        gv = np.asarray(bump(theta), dtype=float)
        rad_pow = base.radial(theta) ** self.s - self.eps * gv
        if np.min(rad_pow) <= 0:
            raise ValueError(
                "perturbed radial power is not strictly positive on the sphere"
            )
        sup_pos = max(float(np.max(gv)), 0.0)
        sup_neg = max(float(np.max(-gv)), 0.0)
        safety = 1.05
        low = base.r_min ** self.s - safety * self.eps * sup_pos
        if low <= 0:
            low = float(np.min(rad_pow)) / safety
        self.r_min = low ** (1.0 / self.s)
        self.r_max = (base.r_max ** self.s + safety * self.eps * sup_neg) ** (1.0 / self.s)

        if base.invariance_class in ("complex_rotation", "independent_rotation"):
            if getattr(bump, "moduli_symmetric", False):
                self.invariance_class = "complex_rotation"
            else:
                # the bump must be constant on rotation orbits too; check it
                # on the positivity sample
                dev = 0.0
                for ang in (0.9, 2.3):
                    gv2 = np.asarray(bump(rotate(theta, ang)), dtype=float)
                    dev = max(dev, float(np.max(np.abs(gv2 - gv))))
                scale = max(float(np.max(np.abs(gv))), 1.0)
                self.invariance_class = ("complex_rotation"
                                         if dev <= 1e-10 * scale else "general")
        else:
            self.invariance_class = "general"
        self.smoothness_hint = base.smoothness_hint
        self.moduli_symmetric = base.moduli_symmetric and getattr(
            bump, "moduli_symmetric", False)

    def norm(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            xhat = x / r[..., None]
        rad_pow = self.base.radial(xhat) ** self.s - self.eps * np.asarray(
            self.bump(xhat), dtype=float)
        return r * rad_pow ** (-1.0 / self.s)

    def spec(self):
        return (f"perturb:base=({self.base.spec()}),eps={self.eps:.12g},"
                f"bump={self.bump_id},exponent={self.s:g}")


class MollifiedBody(StarBody):
    """Spherical convolution of the radial function with a smooth zonal kernel.

    The base must depend only on the block moduli.  Its radial function is
    expanded in moduli-symmetric spherical harmonics up to `max_degree`, and
    each degree-j component is damped by the heat-kernel factor
    exp(-j (j + d - 2) width^2 / 2).  The kernel is zonal (a function of
    the geodesic angle alone), so every rotation symmetry of the body is
    kept.  The result is a polynomial in the block moduli: exactly
    invariant, C^infinity, with exact derivatives of all orders, and cheap
    to evaluate.
    """

    _SERIES_RES = 64

    def __init__(self, base: StarBody, width: float, max_degree=16):
        if not 0.0 < width < 1.0:
            raise ValueError("width must lie in (0, 1)")
        if not base.moduli_symmetric:
            raise ValueError(
                f"mollify needs a base whose radial function depends only on "
                f"the block moduli; {base.spec()} does not")
        self.base = base
        self.width = float(width)
        self.dim = base.dim
        self.invariance_class = (
            base.invariance_class
            if base.invariance_class != "general" else "complex_rotation")
        self.smoothness_hint = "C_infinity"
        self.moduli_symmetric = True
        self.max_degree = int(max_degree)
        self._build_series()

    def _build_series(self):
        from .harmonics import (c_eval, moduli_gauss_quadrature,
                                symmetric_harmonic_atoms,
                                symmetric_power_form)

        m, weights = moduli_gauss_quadrature(self.n_blocks, self._SERIES_RES)
        pts = np.zeros((m.shape[0], self.dim))
        pts[:, 0::2] = m
        rho = self.base.radial(pts)
        d = self.dim
        series = {}
        for atom in symmetric_harmonic_atoms(self.n_blocks, self.max_degree):
            pa = c_eval(atom.c_poly, m ** 2)
            coef = float(np.dot(weights, rho * pa))
            damp = math.exp(
                -0.5 * atom.degree * (atom.degree + d - 2) * self.width ** 2)
            for mono, cc in atom.c_poly.items():
                series[mono] = series.get(mono, 0.0) + coef * damp * cc
        # compact power-sum form for fast evaluation on the sphere
        self._power_form = symmetric_power_form(series, self.n_blocks)
        vals = c_eval(series, m ** 2)
        lo, hi = float(np.min(vals)), float(np.max(vals))
        if lo <= 0.0:
            raise ValueError("mollified radial function lost positivity; "
                             "reduce the width or raise max_degree")
        pad = 0.02 * (hi - lo) + 1e-9
        self.r_min = max(lo - pad, 0.5 * lo)
        self.r_max = hi + pad

    def norm(self, x):
        # the benchmark's tracer wraps harmonics.power_form_eval in place
        from . import harmonics

        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1, self.dim)
        r = np.linalg.norm(flat, axis=-1)
        # moduli squared of x/|x|, points last: (n, N)
        xhat = np.divide(flat.T, r, out=np.empty(flat.shape[::-1]))
        xhat *= xhat
        m2 = xhat[0::2] + xhat[1::2]
        # numpy sums fewer than 8 values per row in sequence, as here
        m2 /= sum(m2[1:], m2[0])
        rho = harmonics.power_form_eval(*self._power_form, m2.T)
        out = r / rho
        return float(out[0]) if x.ndim == 1 else out.reshape(x.shape[:-1])

    def spec(self):
        return f"mollify:base=({self.base.spec()}),width={self.width:g}"


def mollify(body: StarBody, width: float, max_degree=16) -> StarBody:
    """Smooth approximation of a moduli-symmetric body in the radial
    metric; raises ValueError for any other body."""
    return MollifiedBody(body, width, max_degree=max_degree)


@dataclass(frozen=True)
class ConvexityReport:
    violations: int
    worst_gap: float
    samples: int
    tol: float


def convexity_probe(body: StarBody, samples=10**5, seed=0,
                    tol=1e-9) -> ConvexityReport:
    """Sampled midpoint test on boundary pairs; a probe, not a certificate."""
    g = np.random.Generator(np.random.Philox(key=seed))
    worst = -math.inf
    violations = 0
    batch = 2**14
    done = 0
    while done < samples:
        k = min(batch, samples - done)
        theta = g.standard_normal((2, k, body.dim))
        theta /= np.linalg.norm(theta, axis=2, keepdims=True)
        rho = body.radial(theta.reshape(-1, body.dim)).reshape(2, k)
        pts = rho[..., None] * theta
        mids = 0.5 * (pts[0] + pts[1])
        nrm = body.norm(mids)
        worst = max(worst, float(np.max(nrm) - 1.0))
        violations += int(np.count_nonzero(nrm > 1.0 + tol))
        done += k
    return ConvexityReport(violations=violations, worst_gap=worst,
                           samples=samples, tol=tol)


def radial_metric(a: StarBody, b: StarBody, samples=2**12, seed=3) -> float:
    """Sampled sup-distance between radial functions."""
    g = np.random.Generator(np.random.Philox(key=seed))
    theta = g.standard_normal((samples, a.dim))
    theta /= np.linalg.norm(theta, axis=1, keepdims=True)
    return float(np.max(np.abs(a.radial(theta) - b.radial(theta))))
