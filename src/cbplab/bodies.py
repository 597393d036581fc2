"""Origin-symmetric star bodies in R^{2n} encoded by their Minkowski
functionals, with the invariance structure of complex norms.

Every body exposes a vectorized gauge `norm(x)` over points x of shape
(..., dim); all downstream geometry (volumes, sections, Fourier routes)
consumes only `norm` / `radial`.  A gauge returns x.shape[:-1] values, and
a float for a single vector.

Gauges work points-last: they read x as one contiguous column per
coordinate, a (dim, N) array (`_columns`), and do all their arithmetic on
whole columns.  The squared length of a point is summed over the columns
in the order numpy's row reduction uses (`_sum_squares`), so every value
is bit for bit what the same formula gives on the rows of a C-ordered
(N, dim) array, whatever the memory layout of x: C- or Fortran-ordered,
strided, or the transposed view of a (dim, N) array, which is what the
slice engine passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import rotate


class StarBody:
    """Base class: a 1-homogeneous even gauge with certified radial bounds.
    `rotation_invariant`: constant on R_theta orbits, as every Fourier route
    but the pairing oracle needs; `smooth`: a C^2 boundary, as the
    derivative route needs."""

    dim: int
    rotation_invariant: bool = False
    smooth: bool = True
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


def _columns(x, dim):
    """Points x (..., dim) as contiguous coordinate columns, a (dim, N)
    array; copies x only if it is not laid out so already, and refuses
    points of another dimension."""
    if x.shape[-1] != dim:
        raise ValueError(f"points of dimension {x.shape[-1]} given where "
                         f"dimension {dim} is needed")
    return np.ascontiguousarray(x.reshape(-1, dim).T)


def _shaped(values, x):
    """Per-point values (N,) in the shape of the points x (..., dim)."""
    return float(values[0]) if x.ndim == 1 else values.reshape(x.shape[:-1])


def _block_moduli_columns(xt):
    """Block moduli (n, N) of coordinate columns xt (2n, N)."""
    return np.sqrt(xt[0::2] ** 2 + xt[1::2] ** 2)


def _row_sum(cols):
    """Sum over the leading axis of cols (k, N) with the floating-point
    operations numpy's add.reduce makes along each row of a C-ordered
    (N, k) array (2 <= k <= 128): in sequence below 8 terms; from 8 terms
    on, eight accumulators over strides of 8 added pairwise, then the rest
    in sequence."""
    k = len(cols)
    if k < 8:
        out = cols[0] + cols[1]
        for c in cols[2:]:
            out += c
        return out
    top = k - k % 8
    acc = cols[:8] if top == 8 else cols[:8] + cols[8:16]
    for i in range(16, top, 8):
        acc += cols[i:i + 8]
    out = (((acc[0] + acc[1]) + (acc[2] + acc[3]))
           + ((acc[4] + acc[5]) + (acc[6] + acc[7])))
    for c in cols[top:]:
        out += c
    return out


def _sum_squares(xt):
    """Squared lengths of the points whose coordinate columns are xt
    (dim, N): bit for bit the sums np.linalg.norm(xt.T, axis=-1) takes the
    square root of, for a C-ordered xt.T."""
    return _row_sum(xt * xt)


def _spec_number(x: float) -> str:
    """x as a spec value: its short `g` form if that reads back as x, else
    its repr, which always does."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


class EuclideanBall(StarBody):
    def __init__(self, dim):
        if dim % 2 != 0 or dim < 4:
            raise ValueError("dim must be even and >= 4")
        self.dim = int(dim)
        self.rotation_invariant = True
        self.r_min = self.r_max = 1.0
        self.moduli_symmetric = True

    def norm(self, x):
        x = np.asarray(x, dtype=float)
        return _shaped(np.sqrt(_sum_squares(_columns(x, self.dim))), x)

    def spec(self):
        return f"ball:dim={self.dim}"


class ComplexLqBall(StarBody):
    """Unit ball of the complex l_q^n space viewed in R^{2n}."""

    def __init__(self, n, q):
        if n < 2:
            raise ValueError("n must be >= 2")
        if not (math.isfinite(q) and q >= 1):
            raise ValueError(f"q must be finite and >= 1, not {q}")
        self.n = int(n)
        self.q = float(q)
        self.dim = 2 * self.n
        self.rotation_invariant = True
        self.smooth = self.q >= 2  # |z|^q is C^2 from q = 2 on
        bounds = sorted([1.0, self.n ** (0.5 - 1.0 / self.q)])
        self.r_min, self.r_max = bounds
        self.moduli_symmetric = True

    def norm(self, x):
        x = np.asarray(x, dtype=float)
        m = _block_moduli_columns(_columns(x, self.dim))
        return _shaped(_row_sum(m ** self.q) ** (1.0 / self.q), x)

    def spec(self):
        q = self.q
        qs = int(q) if q == int(q) else q
        return f"clq:n={self.n},q={qs}"


class ScaledBody(StarBody):
    """lam * K: the gauge divides by lam, the radius multiplies."""

    def __init__(self, base: StarBody, lam: float):
        if not (math.isfinite(lam) and lam > 0):
            raise ValueError(f"scale factor lam must be finite and positive, "
                             f"not {lam}")
        self.base = base
        self.lam = float(lam)
        self.dim = base.dim
        self.rotation_invariant = base.rotation_invariant
        self.smooth = base.smooth
        self.r_min = base.r_min * self.lam
        self.r_max = base.r_max * self.lam
        self.moduli_symmetric = base.moduli_symmetric

    def norm(self, x):
        return self.base.norm(x) / self.lam

    def spec(self):
        return (f"scale:base=({self.base.spec()}),"
                f"lam={_spec_number(self.lam)}")


class RadialPerturbation(StarBody):
    """Body K with rho_K^s = rho_L^s - eps * g on the sphere, i.e.
    ||x||_K^{-s} = ||x||_L^{-s} - eps g(x/|x|) |x|^{-s}."""

    _CHECK_SAMPLES = 2 ** 14  # directions that check positivity, invariance

    def __init__(self, base: StarBody, exponent: float, amplitude: float, bump,
                 bump_id):
        if not (math.isfinite(exponent) and exponent > 0):
            raise ValueError(f"exponent must be finite and positive, not "
                             f"{exponent}")
        if not math.isfinite(amplitude):
            raise ValueError(f"amplitude must be finite, not {amplitude}")
        self.base = base
        self.s = float(exponent)
        self.eps = float(amplitude)
        self.bump = bump
        self.bump_id = bump_id
        self.dim = base.dim

        # one fixed sample: a body rebuilt from its record keeps its bounds
        g = np.random.Generator(np.random.Philox(key=7))
        theta = g.standard_normal((self._CHECK_SAMPLES, self.dim))
        theta /= np.linalg.norm(theta, axis=1, keepdims=True)
        gv = np.asarray(bump(theta), dtype=float)
        with np.errstate(over="ignore"):  # inf fails the float bounds below
            rad_pow = base.radial(theta) ** self.s - self.eps * gv
        if np.min(rad_pow) <= 0:
            raise ValueError(
                "perturbed radial power is not strictly positive on the sphere"
            )
        sup_pos = max(float(np.max(gv)), 0.0)
        sup_neg = max(float(np.max(-gv)), 0.0)
        safety = 1.05
        try:
            low = base.r_min ** self.s - safety * self.eps * sup_pos
            if low <= 0:
                low = float(np.min(rad_pow)) / safety
            self.r_min = low ** (1.0 / self.s)
            self.r_max = (base.r_max ** self.s
                          + safety * self.eps * sup_neg) ** (1.0 / self.s)
        except OverflowError:
            raise ValueError(f"the radial bounds overflow at exponent "
                             f"{exponent}") from None

        self.rotation_invariant = base.rotation_invariant
        if self.rotation_invariant and not getattr(bump, "moduli_symmetric",
                                                   False):
            # the bump must be constant on rotation orbits too; check it
            # on the positivity sample
            dev = 0.0
            for ang in (0.9, 2.3):
                gv2 = np.asarray(bump(rotate(theta, ang)), dtype=float)
                dev = max(dev, float(np.max(np.abs(gv2 - gv))))
            scale = max(float(np.max(np.abs(gv))), 1.0)
            self.rotation_invariant = dev <= 1e-10 * scale
        self.smooth = base.smooth
        self.moduli_symmetric = base.moduli_symmetric and getattr(
            bump, "moduli_symmetric", False)

    def norm(self, x):
        x = np.asarray(x, dtype=float)
        xt = _columns(x, self.dim)
        r = np.sqrt(_sum_squares(xt))
        with np.errstate(invalid="ignore", divide="ignore"):
            xhat = (xt / r).T
        del xt  # a copy of x need not live while the base and bump run
        rad_pow = self.base.radial(xhat) ** self.s - self.eps * np.asarray(
            self.bump(xhat), dtype=float)
        values = r * rad_pow ** (-1.0 / self.s)
        values[r == 0.0] = 0.0  # the origin, whose direction is NaN
        return _shaped(values, x)

    def spec(self):
        return (f"perturb:base=({self.base.spec()}),eps={self.eps:.12g},"
                f"bump={self.bump_id},exponent={self.s:g}")


class MollifiedBody(StarBody):
    """Spherical convolution of the radial function with a smooth zonal kernel.

    The base must depend only on the block moduli.  Its radial function is
    expanded in moduli-symmetric spherical harmonics up to `max_degree`
    (harmonics.symmetric_coefficients), and
    each degree-j component is damped by the heat-kernel factor
    exp(-j (j + d - 2) width^2 / 2).  The kernel is zonal (a function of
    the geodesic angle alone), so every rotation symmetry of the body is
    kept.  The result is a polynomial in the block moduli: exactly
    invariant, C^infinity, with exact derivatives of all orders, and cheap
    to evaluate.
    """

    #: series degree of `mollify` and of specs without a max_degree field
    DEFAULT_DEGREE = 16

    def __init__(self, base: StarBody, width: float, max_degree):
        if not 0.0 < width < 1.0:
            raise ValueError("width must lie in (0, 1)")
        if not (math.isfinite(max_degree) and max_degree == int(max_degree)
                and max_degree >= 0 and max_degree % 2 == 0):
            raise ValueError(f"max_degree must be an even integer >= 0, "
                             f"not {max_degree}")
        if not base.moduli_symmetric:
            raise ValueError(
                f"mollify needs a base whose radial function depends only on "
                f"the block moduli; {base.spec()} does not")
        self.base = base
        self.width = float(width)
        self.dim = base.dim
        self.rotation_invariant = True
        self.smooth = True
        self.moduli_symmetric = True
        self.max_degree = int(max_degree)
        self._build_series()

    def _build_series(self):
        from .harmonics import (_MODULI_RES, _c_eval_into, _moduli_blocks,
                                symmetric_coefficients, symmetric_power_form)

        atoms, coefs = symmetric_coefficients(
            self.base.radial, self.n_blocks, self.max_degree)
        d = self.dim
        series = {}
        for atom, coef in zip(atoms, coefs):
            damp = math.exp(
                -0.5 * atom.degree * (atom.degree + d - 2) * self.width ** 2)
            for mono, cc in atom.c_poly.items():
                series[mono] = series.get(mono, 0.0) + coef * damp * cc
        # compact power-sum form for fast evaluation on the sphere
        self._power_form = symmetric_power_form(series, self.n_blocks)
        # the extremes of the series on the build's nodes, made again
        vals = np.empty(_MODULI_RES ** (self.n_blocks - 1))
        blocks = _moduli_blocks(self.n_blocks, _MODULI_RES)
        _c_eval_into(series, (np.square(m, out=m) for _, m, _ in blocks),
                     vals)
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
        xt = _columns(x, self.dim)
        r = np.sqrt(_sum_squares(xt))
        # moduli squared of x/|x|, (n, N); a copy of x is let go here
        with np.errstate(invalid="ignore", divide="ignore"):
            xt = xt / r
        xt *= xt
        m2 = xt[0::2] + xt[1::2]
        m2 /= _row_sum(m2)
        rho = harmonics.power_form_eval(*self._power_form, m2.T)
        values = r / rho
        values[r == 0.0] = 0.0  # the origin, whose direction is NaN
        return _shaped(values, x)

    def spec(self):
        spec = (f"mollify:base=({self.base.spec()}),"
                f"width={_spec_number(self.width)}")
        if self.max_degree != self.DEFAULT_DEGREE:
            spec += f",max_degree={self.max_degree}"
        return spec


def mollify(body: StarBody, width: float,
            max_degree=MollifiedBody.DEFAULT_DEGREE) -> StarBody:
    """Smooth approximation of a moduli-symmetric body in the radial
    metric; raises ValueError for any other body."""
    return MollifiedBody(body, width, max_degree=max_degree)


@dataclass(frozen=True)
class ConvexityReport:
    violations: int
    worst_gap: float
    samples: int


def convexity_probe(body: StarBody, samples, seed) -> ConvexityReport:
    """Sampled midpoint test on boundary pairs; a probe, not a certificate.
    A midpoint whose norm exceeds 1 + 1e-9 is a violation."""
    g = np.random.Generator(np.random.Philox(key=seed))
    worst = -math.inf
    violations = 0
    batch = 2**14
    done = 0
    while done < samples:
        k = min(batch, samples - done)
        theta = g.standard_normal((2, k, body.dim))
        theta /= np.linalg.norm(theta, axis=2, keepdims=True)
        # one radial call per end: k <= 2^14 rows, quadrature._PASS_NODES.
        # The ends become boundary points and then midpoints in place,
        # with the roundings of 0.5 * (rho_0 theta_0 + rho_1 theta_1)
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
