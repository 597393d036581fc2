"""Quadrature on spheres, subspace spheres and singular 1-D radial integrals.

All rules are deterministic given their seed: Monte Carlo node batches are
generated by a counter-based generator keyed on (seed, batch index), so the
node stream does not depend on how many workers consume it, and integrals of
nearby integrands evaluated with the same rule share nodes exactly.  QMC
batches are scrambled Sobol points made with numpy on scipy's Joe-Kuo
direction numbers, keyed on seed * 1000003 + batch index.  The singular
radial integral calls QUADPACK's QAGS in scipy's compiled extension, as
scipy.integrate.quad does, without importing scipy.integrate.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy
from scipy import special


class PoisonedEstimateError(ValueError):
    """An integrand returned a non-finite value at a quadrature node."""

    def __init__(self, node, value):
        self.node = np.asarray(node)
        self.value = value
        super().__init__(
            f"integrand returned {value!r} at node {np.array2string(self.node, precision=6)}"
        )


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere S^{d-1}: 2 pi^{d/2} / Gamma(d/2)."""
    return 2.0 * math.pi ** (d / 2.0) / special.gamma(d / 2.0)


@dataclass(frozen=True)
class Estimate:
    """A numerical integral with an error bar."""

    value: float
    stderr: float
    node_count: int
    method: str

    def __post_init__(self):
        if not (math.isfinite(self.stderr) and self.stderr >= 0):
            raise ValueError(f"stderr must be finite and nonnegative, "
                             f"not {self.stderr!r}")

    @classmethod
    def from_batches(cls, batch_sums, rule, method) -> "Estimate":
        """Estimate from per-batch partial sums of one rule: the compensated
        total, with the standard error of the per-batch estimates
        batch_sum * B as error bar (zero for deterministic rules)."""
        value = kahan_reduce(batch_sums)
        if rule.deterministic:
            return cls(value, 0.0, rule.node_count, method)
        ests = np.asarray(batch_sums) * len(batch_sums)
        stderr = float(np.std(ests, ddof=1) / math.sqrt(len(ests)))
        return cls(value, stderr, rule.node_count, method)


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


@lru_cache(maxsize=None)
def _sobol_directions(d):
    """Read-only (d, 30) Bratley-Fox direction numbers, column j << 29 - j,
    from scipy's Joe-Kuo table, which is read once per d and not kept."""
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
    v.flags.writeable = False
    return v


def _sobol(d, n, seed):
    """scipy.stats.qmc.Sobol(d, scramble=True, seed=seed).random(n), bit for
    bit: 30-bit points, LMS and digital shift drawn as scipy draws them."""
    if d > 21201 or not 1 <= n <= 2 ** 30:
        raise ValueError(f"Sobol needs d <= 21201, 1 <= n <= 2^30: {d}, {n}")
    rng = np.random.default_rng(seed)
    pow2 = 1 << np.arange(30, dtype=np.uint32)
    shift = rng.integers(0, 2, (d, 30), dtype=np.uint32) @ pow2
    ltm = np.tril(rng.integers(0, 2, (d, 30, 30), dtype=np.uint32))
    ltm |= np.eye(30, dtype=np.uint32)
    # the LMS matrix acts on the binary digits, most significant first
    digits = (_sobol_directions(d)[:, :, None] & pow2[::-1]) != 0
    sv = (digits @ ltm.transpose(0, 2, 1) & 1) @ pow2[::-1]
    # point i is point i - 1 XOR the direction at the lowest zero bit of i - 1
    i = np.arange(1, n)
    steps = np.concatenate([shift[None], sv.T[np.frexp(i & -i)[1] - 1]])
    return np.bitwise_xor.accumulate(steps, axis=0) * 2.0 ** -30


def _sobol_sphere(d, n, seed):
    """n scrambled Sobol points on S^{d-1}, mapped through the Gaussian."""
    z = special.ndtri(np.clip(_sobol(d, n, seed), 1e-15, 1 - 1e-15))
    norm = np.linalg.norm(z, axis=1, keepdims=True)
    return z / np.where(norm == 0, 1.0, norm)


_KINDS = ("monte_carlo", "quasi_monte_carlo", "product_gauss")
_CACHE_FLOATS = 2 ** 22  # most node coordinates a rule keeps (32 MB)
_BATCHES = 32  # batches of a rule (see SphereRule)


class SphereRule:
    """Quadrature nodes and weights on S^{dim-1}, materialized lazily in batches.

    kind:
        monte_carlo       -- Philox counter-based, keyed per batch
        quasi_monte_carlo -- scrambled Sobol mapped through the Gaussian
        product_gauss     -- Gauss-Jacobi product rule (dim <= 6), weights
                             sum to the surface area exactly

    batch_count is the number of batches the rule yields: _BATCHES = 32
    equal ones for a random rule, whose spread is its error bar, and for a
    product rule, which needs a `level`, min(32, node_count), or `level`
    (one per outermost polar node) when it streams.
    """

    def __init__(self, dim, kind, node_count=2**16, seed=0, level=None):
        if dim < 2:
            raise ValueError("dim must be >= 2")
        if kind not in _KINDS:
            raise ValueError(f"unknown rule kind {kind!r}")
        self.dim = int(dim)
        self.kind = kind
        self.seed = int(seed)
        self.batch_count = _BATCHES
        self._passes, self._batches = 0, None
        if kind == "product_gauss":
            if dim > 6:
                raise ValueError("product_gauss rules are limited to dim <= 6")
            if level is None or int(level) < 2:
                raise ValueError(f"gauss level must be >= 2, not {level}")
            self.level = int(level)
            self._axes = self._gauss_axes()
            self.node_count = int(np.prod([len(t) for t, _ in self._axes]))
            self._streams = self.node_count > 2 ** 22 and self.dim > 2
            self.batch_count = (self.level if self._streams
                                else min(_BATCHES, self.node_count))
        else:
            if self.seed < 0 or kind == "monte_carlo" and self.seed >> 64:
                raise ValueError(f"seed must be >= 0 (< 2^64 for mc): {seed}")
            if int(node_count) < 1:
                raise ValueError(f"node_count must be >= 1 for a {kind} "
                                 f"rule, not {node_count}")
            # equal batches keep the batch-variance error model unbiased
            per = -(-int(node_count) // self.batch_count)
            self.node_count = per * self.batch_count
            self.level = None

    @property
    def area(self) -> float:
        return sphere_area(self.dim)

    @property
    def deterministic(self) -> bool:
        return self.kind == "product_gauss"

    # -- node generation -------------------------------------------------

    def _gauss_axes(self):
        """1-D factors of the product rule, polar angles first, circle last."""
        axes = []
        for d in range(self.dim, 2, -1):
            # t = cos(polar angle), weight (1-t^2)^{(d-3)/2}
            axes.append(_gauss_jacobi(self.level, (d - 3) / 2.0))
        m = 2 * self.level
        ang = 2.0 * math.pi * np.arange(m) / m
        axes.append((ang, np.full(m, 2.0 * math.pi / m)))
        return axes

    def _gauss_nodes(self, skip_outer=0):
        """Node/weight arrays of the product rule over the inner axes,
        skipping the `skip_outer` outermost polar angles."""
        t_axes = self._axes[skip_outer:-1]
        ang, wang = self._axes[-1]
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
        return pts, w

    def _mc_batch(self, index):
        per = self.node_count // self.batch_count
        bg = np.random.Philox(key=(self.seed << 64) + index)
        g = np.random.Generator(bg)
        x = g.standard_normal((per, self.dim))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        return x

    def _qmc_batch(self, index):
        # independently scrambled replicates make the batch-variance error
        # model honest while keeping the stream deterministic per batch
        return _sobol_sphere(self.dim, self.node_count // self.batch_count,
                             self.seed * 1000003 + index)

    def batches(self):
        """Yield read-only (nodes, weights) pairs; weights sum to the sphere
        area.  A rule of at most _CACHE_FLOATS node coordinates (so never a
        streamed product grid) keeps the batches of its second full pass and
        yields them from then on; a rule read once keeps none."""
        if self._batches is not None:
            yield from self._batches
            return
        keep = self._passes and self.node_count * self.dim <= _CACHE_FLOATS
        made = []
        for pts, w in self._make_batches():
            pts.setflags(write=False)
            w.setflags(write=False)
            if keep:
                made.append((pts, w))
            yield pts, w
        self._passes += 1
        if keep:
            self._batches = made

    def _make_batches(self):
        if self.kind == "product_gauss":
            if not self._streams:
                pts, w = self._gauss_nodes()
                for idx in np.array_split(np.arange(len(w)), self.batch_count):
                    yield pts[idx], w[idx]
            else:
                # large grids stream one outermost polar node at a time so
                # the full product is never materialized
                inner, win = self._gauss_nodes(skip_outer=1)
                t_out, w_out = self._axes[0]
                for t, wt in zip(t_out, w_out):
                    s = math.sqrt(1.0 - t * t)
                    chunk = np.empty((len(inner), inner.shape[1] + 1))
                    chunk[:, :-1] = s * inner
                    chunk[:, -1] = t
                    yield chunk, wt * win
        else:
            make = (self._mc_batch if self.kind == "monte_carlo"
                    else self._qmc_batch)
            wt = self.area / self.node_count
            for b in range(self.batch_count):
                pts = make(b)
                yield pts, np.full(len(pts), wt)

    def nodes(self):
        """All nodes as one array (same stream as batches())."""
        return np.concatenate([p for p, _ in self.batches()], axis=0)


def kahan_reduce(partials) -> float:
    """Compensated (Neumaier) summation of a stream of reals."""
    s = 0.0
    c = 0.0
    for x in partials:
        x = float(x)
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
    return s + c


def _check_finite(vals, nodes):
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise PoisonedEstimateError(nodes[i], vals.reshape(-1)[i])


#: most nodes an integrand sees in one call: a pass of 2^14 points of
#: dimension <= 8 and its temporaries stay in a 4 MiB L2 cache
_PASS_NODES = 2 ** 14


def _node_passes(rule: SphereRule, basis, limit):
    """The rule's batches in passes of consecutive batches with at most
    `limit` nodes together (a larger batch is a pass of its own).

    Each batch is mapped through `basis` (an (m, n) row stack; None keeps
    the nodes) by a matrix product of its own, because a 1-row and an
    N-row product round differently, and written into one C-contiguous
    (dim, N) array of coordinate columns per pass.  Yields (nodes, parts):
    the (N, dim) transposed view of that array, whose rows are the nodes
    of the pass in batch order, and per batch (batch index, slice of nodes,
    weights).
    """
    dim = rule.dim if basis is None else basis.shape[1]

    def flush(held, count):
        cols = np.empty((dim, count))
        parts, at = [], 0
        for bi, pts, w in held:
            x = pts if basis is None else pts @ basis
            cols[:, at:at + len(x)] = x.T
            parts.append((bi, slice(at, at + len(x)), w))
            at += len(x)
        return cols.T, parts

    held, count = [], 0
    for bi, (pts, w) in enumerate(rule.batches()):
        if held and count + len(pts) > limit:
            yield flush(held, count)
            held, count = [], 0
        held.append((bi, pts, w))
        count += len(pts)
    if held:
        yield flush(held, count)


def _integrate(rule, basis, f) -> Estimate:
    sums = []
    for x, parts in _node_passes(rule, basis, _PASS_NODES):
        vals = np.asarray(f(x), dtype=float)
        _check_finite(vals, x)
        sums.extend(float(np.dot(w, vals[part])) for _, part, w in parts)
    return Estimate.from_batches(sums, rule, rule.kind)


def integrate_sphere(rule: SphereRule, f) -> Estimate:
    """Integral of f over S^{dim-1} with a batch-variance error bar.

    f must accept an (N, dim) array of unit vectors and return (N,) values,
    acting row by row: it is called once per pass of consecutive batches,
    on the transposed view of a C-contiguous (dim, N) array of coordinate
    columns with N <= _PASS_NODES (or one larger batch), and each batch sum
    is w . f(nodes) over that batch's rows, so the value of a row must not
    depend on the others.
    """
    return _integrate(rule, None, f)


def integrate_subsphere(rule: SphereRule, basis, f) -> Estimate:
    """Integral of f over the unit sphere of the subspace spanned by `basis`.

    basis is an (m, n) orthonormal row stack; rule.dim must equal m. Nodes of
    the m-dimensional rule are mapped through the basis into R^n, batch by
    batch; f acts row by row, as in integrate_sphere.
    """
    basis = np.asarray(basis, dtype=float)
    m = basis.shape[0]
    if rule.dim != m:
        raise ValueError(f"rule dim {rule.dim} != subspace dim {m}")
    gram = basis @ basis.T
    if not np.allclose(gram, np.eye(m), atol=1e-10):
        raise ValueError("basis is not orthonormal")
    return _integrate(rule, basis, f)


_TAYLOR_END = 1e-3  # singular end of fractional_radial, over the cutoff
_TAYLOR_SAMPLES = 5  # profile values the Taylor fit there is made from
_QAGS_WARNINGS = {  # scipy.integrate.quad's texts for QAGS's ier, limit 200
    1: "The maximum number of subdivisions (200) has been achieved.\n  If "
       "increasing the limit yields no improvement it is advised to analyze \n"
       "  the integrand in order to determine the difficulties.  If the "
       "position of a \n  local difficulty can be determined (singularity, "
       "discontinuity) one will \n  probably gain from splitting up the "
       "interval and calling the integrator \n  on the subranges.  Perhaps a "
       "special-purpose integrator should be used.",
    2: "The occurrence of roundoff error is detected, which prevents \n  the "
       "requested tolerance from being achieved.  The error may be \n  "
       "underestimated.",
    3: "Extremely bad integrand behavior occurs at some points of the\n  "
       "integration interval.",
    4: "The algorithm does not converge.  Roundoff error is detected\n  in "
       "the extrapolation table.  It is assumed that the requested tolerance"
       "\n  cannot be achieved, and that the returned result (if full_output "
       "= 1) is \n  the best which can be obtained.",
    5: "The integral is probably divergent, or slowly convergent.",
    7: "Abnormal termination of the routine.  The estimates for result\n  and "
       "error are less reliable.  It is assumed that the requested accuracy\n"
       "  has not been achieved."}


@lru_cache(maxsize=None)
def _quadpack():
    """scipy's compiled QUADPACK extension, loaded once without running the
    scipy.integrate package and the subpackages it imports."""
    name = "scipy.integrate._quadpack"
    if name not in sys.modules:
        spec = importlib.machinery.FileFinder(
            os.path.join(os.path.dirname(scipy.__file__), "integrate"),
            (importlib.machinery.ExtensionFileLoader,
             importlib.machinery.EXTENSION_SUFFIXES)).find_spec(name)
        if spec is None:
            raise ImportError(f"scipy's compiled QUADPACK {name} is missing")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def fractional_radial(g, q, cutoff) -> float:
    """Singular radial integral int_0^inf (g(t) - g(0)) / t^{1+q} dt, 0 < q < 2.

    g must be a continuous even profile (g'(0) = 0) that vanishes for
    t >= cutoff. The singular end [0, delta] is handled by a quadratic/quartic
    Taylor fit, [delta, cutoff] by QAGS called as scipy.integrate.quad(...,
    limit=200) calls it (with its warnings, as UserWarning), and the tail by
    the exact value -g(0) cutoff^{-q} / q.
    """
    if not 0.0 < q < 2.0:
        raise ValueError("q must lie in (0, 2)")
    T = float(cutoff)
    if T <= 0:
        raise ValueError("cutoff must be positive")
    g0 = float(g(0.0))
    delta = T * _TAYLOR_END

    ts = np.linspace(delta / _TAYLOR_SAMPLES, delta, _TAYLOR_SAMPLES)
    dg = np.array([float(g(t)) - g0 for t in ts])
    design = np.stack([ts**2, ts**4], axis=1)
    (a2, a4), *_ = np.linalg.lstsq(design, dg, rcond=None)
    head = a2 * delta ** (2.0 - q) / (2.0 - q) + a4 * delta ** (4.0 - q) / (4.0 - q)

    mid, _, ier = _quadpack()._qagse(
        lambda t: (float(g(t)) - g0) / t ** (1.0 + q),
        delta, T, (), 0, 1.49e-8, 1.49e-8, 200)
    if ier in _QAGS_WARNINGS:
        warnings.warn(_QAGS_WARNINGS[ier], UserWarning, stacklevel=2)
    elif ier:
        raise ValueError(f"QUADPACK QAGS refused the radial integral: ier={ier}")
    tail = -g0 * T ** (-q) / q
    return float(head + mid + tail)
