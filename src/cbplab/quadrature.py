"""Quadrature on spheres, subspace spheres and singular 1-D radial integrals.

All rules are deterministic given their seed: Monte Carlo node batches are
generated by a counter-based generator keyed on (seed, batch index), so the
node stream does not depend on how many workers consume it, and integrals of
nearby integrands evaluated with the same rule share nodes exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special, stats


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


_KINDS = ("monte_carlo", "quasi_monte_carlo", "product_gauss")
_CACHE_FLOATS = 2 ** 22  # most node coordinates a rule keeps (32 MB)


class SphereRule:
    """Quadrature nodes and weights on S^{dim-1}, materialized lazily in batches.

    kind:
        monte_carlo       -- Philox counter-based, keyed per batch
        quasi_monte_carlo -- scrambled Sobol mapped through the Gaussian
        product_gauss     -- Gauss-Jacobi product rule (dim <= 6), weights
                             sum to the surface area exactly
    """

    def __init__(self, dim, kind="monte_carlo", node_count=2**16, seed=0,
                 level=None, batch_count=32):
        if dim < 2:
            raise ValueError("dim must be >= 2")
        if kind not in _KINDS:
            raise ValueError(f"unknown rule kind {kind!r}")
        self.dim = int(dim)
        self.kind = kind
        self.seed = int(seed)
        self.batch_count = int(batch_count)
        # a random rule's error bar is the spread of its batch estimates
        least = 1 if kind == "product_gauss" else 2
        if self.batch_count < least:
            raise ValueError(f"batch_count must be >= {least} for a "
                             f"{kind} rule, not {self.batch_count}")
        self._passes, self._batches = 0, None
        if kind == "product_gauss":
            if dim > 6:
                raise ValueError("product_gauss rules are limited to dim <= 6")
            self.level = int(level if level is not None else 20)
            if self.level < 2:
                raise ValueError("gauss level must be >= 2")
            self._axes = self._gauss_axes()
            self.node_count = int(np.prod([len(t) for t, _ in self._axes]))
        else:
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
            a = (d - 3) / 2.0
            t, w = special.roots_jacobi(self.level, a, a)
            axes.append((t, w))
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
        per = self.node_count // self.batch_count
        eng = stats.qmc.Sobol(d=self.dim, scramble=True,
                              seed=self.seed * 1000003 + index)
        u = eng.random(per)
        z = stats.norm.ppf(np.clip(u, 1e-15, 1 - 1e-15))
        n = np.linalg.norm(z, axis=1, keepdims=True)
        n[n == 0] = 1.0
        return z / n

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
            if self.node_count <= 2 ** 22 or self.dim == 2:
                pts, w = self._gauss_nodes()
                nb = min(self.batch_count, len(w))
                for idx in np.array_split(np.arange(len(w)), nb):
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

    def spec(self) -> str:
        if self.kind == "product_gauss":
            return f"gauss:level={self.level}"
        tag = "mc" if self.kind == "monte_carlo" else "qmc"
        return f"{tag}:nodes={self.node_count},seed={self.seed}"


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


def fractional_radial(g, q, cutoff, delta_factor=1e-3, taylor_samples=5) -> float:
    """Singular radial integral int_0^inf (g(t) - g(0)) / t^{1+q} dt, 0 < q < 2.

    g must be a continuous even profile (g'(0) = 0) that vanishes for
    t >= cutoff. The singular end [0, delta] is handled by a quadratic/quartic
    Taylor fit, [delta, cutoff] by adaptive quadrature, and the tail by the
    exact value -g(0) cutoff^{-q} / q.
    """
    if not 0.0 < q < 2.0:
        raise ValueError("q must lie in (0, 2)")
    T = float(cutoff)
    if T <= 0:
        raise ValueError("cutoff must be positive")
    g0 = float(g(0.0))
    delta = T * delta_factor

    ts = np.linspace(delta / taylor_samples, delta, taylor_samples)
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
