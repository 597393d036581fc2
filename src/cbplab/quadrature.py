"""Quadrature on spheres, subspace spheres and singular 1-D radial integrals.

All rules are deterministic given their seed: the batches of the one
randomised rule, QMC, are scrambled Sobol points made with numpy on scipy's
Joe-Kuo direction numbers (the table is read by prefix, up to the rows a
dimension needs), keyed on seed * 1000003 + batch index, so each batch
can be made on its own, in any order, and integrals of nearby integrands
evaluated with the same rule share nodes exactly.  The singular radial
integral calls QUADPACK's QAGS in scipy's compiled extension, as
scipy.integrate.quad does.

cbplab imports no scipy subpackage: the scipy.special and scipy.linalg
packages would cost about 30 MB and 0.35 s of import for a few routines.
This module loads the compiled extensions that hold them (_load_scipy):
the ufuncs (_ufuncs) and LAPACK (_flapack) when cbplab is imported, and
QUADPACK on first use.  _gauss_jacobi ports scipy's roots_jacobi, and
_gauss_legendre numpy's leggauss: both take the eigenvalues of a
tridiagonal matrix from LAPACK's banded dsbevd, where leggauss solves it as
a dense matrix, so numpy.polynomial is not imported either.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
import zipfile
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy


def _load_scipy(package, names, calls):
    """scipy's compiled extension modules scipy.<package>.<name>, each
    loaded by its full name, in the order of `names`, unless it is already
    in sys.modules, so no scipy package runs; an extension that imports a
    sibling finds it loaded before it.  Returns the last one, which must
    have every attribute in `calls`.  A missing module or attribute raises
    ImportError naming it and the installed scipy version."""
    for name in names:
        full = f"scipy.{package}.{name}"
        if full not in sys.modules:
            spec = importlib.machinery.FileFinder(
                os.path.join(os.path.dirname(scipy.__file__), package),
                (importlib.machinery.ExtensionFileLoader,
                 importlib.machinery.EXTENSION_SUFFIXES)).find_spec(full)
            if spec is None:
                raise ImportError(f"scipy {scipy.__version__}'s compiled "
                                  f"{full} is missing")
            sys.modules[full] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(sys.modules[full])
    module = sys.modules[full]
    missing = [call for call in calls if not hasattr(module, call)]
    if missing:
        raise ImportError(f"scipy {scipy.__version__}'s compiled {full} "
                          f"has no {', '.join(missing)}")
    return module


#: the scipy.special ufuncs cbplab calls; the siblings come first
_ufuncs = _load_scipy(
    "special", ("_special_ufuncs", "_ufuncs_cxx", "_gufuncs", "_ellip_harm_2",
                "_ufuncs"),
    ("eval_gegenbauer", "eval_legendre", "gamma", "hyp1f1", "ndtri"))
#: the LAPACK routines cbplab calls, through _lapack
_flapack = _load_scipy(
    "linalg", ("_flapack",),
    ("dgetrf", "dgetrs", "dgtsv", "dsbevd", "dsyevr", "dsyevr_lwork"))


def _lapack(routine, *args, **kwargs):
    """The outputs of LAPACK `routine` in scipy's _flapack but the last,
    its info, which must be 0 (else LinAlgError, a ValueError)."""
    *out, info = getattr(_flapack, routine)(*args, **kwargs)
    if info:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed: info {info}")
    return out


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
    return 2.0 * math.pi ** (d / 2.0) / _ufuncs.gamma(d / 2.0)


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


def _tridiagonal_eigenvalues(offdiag):
    """Ascending eigenvalues of the symmetric tridiagonal matrix with a zero
    diagonal and off-diagonal `offdiag`, by LAPACK dsbevd."""
    band = np.zeros((2, len(offdiag) + 1))  # the diagonal, row 1, is zero
    band[0, 1:] = offdiag
    return _lapack("dsbevd", band, compute_v=0, lower=0, overwrite_ab=1)[0]


def _legval(x, c):
    """numpy's legval(x, c[:, j]) for each column j of c (>= 2 rows), as
    rows, by its Clenshaw recurrence with its scalar factors."""
    c0, c1, nd = c[-2][:, None], c[-1][:, None], len(c)
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = (c[-i][:, None] - c1 * ((nd - 1) / nd),
                  c0 + c1 * x * ((2 * nd - 1) / nd))
    return c0 + c1 * x


@lru_cache(maxsize=None)
def _gauss_legendre(count):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]:
    numpy.polynomial.legendre.leggauss(count), bit for bit, by numpy 2.4's
    code: eigenvalues of the symmetric companion matrix of L_count, one
    Newton step, weights from L_count' and L_{count-1}, symmetrised."""
    if count < 2:
        raise ValueError(f"Gauss-Legendre nodes need count >= 2: {count}")
    k = np.arange(1, count, dtype="d")
    x = _tridiagonal_eigenvalues(
        k * (1. / np.sqrt(2 * k - 1)) * (1. / np.sqrt(2 * k + 1)))
    # columns: L_count and its derivative, the sum of (2k + 1) L_k over
    # k = count - 1, count - 3, ...; the derivative's zero top row makes
    # the first Clenshaw step land exactly on legval's start for it, so
    # both share one recurrence
    c = np.zeros((count + 1, 2))
    c[count, 0] = 1.0
    c[count - 1::-2, 1] = 2 * np.arange(count - 1, -1, -2) + 1
    dy, df = _legval(x, c)
    x -= dy / df
    [fm] = _legval(x, c[1:, :1])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None)
def _gauss_jacobi(count, a):
    """Read-only Gauss-Jacobi nodes and weights for (1-t)^a (1+t)^a, a >= 0:
    scipy.special.roots_jacobi(count, a, a), bit for bit, by scipy 1.17.1's
    code for that case, roots_legendre(count) at a = 0 and
    roots_gegenbauer(count, a + 1/2) otherwise, each with its
    _gen_roots_and_weights: eigenvalues of the Jacobi matrix, one Newton
    step, weights from the derivative, symmetrised."""
    if count < 1 or not 0.0 <= a <= 169.5:
        raise ValueError(f"Gauss-Jacobi nodes need count >= 1 and "
                         f"0 <= a <= 169.5: {count}, {a}")
    alpha = a + 0.5
    k = np.arange(1, count, dtype="d")
    if a == 0.0:
        mu0, offdiag = 2.0, k * np.sqrt(1.0 / (4 * k * k - 1))
        poly = _ufuncs.eval_legendre
    else:
        mu0 = (np.sqrt(np.pi) * _ufuncs.gamma(alpha + 0.5)
               / _ufuncs.gamma(alpha + 1))
        offdiag = np.sqrt(k * (k + 2 * alpha - 1)
                          / (4 * (k + alpha) * (k + alpha - 1)))

        def poly(m, x):
            return _ufuncs.eval_gegenbauer(m, alpha, x)
    x = _tridiagonal_eigenvalues(offdiag)
    # at alpha = 1/2, n + 2 alpha - 1 is roots_legendre's n
    dy = (-count * x * poly(count, x)
          + (count + 2 * alpha - 1) * poly(count - 1, x)) / (1 - x ** 2)
    x -= poly(count, x) / dy
    fm = poly(count - 1, x)
    log_fm, log_dy = np.log(np.abs(fm)), np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.)
    w = 1.0 / (fm * dy)
    t, w = (x - x[::-1]) / 2, (w + w[::-1]) / 2
    w *= mu0 / w.sum()
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


#: scipy's Joe-Kuo table: 21201 primitive polynomials, poly, and their
#: initial direction numbers, vinit, stored column-major
_JOE_KUO = os.path.join(os.path.dirname(scipy.__file__), "stats",
                        "_sobol_direction_numbers.npz")


def _npy_prefix(archive, name, rows, cols):
    """The first `rows` rows of the first `cols` columns of the column-major
    array `name` (a 1-D array is one column) in the open .npz `archive`,
    inflated only up to the end of those columns."""
    with archive.open(name + ".npy") as fh:
        version = np.lib.format.read_magic(fh)
        shape, fortran, dtype = (
            np.lib.format.read_array_header_1_0 if version == (1, 0)
            else np.lib.format.read_array_header_2_0)(fh)
        if not (fortran or len(shape) == 1):
            raise ValueError(f"{name} is not stored column-major: {shape}, "
                             f"fortran_order={fortran}, {dtype}")
        data = fh.read(cols * shape[0] * dtype.itemsize)
    return np.frombuffer(data, dtype).reshape(cols, shape[0])[:, :rows].T


def _joe_kuo(path, d):
    """The first d entries of poly and the first d rows of vinit's first m
    columns, m the largest degree among those d polynomials, read by
    prefix from the Joe-Kuo .npz at `path`.  A table that cannot be read
    so raises ImportError naming it."""
    try:
        with zipfile.ZipFile(path) as archive:
            poly = _npy_prefix(archive, "poly", d, 1)[:, 0]
            return poly, _npy_prefix(archive, "vinit", d,
                                     int(poly.max()).bit_length() - 1)
    except (KeyError, ValueError) as err:
        raise ImportError(f"scipy's Joe-Kuo table {path} cannot be read by "
                          f"prefix: {err}") from err


@lru_cache(maxsize=None)
def _sobol_directions(d):
    """Read-only (d, 30) Bratley-Fox direction numbers, column j << 29 - j,
    from the first d rows of scipy's Joe-Kuo table, read once per d and
    not kept."""
    poly, vinit = _joe_kuo(_JOE_KUO, d)
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
    z = _ufuncs.ndtri(np.clip(_sobol(d, n, seed), 1e-15, 1 - 1e-15))
    norm = np.linalg.norm(z, axis=1, keepdims=True)
    return z / np.where(norm == 0, 1.0, norm)


def _lift(t, wt, pts, w, j, i):
    """Product-rule rows (sqrt(1 - t_j^2) pts_i, t_j) on S^{d-1}, weights
    wt_j w_i, from polar nodes t, wt and S^{d-2} nodes pts, w."""
    return (np.column_stack([np.sqrt(1.0 - t[j] ** 2)[:, None] * pts[i], t[j]]),
            wt[j] * w[i])


_KINDS = ("quasi_monte_carlo", "product_gauss")
_CACHE_FLOATS = 2 ** 22  # most node coordinates a rule keeps (32 MB)
_BATCHES = 32  # batches of a rule (see SphereRule)


class SphereRule:
    """Quadrature nodes and weights on S^{dim-1}, materialized lazily in batches.

    A rule is made by its kind's constructor, which takes that kind's
    settings and no others, none with a default:
        SphereRule.qmc(dim, node_count, seed)
            kind quasi_monte_carlo -- scrambled Sobol mapped through the
            Gaussian, the one randomised rule; it holds a seed and no level
        SphereRule.gauss(dim, level)
            kind product_gauss -- Gauss-Jacobi product rule (dim <= 6),
            weights sum to the surface area exactly; each batch is lifted
            from the grid of all axes but the outermost, so the whole grid
            is never made; it holds a level and no seed

    batch_count is the number of batches the rule yields: _BATCHES = 32
    equal ones for a random rule, whose spread is its error bar (its
    node_count is rounded up to a multiple of 32), and min(32, node_count)
    for a product rule.
    """

    def __init__(self, dim, kind, node_count, seed, level):
        """The body that qmc and gauss share: a rule of `kind`, which reads
        its own kind's settings; the other kind's are None."""
        if dim < 2:
            raise ValueError("dim must be >= 2")
        if kind not in _KINDS:
            raise ValueError(f"unknown rule kind {kind!r}")
        self.dim, self.kind = int(dim), kind
        self.batch_count = _BATCHES
        self._passes, self._batches = 0, None
        if kind == "product_gauss":
            if dim > 6:
                raise ValueError("product_gauss rules are limited to dim <= 6")
            if int(level) < 2:
                raise ValueError(f"gauss level must be >= 2, not {level}")
            self.level = int(level)
            self._axes = self._gauss_axes()
            self.node_count = int(np.prod([len(t) for t, _ in self._axes]))
            self.batch_count = min(_BATCHES, self.node_count)
        else:
            if int(seed) < 0:
                raise ValueError(f"seed must be >= 0: {seed}")
            if int(node_count) < 1:
                raise ValueError(f"node_count must be >= 1 for a {kind} "
                                 f"rule, not {node_count}")
            self.seed = int(seed)
            # equal batches keep the batch-variance error model unbiased
            self.node_count = -(-int(node_count) // _BATCHES) * _BATCHES

    @classmethod
    def qmc(cls, dim, node_count, seed) -> "SphereRule":
        """The scrambled Sobol rule of node_count nodes, rounded up to whole
        batches, keyed on seed >= 0."""
        return cls(dim, "quasi_monte_carlo", node_count, seed, None)

    @classmethod
    def gauss(cls, dim, level) -> "SphereRule":
        """The Gauss product rule of `level` >= 2 nodes on each polar axis
        and 2 level on the circle."""
        return cls(dim, "product_gauss", None, None, level)

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

    def _gauss_nodes(self):
        """Node/weight arrays of the product rule over every axis but the
        outermost polar one (S^1 has none: its whole circle)."""
        ang, w = self._axes[-1]
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        for t, wt in reversed(self._axes[1:-1]):
            j, i = np.divmod(np.arange(len(t) * len(w)), len(w))
            pts, w = _lift(t, wt, pts, w, j, i)
        return pts, w

    def _qmc_batch(self, index):
        # independently scrambled replicates make the batch-variance error
        # model honest while keeping the stream deterministic per batch
        return _sobol_sphere(self.dim, self.node_count // self.batch_count,
                             self.seed * 1000003 + index)

    def batches(self):
        """Yield read-only (nodes, weights) pairs; weights sum to the sphere
        area.  A rule of at most _CACHE_FLOATS node coordinates keeps the
        batches of its second full pass and yields them from then on; a
        rule read once keeps none."""
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
            # batch b is np.array_split's batch b of the whole grid
            inner, win = self._gauss_nodes()
            count, extra = divmod(self.node_count, self.batch_count)
            for b in range(self.batch_count):
                start = b * count + min(b, extra)
                j, i = np.divmod(np.arange(start, start + count + (b < extra)),
                                 len(win))
                yield ((inner[i], win[i]) if self.dim == 2
                       else _lift(*self._axes[0], inner, win, j, i))
        else:
            wt = sphere_area(self.dim) / self.node_count
            for b in range(self.batch_count):
                pts = self._qmc_batch(b)
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


def _node_passes(rule: SphereRule, bases, limit):
    """The rule's batches, each mapped through every frame of `bases`, in
    passes of consecutive (batch, frame) blocks with at most `limit` nodes
    together (a larger block is a pass of its own).

    bases is a (k, m, n) stack of row stacks, or None to keep the nodes (one
    frame).  The blocks go batch by batch, each batch through every frame
    before the next is made, so the rule is read once whatever k and one
    batch is held at a time.  Each block is mapped by a matrix product of
    its own, because a 1-row and an N-row product round differently, and
    written into one C-contiguous (dim, N) array of coordinate columns per
    pass, made before its first block.  Yields (nodes, parts):
    the (N, dim) transposed view of that array, whose rows are the nodes of
    the pass in block order, and per block (frame index, batch index, slice
    of nodes, weights).
    """
    frames = [None] if bases is None else bases
    dim = rule.dim if bases is None else bases.shape[2]
    # every batch's size is known before it is made (SphereRule splits its
    # nodes as np.array_split does), so each pass's array is made first and
    # a batch is let go once it has gone through every frame
    count, extra = divmod(rule.node_count, rule.batch_count)
    lengths, held = [], 0
    for bi in range(rule.batch_count):
        for _ in frames:
            if held and held + count + (bi < extra) > limit:
                lengths.append(held)
                held = 0
            held += count + (bi < extra)
    lengths = iter(lengths + [held])
    at = None
    for bi, (pts, w) in enumerate(rule.batches()):
        for fi in range(len(frames)):
            if at is None:
                cols, parts, at = np.empty((dim, next(lengths))), [], 0
            x = pts if bases is None else pts @ frames[fi]
            cols[:, at:at + len(x)] = x.T
            parts.append((fi, bi, slice(at, at + len(x)), w))
            at += len(x)
            if at == cols.shape[1]:
                yield cols.T, parts
                at = None


def _integrate(rule, bases, f):
    """integrate_sphere's work: per frame of `bases` (None: the rule's own
    sphere, one frame), batch sums w . row over one reading of the nodes,
    for each row of a (k, N) integrand (a list of k Estimates)."""
    sums = [[] for _ in range(1 if bases is None else len(bases))]
    for x, parts in _node_passes(rule, bases, _PASS_NODES):
        vals = np.asarray(f(x), dtype=float)
        rows = vals.reshape(-1, len(x))
        for row in rows:
            _check_finite(row, x)
        for fi, _, part, w in parts:
            sums[fi].append([float(np.dot(w, row[part])) for row in rows])
    ests = [[Estimate.from_batches(out, rule, rule.kind) for out in zip(*frame)]
            for frame in sums]
    return [e if vals.ndim == 2 else e[0] for e in ests]


def integrate_sphere(rule: SphereRule, f) -> Estimate | list[Estimate]:
    """Integral of f over S^{dim-1} with a batch-variance error bar.

    f must accept an (N, dim) array of unit vectors and return (N,) values,
    or a (k, N) stack of k integrands' values for a list of k Estimates
    made on one reading of the nodes.  f acts row by row: it is called once
    per pass of consecutive batches, on the transposed view of a
    C-contiguous (dim, N) array of coordinate columns with N <= _PASS_NODES
    (or one larger batch), and each batch sum is w . f(nodes) over that
    batch's rows, so the value of a node must not depend on the others.
    """
    return _integrate(rule, None, f)[0]


def integrate_subsphere(rule: SphereRule, basis, f) -> Estimate | list:
    """Integral of f over the unit sphere of the subspace spanned by `basis`.

    basis is an (m, n) orthonormal row stack; rule.dim must equal m. Nodes of
    the m-dimensional rule are mapped through the basis into R^n, batch by
    batch; f acts row by row, as in integrate_sphere.  A (k, m, n) stack of
    such frames gives a list of k results, each equal to the one-frame
    call's, on one reading of the rule: each batch goes through every frame
    (_node_passes), and a pass may hold the nodes of several frames.
    """
    basis = np.asarray(basis, dtype=float)
    bases = basis if basis.ndim == 3 else basis[None]
    m = bases.shape[1]
    if rule.dim != m:
        raise ValueError(f"rule dim {rule.dim} != subspace dim {m}")
    gram = bases @ bases.transpose(0, 2, 1)
    if not np.allclose(gram, np.eye(m), atol=1e-10):
        raise ValueError("basis is not orthonormal")
    out = _integrate(rule, bases, f)
    return out if basis.ndim == 3 else out[0]


_TAYLOR_END = 1e-3  # singular end of fractional_radial, over the cutoff
_TAYLOR_SAMPLES = 5  # profile values the Taylor fit there is made from
_QAGS_WARNINGS = {  # QAGS's ier, at a limit of 200 subintervals
    1: "the 200 subintervals are used up",
    2: "round-off keeps the tolerance from being reached",
    3: "the integrand behaves extremely badly at some points",
    4: "round-off in the extrapolation table stops convergence",
    5: "the integral is probably divergent, or converges slowly",
    7: "abnormal termination"}


@lru_cache(maxsize=None)
def _quadpack():
    """scipy's compiled QUADPACK extension, loaded on first use, and checked
    by one call of _qagse: a changed signature fails here, by name."""
    module = _load_scipy("integrate", ("_quadpack",), ("_qagse",))
    try:
        mid, _, ier = module._qagse(lambda t: t, 0.0, 1.0, (), 0, 1.49e-8,
                                    1.49e-8, 200)
        if ier or abs(mid - 0.5) > 1e-12:
            raise ValueError(f"{mid}, ier={ier}")
    except (TypeError, ValueError) as err:
        raise ImportError(f"scipy's compiled scipy.integrate._quadpack._qagse "
                          f"does not integrate t on [0, 1] as QAGS: {err}"
                          ) from err
    return module


def fractional_radial(g, q, cutoff) -> float:
    """Singular radial integral int_0^inf (g(t) - g(0)) / t^{1+q} dt, 0 < q < 2.

    g must be a continuous even profile (g'(0) = 0) that vanishes for
    t >= cutoff. The singular end [0, delta] is handled by a quadratic/quartic
    Taylor fit, [delta, cutoff] by QAGS called as scipy.integrate.quad(...,
    limit=200) calls it, and the tail by the exact value -g(0) cutoff^{-q} / q.
    A QAGS error code that quad would warn of is a UserWarning naming the
    code (ier) and its reason; any other nonzero code raises ValueError.
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
        warnings.warn(f"QUADPACK QAGS, ier={ier}: {_QAGS_WARNINGS[ier]}",
                      UserWarning, stacklevel=2)
    elif ier:
        raise ValueError(f"QUADPACK QAGS refused the radial integral: ier={ier}")
    tail = -g0 * T ** (-q) / q
    return float(head + mid + tail)
