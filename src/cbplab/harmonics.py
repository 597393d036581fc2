"""Rotation-invariant harmonic polynomials on R^{2n}.

Polynomials are kept in the block moduli squared c_j = |z_j|^2 (the
c-algebra): harmonic projection, exact Dirichlet-moment inner products on
the sphere and fast vectorized evaluation.  The fully symmetric atoms
(invariant under independent block rotations and permutations) expand the
radial functions of moduli-symmetric bodies and build perturbation bumps
(HarmonicBump), because bodies perturbed by them keep the full symmetry
group.  Atoms and bumps refuse points of another dimension.

LAPACK and Gamma come from the compiled scipy extensions that quadrature
loads, as the scipy.linalg and scipy.special packages would cost about
30 MB and 0.35 s of import: _lu_factor, _lu_solve, _eigh and _factorials
port scipy 1.17.1's lu_factor, lu_solve, eigh and factorial for the one
case of each that cbplab calls.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, reduce

import numpy as np

from .bodies import _block_moduli_columns, _columns, _row_sum
from .frames import moduli_angle_map
from .quadrature import (_PASS_NODES, _gauss_legendre, _lapack, _ufuncs,
                         sphere_area)


# ---------------------------------------------------------------------------
# monomial bookkeeping (cached per variable count and degree)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _monomials(d, deg):
    """Exponent tuples of all degree-`deg` monomials in d variables."""
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


@lru_cache(maxsize=None)
def _mono_index(d, deg):
    return {m: i for i, m in enumerate(_monomials(d, deg))}


def _dict_to_vec(poly, d, deg):
    v = np.zeros(len(_monomials(d, deg)))
    idx = _mono_index(d, deg)
    for mono, c in poly.items():
        v[idx[mono]] += c
    return v


# ---------------------------------------------------------------------------
# the symmetric c-algebra (c_j = |z_j|^2)
# ---------------------------------------------------------------------------

def c_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            key = tuple(a + b for a, b in zip(m1, m2))
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def c_scale(p, a):
    return {m: a * c for m, c in p.items()}


def c_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0.0) + c
    return {m: c for m, c in out.items() if c != 0.0}


def c_laplacian(p):
    """x-Laplacian of F(c): 4 sum_j (dF/dc_j + c_j d2F/dc_j^2)."""
    out = {}
    for mono, coef in p.items():
        n = len(mono)
        for j in range(n):
            e = mono[j]
            if e == 0:
                continue
            m1 = list(mono)
            m1[j] -= 1
            key = tuple(m1)
            # 4 dF/dc_j  +  4 c_j d2F/dc_j^2 : both land on mono - e_j
            out[key] = out.get(key, 0.0) + 4.0 * coef * e + 4.0 * coef * e * (e - 1)
    return {m: c for m, c in out.items() if c != 0.0}


def c_p1(n):
    """|x|^2 = sum_j c_j."""
    return {tuple(1 if i == j else 0 for i in range(n)): 1.0 for j in range(n)}


@lru_cache(maxsize=None)
def _c_harmonic_solver(n, k):
    """Factorized Delta o (p1 .) on c-degree k-1 coefficient space."""
    monos = _monomials(n, k - 1)
    idx = _mono_index(n, k - 1)
    p1 = c_p1(n)
    A = np.zeros((len(monos), len(monos)))
    for j, mono in enumerate(monos):
        img = c_laplacian(c_mul(p1, {mono: 1.0}))
        for m, c in img.items():
            A[idx[m], j] += c
    return _lu_factor(A)


def _lu_factor(a):
    """scipy.linalg.lu_factor(a) for a real square a, which refuses a
    singular a where scipy warns."""
    return tuple(_lapack("dgetrf", a, overwrite_a=False))


def _lu_solve(lu_and_piv, b):
    """scipy.linalg.lu_solve(lu_and_piv, b) for a finite real b."""
    return _lapack("dgetrs", *lu_and_piv, np.asarray_chkfinite(b), trans=0,
                   overwrite_b=False)[0]


def c_harmonic_split(p, n, k):
    """p (homogeneous c-degree k) = H + p1 * S with H x-harmonic; returns (H, S)."""
    if k == 0:
        return dict(p), {}
    lap = c_laplacian(p)
    rhs = _dict_to_vec(lap, n, k - 1)
    s = _lu_solve(_c_harmonic_solver(n, k), rhs)
    monos = _monomials(n, k - 1)
    S = {m: float(c) for m, c in zip(monos, s) if c != 0.0}
    H = c_add(p, c_scale(c_mul(c_p1(n), S), -1.0))
    return H, S


def c_harmonic_components(p, n):
    """Decompose a (possibly inhomogeneous) c-polynomial restricted to the
    sphere into x-harmonic pieces: returns {x_degree: harmonic c-poly}."""
    by_deg = {}
    for mono, coef in p.items():
        by_deg.setdefault(sum(mono), {})[mono] = coef
    comps = {}
    for k in sorted(by_deg, reverse=True):
        work = by_deg[k]
        kk = k
        while work:
            H, S = c_harmonic_split(work, n, kk)
            if H:
                deg = 2 * kk
                comps[deg] = c_add(comps.get(deg, {}), H)
            work = S
            kk -= 1
    # drop float dust left by cancellations across degrees
    scale = max((abs(c) for p in comps.values() for c in p.values()), default=0.0)
    out = {}
    for deg, poly in comps.items():
        poly = {m: c for m, c in poly.items() if abs(c) > 1e-12 * scale}
        if poly:
            out[deg] = poly
    return out


#: rows per block of c_eval: one block's power table stays in cache
_BLOCK_ROWS = 8192


def _factor_lists(exponent_rows):
    """Per term, its factors (j, e) with e > 0, in the order of the row."""
    return [[(j, e) for j, e in enumerate(row) if e] for row in exponent_rows]


def _add_terms(out, coefs, factors, pows, scratch):
    """out += coef * (product of pows[j][e] over the term's factors), term
    by term; the factors multiply in order and the coefficient comes last,
    all in one scratch row."""
    for coef, fac in zip(coefs, factors):
        if not fac:
            out += coef
            continue
        term = pows[fac[0][0]][fac[0][1]]
        for j, e in fac[1:]:
            np.multiply(term, pows[j][e], out=scratch)
            term = scratch
        np.multiply(coef, term, out=scratch)
        out += scratch


def c_eval(p, cvals):
    """Evaluate a c-polynomial at rows of cvals (N, n): the one-array case
    of _c_eval_into."""
    cvals = np.atleast_2d(np.asarray(cvals, dtype=float))
    out = np.empty(cvals.shape[0])
    _c_eval_into(p, [cvals], out)
    return out


def _c_eval_into(p, arrays, out):
    """Write the values of the c-polynomial p at the rows of each (N, n)
    array of `arrays` into the next N entries of out, in blocks of
    _BLOCK_ROWS rows with a table of powers c_j^e (repeated products) per
    block, built on the block's columns made contiguous; each row sums its
    terms in the order of p, so a row's value depends neither on the block
    or array it falls in nor on the memory layout.  The factor lists are
    made once, and the power table and each term are written into buffers
    made once, or again for a longer array."""
    factors = _factor_lists(p)
    coefs = list(p.values())
    max_e = np.max(np.array(list(p), dtype=int), axis=0) if p else ()
    table = np.empty((int(np.sum(max_e)) + 1, 0))
    at = 0
    for cvals in arrays:
        dst = out[at:at + len(cvals)]
        dst.fill(0.0)
        at += len(cvals)
        if table.shape[1] < min(len(dst), _BLOCK_ROWS):
            table = np.empty((len(table), min(len(dst), _BLOCK_ROWS)))
        for s in range(0, len(dst), _BLOCK_ROWS):
            block = cvals[s:s + _BLOCK_ROWS]
            size = len(block)
            # pows[j][e] = c_j**e, a row of the table; the last row is scratch
            pows, row_at = [], 0
            for j, top in enumerate(max_e):
                row = [None]
                for e in range(1, top + 1):
                    row_dst = table[row_at, :size]
                    if e == 1:
                        np.copyto(row_dst, block[:, j])
                    else:
                        np.multiply(row[-1], row[1], out=row_dst)
                    row.append(row_dst)
                    row_at += 1
                pows.append(row)
            _add_terms(dst[s:s + size], coefs, factors, pows,
                       table[-1, :size])


#: Gauss-Legendre nodes per moduli angle of the mollifier build
_MODULI_RES = 64


def _moduli_blocks(n, res):
    """(cut, m, jac) of frames.moduli_angle_map on each block of the grid
    of res Gauss-Legendre nodes per moduli angle of S^{2n-1}, in the grid's
    order: the block's slice of each angle cuts the first k angles, all
    but the last to one node, so that it spans at most
    quadrature._PASS_NODES rows."""
    angles = 0.25 * math.pi * (_gauss_legendre(res)[0] + 1.0)
    k = 1
    while k < n - 1 and res ** (n - 1 - k) > _PASS_NODES:
        k += 1
    step = max(1, _PASS_NODES // res ** (n - 1 - k))
    for outer in itertools.product(range(res), repeat=k - 1):
        for s in range(0, res, step):
            cut = (*(slice(i, i + 1) for i in outer), slice(s, s + step),
                   *[slice(None)] * (n - 1 - k))
            yield (cut, *moduli_angle_map(angles, n, cut))


def moduli_gauss_blocks(n, res):
    """Gauss-Legendre quadrature in the block-moduli angles of S^{2n-1},
    spectrally accurate for smooth integrands, block by block
    (_moduli_blocks): (m, weights) with m a (B, n) array of nonnegative
    moduli, sum(m^2) = 1 per row.  Scaled by sphere_area(2n) over the sum
    of all blocks' weights, weights . f(m) integrates a function of the
    moduli over the sphere.  The 1-D weights, cut to the block, broadcast
    along the axes of the angle grid and multiply in the order of the
    angles, with no grid of weights per angle."""
    w = 0.25 * math.pi * _gauss_legendre(res)[1]
    for cut, m, jac in _moduli_blocks(n, res):
        weights = w[cut[0]]
        for i in range(1, n - 1):
            weights = weights[..., None] * w[cut[i]].reshape((1,) * i + (-1,))
        yield m, weights.reshape(-1) * jac * np.prod(m, axis=1)


def symmetric_coefficients(f, n, max_degree):
    """Inner products <f, P> over S^{2n-1} of a function f of the block
    moduli with the symmetric atoms P of degree <= max_degree, on the nodes
    (m_1, 0, m_2, 0, ...) of moduli_gauss_blocks at res _MODULI_RES.
    Returns (atoms, coefs).

    Three arrays span all the nodes: the normalised weights, f's values
    and one product vector, which each atom fills with its values block by
    block (its blocks made again, its factor lists once) and multiplies by
    f's in place; each coefficient is one np.dot of the weights with it.
    f is called once per block, on the (B, 2n) transposed view of a
    (2n, B) array of coordinate columns (the moduli in the even rows, zeros
    in the odd ones); f must act row by row, as the integrands of
    integrate_sphere do."""
    weights = np.empty(_MODULI_RES ** (n - 1))
    vals = np.empty_like(weights)
    cols, at = np.zeros((2 * n, 0)), 0
    for m, w in moduli_gauss_blocks(n, _MODULI_RES):
        if cols.shape[1] != len(m):
            cols = np.zeros((2 * n, len(m)))
        cols[0::2] = m.T
        weights[at:at + len(m)] = w
        vals[at:at + len(m)] = f(cols.T)
        at += len(m)
    del cols, m, w  # only the weights and values outlive the first pass
    weights *= sphere_area(2 * n) / weights.sum()
    atoms = symmetric_harmonic_atoms(n, max_degree)
    prod, coefs = np.empty_like(vals), []
    for atom in atoms:
        blocks = _moduli_blocks(n, _MODULI_RES)
        _c_eval_into(atom.c_poly,
                     (np.square(m, out=m) for _, m, _ in blocks), prod)
        prod *= vals
        coefs.append(float(np.dot(weights, prod)))
    return atoms, coefs


_FIT_TOL = 1e-9  # largest power-sum fit residual, relative to the scale
_FIT_SEED = 29  # Philox key of the Dirichlet points the fit is made on


def symmetric_power_form(p, n):
    """Rewrite a symmetric c-polynomial, restricted to sum(c) = 1, in the
    power sums p_k = sum_j c_j^k, k = 2..n.

    Returns (exps, coefs): exps is an (M, n-1) integer array of exponents
    of (p_2, ..., p_n).  Evaluation through this form is much cheaper than
    the raw monomial expansion.  Raises ValueError when the fit residual
    exceeds _FIT_TOL (e.g. for a non-symmetric polynomial).
    """
    deg = max((sum(m) for m in p), default=0)
    cand = []
    for exps in itertools.product(*(range(deg // k + 1) for k in range(2, n + 1))):
        if sum(e * k for e, k in zip(exps, range(2, n + 1))) <= deg:
            cand.append(exps)
    cand = np.array(sorted(cand), dtype=int).reshape(len(cand), max(n - 1, 0))
    rng = np.random.Generator(np.random.Philox(key=_FIT_SEED))
    npts = 8 * max(len(cand), 8)
    c = rng.dirichlet(np.ones(n), size=npts)
    target = c_eval(p, c)
    pows = np.stack([np.sum(c ** k, axis=1) for k in range(2, n + 1)], axis=1)
    design = np.ones((npts, len(cand)))
    for i, exps in enumerate(cand):
        for j, e in enumerate(exps):
            if e:
                design[:, i] *= pows[:, j] ** e
    coefs, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = np.max(np.abs(design @ coefs - target))
    scale = max(np.max(np.abs(target)), 1.0)
    if resid > _FIT_TOL * scale:
        raise ValueError(
            f"power-sum fit residual {resid:.3g} exceeds tolerance; "
            "polynomial is not symmetric on the simplex")
    keep = np.abs(coefs) > 1e-13 * np.max(np.abs(coefs))
    return cand[keep], coefs[keep]


def power_form_eval(exps, coefs, cvals):
    """Evaluate a symmetric_power_form at rows of cvals (N, n) with
    sum(c) = 1 per row.

    Works column by column, so it is fastest on the transpose of an (n, N)
    array: p_k = c_1^k + ... + c_n^k is summed in sequence, and each power
    p_k^e is formed once per call; each row sums its terms in the order of
    exps, through one scratch row made once per call."""
    cols = np.atleast_2d(np.asarray(cvals, dtype=float)).T
    scratch = np.empty(cols.shape[1])
    factors = _factor_lists(exps)
    pows = {}
    for k in range(2, len(cols) + 1):
        pk = cols[0] ** k
        for c in cols[1:]:
            # c ** 2 is numpy's square, c * c
            if k == 2:
                pk += np.multiply(c, c, out=scratch)
            else:
                pk += np.power(c, k, out=scratch)
        pows[k - 2] = {1: pk}
    for fac in factors:
        for j, e in fac:
            if e not in pows[j]:
                pows[j][e] = pows[j][1] ** e
    out = np.zeros(cols.shape[1])
    _add_terms(out, coefs, factors, pows, scratch)
    return out


@lru_cache(maxsize=None)
def _factorials(lo, hi):
    """Read-only table of k! for k = lo, ..., hi - 1 (floats): scipy's
    factorial(np.arange(lo, hi), exact=False), Gamma(k + 1), for lo >= 0."""
    if lo < 0:
        raise ValueError(f"factorials start at 0, not {lo}")
    table = _ufuncs.gamma(np.arange(lo, hi) + 1)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _moment_table(n, box):
    """Read-only table of the Dirichlet moments <c^E, 1> / |S^{2n-1}| =
    (n-1)! prod_j E_j! / (n-1+|E|)! at every exponent E with
    0 <= E_j <= box[j]; the factors of each entry are multiplied in the
    order of the coordinates, as a product over the last axis does."""
    axes = np.ix_(*(np.arange(top + 1) for top in box))  # E_j on axis j
    fact = _factorials(0, max(box) + 1)
    table = math.factorial(n - 1) * reduce(
        np.multiply, [fact[e] for e in axes])
    table /= _factorials(n - 1, n + sum(box))[sum(axes)]
    table.flags.writeable = False
    return table


def c_sphere_inner(p, q, n):
    """Exact <p, q> over S^{2n-1}: v_p . M . v_q, with the moments M of the
    merged exponents looked up in a cached table (_moment_table)."""
    if not p or not q:
        return 0.0
    e1 = np.array(list(p), dtype=int)
    e2 = np.array(list(q), dtype=int)
    v1 = np.array(list(p.values()))
    v2 = np.array(list(q.values()))
    table = _moment_table(n, tuple(int(t) for t in e1.max(axis=0)
                                   + e2.max(axis=0)))
    # C-order flat index of e1 + e2 = flat index of e1 + flat index of e2
    strides = np.cumprod((1,) + table.shape[:0:-1])[::-1]
    mom = table.reshape(-1)[(e1 @ strides)[:, None] + (e2 @ strides)[None, :]]
    return float(v1 @ mom @ v2) * sphere_area(2 * n)


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------

def _moduli_values(c_poly, n, x, on_sphere):
    """c_poly at the block moduli squared c_j = |z_j|^2 of points x
    (..., 2n), or of x/|x| if on_sphere."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    m2 = _block_moduli_columns(_columns(x, 2 * n)) ** 2
    if on_sphere:
        m2 /= _row_sum(m2)
    return c_eval(c_poly, m2.T).reshape(x.shape[:-1])


class HarmonicAtom:
    """A unit-L^2(S) harmonic polynomial in the block moduli squared
    c_j = |z_j|^2, hence invariant under independent block rotations."""

    moduli_symmetric = True

    def __init__(self, n, degree, c_poly, label):
        self.n = int(n)
        self.dim = 2 * self.n
        self.degree = int(degree)
        self.c_poly = c_poly
        self.label = label

    def __call__(self, x):
        return _moduli_values(self.c_poly, self.n, x, on_sphere=False)

    def __repr__(self):
        return f"HarmonicAtom(n={self.n}, degree={self.degree})"


class HarmonicBump:
    """Even spherical function given by a polynomial in the block moduli
    squared of x/|x|; callable on points of dimension 2n, n the length of
    its exponent tuples, serializable, orbit-invariant, and
    `moduli_symmetric` if block permutations keep it to 1e-12 relative."""

    def __init__(self, c_poly: dict, label: str = "bump"):
        self.c_poly = dict(c_poly)
        self.label = label
        lengths = {len(mono) for mono in self.c_poly}
        if len(lengths) != 1:
            raise ValueError(f"bump {label!r}: c_poly needs terms of one "
                             f"length, not lengths {sorted(lengths)}")
        [self.n] = lengths
        scale = max(map(abs, self.c_poly.values()))
        self.moduli_symmetric = all(
            abs(self.c_poly.get(perm, 0.0) - coef) <= 1e-12 * scale
            for mono, coef in self.c_poly.items()
            for perm in itertools.permutations(mono))

    def __call__(self, x):
        return _moduli_values(self.c_poly, self.n, x, on_sphere=True)

    def as_record(self) -> dict:
        """{label, c_poly: {"i j ...": coef}}, terms in summation order."""
        return {"label": self.label,
                "c_poly": {" ".join(map(str, k)): v
                           for k, v in self.c_poly.items()}}


@lru_cache(maxsize=None)
def symmetric_harmonic_atoms(n, max_degree):
    """Unit-L^2 harmonic atoms in the fully symmetric algebra (polynomials
    in the block moduli squared), one list over even degrees <= max_degree.
    Atom lists are cached per (n, max_degree); treat them as read-only."""
    if max_degree % 2 != 0:
        raise ValueError("max_degree must be even")
    atoms = [HarmonicAtom(n, 0, c_poly={tuple([0] * n): 1.0 / math.sqrt(sphere_area(2 * n))},
                          label="const")]
    for deg in range(4, max_degree + 1, 2):
        k = deg // 2
        cands = []
        for part in _partitions(k, n):
            mono = {}
            for perm in set(itertools.permutations(part)):
                mono[perm] = 1.0
            cands.append(mono)
        scale = max(c_sphere_inner(p, p, n) for p in cands)
        projs = [c_harmonic_split(p, n, k)[0] for p in cands]
        projs = [p for p in projs if p]
        if not projs:
            continue
        # eigh reads the lower triangle only: fill it and mirror it
        G = np.zeros((len(projs), len(projs)))
        for i, p in enumerate(projs):
            for j in range(i + 1):
                G[i, j] = G[j, i] = c_sphere_inner(p, projs[j], n)
        evals, evecs = _eigh(G)
        # genuine harmonic parts may be tiny relative to the monomials, so
        # the cut is relative to the leading eigenvalue; the absolute floor
        # (vs the candidate scale) rejects round-off ghosts when the
        # symmetric harmonic space at this degree is actually empty
        keep = (evals > 1e-9 * evals.max()) & (evals > 1e-20 * scale)
        if not keep.any():
            continue
        coefs = evecs[:, keep] / np.sqrt(evals[keep])
        for i in range(coefs.shape[1]):
            poly = {}
            for c, p in zip(coefs[:, i], projs):
                poly = c_add(poly, c_scale(p, c))
            atoms.append(HarmonicAtom(n, deg, c_poly=poly, label=f"sym{deg}/{i}"))
    return atoms


def _eigh(a):
    """scipy.linalg.eigh(a) for a finite real symmetric a, read from its
    lower triangle: LAPACK dsyevr, with the work sizes dsyevr_lwork gives
    converted as scipy's _compute_lwork converts them."""
    a = np.asarray_chkfinite(a)
    lwork, liwork = (int(size.real) for size in _lapack(
        "dsyevr_lwork", n=len(a), lower=True))
    w, v, *_ = _lapack("dsyevr", a=a, overwrite_a=False, lower=True,
                       compute_v=1, lwork=lwork, liwork=liwork)
    return w, v


def _partitions(k, max_parts):
    """Partitions of k into at most max_parts parts (tuples padded with 0)."""
    def rec(rem, maxv, parts):
        if rem == 0:
            yield tuple(parts + [0] * (max_parts - len(parts)))
            return
        if len(parts) == max_parts:
            return
        for v in range(min(rem, maxv), 0, -1):
            yield from rec(rem - v, v, parts + [v])

    yield from rec(k, k, [])
