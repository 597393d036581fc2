"""Rotation-invariant harmonic polynomials on R^{2n}.

Polynomials are kept in the block moduli squared c_j = |z_j|^2 (the
c-algebra): harmonic projection, exact Dirichlet-moment inner products on
the sphere and fast vectorized evaluation.  The fully symmetric atoms
(invariant under independent block rotations and permutations) expand the
radial functions of moduli-symmetric bodies and build perturbation bumps,
because bodies perturbed by them keep the full symmetry group.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np
from scipy import linalg, special

from .bodies import _block_moduli_columns, _columns
from .frames import moduli_angle_map
from .quadrature import sphere_area


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


def _dict_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            key = tuple(a + b for a, b in zip(m1, m2))
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


# ---------------------------------------------------------------------------
# the symmetric c-algebra (c_j = |z_j|^2)
# ---------------------------------------------------------------------------

def c_mul(p, q):
    return _dict_mul(p, q)


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
    return linalg.lu_factor(A)


def c_harmonic_split(p, n, k):
    """p (homogeneous c-degree k) = H + p1 * S with H x-harmonic; returns (H, S)."""
    if k == 0:
        return dict(p), {}
    lap = c_laplacian(p)
    rhs = _dict_to_vec(lap, n, k - 1)
    s = linalg.lu_solve(_c_harmonic_solver(n, k), rhs)
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
    """Evaluate a c-polynomial at rows of cvals (N, n), in blocks of
    _BLOCK_ROWS rows with a table of powers c_j^e (repeated products) per
    block, built on the block's columns made contiguous; each row sums its
    terms in the order of p, so a row's value depends neither on the block
    it falls in nor on the memory layout of cvals.  The factor lists are
    made once per call, and the power table and each term are written into
    buffers made once per call."""
    cvals = np.atleast_2d(np.asarray(cvals, dtype=float))
    out = np.zeros(cvals.shape[0])
    if not p:
        return out
    max_e = np.max(np.array(list(p), dtype=int), axis=0)
    factors = _factor_lists(p)
    coefs = list(p.values())
    rows = min(len(out), _BLOCK_ROWS)
    table = np.empty((int(max_e.sum()) + 1, rows))
    for s in range(0, len(out), _BLOCK_ROWS):
        block = cvals[s:s + _BLOCK_ROWS]
        size = len(block)
        # pows[j][e] = c_j**e, a row of the table; the last row is scratch
        pows, at = [], 0
        for j, top in enumerate(max_e):
            row = [None]
            for e in range(1, top + 1):
                dst = table[at, :size]
                if e == 1:
                    np.copyto(dst, block[:, j])
                else:
                    np.multiply(row[-1], row[1], out=dst)
                row.append(dst)
                at += 1
            pows.append(row)
        _add_terms(out[s:s + size], coefs, factors, pows, table[-1, :size])
    return out


def moduli_gauss_quadrature(n, res=64):
    """Gauss-Legendre quadrature in the block-moduli angles of S^{2n-1}.

    Returns (m, weights): m is an (N, n) array of nonnegative moduli with
    sum(m^2) = 1 per row, and weights carry the invariant surface measure,
    normalized so that any function of the moduli alone integrates over the
    sphere as weights . f(m).  Spectrally accurate for smooth integrands.
    """
    res = int(res)
    x, w = np.polynomial.legendre.leggauss(res)
    m, jac = moduli_angle_map(0.25 * math.pi * (x + 1.0), n)
    wgrids = np.meshgrid(*([0.25 * math.pi * w] * (n - 1)), indexing="ij")
    weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    weights = weights * jac * np.prod(m, axis=1)
    weights *= sphere_area(2 * n) / weights.sum()
    return m, weights


def symmetric_power_form(p, n, tol=1e-9, seed=29):
    """Rewrite a symmetric c-polynomial, restricted to sum(c) = 1, in the
    power sums p_k = sum_j c_j^k, k = 2..n.

    Returns (exps, coefs): exps is an (M, n-1) integer array of exponents
    of (p_2, ..., p_n).  Evaluation through this form is much cheaper than
    the raw monomial expansion.  Raises ValueError when the fit residual
    exceeds tol (e.g. for a non-symmetric polynomial).
    """
    deg = max((sum(m) for m in p), default=0)
    cand = []
    for exps in itertools.product(*(range(deg // k + 1) for k in range(2, n + 1))):
        if sum(e * k for e, k in zip(exps, range(2, n + 1))) <= deg:
            cand.append(exps)
    cand = np.array(sorted(cand), dtype=int).reshape(len(cand), max(n - 1, 0))
    rng = np.random.Generator(np.random.Philox(key=seed))
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
    if resid > tol * scale:
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


@lru_cache(maxsize=None)
def _factorials(lo, hi):
    """Read-only table of k! for k = lo, ..., hi - 1 (floats)."""
    table = special.factorial(np.arange(lo, hi), exact=False)
    table.flags.writeable = False
    return table


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


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------

class HarmonicAtom:
    """A unit-L^2(S) harmonic polynomial in the block moduli squared
    c_j = |z_j|^2, hence invariant under independent block rotations."""

    moduli_symmetric = True

    def __init__(self, n, degree, c_poly, label=""):
        self.n = int(n)
        self.dim = 2 * self.n
        self.degree = int(degree)
        self.c_poly = c_poly
        self.label = label

    def __call__(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        m2 = _block_moduli_columns(_columns(x)) ** 2
        return c_eval(self.c_poly, m2.T).reshape(x.shape[:-1])

    def __repr__(self):
        return f"HarmonicAtom(n={self.n}, degree={self.degree})"


_SYM_ATOM_CACHE: dict = {}


def symmetric_harmonic_atoms(n, max_degree):
    """Unit-L^2 harmonic atoms in the fully symmetric algebra (polynomials
    in the block moduli squared), one list over even degrees <= max_degree.
    Atom lists are cached per (n, max_degree); treat them as read-only."""
    if max_degree % 2 != 0:
        raise ValueError("max_degree must be even")
    key = (int(n), int(max_degree))
    cached = _SYM_ATOM_CACHE.get(key)
    if cached is not None:
        return cached
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
        evals, evecs = linalg.eigh(G)
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
    _SYM_ATOM_CACHE[key] = atoms
    return atoms


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
