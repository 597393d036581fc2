import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbplab.bodies import ComplexLqBall, block_moduli, mollify
from cbplab.harmonics import (_BLOCK_ROWS, _monomials, c_add, c_eval,
                              c_harmonic_components,
                              c_laplacian, c_mul, c_p1, c_scale,
                              c_sphere_inner, c_sphere_integral,
                              moduli_gauss_quadrature, power_form_eval,
                              symmetric_harmonic_atoms, symmetric_power_form)
from cbplab.quadrature import sphere_area


def dirichlet_points(n, count=256, seed=0):
    g = np.random.Generator(np.random.Philox(key=seed))
    return g.dirichlet(np.ones(n), size=count)


def test_c_algebra():
    p = {(1, 0): 2.0}
    q = {(0, 1): 3.0, (1, 0): -2.0}
    assert c_add(p, q) == {(0, 1): 3.0}
    assert c_mul(p, q) == {(1, 1): 6.0, (2, 0): -4.0}
    assert c_scale(p, 0.5) == {(1, 0): 1.0}


def test_c_laplacian_of_a_block_modulus():
    # c_1 = x_1^2 + x_2^2 has x-Laplacian 4
    assert c_laplacian({(1, 0): 1.0}) == {(0, 0): 4.0}
    # |x|^4 has Laplacian 4 (4 + d - 2) |x|^2 = 24 |x|^2 in dimension d = 4
    p1 = c_p1(2)
    lap = c_laplacian(c_mul(p1, p1))
    assert lap == {(1, 0): 24.0, (0, 1): 24.0}


def test_harmonic_components_reassemble_on_the_sphere():
    n = 3
    poly = {(2, 0, 0): 1.0, (0, 1, 1): -0.5, (1, 0, 0): 0.25}
    comps = c_harmonic_components(poly, n)
    c = dirichlet_points(n, seed=1)
    total = np.zeros(len(c))
    for piece in comps.values():
        total += c_eval(piece, c)
    assert np.allclose(total, c_eval(poly, c), atol=1e-12)
    # each piece is x-harmonic
    for piece in comps.values():
        lap = c_laplacian(piece)
        scale = max(abs(v) for v in piece.values())
        assert all(abs(v) < 1e-9 * scale for v in lap.values())


def test_exact_sphere_moments():
    n = 3
    area = sphere_area(2 * n)
    assert c_sphere_integral({(0, 0, 0): 1.0}, n) == pytest.approx(area)
    # E[c_1] = 1/n for Dirichlet(1,...,1) moduli squared
    assert c_sphere_integral({(1, 0, 0): 1.0}, n) == pytest.approx(area / n)
    # inner product agrees with the integral of the product
    p = {(1, 0, 0): 1.0}
    q = {(0, 1, 0): 2.0, (0, 0, 0): 1.0}
    assert c_sphere_inner(p, q, n) == pytest.approx(
        c_sphere_integral(c_mul(p, q), n))


def test_moduli_gauss_quadrature_matches_exact_moments():
    for n in (2, 3, 4):
        m, w = moduli_gauss_quadrature(n, res=24)
        assert np.allclose(np.sum(m ** 2, axis=1), 1.0, atol=1e-12)
        assert np.sum(w) == pytest.approx(sphere_area(2 * n), rel=1e-12)
        poly = {tuple(2 if j == 0 else 0 for j in range(n)): 1.0}
        num = float(np.dot(w, c_eval(poly, m ** 2)))
        assert num == pytest.approx(c_sphere_integral(poly, n), rel=1e-10)


def test_power_form_round_trip():
    n = 4
    # symmetric polynomial sum_j c_j^2 equals the power sum p_2
    poly = {}
    for j in range(n):
        mono = tuple(2 if i == j else 0 for i in range(n))
        poly[mono] = 1.0
    exps, coefs = symmetric_power_form(poly, n)
    c = dirichlet_points(n, seed=2)
    assert np.allclose(power_form_eval(exps, coefs, c), c_eval(poly, c),
                       atol=1e-12)


def test_power_form_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        symmetric_power_form({(2, 0, 0): 1.0}, 3)


def test_symmetric_atoms_are_orthonormal_and_harmonic():
    for n in (2, 4):
        atoms = symmetric_harmonic_atoms(n, 8)
        for i, a in enumerate(atoms):
            assert a.moduli_symmetric
            lap = c_laplacian(a.c_poly)
            scale = max(abs(v) for v in a.c_poly.values())
            assert all(abs(v) < 1e-8 * scale for v in lap.values())
            for j, b in enumerate(atoms):
                want = 1.0 if i == j else 0.0
                assert c_sphere_inner(a.c_poly, b.c_poly, n) == pytest.approx(
                    want, abs=1e-8)


def test_no_ghost_atoms_in_empty_degrees():
    # for n = 2 the fully symmetric harmonic spaces at degrees 2, 6, 10, 14
    # are empty; the rank filter must not fabricate atoms there
    degrees = {a.degree for a in symmetric_harmonic_atoms(2, 16)}
    assert degrees == {0, 4, 8, 12, 16}


def test_atoms_are_pure_degree():
    # each atom decomposes into a single harmonic degree
    for a in symmetric_harmonic_atoms(2, 12):
        comps = c_harmonic_components(a.c_poly, 2)
        assert set(comps) == {a.degree}


def test_c_eval_matches_direct_expansion():
    poly = {(2, 1): 3.0, (0, 0): -1.0}
    c = dirichlet_points(2, seed=7)
    direct = 3.0 * c[:, 0] ** 2 * c[:, 1] - 1.0
    assert np.allclose(c_eval(poly, c), direct, atol=1e-14)


def test_atom_evaluation_uses_block_moduli():
    a = next(at for at in symmetric_harmonic_atoms(2, 4) if at.degree == 4)
    g = np.random.Generator(np.random.Philox(key=9))
    x = g.standard_normal((64, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    assert np.allclose(a(x), c_eval(a.c_poly, block_moduli(x) ** 2),
                       atol=1e-13)


def _c_eval_unblocked(p, cvals):
    """c_eval before row blocking: one power table over all rows."""
    cvals = np.atleast_2d(np.asarray(cvals, dtype=float))
    out = np.zeros(cvals.shape[0])
    if not p:
        return out
    max_e = [0] * cvals.shape[1]
    for mono in p:
        for j, e in enumerate(mono):
            if e > max_e[j]:
                max_e[j] = e
    pows = []
    for j, top in enumerate(max_e):
        col = [None, cvals[:, j]]
        for e in range(2, top + 1):
            col.append(col[-1] * cvals[:, j])
        pows.append(col)
    for mono, coef in p.items():
        term = None
        for j, e in enumerate(mono):
            if e:
                term = pows[j][e] if term is None else term * pows[j][e]
        out += coef if term is None else coef * term
    return out


def _dense_poly(n, max_deg, seed):
    g = np.random.Generator(np.random.Philox(key=seed))
    return {mono: float(g.standard_normal())
            for deg in range(max_deg + 1) for mono in _monomials(n, deg)}


def test_c_eval_blocks_are_bit_identical_to_one_pass():
    poly = _dense_poly(4, 6, seed=3)
    c = dirichlet_points(4, count=3 * _BLOCK_ROWS + 17, seed=4)
    assert np.array_equal(c_eval(poly, c), _c_eval_unblocked(poly, c))
    assert np.array_equal(c_eval(poly, c[5]), _c_eval_unblocked(poly, c[5]))
    assert c_eval(poly, c[5]).shape == (1,)
    assert np.array_equal(c_eval({}, c), np.zeros(len(c)))


@settings(max_examples=15, deadline=None)
@given(rows=st.integers(1, 3 * _BLOCK_ROWS), seed=st.integers(0, 2 ** 16))
def test_c_eval_is_bit_identical_at_any_row_count(rows, seed):
    poly = _dense_poly(3, 5, seed)
    c = dirichlet_points(3, count=rows, seed=seed)
    assert np.array_equal(c_eval(poly, c), _c_eval_unblocked(poly, c))


# The kernels before their scratch buffers: a new array for every power
# and every term.  The buffered kernels must give the same bits.

def _c_eval_allocating(p, cvals):
    cvals = np.atleast_2d(np.asarray(cvals, dtype=float))
    out = np.zeros(cvals.shape[0])
    if not p:
        return out
    max_e = np.max(np.array(list(p), dtype=int), axis=0)
    for s in range(0, len(out), _BLOCK_ROWS):
        cols = np.ascontiguousarray(cvals[s:s + _BLOCK_ROWS].T)
        acc = out[s:s + _BLOCK_ROWS]
        pows = []
        for c, top in zip(cols, max_e):
            pows.append([None, c])
            for _ in range(2, top + 1):
                pows[-1].append(pows[-1][-1] * c)
        for mono, coef in p.items():
            term = None
            for j, e in enumerate(mono):
                if e:
                    term = pows[j][e] if term is None else term * pows[j][e]
            acc += coef if term is None else coef * term
    return out


def _power_form_eval_allocating(exps, coefs, cvals):
    cols = np.atleast_2d(np.asarray(cvals, dtype=float)).T
    pows = {}
    for k in range(2, len(cols) + 1):
        pk = cols[0] ** k
        for c in cols[1:]:
            pk += c ** k
        pows[k - 2, 1] = pk
    out = np.zeros(cols.shape[1])
    for exps_row, coef in zip(exps, coefs):
        term = None
        for j, e in enumerate(exps_row):
            if e:
                if (j, e) not in pows:
                    pows[j, e] = pows[j, 1] ** e
                term = pows[j, e] if term is None else term * pows[j, e]
        out += coef if term is None else coef * term
    return out


def _committed_bump():
    path = (Path(__file__).resolve().parents[1] / "perfbench" / "data"
            / "pair_n4_q4_seed0.json")
    record = json.loads(path.read_text())["pair"]["bump"]["c_poly"]
    return {tuple(int(t) for t in key.split()): float(v)
            for key, v in record.items()}


@pytest.mark.parametrize("rows", [1, 3 * _BLOCK_ROWS + 17])
def test_buffered_c_eval_is_bit_identical_to_the_allocating_loop(rows):
    bump = _committed_bump()
    assert len(bump) == 202
    c = dirichlet_points(4, count=rows, seed=rows)
    for poly in (bump, _dense_poly(4, 6, seed=3), {(0, 0, 0, 0): 2.5}):
        got = c_eval(poly, c)
        assert np.array_equal(got, _c_eval_allocating(poly, c))
        assert np.array_equal(c_eval(poly, np.asfortranarray(c)), got)


@pytest.mark.parametrize("rows", [1, 3 * _BLOCK_ROWS + 17])
def test_buffered_power_form_eval_is_bit_identical_to_the_allocating_loop(
        rows):
    exps, coefs = mollify(ComplexLqBall(3, 4.0), 0.15)._power_form
    assert len(coefs) > 3 and exps.max() > 1
    m2 = dirichlet_points(3, count=rows, seed=rows).T.copy()  # (n, N)
    got = power_form_eval(exps, coefs, m2.T)
    assert np.array_equal(got, _power_form_eval_allocating(exps, coefs, m2.T))
    assert np.array_equal(power_form_eval(exps, coefs, m2.T.copy()), got)
    # a symmetric form of the committed bump, through every power sum
    exps4, coefs4 = symmetric_power_form(_committed_bump(), 4)
    c = dirichlet_points(4, count=rows, seed=7)
    assert np.array_equal(power_form_eval(exps4, coefs4, c),
                          _power_form_eval_allocating(exps4, coefs4, c))
