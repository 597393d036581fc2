import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, special

import checks
from cbplab import fourier, harmonics
from cbplab.bodies import (ComplexLqBall, EuclideanBall, RadialPerturbation,
                           mollify)
from cbplab.fourier import ft_multiplier_route
from cbplab.harmonics import (_BLOCK_ROWS, HarmonicBump, _factorials,
                              _monomials,
                              _moment_table, c_add, c_eval,
                              c_harmonic_components, c_harmonic_split,
                              c_laplacian, c_mul, c_p1, c_scale,
                              c_sphere_inner, moduli_gauss_blocks,
                              power_form_eval, symmetric_coefficients,
                              symmetric_harmonic_atoms, symmetric_power_form)
from cbplab.quadrature import sphere_area
from checks import c_sphere_integral


def moduli_nodes(n, res):
    """The blocks of moduli_gauss_blocks joined, with the weights scaled as
    symmetric_coefficients scales them."""
    m, w = map(np.concatenate, zip(*moduli_gauss_blocks(n, res)))
    w *= sphere_area(2 * n) / w.sum()
    return m, w


def dirichlet_points(n, count=256, seed=0):
    g = np.random.Generator(np.random.Philox(key=seed))
    return g.dirichlet(np.ones(n), size=count)


def test_monomials_and_partitions_are_the_recursive_enumerations():
    # the same tuples in the same order as the recursions they replace
    for d in range(1, 7):
        for deg in range(21):
            assert _monomials(d, deg) == checks.recursive_monomials(d, deg)
    for n in range(1, 7):
        for k in range(17):
            assert list(harmonics._partitions(k, n)) == list(
                checks.recursive_partitions(k, n))


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
        m, w = moduli_nodes(n, 24)
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
    assert np.allclose(a(x), c_eval(a.c_poly, checks.block_moduli(x) ** 2),
                       atol=1e-13)


def test_atoms_and_bumps_refuse_points_of_another_dimension():
    atom = next(a for a in symmetric_harmonic_atoms(3, 4) if a.degree == 4)
    squares = HarmonicBump({(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0},
                           label="squares")
    assert squares.n == 3
    g = np.random.Generator(np.random.Philox(key=12))
    for dim in (4, 8):
        x = g.standard_normal((16, dim))
        for f in (atom, squares):
            with pytest.raises(ValueError, match=f"points of dimension {dim} "
                                                 "given where dimension 6"):
                f(x)
    # so a bump of another dimension does not perturb a body
    with pytest.raises(ValueError, match="points of dimension 8"):
        RadialPerturbation(EuclideanBall(8), 6, 0.01, squares,
                           bump_id="squares")


class _RecordedBump(HarmonicBump):
    """A HarmonicBump that records the points of every call."""

    def __init__(self, c_poly, label):
        super().__init__(c_poly, label=label)
        self.calls = []

    def __call__(self, x):
        self.calls.append(np.array(x))
        return super().__call__(x)


@pytest.mark.parametrize("base", [EuclideanBall(6), ComplexLqBall(3, 4.0)])
def test_a_bump_of_another_block_count_is_refused_before_any_call(base):
    bump = _RecordedBump({(1, 0): 1.0, (0, 1): 1.0}, label="x2")
    with pytest.raises(ValueError, match=(
            f"bump 'x2' has 2 blocks, so it reads points of dimension 4, "
            f"not {re.escape(base.spec())}'s points of dimension 6")):
        RadialPerturbation(base, 2.0, 0.05, bump, bump_id="x")
    assert bump.calls == []
    # a bump type check still comes first
    with pytest.raises(TypeError, match="bump must be a HarmonicBump"):
        RadialPerturbation(base, 2.0, 0.05, lambda x: 0.0, bump_id="x")


@pytest.mark.parametrize("c_poly", [{}, {(2, 0): 1.0, (0, 2, 0): 1.0}])
def test_a_bump_needs_exponent_tuples_of_one_length(c_poly):
    with pytest.raises(ValueError, match="bump 'b': c_poly needs"):
        HarmonicBump(c_poly, label="b")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_an_atom_at_one_direction_is_its_moduli_polynomial_bit_for_bit(n):
    # ft_multiplier_route calls each atom at one direction xi: the same bits
    # as c_eval of its squared block moduli, one (1, n) row
    g = np.random.Generator(np.random.Philox(key=n))
    xs = g.standard_normal((16, 2 * n))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    for a in symmetric_harmonic_atoms(n, 16):
        for xi in xs:
            cxi = np.atleast_2d(checks.block_moduli(xi) ** 2)
            assert a(xi)[0] == c_eval(a.c_poly, cxi)[0], (a.label, xi)


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


@pytest.mark.parametrize("n, res", [(2, 8), (2, 64), (3, 8), (3, 64), (4, 8),
                                    (4, 64), (5, 8), (5, 16), (5, 24)])
def test_moduli_gauss_quadrature_is_bit_identical_to_the_meshgrid_form(n,
                                                                       res):
    # the joined blocks of the moduli rule are the one-shot rule
    m, w = moduli_nodes(n, res)
    ref_m, ref_w = checks.moduli_gauss_quadrature(n, res)
    assert m.tobytes() == ref_m.tobytes()
    assert w.tobytes() == ref_w.tobytes()


def test_moduli_blocks_cut_the_leading_angles(monkeypatch):
    # 8^3 rows per first angle exceed 200, so blocks cut the second angle
    # to 3, 3 and 2 of its nodes: blocks of 192, 192 and 128 rows
    monkeypatch.setattr(harmonics, "_PASS_NODES", 200)
    blocks = list(moduli_gauss_blocks(5, 8))
    assert [len(m) for m, _ in blocks] == [192, 192, 128] * 8
    m, w = moduli_nodes(5, 8)
    ref_m, ref_w = checks.moduli_gauss_quadrature(5, 8)
    assert m.tobytes() == ref_m.tobytes()
    assert w.tobytes() == ref_w.tobytes()


def _atom_bytes(atoms):
    return [(a.degree, a.label, list(a.c_poly),
             np.array(list(a.c_poly.values())).tobytes()) for a in atoms]


@pytest.mark.parametrize("n", [3, 4])
def test_atoms_from_the_moment_table_are_bit_identical(monkeypatch, n):
    symmetric_harmonic_atoms.cache_clear()
    atoms = symmetric_harmonic_atoms(n, 16)
    # the moment tables are freed with the atoms built
    assert _moment_table.cache_info().currsize == 0
    symmetric_harmonic_atoms.cache_clear()
    monkeypatch.setattr(harmonics, "c_sphere_inner", checks.c_sphere_inner)
    assert _atom_bytes(atoms) == _atom_bytes(symmetric_harmonic_atoms(n, 16))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_atoms_and_splits_are_those_of_scipys_linalg_bit_for_bit(
        monkeypatch, n):
    # the ports of eigh, lu_factor and lu_solve against scipy.linalg's own
    poly = {mono: 1.0 + i for i, mono in enumerate(_monomials(n, 3))}

    def build():
        symmetric_harmonic_atoms.cache_clear()
        harmonics._c_harmonic_solver.cache_clear()
        return (_atom_bytes(symmetric_harmonic_atoms(n, 16)),
                [list(part.items()) for part in c_harmonic_split(poly, n, 3)])

    ours = build()
    monkeypatch.setattr(harmonics, "_eigh", linalg.eigh)
    monkeypatch.setattr(harmonics, "_lu_factor", linalg.lu_factor)
    monkeypatch.setattr(harmonics, "_lu_solve", linalg.lu_solve)
    assert build() == ours
    monkeypatch.undo()
    assert build() == ours


def test_factorials_are_scipys_bit_for_bit():
    # the tables of _moment_table: 0!, 1!, ... and (n - 1)!, n!, ...
    for lo, hi in ((0, 1), (0, 40), (1, 40), (4, 60), (0, 171)):
        assert (_factorials(lo, hi).tobytes()
                == special.factorial(np.arange(lo, hi), exact=False).tobytes())
    with pytest.raises(ValueError, match="factorials start at 0, not -1"):
        _factorials.__wrapped__(-1, 3)


def test_moment_table_is_read_only_and_sized_per_coordinate():
    p = {(2, 0, 1): 1.0, (0, 1, 0): -0.5}
    q = {(1, 0, 0): 2.0}
    assert c_sphere_inner(p, q, 3) == checks.c_sphere_inner(p, q, 3)
    table = _moment_table(3, (3, 1, 1))
    assert table.shape == (4, 2, 2)
    assert not table.flags.writeable
    assert _moment_table(3, (3, 1, 1)) is table


@pytest.mark.parametrize("n, res, pass_nodes", [
    (2, 64, 2 ** 14), (3, 64, 2 ** 14), (4, 64, 2 ** 14), (5, 8, 2 ** 14),
    (5, 8, 200)])
def test_streamed_coefficients_are_bit_identical_to_the_one_shot_build(
        monkeypatch, n, res, pass_nodes):
    monkeypatch.setattr(harmonics, "_MODULI_RES", res)
    monkeypatch.setattr(harmonics, "_PASS_NODES", pass_nodes)
    base = ComplexLqBall(n, 4.0)
    _, coefs = symmetric_coefficients(base.radial, n, 16)
    _, ref = checks.symmetric_coefficients(base.radial, n, 16, res)
    assert np.array(coefs).tobytes() == np.array(ref).tobytes()


def _one_shot_build(monkeypatch):
    """The build's coefficients from the one-shot reference, and its extremes
    from the series on one block of all the moduli nodes."""
    monkeypatch.setattr(harmonics, "symmetric_coefficients",
                        checks.symmetric_coefficients)
    monkeypatch.setattr(harmonics, "_moduli_blocks", lambda n, res: iter(
        [((), checks.moduli_gauss_quadrature(n, res)[0], None)]))


def test_streamed_mollifier_build_is_bit_identical_to_the_one_shot_build(
        monkeypatch):
    base = ComplexLqBall(4, 4.0)
    body = mollify(base, 0.1)
    _one_shot_build(monkeypatch)
    ref = mollify(base, 0.1)
    for got, want in zip(body._power_form, ref._power_form):
        assert got.tobytes() == want.tobytes()
    assert (body.r_min, body.r_max) == (ref.r_min, ref.r_max)


def test_the_multiplier_route_is_bit_identical_to_the_one_shot_build(
        monkeypatch):
    body = mollify(ComplexLqBall(3, 4.0), 0.1)
    xi = np.array([0.8, 0.0, 0.6, 0.0, 0.0, 0.0])
    got = ft_multiplier_route(body, xi, 2.0)
    monkeypatch.setattr(fourier, "symmetric_coefficients",
                        checks.symmetric_coefficients)
    want = ft_multiplier_route(body, xi, 2.0)
    assert (got.value, got.stderr) == (want.value, want.stderr)


def test_the_mollifier_build_stays_small():
    """Traced peak of building mollify(clq(4, 4), 0.1), atoms prebuilt: 44
    MB with full meshgrids and a (2n, N) point array, 17 MB with the moduli
    resident, 10.5 MB with only the weights, the base's values and one
    product vector spanning all 64^3 nodes."""
    base = ComplexLqBall(4, 4.0)
    symmetric_harmonic_atoms(4, 16)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        mollify(base, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 12 * 2 ** 20
