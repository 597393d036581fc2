import math

import numpy as np
import pytest

import checks
from cbplab import frames
from cbplab.frames import make_frame, make_grid, perp
from cbplab.quadrature import sphere_area
from checks import orbit_distance, rotate, scipy_sobol_sphere, unit


def test_perp_swaps_pairs_with_sign():
    xi = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(perp(xi), [-2.0, 1.0, -4.0, 3.0])


def test_perp_is_an_isometry_and_a_quarter_turn():
    xi = unit(8, seed=1)
    xp = perp(xi)
    assert np.linalg.norm(xp) == pytest.approx(1.0)
    assert abs(np.dot(xi, xp)) < 1e-14
    # perp equals R_{pi/2}
    assert np.allclose(xp, rotate(xi, math.pi / 2.0))
    # applying it twice is -identity
    assert np.allclose(perp(xp), -xi)


def test_rotate_group_law():
    x = unit(6, seed=2)
    a, b = 0.7, 1.9
    assert np.allclose(rotate(rotate(x, a), b), rotate(x, a + b))
    assert np.allclose(rotate(x, 0.0), x)
    assert np.linalg.norm(rotate(x, a)) == pytest.approx(1.0)


def test_frame_is_orthonormal_and_complements_the_complex_line():
    for seed in range(4):
        xi = unit(8, seed=seed)
        fr = make_frame(xi)
        assert fr.basis.shape == (6, 8)
        gram = fr.basis @ fr.basis.T
        assert np.allclose(gram, np.eye(6), atol=1e-12)
        assert np.allclose(fr.basis @ xi, 0.0, atol=1e-12)
        assert np.allclose(fr.basis @ fr.xi_perp, 0.0, atol=1e-12)


def test_frame_subspace_is_rotation_invariant():
    # H_xi is a complex subspace: R_theta maps it to itself
    xi = unit(6, seed=7)
    fr = make_frame(xi)
    v = fr.basis.T @ np.arange(1.0, 5.0)
    w = rotate(v, 1.1)
    # w should stay orthogonal to xi and xi_perp
    assert abs(np.dot(w, xi)) < 1e-12
    assert abs(np.dot(w, fr.xi_perp)) < 1e-12


def test_make_frame_rejects_bad_input():
    with pytest.raises(ValueError):
        make_frame(np.array([1.0, 0.0, 0.0]))  # odd dimension
    with pytest.raises(ValueError):
        make_frame(np.array([2.0, 0.0, 0.0, 0.0]))  # not unit
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="unit vector"):
            make_frame(np.array([bad, 0.0, 0.0, 0.0]))


def test_orbit_distance_vanishes_on_the_orbit():
    p = unit(6, seed=3)
    q = rotate(p, 2.2)
    # the theta grid resolves the minimum to O(1/samples)
    assert orbit_distance(p, q) < 2.0 * math.pi / 256
    assert orbit_distance(p, q, samples=4096) < 1e-3
    r = unit(6, seed=4)
    assert orbit_distance(p, r) > 0.1


def test_sobol_grid_is_deterministic_and_unit():
    g1 = make_grid(8, 64, reduction="none", seed=5)
    g2 = make_grid(8, 64, reduction="none", seed=5)
    assert np.array_equal(g1.points, g2.points)
    assert np.allclose(np.linalg.norm(g1.points, axis=1), 1.0)
    assert len(g1.points) == 64


@pytest.mark.parametrize("dim, seed", [(4, 0), (8, 5), (10, 12)])
def test_sobol_grid_is_the_scipy_formula_bit_for_bit(dim, seed):
    grid = make_grid(dim, 64, reduction="none", seed=seed)
    assert np.array_equal(grid.points, scipy_sobol_sphere(dim, 64, seed))


def test_orbit_reduced_grid_canonical_form():
    g = make_grid(8, 8, reduction="orbit_reduced", sort_moduli=True)
    pts = g.points
    # canonical representatives: odd coordinates zero, moduli nonnegative
    assert np.allclose(pts[:, 1::2], 0.0)
    assert np.all(pts[:, 0::2] >= 0.0)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
    # sorted moduli are descending
    m = pts[:, 0::2]
    assert np.all(np.diff(m, axis=1) <= 1e-12)
    assert len(g.points) >= 100


def test_orbit_reduced_weights_integrate_invariant_functions():
    g = make_grid(6, 24, reduction="orbit_reduced")
    assert np.sum(g.weights) == pytest.approx(sphere_area(6), rel=1e-12)
    # invariant polynomial m_1^2 = (x1^2+x2^2)^2: sphere integral equals
    # area * (2*2 + 2*4) / (d(d+2)) by the moment formula
    m1sq = (g.points[:, 0] ** 2 + g.points[:, 1] ** 2) ** 2
    exact = sphere_area(6) * 8.0 / (6.0 * 8.0)
    assert np.dot(g.weights, m1sq) == pytest.approx(exact, rel=1e-3)


def test_grid_rejects_unknown_reduction():
    with pytest.raises(ValueError):
        make_grid(6, 16, reduction="mystery")


@pytest.mark.parametrize("dim", [4, 6, 8, 10])
def test_orbit_grids_are_bit_identical_to_the_meshgrid_form(monkeypatch, dim):
    settings = [(res, s) for res in (8, 16, 24) for s in (False, True)]
    new = [make_grid(dim, res, "orbit_reduced", sort_moduli=s)
           for res, s in settings]
    monkeypatch.setattr(frames, "moduli_angle_map", checks.moduli_angle_map)
    for (res, s), grid in zip(settings, new):
        ref = make_grid(dim, res, "orbit_reduced", sort_moduli=s)
        assert grid.points.tobytes() == ref.points.tobytes()
        assert grid.weights.tobytes() == ref.weights.tobytes()
