"""The complex structure on R^{2n}: xi -> xi_perp, section frames, and
direction grids on the sphere reduced by the R_theta symmetry."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import _sobol_sphere, sphere_area

_UNIT_TOL = 1e-12


def _require_even(dim):
    if dim % 2 != 0 or dim < 4:
        raise ValueError(f"dimension must be even and >= 4, got {dim}")


def perp(xi):
    """The partner direction (-xi_12, xi_11, ..., -xi_n2, xi_n1)."""
    xi = np.asarray(xi, dtype=float)
    out = np.empty_like(xi)
    out[..., 0::2] = -xi[..., 1::2]
    out[..., 1::2] = xi[..., 0::2]
    return out


@dataclass(frozen=True)
class ComplexFrame:
    """A direction xi, its partner xi_perp, and an orthonormal basis of the
    section subspace H_xi (the real form of the complex hyperplane)."""

    xi: np.ndarray
    xi_perp: np.ndarray
    basis: np.ndarray  # (2n-2, 2n) rows


def make_frame(xi) -> ComplexFrame:
    """Build the section frame for a unit direction xi in R^{2n}."""
    xi = np.asarray(xi, dtype=float)
    _require_even(xi.shape[0])
    # written so that a NaN length fails too
    if not abs(np.linalg.norm(xi) - 1.0) <= _UNIT_TOL:
        raise ValueError("xi must be a unit vector")
    xp = perp(xi)
    d = xi.shape[0]
    # orthonormal complement of span{xi, xi_perp} from the projector's
    # eigenspace; SVD makes the completion deterministic
    proj = np.eye(d) - np.outer(xi, xi) - np.outer(xp, xp)
    u, s, _ = np.linalg.svd(proj)
    basis = u[:, :d - 2].T.copy()
    return ComplexFrame(xi=xi.copy(), xi_perp=xp, basis=basis)


@dataclass(frozen=True)
class DirectionGrid:
    """Scan directions on S^{dim-1}.

    Under orbit reduction, points take the canonical form
    (r_1, 0, r_2, 0, ..., r_n, 0) with r_j >= 0, one representative per
    R_theta orbit; `weights` then integrate R_theta-invariant functions
    (they sum to the sphere area).
    """

    dim: int
    points: np.ndarray  # (N, dim)
    reduction: str  # "none" | "orbit_reduced"
    resolution: int
    seed: int = 0
    weights: np.ndarray | None = field(default=None)


def moduli_angle_map(angles, n, lead):
    """Moduli vectors on S^{n-1}_+ at the product grid of the 1-D `angles`
    in each of the n-1 spherical angles (first angle slowest), and the
    surface element prod_i sin^{n-2-i}(phi_i) of S^{n-1} there.

    `lead` cuts the grid to a block: one slice of `angles` per leading
    angle, () for the whole grid.  Returns (m, jac): m is the (N, n)
    transposed view of n contiguous moduli columns, its rows the block's
    nodes in the order of the whole grid.  Callers supply their own nodes
    and weights; the pushforward of the uniform measure on S^{2n-1} to the
    moduli adds the density prod_j m_j.

    No grid of angles is formed: the 1-D cos and sin factors of angle i,
    cut to the block, lie along axis i of the (n-1)-fold grid and broadcast
    over the others, and the products are taken factor by factor in the
    order of the angles, so each value is the one the same products give
    on a meshgrid.
    """
    angles = np.asarray(angles, dtype=float)
    cos, sin = np.cos(angles), np.sin(angles)
    cut = (*lead, *[slice(None)] * (n - 1 - len(lead)))

    def along(v, i):
        """v cut to the block, along axis i of the grid."""
        return v[cut[i]].reshape((1,) * i + (-1,) + (1,) * (n - 2 - i))

    m = np.empty((n,) + tuple(len(angles[c]) for c in cut))
    sin_prod = np.ones((1,) * (n - 1))
    jac = np.ones((1,) * (n - 1))
    for i in range(n - 1):
        np.multiply(sin_prod, along(cos, i), out=m[i])
        # the product of all n - 1 sines is the last modulus
        sin_prod = np.multiply(sin_prod, along(sin, i),
                               out=m[n - 1] if i == n - 2 else None)
        jac = jac * along(sin ** (n - 2 - i), i)
    # the last factor, sin ** 0, spans the last axis: jac is a full grid
    return m.reshape(n, -1).T, jac.reshape(-1)


def make_grid(dim, resolution, reduction, seed=0,
              sort_moduli=False) -> DirectionGrid:
    """Deterministic direction grid on S^{dim-1}.

    reduction="none": `resolution` Sobol points from quadrature._sobol_sphere.
    reduction="orbit_reduced": canonical representatives on the moduli
    simplex, optionally sorted descending for permutation-symmetric bodies.
    """
    _require_even(dim)
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    n = dim // 2
    if reduction == "none":
        if seed < 0:
            raise ValueError(f"seed must be >= 0, not {seed}")
        pts = _sobol_sphere(dim, int(resolution), seed)
        return DirectionGrid(dim, pts, "none", int(resolution), seed)
    if reduction != "orbit_reduced":
        raise ValueError(f"unknown reduction {reduction!r}")
    # midpoint cells in each moduli angle, weighted by the invariant measure
    edges = np.linspace(0.0, math.pi / 2.0, int(resolution) + 1)
    m, jac = moduli_angle_map(0.5 * (edges[:-1] + edges[1:]), n, ())
    w = np.prod(m, axis=1) * jac * (edges[1] - edges[0]) ** (n - 1)
    if sort_moduli:
        key = np.sort(m, axis=1)[:, ::-1]
        # fold permutation copies onto the sorted representative
        uniq, inv = np.unique(np.round(key, 12), axis=0, return_inverse=True)
        wsum = np.zeros(len(uniq))
        np.add.at(wsum, inv, w)
        m, w = uniq, wsum
    pts = np.zeros((m.shape[0], dim))
    pts[:, 0::2] = m
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    # scale weights so invariant quadrature reproduces the sphere area
    w = w * (sphere_area(dim) / w.sum())
    return DirectionGrid(dim, pts, "orbit_reduced", int(resolution), seed, w)
