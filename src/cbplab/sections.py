"""Volumes, parallel section functions A_{K,H}(u), and their Laplacian
powers at the origin by common-node finite differences.

Every slice volume comes from one engine, `_slice_batch_sums`: all offsets
share the rule's nodes, and the boundary radius of every (offset, node)
pair is found by vectorised bisection, in passes of at most
`quadrature._PASS_NODES` pairs, the bound of every gauge call.  Each batch
of nodes is mapped into the section subspace on its own, so every root and
every batch sum is bit-identical to a loop over the offsets and batches of
the same call.  Estimates keep their error bars, never gated for noise here:
the derivative route (`fourier`) flags a noisy sample."""

from __future__ import annotations

import numpy as np

from . import quadrature
from .bodies import StarBody
from .frames import ComplexFrame
from .quadrature import (Estimate, SphereRule, _node_passes,
                         integrate_sphere, integrate_subsphere)


class RootBracketError(RuntimeError):
    """Bisection bracket for a boundary crossing could not be established."""


def _polar(est: Estimate, k: int, method: str) -> Estimate:
    """(1/k) times an integral of rho^k, or of a difference of such powers:
    the polar formula for a k-dimensional volume.  The total is divided
    once, not each node, so the rounding of small volume gaps stays small."""
    return Estimate(est.value / k, est.stderr / k, est.node_count, method)


def volume(body: StarBody, rule: SphereRule) -> Estimate:
    """Polar formula: Vol(K) = (1/d) * int_{S^{d-1}} rho(theta)^d dtheta."""
    if rule.dim != body.dim:
        raise ValueError("rule dimension does not match the body")
    d = body.dim
    return _polar(integrate_sphere(rule, lambda pts: body.radial(pts) ** d),
                  d, "polar_volume")


def section_volume(body: StarBody, frame: ComplexFrame,
                   rule: SphereRule) -> Estimate:
    """Central section volume Vol_{2n-2}(K cap H_xi) by the polar formula
    on the section subspace."""
    m = body.dim - 2
    est = integrate_subsphere(rule, frame.basis,
                              lambda x: body.radial(x) ** m)
    return _polar(est, m, "section_volume")


#: bisection steps per root; 48 halvings shrink the bracket below 1e-12
_BISECT_ITERS = 48
#: rays of the probe that checks that a slice is empty
_PROBE_RAYS = 64


def _slice_radii(body, bases, labels, r_hi, theta):
    """Radii r > 0 with norm(base + r theta) = 1 for every (base, node) pair,
    by one vectorised bisection over [0, r_hi] to ~1e-12.

    Each step writes the points base + r theta into one buffer of
    coordinate columns, (dim, K, W) for K bases and W nodes, which the body
    reads as a (K W, dim) view without a copy.

    Raises RootBracketError, naming the offset (`labels` row), when the upper
    end of a bracket is not outside the body.
    """
    bases_t = bases.T[:, :, None]
    theta_t = theta.T[:, None, :]
    buf = np.empty((body.dim, len(bases), len(theta)))
    pts = buf.reshape(body.dim, -1).T

    def gauge(r):
        np.multiply(r, theta_t, out=buf)
        np.add(buf, bases_t, out=buf)
        return body.norm(pts).reshape(r.shape)

    hi = np.broadcast_to(r_hi[:, None], (len(bases), len(theta))).copy()
    short = np.nonzero(np.any(gauge(hi) < 1.0, axis=1))[0]
    if len(short):
        k = short[0]
        raise RootBracketError(
            f"bracket end r = {r_hi[k]:.6g} lies inside the body at offset "
            f"({labels[k][0]:.6g}, {labels[k][1]:.6g}); r_max = "
            f"{body.r_max:.6g} is understated")
    lo = np.zeros_like(hi)
    mid = np.empty_like(hi)
    for _ in range(_BISECT_ITERS):
        np.add(lo, hi, out=mid)
        mid *= 0.5
        less = gauge(mid) < 1.0
        np.copyto(lo, mid, where=less)
        np.copyto(hi, mid, where=~less)
    return 0.5 * (lo + hi)


def _slice_batch_sums(body, frame, offsets, rule):
    """Per-offset, per-batch contributions to the slice volumes A(u).

    offsets is (K, 2); all offsets share the same quadrature nodes, so
    differences of the returned values cancel the quadrature noise. The
    slice through offset u is integrated in polar form around the base
    point u1 xi + u2 xi_perp; r(theta) is found by bisection to ~1e-12.
    Whole batches are bisected together (quadrature._node_passes), every
    (offset, node) pair in a pass of at most quadrature._PASS_NODES pairs
    (at least one node per pass), and a batch larger than that in several;
    bisection is elementwise, so every root is the one a batch-by-batch
    loop finds.
    Returns (K, B) batch sums and a per-offset inside/outside mask.
    """
    offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
    m = body.dim - 2
    bases = offsets[:, 0:1] * frame.xi[None, :] + offsets[:, 1:2] * frame.xi_perp[None, :]
    unorm = np.linalg.norm(offsets, axis=1)
    inside = np.ones(len(offsets), dtype=bool)
    off = unorm != 0.0
    if np.any(off):
        inside[off] = ~(body.norm(bases[off]) >= 1.0)
    sums = np.zeros((len(offsets), rule.batch_count))
    act = np.nonzero(inside)[0]
    if len(act) == 0:
        return sums, inside
    # |base + r theta| > r_max at the upper end of every bracket
    r_hi = body.r_max * 1.01 + unorm[act]
    act_bases, act_offsets = bases[act], offsets[act]
    width = max(1, quadrature._PASS_NODES // len(act))
    for theta, parts in _node_passes(rule, frame.basis, width):
        r = np.concatenate([
            _slice_radii(body, act_bases, act_offsets, r_hi,
                         theta[s:s + width])
            for s in range(0, len(theta), width)], axis=1)
        for bi, part, w in parts:
            sums[act, bi] = (r[:, part] ** m) @ w / m
    return sums, inside


def _check_empty_slice(body, frame, u):
    """Probe _PROBE_RAYS rays of the slice at offset u, whose base point lies
    outside the body, and raise RootBracketError if one enters the body
    (star-shapedness of slices about the base point is assumed for convex
    bodies)."""
    base = u[0] * frame.xi + u[1] * frame.xi_perp
    g = np.random.Generator(np.random.Philox(key=11))
    th = g.standard_normal((_PROBE_RAYS, body.dim - 2))
    th /= np.linalg.norm(th, axis=1, keepdims=True)
    dirs = th @ frame.basis
    rr = np.linspace(1e-3, body.r_max * 1.5, 64)
    pts = base[None, None, :] + rr[None, :, None] * dirs[:, None, :]
    # a strict margin keeps surface-grazing round-off from counting as
    # a nonempty slice
    if np.min(body.norm(pts.reshape(-1, body.dim))) <= 1.0 - 1e-9:
        raise RootBracketError(
            "slice is nonempty but its base point lies outside the body")


def parallel_sections(body: StarBody, frame: ComplexFrame, offsets,
                      rule: SphereRule) -> list:
    """Volumes of the affine slices of the body at offsets u (K, 2) in
    span{xi, xi_perp}, one Estimate per offset, from one slice pass on
    shared nodes.

    An offset with |u| >= r_max gives 0.  So does one whose base point lies
    outside the body, after a probe checks that its slice is empty.
    """
    offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
    if rule.dim != body.dim - 2:
        raise ValueError("rule dimension must match the section subspace")
    zero = Estimate(0.0, 0.0, 0, "parallel_section")
    out = [zero] * len(offsets)
    near = np.nonzero(np.linalg.norm(offsets, axis=1) < body.r_max)[0]
    if len(near) == 0:
        return out
    sums, inside = _slice_batch_sums(body, frame, offsets[near], rule)
    for k, i in enumerate(near):
        if inside[k]:
            out[i] = Estimate.from_batches(sums[k], rule, "parallel_section")
        else:
            _check_empty_slice(body, frame, offsets[i])
    return out


def parallel_section(body: StarBody, frame: ComplexFrame, u,
                     rule: SphereRule) -> Estimate:
    """Volume of the affine slice of the body at offset u (see
    parallel_sections)."""
    return parallel_sections(body, frame, [u], rule)[0]


_STENCILS = {
    # (offset multiples in (u1,u2) units of h) : coefficient of A at them,
    # divided by h^{2m}; both are standard second-order stencils.
    1: ([(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)],
        [1.0, 1.0, 1.0, 1.0, -4.0]),
    2: ([(0, 0),
         (1, 0), (-1, 0), (0, 1), (0, -1),
         (1, 1), (1, -1), (-1, 1), (-1, -1),
         (2, 0), (-2, 0), (0, 2), (0, -2)],
        [20.0, -8.0, -8.0, -8.0, -8.0, 2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0]),
}


def laplacian_at_zero(body: StarBody, frame: ComplexFrame, m: int, h: float,
                      rule: SphereRule) -> Estimate:
    """Delta^m A_{K,H_xi}(0) by 2-D central differences, always Richardson
    extrapolated over the steps {h, h/2}: (4 D(h/2) - D(h)) / 3 per batch.
    All slices share quadrature nodes.  The estimate carries its error bar
    whatever its size; judging it is the caller's job."""
    if not body.smooth:
        raise ValueError("laplacian_at_zero needs a C2-smooth body")
    if m not in (1, 2):
        raise ValueError("m must be 1 or 2")
    if body.dim < 2 * m + 2:
        raise ValueError(f"m={m} needs dim >= {2 * m + 2}")
    pts, coefs = _STENCILS[m]
    offsets = {}
    for s in (h, h / 2.0):
        for (i, j) in pts:
            offsets.setdefault((i * s, j * s), None)
    keys = list(offsets.keys())
    index = {k: i for i, k in enumerate(keys)}
    sums, inside = _slice_batch_sums(body, frame, np.array(keys), rule)
    if not np.all(inside):
        raise RootBracketError("finite-difference offset fell outside the body")

    def fd(step):
        comb = np.zeros(rule.batch_count)
        for (i, j), c in zip(pts, coefs):
            comb += c * sums[index[(i * step, j * step)]]
        return comb / step ** (2 * m)

    per_batch = (4.0 * fd(h / 2.0) - fd(h)) / 3.0
    return Estimate.from_batches(per_batch, rule, f"laplacian_m{m}")
