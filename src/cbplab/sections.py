"""Volumes, parallel section functions A_{K,H}(u), and their Laplacian
powers at the origin by common-node finite differences."""

from __future__ import annotations

import numpy as np

from .bodies import StarBody
from .frames import ComplexFrame
from .quadrature import (Estimate, SphereRule, integrate_sphere,
                         integrate_subsphere)


class RootBracketError(RuntimeError):
    """Bisection bracket for a boundary crossing could not be established."""


class NoisyEstimateError(RuntimeError):
    """A finite-difference combination drowned in quadrature noise.

    Carries the offending estimate so sign-scanning callers can keep it as
    a flagged sample: near a zero of the target the relative gate can never
    pass, yet the value and its honest error bar are exactly what a scan
    needs there.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


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


def _slice_batch_sums(body, frame, offsets, rule, bisect_iters=48):
    """Per-offset, per-batch contributions to the slice volumes A(u).

    offsets is (K, 2); all offsets share the same quadrature nodes, so
    differences of the returned values cancel the quadrature noise. The
    slice through offset u is integrated in polar form around the base
    point u1 xi + u2 xi_perp; r(theta) is found by bisection to ~1e-12.
    Returns (K, B) batch sums and a per-offset inside/outside mask.
    """
    offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
    m = body.dim - 2
    bases = offsets[:, 0:1] * frame.xi[None, :] + offsets[:, 1:2] * frame.xi_perp[None, :]
    inside = np.ones(len(offsets), dtype=bool)
    unorm = np.linalg.norm(offsets, axis=1)
    for k, u in enumerate(unorm):
        if u == 0.0:
            continue
        if float(np.asarray(body.norm(bases[k : k + 1])).reshape(-1)[0]) >= 1.0:
            inside[k] = False
    sums = np.zeros((len(offsets), rule.batch_count))
    act = np.nonzero(inside)[0]
    if len(act) == 0:
        return sums, inside
    r_hi = body.r_max * 1.01 + unorm[act]  # (K',)
    for bi, (pts, w) in enumerate(rule.batches()):
        theta = pts @ frame.basis  # (N, dim)
        lo = np.zeros((len(act), len(theta)))
        hi = np.broadcast_to(r_hi[:, None], lo.shape).copy()
        # ensure the upper bracket is outside: |base + r theta| > r_max there
        for _ in range(bisect_iters):
            mid = 0.5 * (lo + hi)
            x = bases[act][:, None, :] + mid[..., None] * theta[None, :, :]
            val = body.norm(x.reshape(-1, body.dim)).reshape(mid.shape)
            less = val < 1.0
            lo = np.where(less, mid, lo)
            hi = np.where(less, hi, mid)
        r = 0.5 * (lo + hi)
        sums[act, bi] = (r ** m) @ w / m
    return sums, inside


def parallel_section(body: StarBody, frame: ComplexFrame, u,
                     rule: SphereRule, probe_rays=64) -> Estimate:
    """Volume of the affine slice of the body at offset u in span{xi, xi_perp}.

    Returns 0 when the base point lies outside the body; in that case a
    64-ray probe checks that the slice is indeed empty (star-shapedness of
    slices about the base point is assumed for convex bodies).
    """
    u = np.asarray(u, dtype=float)
    if np.linalg.norm(u) >= body.r_max:
        return Estimate(0.0, 0.0, 0, "parallel_section")
    if rule.dim != body.dim - 2:
        raise ValueError("rule dimension must match the section subspace")
    sums, inside = _slice_batch_sums(body, frame, u[None, :], rule)
    if not inside[0]:
        base = u[0] * frame.xi + u[1] * frame.xi_perp
        g = np.random.Generator(np.random.Philox(key=11))
        th = g.standard_normal((probe_rays, body.dim - 2))
        th /= np.linalg.norm(th, axis=1, keepdims=True)
        dirs = th @ frame.basis
        rr = np.linspace(1e-3, body.r_max * 1.5, 64)
        pts = base[None, None, :] + rr[None, :, None] * dirs[:, None, :]
        # a strict margin keeps surface-grazing round-off from counting as
        # a nonempty slice
        if np.min(body.norm(pts.reshape(-1, body.dim))) <= 1.0 - 1e-9:
            raise RootBracketError(
                "slice is nonempty but its base point lies outside the body")
        return Estimate(0.0, 0.0, 0, "parallel_section")
    return Estimate.from_batches(sums[0], rule, "parallel_section")


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
                      rule: SphereRule, richardson=True,
                      noise_limit=0.25) -> Estimate:
    """Delta^m A_{K,H_xi}(0) by 2-D central differences with Richardson
    extrapolation over steps {h, h/2}; all slices share quadrature nodes."""
    if body.smoothness_hint == "nonsmooth":
        raise ValueError("laplacian_at_zero needs a C2-smooth body")
    if m not in (1, 2):
        raise ValueError("m must be 1 or 2")
    if body.dim < 2 * m + 2:
        raise ValueError(f"m={m} needs dim >= {2 * m + 2}")
    pts, coefs = _STENCILS[m]
    steps = [h, h / 2.0] if richardson else [h]
    offsets = {}
    for s in steps:
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

    if richardson:
        per_batch = (4.0 * fd(h / 2.0) - fd(h)) / 3.0
    else:
        per_batch = fd(h)
    est = Estimate.from_batches(per_batch, rule, f"laplacian_m{m}")
    if est.value != 0.0 and est.stderr > noise_limit * abs(est.value):
        raise NoisyEstimateError(
            f"finite-difference stderr {est.stderr:.3g} exceeds "
            f"{noise_limit:.0%} of |{est.value:.3g}|; increase the node count",
            estimate=est)
    return est
