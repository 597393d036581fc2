"""Volumes, parallel section functions A_{K,H}(u), and their Laplacian
powers at the origin by common-node finite differences.

Every slice volume comes from one engine, `_slice_batch_sums`: all offsets
share the rule's nodes, and the boundary radius of every (offset, node)
pair is found in passes of at most `quadrature._PASS_NODES` pairs, the
bound of every gauge call.  A root is what 48 halvings of its bracket give,
bit for bit; a secant search locates it first, so that the halvings call
the gauge only near it: 11 to 14 gauge points a root instead of 49
(`_slice_radii`).  Each batch of nodes is mapped into the section subspace
on its own, so every root and every batch sum is bit-identical to a loop
over the offsets and batches of the same call.  Estimates keep their error
bars, never gated for noise here: the derivative route (`fourier`) flags a
noisy sample."""

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


#: halvings of [0, r_hi] per root, which shrink its bracket below 1e-12.
#: Every root is the one these halvings give, bit for bit; the secant search
#: of _slice_radii only spares the gauge calls whose outcome they can read
#: off its bracket
_BISECT_ITERS = 48
#: the margin around a secant bracket inside which a halving calls the
#: gauge: this fraction of r_hi, or of 1 / slope where f = norm - 1 is
#: flatter than 1 / r_hi, since the computed f wobbles by a few ulps of 1
_ROOT_MARGIN = 2.0 ** -46
#: most secant steps per pass; a root they leave wider bracketed costs the
#: halvings more gauge calls, not another result
_SECANT_ITERS = 20
#: rays of the probe that checks that a slice is empty
_PROBE_RAYS = 64


def _slice_radii(body, bases, labels, r_hi, theta, base_norms):
    """Radii r > 0 with norm(base + r theta) = 1 for every (base, node) pair:
    the roots that _BISECT_ITERS halvings of [0, r_hi] find, to ~1e-12.
    `base_norms` holds norm(base) of each base, which gives f(0).

    A secant search on f(r) = norm(base + r theta) - 1 first brackets every
    root of the pass (_secant_brackets).  The halvings are then made with
    their own roundings, but call the gauge only for midpoints within the
    margin of that bracket and read every other outcome off it.  So each
    root is bit for bit the plain halvings' as long as the ray crosses the
    boundary once outside the margin: from a base point inside a convex
    body f is convex along the ray, and _check_empty_slice assumes as much
    of slices.

    The points of a call go into one buffer of coordinate columns, (dim,
    K, W) for K bases and W nodes, which the body reads as a (K W, dim) view
    without a copy.  A call for at most half the pairs packs them at the
    front of the same buffer; a call for more evaluates the whole pass.

    Raises RootBracketError, naming the offset (`labels` row), when the upper
    end of a bracket is not outside the body.
    """
    dim, shape = body.dim, (len(bases), len(theta))
    bases_t = bases.T[:, :, None]
    theta_t = theta.T[:, None, :]
    buf = np.empty((dim,) + shape)
    flat = buf.reshape(-1)
    vals = np.empty(shape)

    def gauge(r, where):
        """norm(base + r theta) at the pairs in the mask `where` (all if
        None), as a (K, W) array whose other entries are undefined."""
        if where is None or 2 * np.count_nonzero(where) > where.size:
            np.multiply(r, theta_t, out=buf)
            np.add(buf, bases_t, out=buf)
            return body.norm(buf.reshape(dim, -1).T).reshape(shape)
        idx = np.flatnonzero(where)
        k, w = np.divmod(idx, shape[1])
        cols = flat[:dim * len(idx)].reshape(dim, -1)
        part = flat[dim * len(idx):2 * dim * len(idx)].reshape(dim, -1)
        np.take(theta.T, w, axis=1, out=cols, mode="clip")
        np.multiply(r.reshape(-1)[idx], cols, out=cols)
        np.take(bases.T, k, axis=1, out=part, mode="clip")
        np.add(cols, part, out=cols)
        vals.reshape(-1)[idx] = body.norm(cols.T)
        return vals

    hi = np.broadcast_to(r_hi[:, None], shape).copy()
    f_hi = gauge(hi, None)
    short = np.nonzero(np.any(f_hi < 1.0, axis=1))[0]
    if len(short):
        k = short[0]
        raise RootBracketError(
            f"bracket end r = {r_hi[k]:.6g} lies inside the body at offset "
            f"({labels[k][0]:.6g}, {labels[k][1]:.6g}); r_max = "
            f"{body.r_max:.6g} is understated")
    f_hi -= 1.0
    # f(0) = norm(base) - 1, where norm is 0 at the origin
    f_lo = np.broadcast_to((base_norms - 1.0)[:, None], shape).copy()
    below, above = _secant_brackets(gauge, r_hi, hi, f_lo, f_hi)

    # the halvings, in the arrays of f_lo and f_hi
    lo, hi, mid = f_lo, f_hi, np.empty(shape)
    lo.fill(0.0)
    np.copyto(hi, r_hi[:, None])
    less = np.empty(shape, dtype=bool)
    near = np.empty(shape, dtype=bool)
    for _ in range(_BISECT_ITERS):
        np.add(lo, hi, out=mid)
        mid *= 0.5
        np.less(mid, below, out=less)
        np.less_equal(mid, above, out=near)
        near &= ~less
        if np.any(near):
            np.less(gauge(mid, near), 1.0, out=less, where=near)
        np.copyto(lo, mid, where=less)
        np.logical_not(less, out=less)
        np.copyto(hi, mid, where=less)
    return 0.5 * (lo + hi)


def _secant_brackets(gauge, r_hi, hi, f_lo, f_hi):
    """Brackets [lo, hi] of the roots of f = gauge - 1, from f(0) = f_lo
    < 0 <= f(r_hi) = f_hi, each widened by its margin: the edges (below,
    above) outside which a halving's outcome is the bracket's.  `hi`,
    `f_lo` and `f_hi` are overwritten.

    Each step moves an end to the secant point (Anderson and Bjorck's
    Illinois variant: the f of an end kept twice in a row is scaled down),
    kept half a margin inside the bracket.  The search only decides which
    halvings call the gauge, never a root: a bracket it leaves wide costs
    those halvings more gauge points.

    The margin is _ROOT_MARGIN times r_hi, or times 1 / slope where the
    slope of f at the root may be below 1 / r_hi.  f is convex along the
    ray, so that slope is at least the chord slope -f(lo) / (hi - lo), less
    the wobble of f: the largest such bound seen sets the margin.  A
    bracket narrower than its margin takes no more steps.
    """
    shape, eps = hi.shape, _ROOT_MARGIN
    r_hi = r_hi[:, None]
    lo, g_lo = np.zeros(shape), f_lo.copy()  # g_lo: f(lo), never scaled
    x, tmp, margin, width = np.empty((4,) + shape)
    slope = np.zeros(shape)
    last = np.zeros(shape, dtype=np.int8)  # end moved last: -1 lo, 1 hi
    todo, flag, to_lo, to_hi = np.empty((4,) + shape, dtype=bool)
    # a step computes x and f for every pair and keeps them for `todo`
    # alone; the others may give inf or NaN, which nothing reads
    with np.errstate(all="ignore"):
        for step in range(_SECANT_ITERS + 1):
            np.subtract(hi, lo, out=width)
            np.subtract(-eps, g_lo, out=tmp)
            tmp /= width
            np.fmax(slope, tmp, out=slope)
            np.divide(1.0, slope, out=margin)
            np.fmax(margin, r_hi, out=margin)
            margin *= eps
            np.greater(width, margin, out=todo)
            if step == _SECANT_ITERS or not np.any(todo):
                break
            np.subtract(f_hi, f_lo, out=tmp)
            np.multiply(width, f_hi, out=x)
            np.divide(x, tmp, out=x)
            np.subtract(hi, x, out=x)
            # fmax and fmin also move a NaN point inside
            margin *= 0.5
            np.add(lo, margin, out=tmp)
            np.fmax(x, tmp, out=x)
            np.subtract(hi, margin, out=tmp)
            np.fmin(x, tmp, out=x)
            np.logical_not(todo, out=flag)
            np.copyto(x, hi, where=flag)
            np.subtract(gauge(x, todo), 1.0, out=tmp)
            np.less(tmp, 0.0, out=to_lo)
            np.logical_not(to_lo, out=to_hi)
            to_lo &= todo
            to_hi &= todo
            np.equal(last, -1, out=flag)
            flag &= to_lo
            _scale_kept(f_hi, f_lo, tmp, flag, width)
            np.equal(last, 1, out=flag)
            flag &= to_hi
            _scale_kept(f_lo, f_hi, tmp, flag, width)
            for end, f, mark, move in ((lo, f_lo, -1, to_lo),
                                       (hi, f_hi, 1, to_hi)):
                np.copyto(end, x, where=move)
                np.copyto(f, tmp, where=move)
                np.copyto(last, mark, where=move)
            np.copyto(g_lo, tmp, where=to_lo)
    lo -= margin
    hi += margin
    return lo, hi


def _scale_kept(f_kept, f_moved, f_new, where, m):
    """Scale f_kept, where `where`, by m = 1 - f_new / f_moved
    (Anderson-Bjorck), or by 1/2 (Illinois) where m is not positive;
    m is scratch."""
    np.divide(f_new, f_moved, out=m)
    np.subtract(1.0, m, out=m)
    np.multiply(f_kept, 0.5, out=f_kept, where=where & ~(m > 0.0))
    np.multiply(f_kept, m, out=f_kept, where=where & (m > 0.0))


def _slice_batch_sums(body, frame, offsets, rule):
    """Per-offset, per-batch contributions to the slice volumes A(u).

    offsets is (K, 2); all offsets share the same quadrature nodes, so
    differences of the returned values cancel the quadrature noise. The
    slice through offset u is integrated in polar form around the base
    point u1 xi + u2 xi_perp; r(theta) is found to ~1e-12 (_slice_radii).
    Whole batches are solved together (quadrature._node_passes), every
    (offset, node) pair in a pass of at most quadrature._PASS_NODES pairs
    (at least one node per pass), and a batch larger than that in several;
    each root depends on its own pair alone, so it is the one a
    batch-by-batch loop finds.
    Returns (K, B) batch sums and a per-offset inside/outside mask.
    """
    offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
    m = body.dim - 2
    bases = offsets[:, 0:1] * frame.xi[None, :] + offsets[:, 1:2] * frame.xi_perp[None, :]
    unorm = np.linalg.norm(offsets, axis=1)
    base_norms = body.norm(bases)
    inside = ~(base_norms >= 1.0)
    sums = np.zeros((len(offsets), rule.batch_count))
    act = np.nonzero(inside)[0]
    if len(act) == 0:
        return sums, inside
    # |base + r theta| > r_max at the upper end of every bracket
    r_hi = body.r_max * 1.01 + unorm[act]
    act_bases, act_offsets = bases[act], offsets[act]
    act_norms = base_norms[act]
    width = max(1, quadrature._PASS_NODES // len(act))
    for theta, parts in _node_passes(rule, frame.basis[None], width):
        r = np.concatenate([
            _slice_radii(body, act_bases, act_offsets, r_hi,
                         theta[s:s + width], act_norms)
            for s in range(0, len(theta), width)], axis=1)
        for _, bi, part, w in parts:
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
    Each slice must be star-shaped about its base point, as on a convex
    body: on a non-convex body, A(u) integrates one crossing per ray,
    unflagged.
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
    whatever its size; judging it is the caller's job.  Each slice must be
    star-shaped about its base point: on a non-convex body, A(u) integrates
    one crossing per ray, unflagged."""
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
