"""Section-dominance versus volume comparison for invariant convex bodies,
and a constructor for dominance/volume-order violations in dim >= 8.

`bp_verify` asks the comparison question directly: if every central complex
hyperplane section of K is no larger than the matching section of L, did the
volume comparison follow?  `bp_construct` builds a pair where it does not:
starting from a body whose norm-power transform is negative somewhere, a
nonnegative spherical bump f supported near the negativity region is pushed
through the transform, degree by degree with the closed-form harmonic
multipliers, and subtracted from the radial power of L.  Sections shrink pointwise (the transform of the perturbation is
-eps f up to positive constants) while the volume grows (the first-order
volume change pairs f against the negative transform values).  The bump
is a harmonics.HarmonicBump, which this module also exports.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .bodies import (ComplexLqBall, RadialPerturbation, StarBody,
                     convexity_probe, mollify)
from .embedding import scan
from .frames import DirectionGrid, make_frame, make_grid
from .fourier import _route, classical_multiplier
from .harmonics import (HarmonicBump, c_add, c_harmonic_components, c_mul,
                        c_scale, symmetric_harmonic_atoms)
from .quadrature import (Estimate, SphereRule, integrate_sphere,
                         integrate_subsphere, sphere_area)
from .sections import _polar
from .specs import SpecError, parse_body


class ConstructionImpossibleError(RuntimeError):
    """No negativity region exists, so no violating pair can be built."""


class ConstructionFailedError(RuntimeError):
    """The amplitude search exhausted its halvings without a violation."""


@dataclass
class BpReport:
    """Result of comparing section volumes and total volumes of two bodies.

    verdict is one of
      consistent:    sections of K dominated by L and Vol(K) <= Vol(L)
      violation:     sections dominated but Vol(K) > Vol(L) + 3 stderr
      not_dominated: some section of K exceeds L (or the comparison ties)
    """

    body_K: str
    body_L: str
    grid: DirectionGrid
    gaps: np.ndarray          # A_K(0) - A_L(0) per grid direction
    gap_stderrs: np.ndarray
    vol_K: Estimate
    vol_L: Estimate
    vol_gap: Estimate         # Vol(K) - Vol(L), common-node estimate
    verdict: str
    flags: tuple = ()
    details: dict = field(default_factory=dict)

    @property
    def max_gap(self) -> float:
        return float(np.max(self.gaps))

    @property
    def max_gap_stderr(self) -> float:
        return float(self.gap_stderrs[int(np.argmax(self.gaps))])

    def as_record(self) -> dict:
        return {
            "body_K": self.body_K,
            "body_L": self.body_L,
            "verdict": self.verdict,
            "flags": list(self.flags),
            "max_gap": self.max_gap,
            "max_gap_stderr": self.max_gap_stderr,
            "vol_K": self.vol_K.value,
            "vol_K_stderr": self.vol_K.stderr,
            "vol_L": self.vol_L.value,
            "vol_L_stderr": self.vol_L.stderr,
            "vol_gap": self.vol_gap.value,
            "vol_gap_stderr": self.vol_gap.stderr,
            "details": self.details,
        }


def _require_invariant(body: StarBody):
    if not body.rotation_invariant:
        raise ValueError(f"{body.spec()} is not complex-rotation invariant")


def _section_gaps(K, L, grid, rule):
    """Per-direction A_K(0) - A_L(0) with both integrals on shared nodes,
    so the quadrature noise cancels in the difference; every direction's
    frame is in one stack, so the rule is read once and keeps no batches."""
    m = K.dim - 2
    ests = integrate_subsphere(
        rule, np.stack([make_frame(xi).basis for xi in grid.points]),
        lambda x: K.radial(x) ** m - L.radial(x) ** m)
    ests = [_polar(est, m, "section_gap") for est in ests]
    return (np.array([est.value for est in ests]),
            np.array([est.stderr for est in ests]))


def _volumes(K, L, rule):
    """Vol(K), Vol(L) and Vol(K) - Vol(L) on one reading of the rule's
    nodes, which also keeps the small gap's error bar small."""
    d = K.dim

    def powers(pts):
        rho_K, rho_L = K.radial(pts) ** d, L.radial(pts) ** d
        return np.stack([rho_K, rho_L, rho_K - rho_L])

    vol_K, vol_L, gap = integrate_sphere(rule, powers)
    return (_polar(vol_K, d, "polar_volume"), _polar(vol_L, d, "polar_volume"),
            _polar(gap, d, "polar_volume_gap"))


_ATOM_DEGREE = 6  # degree bound of the atoms bp_construct's bump squares
_MAX_HALVINGS = 8  # amplitude halvings bp_construct tries
_WIDTH = 0.1  # mollifier width of bp_construct's L


def _default_section_rule(K: StarBody, L: StarBody) -> SphereRule:
    """bp_verify's section rule.  For a pair as bp_construct builds it (K a
    RadialPerturbation of L itself, exponent d - 2, a HarmonicBump), the
    gap rho_K^{d-2} - rho_L^{d-2} = -eps g is a polynomial on the section
    sphere; up to S^5, Gauss level 8 (exact to degree 15, above the
    2 * _ATOM_DEGREE of the bump) computes every gap exactly, where Monte
    Carlo noise would bury the small negative gaps near the bump's zeros.
    Any other pair gets 2^13 Sobol nodes."""
    d = K.dim
    if (isinstance(K, RadialPerturbation) and K.base is L and K.s == d - 2
            and d - 2 <= 6):
        return SphereRule.gauss(d - 2, 8)
    return SphereRule.qmc(d - 2, 2 ** 13, 11)


def bp_verify(K: StarBody, L: StarBody, grid: DirectionGrid,
              rule: SphereRule = None) -> BpReport:
    """Compare all central section volumes of K and L over the grid, then
    the total volumes, and classify the outcome.

    Sections use `rule`, by default _default_section_rule's: Gauss nodes
    that make every gap of a pair bp_construct builds exact, else Sobol
    nodes, read once for all the directions (_section_gaps).  Vol(K),
    Vol(L) and their gap come from one reading of 2^16 Sobol nodes
    (_volumes), so neither rule keeps batches.  A
    violation needs the dominance gap <= +3 stderr at every grid point and
    Vol(K) > Vol(L) + 3 combined stderr.  A positive gap inside its own
    3-stderr band is an undecidable dominance comparison: the verdict is
    not_dominated with the flag "tie".
    """
    _require_invariant(K)
    _require_invariant(L)
    if K.dim != L.dim:
        raise ValueError("bodies must share a dimension")
    if grid.dim != K.dim:
        raise ValueError("grid dimension does not match the bodies")
    gaps, errs = _section_gaps(
        K, L, grid, _default_section_rule(K, L) if rule is None else rule)
    vol_K, vol_L, vgap = _volumes(K, L, SphereRule.qmc(K.dim, 2 ** 16, 12))

    flags = []
    exceeds = gaps > 3.0 * errs
    ties = (gaps > 0.0) & ~exceeds
    if np.any(exceeds):
        verdict = "not_dominated"
    elif np.any(ties):
        verdict = "not_dominated"
        flags.append("tie")
    elif vgap.value > 3.0 * vgap.stderr:
        verdict = "violation"
    else:
        verdict = "consistent"
    return BpReport(
        body_K=K.spec(), body_L=L.spec(), grid=grid, gaps=gaps,
        gap_stderrs=errs, vol_K=vol_K, vol_L=vol_L, vol_gap=vgap,
        verdict=verdict, flags=tuple(flags),
        details={"exceed_count": int(np.sum(exceeds)),
                 "tie_count": int(np.sum(ties))})


def pair_record(K: RadialPerturbation, L: StarBody) -> dict:
    """The `pair` record of bp-construct, read by pair_from_record: the specs
    of K and L, and K's amplitude, exponent and bump (its spec's label)."""
    # an integral exponent stays an int, as in the pair files written so far
    return {"K": K.spec(), "L": L.spec(), "eps": K.eps,
            "exponent": int(K.s) if K.s.is_integer() else K.s,
            "bump": K.bump.as_record()}


def read_pair_record(report, source: str) -> dict:
    """The pair record of a bp-construct report read from `source`, checked
    for every key pair_from_record reads and for the type of its value: a
    SpecError names `source` and the first key missing or malformed."""
    def need(record, keys, where):
        if not isinstance(record, dict):
            raise SpecError(f"pair file {source}: {where} is not an object")
        for key in keys:
            if key not in record:
                raise SpecError(f"pair file {source}: {where} has no {key!r}")
        return record

    def real(value):  # a JSON number that reads as a finite float
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max)

    def check(ok, key, what):
        if not ok:
            raise SpecError(f"pair file {source}: {key!r} must be {what}")

    pair = need(report, ["pair"], "the report")["pair"]
    need(pair, ["K", "L", "eps", "exponent", "bump"], "the pair record")
    bump = need(pair["bump"], ["label", "c_poly"], "the bump")
    for key in ("K", "L"):
        check(isinstance(pair[key], str), key, "a body spec string")
    for key in ("eps", "exponent"):
        check(real(pair[key]), key, "a finite number")
    check(isinstance(bump["label"], str), "label", "a string")
    poly = bump["c_poly"]
    check(isinstance(poly, dict) and all(
        re.fullmatch(r"[0-9]+( [0-9]+)*", key) and real(v)
        for key, v in poly.items()),
        "c_poly", "an object of finite numbers keyed by space-separated "
        "nonnegative integers")
    return pair


def pair_from_record(pair: dict):
    """(K, L) rebuilt from a pair record (read_pair_record checks its
    types); the bump's keys must have one exponent per block of L, and the
    rebuilt bodies must give back the recorded specs."""
    L = parse_body(pair["L"])
    for key in pair["bump"]["c_poly"]:
        if len(key.split()) != L.n_blocks:
            raise SpecError(f"c_poly key {key!r} needs {L.n_blocks} "
                            f"exponents, one per block of {L.spec()!r}")
    bump = HarmonicBump({tuple(int(t) for t in key.split()): float(v)
                         for key, v in pair["bump"]["c_poly"].items()},
                        label=pair["bump"]["label"])
    K = RadialPerturbation(L, pair["exponent"], pair["eps"], bump,
                           bump_id=bump.label)
    if (K.spec(), L.spec()) != (pair["K"], pair["L"]):
        raise SpecError(f"the rebuilt bodies {K.spec()!r} and {L.spec()!r} "
                        "differ from the recorded K and L")
    return K, L


def _negative_weighted_square(n, grid, values, max_atom_degree):
    """f = h^2 minimizing int f * F over the sphere for h in the symmetric
    harmonic subspace of degree <= max_atom_degree, F being the scanned
    transform values on the invariant grid.

    With A_{ia} = P_a(xi_i) and the invariant grid weights w, the integral
    is c^T (A^T diag(w F) A) c for f = (sum_a c_a P_a)^2; the minimizing
    unit c is the bottom eigenvector.  f is nonnegative by construction."""
    atoms = symmetric_harmonic_atoms(n, max_atom_degree)
    w = grid.weights
    if w is None:  # reduction 'none': equal weights summing to the area
        w = np.full(len(grid.points), sphere_area(grid.dim) / len(grid.points))
    A = np.stack([a(grid.points) for a in atoms], axis=1)
    M = A.T @ (w[:, None] * values[:, None] * A)
    M = 0.5 * (M + M.T)
    evals, evecs = np.linalg.eigh(M)
    c = evecs[:, 0]
    coefs = {a.label: float(ca) for a, ca in zip(atoms, c)}
    h = {}
    for a, ca in zip(atoms, c):
        h = c_add(h, c_scale(a.c_poly, float(ca)))
    return c_mul(h, h), coefs, float(evals[0])


def _transform_bump(f_poly, n):
    """g with (f(x/|x|)|x|^{-2})^ = g(y/|y|)|y|^{-(2n-2)}: each harmonic
    component of f is scaled by its closed-form multiplier at p = 2.

    The closed form keeps g exact, so the transform of the perturbation is
    exactly proportional to -f and the section gaps of the constructed pair
    inherit the sign of -f with no multiplier error."""
    comps = c_harmonic_components(f_poly, n)
    g = {}
    for deg, poly in sorted(comps.items()):
        g = c_add(g, c_scale(poly, classical_multiplier(deg, 2.0, 2 * n)))
    return g


def bp_construct(n: int, q_body: float, grid: DirectionGrid = None,
                 seed: int = 0):
    """Build a pair (K, L) with dominated sections but Vol(K) > Vol(L).

    Pipeline: L is the complex l_q ball mollified at width _WIDTH; a p=2
    sign scan on 2^11 Sobol nodes locates the negativity region of
    (||x||_L^{-2})^; a nonnegative squared-harmonic bump f concentrated
    there, whose weighted integral against the scanned transform must be
    negative, is transformed into g; K carries the radial power
    rho_K^{2n-2} = rho_L^{2n-2} - eps g.  The amplitude starts at the
    positivity-safe bound and halves (at most _MAX_HALVINGS times) until
    bp_verify, on its default rules, returns violation.

    Returns (K, L, BpReport, trace) where trace records the construction
    inputs needed to replay the pair.  `seed` must be >= 0, and is refused
    before any build: seed + 3 keys the Sobol nodes of the sup probe, and
    seed + 9 the Philox normals of the convexity probes.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if seed < 0:
        raise ValueError(f"seed must be >= 0: {seed}")
    d = 2 * n
    _route(2.0, n, None)  # the scan's route, before any build
    L = mollify(ComplexLqBall(n, q_body), _WIDTH)
    if grid is None:
        res = {2: 224, 3: 16}.get(n, 8)
        grid = make_grid(d, res, reduction="orbit_reduced", sort_moduli=True)
    verdict = scan(L, 2.0, grid, rule=SphereRule.qmc(d - 2, 2 ** 11, 7))
    if verdict.conclusion != "negativity_witness":
        raise ConstructionImpossibleError(
            f"no negativity region for n={n} (scan: {verdict.conclusion})")

    f_poly, f_coefs, predicted = _negative_weighted_square(
        n, grid, verdict.values, _ATOM_DEGREE)
    # the construction only works if f weighs the negative part of the
    # transform more than the positive part; the bottom eigenvalue
    # `predicted` is that weighted integral, int f * F over the grid
    if not predicted < 0.0:
        raise ConstructionFailedError(
            f"bump does not concentrate on the negativity region "
            f"(weighted transform integral {predicted:.3g} >= 0)")

    g_poly = _transform_bump(f_poly, n)
    bump = HarmonicBump(g_poly, label=f"sq_kernel_deg{_ATOM_DEGREE}")
    # the sup-probe nodes are not kept through the amplitude steps
    sup_g = float(np.max(np.abs(bump(
        SphereRule.qmc(d, 2 ** 14, seed + 3).nodes()))))
    eps = 0.5 * L.r_min ** (d - 2) / sup_g

    trace = {"L": L.spec(), "f_coefs": f_coefs, "bump": bump.as_record(),
             "argmin": [float(v) for v in verdict.argmin],
             "scan_min": verdict.min_value, "sup_g": sup_g,
             "predicted_integral": predicted,
             "eps_trace": [], "seed": seed}
    for _ in range(_MAX_HALVINGS + 1):
        try:
            K = RadialPerturbation(L, d - 2, eps, bump, bump_id=bump.label)
            bad = convexity_probe(K, samples=10 ** 5, seed=seed + 9).violations
        except ValueError:
            trace["eps_trace"].append({"eps": eps, "status": "not_positive"})
            eps *= 0.5
            continue
        if bad > 0:
            trace["eps_trace"].append({"eps": eps, "status": "not_convex",
                                       "violations": int(bad)})
            eps *= 0.5
            continue
        report = bp_verify(K, L, grid)
        trace["eps_trace"].append({"eps": eps, "status": report.verdict})
        if report.verdict == "violation":
            trace["eps"] = eps
            report.details["construction"] = trace
            return K, L, report, trace
        eps *= 0.5
    raise ConstructionFailedError(
        f"no violating amplitude found; trace: {trace['eps_trace']}")
