"""Embedding verdicts: decide the sign of (||x||^{-p})^ over a direction
grid, with two-route confirmation of the extremal value.

A body whose norm power ||x||^{-p} has a nonnegative transform embeds in
L_{-p} (equivalently is a p-intersection body); a confirmed negative value
is a witness against that.  Verdicts are statistical: 'inconclusive' is a
first-class outcome whenever routes disagree or a sign sits inside the
noise band.

This module only reduces samples to verdicts.  A scan and a scan over
several exponents run one sweep (`_sweep`): per direction one
`fourier.ft_values` call evaluates every exponent, and exponents whose
minimum lies on the same direction share one confirmation pass.  Each
result equals that of a one-exponent scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bodies import StarBody
from .frames import DirectionGrid
from .fourier import FtSample, ft_values, pairing_oracle
from .quadrature import SphereRule


@dataclass
class EmbeddingVerdict:
    body_spec: str
    exponent: float
    values: np.ndarray
    stderrs: np.ndarray
    min_value: float
    min_stderr: float
    argmin: np.ndarray
    conclusion: str  # nonnegative_up_to_tol | negativity_witness | inconclusive
    routes: dict = field(default_factory=dict)

    def as_record(self) -> dict:
        return {
            "body": self.body_spec,
            "p": self.exponent,
            "min_value": self.min_value,
            "min_stderr": self.min_stderr,
            "argmin": list(np.round(self.argmin, 12)),
            "conclusion": self.conclusion,
            "routes": self.routes,
        }


_TOL = 1e-3  # sign-threshold floor, relative to the value scale


def confirm_sample(body: StarBody, xi, ps) -> list[FtSample]:
    """Second-route evaluation at one direction via the pairing oracle, one
    FtSample per exponent of `ps`, in order.

    The pairing oracle needs no structural assumption on the body, so it is
    the designated independent check for every primary route.  All the
    exponents share one pass over the pairing nodes.
    """
    # the pairing variance grows steeply with dimension; spend more nodes
    # where the confirmation needs them
    nodes = {4: 2 ** 19, 6: 2 ** 21}.get(body.dim, 2 ** 22)
    return pairing_oracle(body, xi, ps, SphereRule.qmc(body.dim, nodes, 5))


def _assemble(body, p, grid, samples, k, confirm) -> EmbeddingVerdict:
    """Reduce per-direction samples, the index k of their minimum and its
    confirmation to a verdict.

    A negativity witness needs both routes below -3 stderr (plus an
    absolute floor _TOL times the value scale, guarding deterministic rules
    whose stderr is zero); nonnegative_up_to_tol needs every grid value
    above the mirrored threshold; route disagreement beyond 5 combined
    stderr is inconclusive.
    """
    values = np.array([s.value for s in samples])
    stderrs = np.array([s.stderr for s in samples])
    floor = _TOL * max(1.0, float(np.max(np.abs(values))))
    z_gap = abs(values[k] - confirm.value) / max(
        math.hypot(stderrs[k], confirm.stderr), floor, 1e-300)
    routes = {
        "primary": samples[k].method,
        "confirm": confirm.method,
        "confirm_value": confirm.value,
        "confirm_stderr": confirm.stderr,
        "agreement_z": z_gap,
    }
    if z_gap > 5.0:
        conclusion = "inconclusive"
    elif (values[k] < -(3.0 * stderrs[k] + floor)
          and confirm.value < -3.0 * confirm.stderr):
        conclusion = "negativity_witness"
    elif (np.all(values >= -(3.0 * stderrs + floor))
          and confirm.value >= -(3.0 * confirm.stderr + floor)):
        conclusion = "nonnegative_up_to_tol"
    else:
        conclusion = "inconclusive"
    return EmbeddingVerdict(
        body_spec=body.spec(),
        exponent=float(p), values=values, stderrs=stderrs,
        min_value=float(values[k]), min_stderr=float(stderrs[k]),
        argmin=grid.points[k].copy(), conclusion=conclusion, routes=routes)


def _verdicts(body, grid, samples) -> dict:
    """Map p -> verdict for per-direction samples {p: [FtSample, ...]}.

    The exponents are grouped by the grid direction of their minimum, and
    each group gets one confirm_sample call: one pass over the pairing
    nodes per distinct minimum direction, whatever the number of exponents.
    """
    argmin = {p: int(np.argmin(np.array([s.value for s in row])))
              for p, row in samples.items()}
    groups = {}
    for p, k in argmin.items():
        groups.setdefault(k, []).append(p)
    confirms = {}
    for k, ps in groups.items():
        confirms.update(zip(ps, confirm_sample(body, grid.points[k], ps)))
    return {p: _assemble(body, p, grid, row, argmin[p], confirms[p])
            for p, row in samples.items()}


def _sweep(body, ps, grid, rule) -> dict:
    """Map p -> EmbeddingVerdict for each distinct exponent of `ps`, in
    order: the one per-direction loop, on `rule` or the routes' default.
    The grid, and in ft_values every exponent, is checked before any
    work."""
    if grid.dim != body.dim:
        raise ValueError(f"grid dim {grid.dim} != body dim {body.dim}")
    ps = list(dict.fromkeys(float(p) for p in ps))
    rows = [dict(zip(ps, ft_values(body, xi, ps, rule))) for xi in grid.points]
    return _verdicts(body, grid, {p: [row[p] for row in rows] for p in ps})


def scan(body: StarBody, p: float, grid: DirectionGrid,
         rule: SphereRule) -> EmbeddingVerdict:
    """Sign scan of (||x||^{-p})^ over the grid: the one-exponent sweep,
    on `rule`, or the natural route's default if it is None."""
    return _sweep(body, [p], grid, rule)[float(p)]


def embedding_interval(body: StarBody, p_list, grid: DirectionGrid) -> dict:
    """Map p -> EmbeddingVerdict, each as scan gives it on the default
    rules, keyed in order of first appearance."""
    return _sweep(body, p_list, grid, None)
