"""Parsers for the compact textual specs used on the command line.

A spec is `head:key=value,key=value,...`; values may themselves be a
parenthesized spec, e.g. `mollify:base=(clq:n=4,q=4),width=0.2`.  The
`spec()` strings of balls, scaled and mollified bodies round-trip through
`parse_body` exactly: every number reads back as the same float.
A perturbed body's `perturb:` spec is only a label: its bump is a
polynomial the spec does not carry, so such bodies are read from
`bp-construct` pair files (`bp-verify --pair`) instead.
"""

from __future__ import annotations

from .bodies import (ComplexLqBall, EuclideanBall, ScaledBody, StarBody,
                     mollify)
from .frames import DirectionGrid, make_grid
from .quadrature import SphereRule


class SpecError(ValueError):
    """A malformed spec string; the message names the offending token."""


def split_spec(text: str):
    """`head:key=value,...` -> (head, {key: value}); values keep their
    surrounding parentheses stripped but are not interpreted."""
    text = text.strip()
    if not text:
        raise SpecError("empty spec string")
    head, _, rest = text.partition(":")
    head = head.strip()
    if not head:
        raise SpecError(f"missing spec head in {text!r}")
    fields = {}
    if not rest:
        return head, fields
    parts = []
    depth = 0
    cur = []
    for ch in rest:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SpecError(f"unbalanced ')' in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise SpecError(f"unbalanced '(' in {text!r}")
    parts.append("".join(cur))
    for part in parts:
        if "=" not in part:
            raise SpecError(f"expected key=value, got {part!r} in {text!r}")
        key, _, val = part.partition("=")
        key = key.strip()
        val = val.strip()
        if val.startswith("(") and val.endswith(")"):
            val = val[1:-1]
        if not key or not val:
            raise SpecError(f"expected key=value, got {part!r} in {text!r}")
        fields[key] = val
    return head, fields


def _number(fields, key, text, cast=float, default=None):
    if key not in fields:
        if default is not None:
            return default
        raise SpecError(f"missing field {key!r} in {text!r}")
    try:
        return cast(fields.pop(key))
    except ValueError as exc:
        raise SpecError(f"bad value for {key!r} in {text!r}") from exc


def _done(fields, text):
    if fields:
        raise SpecError(f"unknown field {sorted(fields)[0]!r} in {text!r}")


def parse_body(text: str) -> StarBody:
    """Build a body from its spec string."""
    head, fields = split_spec(text)
    if head == "ball":
        dim = _number(fields, "dim", text, int)
        _done(fields, text)
        return EuclideanBall(dim)
    if head == "clq":
        n = _number(fields, "n", text, int)
        q = _number(fields, "q", text)
        _done(fields, text)
        return ComplexLqBall(n, q)
    if head == "scale":
        if "base" not in fields:
            raise SpecError(f"missing field 'base' in {text!r}")
        base = parse_body(fields.pop("base"))
        lam = _number(fields, "lam", text)
        _done(fields, text)
        return ScaledBody(base, lam)
    if head == "mollify":
        if "base" not in fields:
            raise SpecError(f"missing field 'base' in {text!r}")
        base = parse_body(fields.pop("base"))
        width = _number(fields, "width", text)
        _done(fields, text)
        return mollify(base, width)
    raise SpecError(f"unknown body spec head {head!r} in {text!r}")


def parse_grid(text: str, default_seed: int) -> DirectionGrid:
    """`grid:dim=8,res=16[,reduce=orbit,seed=7,sort=1]` -> DirectionGrid;
    `default_seed` is the seed of a spec that omits it.  `sort` orders an
    orbit-reduced grid only, so a spec without reduce=orbit that names it
    is refused: it would be a second key for the same points."""
    head, fields = split_spec(text)
    if head != "grid":
        raise SpecError(f"unknown grid spec head {head!r} in {text!r}")
    dim = _number(fields, "dim", text, int)
    res = _number(fields, "res", text, int)
    seed = _number(fields, "seed", text, int, default=default_seed)
    reduce_name = fields.pop("reduce", "none")
    reduction = {"orbit": "orbit_reduced", "none": "none"}.get(reduce_name)
    if reduction is None:
        raise SpecError(f"unknown reduction {reduce_name!r} in {text!r}")
    if reduction == "none" and "sort" in fields:
        raise SpecError(f"'sort' needs reduce=orbit in {text!r}")
    sort = _number(fields, "sort", text, int, default=1)
    if sort not in (0, 1):
        raise SpecError(f"bad value for 'sort' in {text!r} (0 or 1)")
    _done(fields, text)
    return make_grid(dim, res, reduction=reduction, seed=seed,
                     sort_moduli=sort == 1 and reduction == "orbit_reduced")


def parse_rule(text: str, dim: int, default_seed: int) -> SphereRule:
    """`qmc[:nodes=N,seed=S]` / `gauss:level=L` -> SphereRule on S^{dim-1},
    made by SphereRule.qmc or SphereRule.gauss.

    A spec names only its rule's own fields, and its defaults live here
    alone: a QMC rule without `nodes` has 2^16 nodes and one without `seed`
    takes `default_seed`; a Gauss rule is deterministic, so it takes no
    seed, and needs its `level`.
    """
    head, fields = split_spec(text)
    if head == "gauss":
        level = _number(fields, "level", text, int)
        _done(fields, text)
        return SphereRule.gauss(dim, level)
    if head != "qmc":
        raise SpecError(f"unknown rule spec head {head!r} in {text!r}")
    nodes = _number(fields, "nodes", text, int, default=2 ** 16)
    seed = _number(fields, "seed", text, int, default=default_seed)
    _done(fields, text)
    return SphereRule.qmc(dim, nodes, seed)
