"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of `cbplab` at every name they are bound
to (modules import functions by name, so `cbplab.fourier.laplacian_at_zero`
and `cbplab.sections.laplacian_at_zero` are two bindings of one function),
plus the `norm` method of every body class and the node generators of
`SphereRule`.  Each call becomes a span: a name, a start, an end, its parent
span and one work count.  Spans live in flat arrays while the run lasts and
are written out when it ends.  Wrappers only time and count; they pass
arguments and results through untouched, so tracing never changes a number.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

from cbplab import bodies, quadrature


def _points(args, kwargs, result):
    x = np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    return x.size // x.shape[-1]


def _roots(args, kwargs, result):
    # _slice_batch_sums(body, frame, offsets, rule): one root per inside
    # offset and quadrature node
    rule = args[3] if len(args) > 3 else kwargs["rule"]
    return int(np.count_nonzero(result[1])) * rule.node_count


def _grid_directions(args, kwargs, result):
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    return len(grid.points)


def _hit(args, kwargs, result):
    return int(result is not None)


# (defining module, function, span name, work count)
FUNCTIONS = [
    ("cbplab.bodies", "mollify", "bodies.mollify", None),
    ("cbplab.bodies", "convexity_probe", "bodies.convexity_probe", None),
    ("cbplab.harmonics", "power_form_eval", "harmonics.power_form_eval",
     None),
    ("cbplab.harmonics", "symmetric_harmonic_atoms",
     "harmonics.symmetric_harmonic_atoms", None),
    ("cbplab.frames", "make_frame", "frames.make_frame", None),
    ("cbplab.sections", "laplacian_at_zero", "sections.laplacian_at_zero",
     None),
    ("cbplab.sections", "parallel_section", "sections.parallel_section",
     None),
    ("cbplab.sections", "volume", "sections.volume", None),
    ("cbplab.sections", "_slice_batch_sums", "sections.slice", _roots),
    ("cbplab.fourier", "ft_derivative_route", "fourier.derivative", None),
    ("cbplab.fourier", "section_profile", "fourier.fractional.profile", None),
    ("cbplab.fourier", "fractional_from_profile", "fourier.fractional.finish",
     None),
    ("cbplab.fourier", "pairing_oracle", "fourier.pairing", None),
    ("cbplab.embedding", "scan", "embedding.scan", None),
    ("cbplab.embedding", "embedding_interval", "embedding.interval", None),
    ("cbplab.embedding", "confirm_sample", "embedding.confirm", None),
    ("cbplab.busemann_petty", "bp_verify", "busemann_petty.bp_verify",
     _grid_directions),
    ("cbplab.busemann_petty", "bp_construct", "busemann_petty.bp_construct",
     None),
    ("cbplab.cli", "cache_get", "cli.cache_get", _hit),
]

NORM_CLASSES = {
    "EuclideanBall": "ball",
    "ComplexLqBall": "clq",
    "ScaledBody": "scale",
    "RadialPerturbation": "perturb",
    "MollifiedBody": "mollify",
}

NODEGEN = [("_qmc_batch", "quadrature.nodegen.qmc"),
           ("_gauss_nodes", "quadrature.nodegen.gauss")]


class Tracer:
    """Records spans while installed; `metrics()` reduces them to the
    per-layer figures."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._stack = [-1]
        # batches and nodes yielded by SphereRule.batches, keyed by the
        # span that consumed them
        self.batches: dict[str, list[int]] = {}
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, span_name, count):
        nid = self._id(span_name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self.count.append(0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if count is not None:
                self.count[i] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_batches(self, fn):
        def batches(rule):
            for pts, w in fn(rule):
                top = self._stack[-1]
                key = self.names[self.name[top]] if top >= 0 else "(root)"
                tally = self.batches.setdefault(key, [0, 0])
                tally[0] += 1
                tally[1] += len(w)
                yield pts, w

        batches.__wrapped__ = fn
        return batches

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "cbplab"
                                         or name.startswith("cbplab."))]
        for mod_name, fn_name, span_name, count in FUNCTIONS:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(original, span_name, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        for cls_name, tag in NORM_CLASSES.items():
            cls = getattr(bodies, cls_name)
            self._patch(cls, "norm", self._wrap(
                cls.__dict__["norm"], f"bodies.norm.{tag}", _points))
        rule = quadrature.SphereRule
        for attr, span_name in NODEGEN:
            self._patch(rule, attr,
                        self._wrap(rule.__dict__[attr], span_name, None))
        self._patch(rule, "batches", self._wrap_batches(rule.batches))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reduction ---------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name ids, parents, starts, ends, counts."""
        # copies: a live buffer view would stop the arrays from growing
        return (np.array(self.name, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64),
                np.array(self.count, dtype=np.int64))

    def dump(self, path):
        name, parent, start, end, count = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start, end=end, count=count)

    def calls(self) -> dict:
        name = self.arrays()[0]
        per = np.bincount(name, minlength=len(self.names))
        return {n: int(c) for n, c in zip(self.names, per)}

    def children_per_parent(self, parent_name, child_name) -> list[int]:
        """Number of `child_name` spans directly under each `parent_name`
        span, in call order."""
        name, parent, *_ = self.arrays()
        if parent_name not in self._ids or child_name not in self._ids:
            return []
        pid, cid = self._ids[parent_name], self._ids[child_name]
        owners = np.nonzero(name == pid)[0]
        kids = parent[name == cid]
        return [int(np.count_nonzero(kids == o)) for o in owners]

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded so far (0 where a layer
        did not run)."""
        name, parent, start, end, count = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        ids = self._ids

        def mask(span_name):
            if span_name not in ids:
                return np.zeros(len(name), dtype=bool)
            return name == ids[span_name]

        def total(span_name):
            return float(dur[mask(span_name)].sum())

        def n(span_name):
            return int(np.count_nonzero(mask(span_name)))

        def ratio(a, b):
            return float(a) / b if b else 0.0

        norm_ids = [ids[f"bodies.norm.{t}"] for t in NORM_CLASSES.values()
                    if f"bodies.norm.{t}" in ids]
        is_norm = np.isin(name, norm_ids)
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        outermost = is_norm & ~np.isin(parent_name, norm_ids)
        norm_points = int(count[outermost].sum())
        norm_calls = int(np.count_nonzero(outermost))

        def mpts_per_s(tag):
            m = outermost & mask(f"bodies.norm.{tag}")
            return ratio(count[m].sum() / 1e6, dur[m].sum())

        slice_id = ids.get("sections.slice", -2)
        roots = int(count[mask("sections.slice")].sum())
        slice_points = int(count[is_norm & (parent_name == slice_id)].sum())

        deriv = dur[mask("fourier.derivative")]
        profiles = n("fourier.fractional.profile")
        frac_total = (total("fourier.fractional.profile")
                      + total("fourier.fractional.finish"))
        bp = mask("busemann_petty.bp_verify")
        scans = mask("embedding.scan") | mask("embedding.interval")
        confirm_in_scan = mask("embedding.confirm") & np.isin(
            parent, np.nonzero(scans)[0])
        nodes = sum(t[1] for t in self.batches.values())
        batches = sum(t[0] for t in self.batches.values())

        return {
            "bodies.norm.calls": norm_calls,
            "bodies.norm.points": norm_points,
            "bodies.norm.points_per_call": ratio(norm_points, norm_calls),
            "bodies.norm.self_s": float(self_time[is_norm].sum()),
            "bodies.norm.mollify.mpts_per_s": mpts_per_s("mollify"),
            "bodies.norm.perturb.mpts_per_s": mpts_per_s("perturb"),
            "bodies.mollify.build_s": total("bodies.mollify"),
            "bodies.convexity_probe.s": total("bodies.convexity_probe"),
            "harmonics.power_form_eval.s": total("harmonics.power_form_eval"),
            "harmonics.symmetric_harmonic_atoms.s":
                total("harmonics.symmetric_harmonic_atoms"),
            "quadrature.nodegen.qmc.s": total("quadrature.nodegen.qmc"),
            "quadrature.nodegen.gauss.s": total("quadrature.nodegen.gauss"),
            "quadrature.batches": batches,
            "quadrature.nodes_per_batch": ratio(nodes, batches),
            "frames.make_frame.s": total("frames.make_frame"),
            "sections.laplacian_at_zero.s":
                total("sections.laplacian_at_zero"),
            "sections.parallel_section.s": total("sections.parallel_section"),
            "sections.volume.s": total("sections.volume"),
            "sections.roots": roots,
            "sections.norm_points_per_root": ratio(slice_points, roots),
            "sections.us_per_root":
                ratio(total("sections.slice") * 1e6, roots),
            "fourier.derivative.dirs": len(deriv),
            "fourier.derivative.dir_s.mean":
                ratio(deriv.sum(), len(deriv)),
            "fourier.fractional.dirs": profiles,
            "fourier.fractional.dir_s.mean": ratio(frac_total, profiles),
            "fourier.pairing.s": total("fourier.pairing"),
            "fourier.pairing.calls": n("fourier.pairing"),
            "embedding.scan.s": float(dur[scans].sum()
                                      - dur[confirm_in_scan].sum()),
            "embedding.confirm.s": total("embedding.confirm"),
            "busemann_petty.bp_verify.s":
                total("busemann_petty.bp_verify"),
            "busemann_petty.verify.dirs_per_s": ratio(count[bp].sum(),
                                                      dur[bp].sum()),
            "cli.cache_hits": int(count[mask("cli.cache_get")].sum()),
            "trace.spans": len(name),
        }

