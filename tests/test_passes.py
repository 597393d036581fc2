"""Pass size and layout: every gauge call gets at most
quadrature._PASS_NODES points as the transposed view of C-contiguous
coordinate columns, and no result depends on the pass size."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbplab import quadrature
from cbplab.bodies import ComplexLqBall, mollify
from cbplab.fourier import _pairing_core
from cbplab.frames import make_frame
from cbplab.quadrature import SphereRule, integrate_sphere, integrate_subsphere
from cbplab.sections import _STENCILS, _slice_batch_sums

#: "batch" stands for the node count of one batch of the rule in use
_SIZES = st.sampled_from(["batch", 3, 100, 2 ** 14, 2 ** 16])

_BODY4 = mollify(ComplexLqBall(2, 4.0), 0.2)
_BODY8 = ComplexLqBall(4, 4.0)


def _unit(dim, seed):
    x = np.random.Generator(np.random.Philox(key=seed)).standard_normal(dim)
    return x / np.linalg.norm(x)


def _pass_nodes(size, rule):
    return rule.node_count // rule.batch_count if size == "batch" else size


class _Recorded:
    """An integrand that records the size and layout of each call."""

    def __init__(self, f):
        self.f, self.sizes, self.columns = f, [], []

    def __call__(self, x):
        self.sizes.append(len(x))
        self.columns.append(x.T.flags.c_contiguous)
        return self.f(x)


class _RecordedClq(ComplexLqBall):
    def __init__(self, n, q):
        super().__init__(n, q)
        self.sizes, self.columns = [], []

    def norm(self, x):
        self.sizes.append(x.size // x.shape[-1])
        self.columns.append(x.T.flags.c_contiguous)
        return super().norm(x)


def _at(size, rule, run):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_PASS_NODES", _pass_nodes(size, rule))
        return run()


_SPHERE_RULE = SphereRule(4, "quasi_monte_carlo", node_count=2 ** 15, seed=3)
_SPHERE_REF = integrate_sphere(_SPHERE_RULE, lambda x: _BODY4.radial(x) ** 4)


@settings(max_examples=10)
@given(size=_SIZES)
def test_integrate_sphere_is_independent_of_the_pass_size(size):
    f = _Recorded(lambda x: _BODY4.radial(x) ** 4)
    assert _at(size, _SPHERE_RULE,
               lambda: integrate_sphere(_SPHERE_RULE, f)) == _SPHERE_REF
    limit = max(_pass_nodes(size, _SPHERE_RULE), 2 ** 10)  # 1,024-node batches
    assert all(f.columns) and max(f.sizes) <= limit
    assert sum(f.sizes) == _SPHERE_RULE.node_count


_SUB_RULE = SphereRule(6, "product_gauss", level=9)
_SUB_BASIS = make_frame(_unit(8, seed=21)).basis
_SUB_REF = integrate_subsphere(_SUB_RULE, _SUB_BASIS,
                               lambda x: _BODY8.radial(x) ** 6)


@settings(max_examples=10)
@given(size=_SIZES)
def test_integrate_subsphere_is_independent_of_the_pass_size(size):
    f = _Recorded(lambda x: _BODY8.radial(x) ** 6)
    got = _at(size, _SUB_RULE,
              lambda: integrate_subsphere(_SUB_RULE, _SUB_BASIS, f))
    assert got == _SUB_REF
    batch = max(len(w) for _, w in _SUB_RULE.batches())
    assert all(f.columns)
    assert max(f.sizes) <= max(_pass_nodes(size, _SUB_RULE), batch)


_SLICE_RULE = SphereRule(6, "quasi_monte_carlo", node_count=2 ** 9, seed=5)
_SLICE_FRAME = make_frame(_unit(8, seed=15))
_OFFSETS = np.array(sorted({(i * s, j * s) for s in (0.1, 0.05)
                            for i, j in _STENCILS[2][0]}))
# a batch sum is a K-row matrix product, whose rounding depends on K
_SLICE_REF = {count: _slice_batch_sums(_BODY8, _SLICE_FRAME, _OFFSETS[:count],
                                       _SLICE_RULE)
              for count in (1, 7, len(_OFFSETS))}


@settings(max_examples=10)
@given(size=_SIZES, count=st.sampled_from(sorted(_SLICE_REF)))
def test_slice_batch_sums_are_independent_of_the_pass_size(size, count):
    body = _RecordedClq(4, 4.0)
    sums, inside = _at(size, _SLICE_RULE, lambda: _slice_batch_sums(
        body, _SLICE_FRAME, _OFFSETS[:count], _SLICE_RULE))
    assert np.array_equal(sums, _SLICE_REF[count][0])
    assert np.array_equal(inside, _SLICE_REF[count][1])
    # the first call tests which base points lie inside; the rest bisect
    pairs = max(_pass_nodes(size, _SLICE_RULE) // count, 1) * count
    assert all(body.columns[1:]) and max(body.sizes[1:]) <= pairs


_PAIR_RULE = SphereRule(4, "quasi_monte_carlo", node_count=2 ** 12, seed=8)
_PAIR_XI = _unit(4, seed=4)
_PAIR_REF = _pairing_core(lambda x: _BODY4.radial(x) ** 2.0, 4, _PAIR_XI,
                          2.0, 0.2, _PAIR_RULE)


@settings(max_examples=10)
@given(size=_SIZES)
def test_pairing_core_is_independent_of_the_pass_size(size):
    f = _Recorded(lambda x: _BODY4.radial(x) ** 2.0)
    got = _at(size, _PAIR_RULE, lambda: _pairing_core(
        f, 4, _PAIR_XI, 2.0, 0.2, _PAIR_RULE))
    assert got == _PAIR_REF
    # the subsphere batches hold 32 nodes: one latitude is 32 points
    assert all(f.columns)
    assert max(f.sizes) <= max(_pass_nodes(size, _PAIR_RULE), 32)
