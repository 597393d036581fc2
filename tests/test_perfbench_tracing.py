"""The traced benchmark run wraps cbplab's functions, body `norm` methods
and `SphereRule` node generators by name.  This checks, without running the
benchmark, that every name it wraps still exists, so a change that renames
or deletes one fails here rather than in a traced run."""

import importlib
import importlib.util
import os
import sys

import numpy as np
import pytest

from cbplab import bodies, embedding, harmonics
from cbplab.frames import make_grid
from cbplab.quadrature import SphereRule

TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    # read-only: leave no bytecode cache in the benchmark's directory
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_function_resolves(tracing):
    for module, name, _, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), name, None)), \
            f"{module}.{name}"


def test_every_traced_body_class_defines_its_own_norm(tracing):
    for cls in tracing.NORM_CLASSES:
        assert "norm" in vars(getattr(bodies, cls)), cls


def test_the_traced_node_generators_exist(tracing):
    # the tracer reads and patches them on SphereRule itself, so every rule
    # must be a SphereRule, not a subclass that inherits them
    for name in [n for n, _ in tracing.NODEGEN] + ["batches"]:
        assert callable(vars(SphereRule).get(name)), name
    assert type(SphereRule.qmc(6, 64, 1)) is SphereRule
    assert type(SphereRule.gauss(6, 8)) is SphereRule


def test_one_mollified_norm_call_reaches_power_form_eval_once(monkeypatch):
    # the tracer times the mollified series where it wraps it, at
    # cbplab.harmonics.power_form_eval; the norm must look it up there
    body = bodies.mollify(bodies.ComplexLqBall(2, 4.0), 0.2)
    calls = []
    original = harmonics.power_form_eval
    monkeypatch.setattr(harmonics, "power_form_eval",
                        lambda *args: calls.append(1) or original(*args))
    body.norm(np.random.default_rng(1).standard_normal((100, 4)))
    assert len(calls) == 1


def test_an_interval_sharing_a_minimum_confirms_in_one_pairing_call(
        monkeypatch):
    # the tracer counts confirmations and pairing passes where it wraps
    # them, at cbplab.embedding.confirm_sample and
    # cbplab.embedding.pairing_oracle; exponents whose minimum lies on one
    # direction must reach each of them once, looked up there at call time
    body = bodies.mollify(bodies.ComplexLqBall(2, 4.0), 0.2)
    grid = make_grid(4, 8, reduction="orbit_reduced", sort_moduli=True)
    seen = []

    def counted(name):
        original = getattr(embedding, name)

        def call(*args, **kwargs):
            seen.append(name)
            return original(*args, **kwargs)
        return call

    for name in ("confirm_sample", "pairing_oracle"):
        monkeypatch.setattr(embedding, name, counted(name))
    out = embedding.embedding_interval(body, [1.5, 1.0], grid)
    assert len({tuple(v.argmin) for v in out.values()}) == 1
    assert seen == ["confirm_sample", "pairing_oracle"]
