"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own test run: the
traced workload runs take several minutes.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import cbplab  # noqa: E402
from cbplab import fourier, sections  # noqa: E402
from calibration import Sampler  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, thinned_grid  # noqa: E402


def _perturbed_body():
    base = cbplab.mollify(cbplab.ComplexLqBall(2, 4.0), 0.2)
    bump = cbplab.HarmonicBump({(1, 0): 1.0, (0, 1): 1.0}, label="flat")
    return cbplab.RadialPerturbation(base, 2.0, 1e-3, bump, bump_id="flat")


def test_norm_points_are_counted_once_per_outermost_body():
    body = _perturbed_body()
    x = np.random.default_rng(1).standard_normal((100, 4))
    plain = body.norm(x)
    tracer = Tracer()
    with tracer:
        traced = body.norm(x)
    assert np.array_equal(plain, traced)
    calls = tracer.calls()
    # RadialPerturbation -> MollifiedBody -> power_form_eval: three spans,
    # one counted call of 100 points
    assert calls["bodies.norm.perturb"] == 1
    assert calls["bodies.norm.mollify"] == 1
    assert calls["harmonics.power_form_eval"] == 1
    metrics = tracer.metrics()
    assert metrics["bodies.norm.calls"] == 1
    assert metrics["bodies.norm.points"] == 100
    assert metrics["bodies.norm.perturb.mpts_per_s"] > 0
    assert metrics["bodies.norm.mollify.mpts_per_s"] == 0


def test_uninstall_restores_every_binding():
    original = sections.laplacian_at_zero
    norm = cbplab.MollifiedBody.norm
    with Tracer():
        assert fourier.laplacian_at_zero is not original
        assert cbplab.MollifiedBody.norm is not norm
    assert fourier.laplacian_at_zero is original
    assert sections.laplacian_at_zero is original
    assert cbplab.MollifiedBody.norm is norm


def test_another_seed_only_reorders_the_grid():
    ref, ref_order = thinned_grid(8, 16, 0)
    grid, order = thinned_grid(8, 16, 7)
    assert np.array_equal(ref_order, np.arange(len(ref.points)))
    assert not np.array_equal(grid.points, ref.points)
    # outputs put back in reference order meet the reference directions
    assert np.array_equal(grid.points[order], ref.points)
    assert np.allclose(grid.weights[order], ref.weights, rtol=1e-15, atol=0)


def test_calibration_samples_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with Sampler() as clock:
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert clock.samples >= 2
    assert 0 < clock.kernel_s < clock.wall
    # the kernel's own time is taken out before the speed is applied
    assert clock.wall_s == pytest.approx(
        (clock.wall - clock.kernel_s) * clock.speed)
    assert clock.cpu_s > 0


@pytest.fixture(scope="module")
def traced_runs():
    runs = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", name, "--seed", "0", "--seconds", "1",
             "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        assert proc.returncode == 0, proc.stderr
        with open(os.path.join(ROOT, ".bench_out",
                               f"{name}-seed0-trace1.json")) as fh:
            runs[name] = json.load(fh)
    return runs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_outputs_match_untraced_and_reference(traced_runs, name):
    record = traced_runs[name]
    # the traced operation and its untraced twin are both compared with the
    # reference and with each other (the trace.identical operation)
    assert record["failures"] == []
    assert record["failed"] == 0
    assert record["attempted"] > 2


def test_construct8_counts(traced_runs):
    record = traced_runs["construct8"]
    directions = len(WORKLOADS["construct8"]().setup(0)[0].points)
    assert record["calls"]["sections.laplacian_at_zero"] == directions
    assert record["calls"]["fourier.derivative"] == directions
    assert record["calls"]["fourier.pairing"] == 1
    assert len(record["outputs"]["eps_trace"]) == 3
    assert record["metrics"]["busemann_petty.halvings"] == 2


def test_frac4_counts(traced_runs):
    record = traced_runs["frac4"]
    directions = len(WORKLOADS["frac4"]().setup(0)[1].points)
    assert record["sections_per_profile"] == [97] * directions
    # every parallel_section call integrates over 32 one-node Gauss batches
    batches, nodes = record["batches"]["sections.slice"]
    assert batches == 97 * directions * 32
    assert nodes == batches


def test_verify8_counts(traced_runs):
    record = traced_runs["verify8"]
    assert record["metrics"]["cli.cache_hits"] == 1
    assert [c["cached"] for c in record["outputs"]["calls"]] == [False, True]
    assert record["outputs"]["identical"] is True
