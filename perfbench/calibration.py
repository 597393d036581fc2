"""Host-speed calibration of the benchmark's times.

The benchmark shares its host with other machines, and the host's speed
swings by up to a factor of 1.9 within seconds: wall time and CPU time of
the same work swing together, so neither measures the program alone.  A
fixed calibration kernel, owned by the benchmark and untouched by any change
to cbplab, runs every `INTERVAL_S` seconds of wall time while an operation
runs (from a SIGALRM handler, in the measured process itself).  Its time
`k` at each moment, against its nominal time `NOMINAL_S`, gives the host's
slowdown `k / NOMINAL_S` there.  An interval `dt` of the operation then did
`dt * NOMINAL_S / k` seconds of work at nominal speed; the sum over the
operation is its calibrated time.  The kernel's own time is taken out of
the operation's time first.

The calibrated times are in nominal seconds: seconds on a host on which the
kernel takes `NOMINAL_S`, about a typical moment of the two-vCPU Xeon guest
it was tuned on.  The raw wall and CPU times are kept next to them.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 1.8e-3
INTERVAL_S = 0.1

# A fixed power-sum form in the squared block moduli of C^4, and rays to
# bisect along: a frozen stand-in for a mollified body's norm, the call the
# slice engine spends its time in.
_EXPS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0),
         (1, 0, 1), (3, 0, 0), (0, 2, 0), (2, 1, 0))
_COEFS = (1.0, 0.21, -0.13, 0.05, 0.08, -0.04, 0.02, 0.01, 0.03, -0.01)
_RAYS = np.cos(np.arange(8 * 520, dtype=float).reshape(520, 8) * 0.7311 + 0.3)
_RAYS /= np.linalg.norm(_RAYS, axis=1, keepdims=True)


def _norm(x):
    r = np.linalg.norm(x, axis=-1)
    xhat = x / r[:, None]
    m2 = xhat[:, 0::2] ** 2 + xhat[:, 1::2] ** 2
    m2 /= np.sum(m2, axis=-1, keepdims=True)
    pows = [np.sum(m2 ** k, axis=1) for k in range(2, 5)]
    rho = np.zeros(len(x))
    for exps, coef in zip(_EXPS, _COEFS):
        term = None
        for j, e in enumerate(exps):
            if e:
                f = pows[j] if e == 1 else pows[j] ** e
                term = f if term is None else term * f
        rho += coef if term is None else coef * term
    return r / rho


def _bisect(rays, steps):
    lo = np.zeros(len(rays))
    hi = np.full(len(rays), 2.0)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        inside = _norm(rays * mid[:, None]) < 1.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return lo


def kernel() -> float:
    """About 1.8 ms of the work the slice engine does: bisection for the
    boundary of a body along rays, with the body's norm evaluated on a few
    rays at a time (as in a section profile) and on hundreds at a time (as
    in a Laplacian or a volume)."""
    tiny = sum(float(_bisect(_RAYS[i:i + 4], 6).sum()) for i in (0, 4))
    return tiny + float(_bisect(_RAYS, 4).sum())


def slowdown(repeats: int = 9) -> float:
    """Median kernel time over `repeats` calls, against its nominal time."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times) / NOMINAL_S


class Sampler:
    """Calibrated wall and CPU time of a `with` block.

    After the block: `wall` and `cpu` are the raw times, `kernel_s` the
    share of them the kernel took, `speed` the time-weighted mean of
    `NOMINAL_S / k`, `wall_s` and `cpu_s` the calibrated times, and `raw`
    the raw times with the speed, for the run's record.
    """

    def __enter__(self):
        for _ in range(3):  # warm the kernel's code and buffers
            kernel()
        self._weighted = 0.0
        self._span = 0.0
        self.samples = 0
        self.kernel_s = 0.0
        self.kernel_cpu = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.wall = time.perf_counter()
        self.cpu = time.process_time()
        self._last = self.wall
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _sample(self, signum, frame):
        start = time.perf_counter()
        cpu = time.process_time()
        kernel()
        k = time.perf_counter() - start
        self.kernel_s += k
        self.kernel_cpu += time.process_time() - cpu
        # the work since the previous sample ran at this sample's speed
        dt = start - self._last
        self._weighted += dt * NOMINAL_S / k
        self._span += dt
        self.samples += 1
        self._last = time.perf_counter()

    def __exit__(self, *exc):
        end = time.perf_counter()
        cpu = time.process_time()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall = end - self.wall
        self.cpu = cpu - self.cpu
        if not self.samples:  # a block shorter than one interval
            self._span = 1.0
            self._weighted = 1.0 / slowdown(3)
        self.speed = self._weighted / self._span
        self.wall_s = (self.wall - self.kernel_s) * self.speed
        self.cpu_s = (self.cpu - self.kernel_cpu) * self.speed
        if not (math.isfinite(self.wall_s) and self.wall_s > 0):
            raise RuntimeError("calibration failed: no usable kernel samples")
        self.raw = {"wall_s": self.wall, "cpu_s": self.cpu,
                    "host_speed": self.speed, "samples": self.samples}
