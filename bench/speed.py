"""Correction of measured times for CPU contention from outside the benchmark.

On a shared virtual machine the speed of a vCPU swings by a factor of up to
two within seconds, with load elsewhere on the host, and the two vCPUs of
one VM swing independently.  A timed unit of several seconds
integrates whatever the vCPU happened to do, so raw wall times of identical
work spread by 25-40% between runs.

``SpeedSampler`` measures the vCPU's speed where the work runs: a
``SIGALRM`` timer fires every ``INTERVAL_S`` of wall time inside the measured
process, and its handler times one call of a small fixed ``kernel`` (an
interpreter loop plus a few small numpy calls, the mix pathdist itself
runs).  A measured duration ``t`` is reported as ``t * NOMINAL_KERNEL_S /
mean(kernel time)``: the time the work would take on a vCPU on which the
kernel takes ``NOMINAL_KERNEL_S``, about the uncontended speed of the
2-vCPU Xeon VM this benchmark was written on.  The handler costs about 1%
of the measured time, the same share on every run.

Forked pool workers restart the timer and write their samples to
``<dir>/speed-<pid>.json`` when they exit; work done in workers is corrected
with the workers' samples, since the waiting parent only sees the scheduler.
"""

from __future__ import annotations

import json
import os
import signal
import time
from multiprocessing import util as mp_util
from pathlib import Path

import numpy as np

INTERVAL_S = 0.02
NOMINAL_KERNEL_S = 100e-6

_A = np.arange(16.0).reshape(8, 2)


def kernel() -> int:
    """Fixed work: an interpreter loop and four small numpy calls."""
    s = 0
    for i in range(1500):
        s += i * i
    for _ in range(4):
        d = _A - _A[::-1]
        np.einsum("...i,...i->...", d, d)
    return s


class SpeedSampler:
    """Kernel timings taken by a wall-clock timer inside this process."""

    def __init__(self):
        self.samples: list[float] = []
        self.worker_dir: Path | None = None  # set to have forked workers sample too
        mp_util.register_after_fork(self, SpeedSampler._forked)

    def start(self) -> None:
        kernel()  # the first call pays one-off costs that are not speed
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def take(self) -> list[float]:
        """Samples since the last call, merged with those of exited workers."""
        out = list(self.samples)
        del self.samples[:]
        if self.worker_dir is not None:
            workers = []
            for path in sorted(self.worker_dir.glob("speed-*.json")):
                workers.extend(json.loads(path.read_text()))
                path.unlink()
            if workers:
                out = workers
        return out

    def _forked(self) -> None:
        del self.samples[:]
        if self.worker_dir is None:
            return
        self.start()
        mp_util.Finalize(None, self._dump, exitpriority=100)

    def _dump(self) -> None:
        self.stop()
        path = self.worker_dir / f"speed-{os.getpid()}.json"
        path.write_text(json.dumps(self.samples))


def corrected(seconds: float, n_samples: int, sample_sum: float) -> float:
    """``seconds`` rescaled to a vCPU that runs the kernel in NOMINAL_KERNEL_S."""
    if not n_samples:
        return seconds
    return seconds * NOMINAL_KERNEL_S * n_samples / sample_sum
