"""Machine-speed reference for the benchmark.

The host this benchmark runs on is shared, and its speed drifts: the same
fixed loop runs up to a third slower for seconds or minutes at a time. A
drift that long hits whole iterations and whole runs, so no statistic over
the program's own times removes it.

``probe`` times one pass of fixed work that does not touch the program: the
same kinds of work the program does (Python objects and dicts, small numpy
ops dominated by call overhead, 64-wide matmuls, passes over a 224x224 RGB
image). The benchmark probes before and after each of its set-ups and
iterations and divides that set-up's or iteration's seconds by the mean
probe time around it over ``REFERENCE_S``. A change to the program does not
change the probes, so it moves the scaled figures as much as the raw ones;
a slower host moves both the program and the probes, and the scaled figures
much less.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/calibrate.py   # probe times here
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Mean probe time on the machine the bounds were fitted on (2-vCPU x86_64,
# Python 3.11, numpy 2.4 with one OpenBLAS thread) at its usual speed.
# Scaled figures read as seconds on that machine.
REFERENCE_S = 0.030

_rng = np.random.default_rng(0)
_MAT = _rng.standard_normal((64, 64)) / 8.0
_IMG = _rng.random((224, 224, 3))
_VEC = _rng.random(4096)
# Image-sized results go to these buffers: a fresh megabyte-sized array would
# make the probe time depend on the allocator state the program left behind.
_BUF = np.empty_like(_IMG)
_GRAY = np.empty(_IMG.shape[:2])


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value

    def weight(self, x: float) -> float:
        return self.value * x + self.key


def _work() -> float:
    """Python objects and dicts, numpy calls on tiny arrays, 64-wide matmuls,
    passes over an image: 16 rounds of each."""
    s = 0.0
    for _ in range(16):
        nodes = [_Node(j, j * 0.5) for j in range(250)]
        table = {n.key: n.weight(1.5) for n in nodes}
        s += sum(table.values())
    for _ in range(16):
        for k in range(60):
            v = _VEC[k:k + 3]
            s += float(np.dot(v, v))
    for _ in range(16):
        m = _MAT
        for _ in range(4):
            m = np.tanh(m @ _MAT)
        s += float(m[0, 0])
    for _ in range(16):
        np.multiply(_IMG, 1.1, out=_BUF)
        np.subtract(_BUF, 0.05, out=_BUF)
        np.clip(_BUF, 0.0, 1.0, out=_BUF)
        np.mean(_BUF, axis=2, out=_GRAY)
        s += float(_GRAY[::7, ::7].sum())
    return s


def probe() -> float:
    """Seconds for one pass of the reference work, garbage collector off so
    the program's live heap does not change the time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def probes(n: int) -> list[float]:
    _work()                     # untimed: bring the reference arrays into cache
    return [probe() for _ in range(n)]


if __name__ == "__main__":
    times = probes(50)
    print(f"probe mean {statistics.fmean(times) * 1e3:.2f} ms, "
          f"median {statistics.median(times) * 1e3:.2f} ms, "
          f"min {min(times) * 1e3:.2f} ms, max {max(times) * 1e3:.2f} ms "
          f"(REFERENCE_S {REFERENCE_S * 1e3:.1f} ms)")
