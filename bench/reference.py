"""Fixed reference kernels that gauge the host's speed of the moment.

The benchmark's host shares its cores with other virtual machines, and its
speed moves by up to 1.7x, both within a second and for minutes at a time:
one sweep cell took 146 ms in one job and 277 ms in the next, and a whole
run of sweep jobs read 1.8 s a minute before one that read 2.6 s. Raw wall
times then say more about the moment a run fell into than about the
program. So the runner runs a kernel between operations, at least every
STRETCH_S of timed work, and scales each operation's wall time by

    the kernel's reference time / (mean of its times just before and after)

which gives its time at the host's reference speed. Each workload names
the kernel whose work is most like its own, because neighbours slow
different kinds of work by different amounts:

* ``windows``: numpy reductions and dot products over 100 x 27 windows, a
  few microseconds of native code between lines of Python, as in feature
  extraction;
* ``store``: Euclidean distances from one row to all rows of a
  2,000 x 81 array, and a partial sort, as in a kNN prediction.

The kernels belong to the benchmark, so a change to the program cannot
change them, and a program that gets faster or slower shows in full.
"""

from __future__ import annotations

import time

import numpy as np

# Timed work between two runs of the kernel. Shorter stretches track the
# host's speed more closely; each kernel run costs about 5 ms.
STRETCH_S = 0.04

_rng = np.random.default_rng(20181024)
_STREAM = _rng.normal(size=(2400, 27))
_STORE = _rng.normal(size=(2000, 81))


def _windows():
    acc = 0.0
    for i in range(30):
        start = (i * 17) % (len(_STREAM) - 100)
        w = _STREAM[start:start + 100]
        means = w.mean(axis=0)
        acc += float(np.sqrt(np.mean((w - means) ** 2, axis=0)).sum())
        for k in range(0, 27, 3):
            a = w[:, k] - w[:, k].mean()
            b = w[:, k + 1] - w[:, k + 1].mean()
            acc += float(a @ b) / float(np.sqrt((a @ a) * (b @ b)))
    return acc


def _store():
    acc = 0
    for i in range(12):
        dist = np.sqrt(((_STORE - _STORE[i * 7]) ** 2).sum(axis=1))
        acc += int(np.argpartition(dist, 5)[:5].sum())
    return acc


# name -> (kernel, its time at the reference speed: about its time on the
# reference host (2 shared cores) in quieter stretches, so that scaled
# times read close to wall-clock times)
KERNELS = {"windows": (_windows, 0.005), "store": (_store, 0.004)}


def kernel_s(name):
    """Wall time of one run of the named kernel."""
    t0 = time.perf_counter()
    KERNELS[name][0]()
    return time.perf_counter() - t0


def scale(name, before_s, after_s):
    """Factor that brings an interval to the reference speed, from the
    kernel's times just before and just after it."""
    return KERNELS[name][1] / ((before_s + after_s) / 2)


class Stopwatch:
    """Collects the wall time of each operation of one job."""

    def __init__(self):
        self.op_ns = []
        self.kernel_s = []

    def op(self, ns):
        """Record one operation's wall time, taken outside this call."""
        self.op_ns.append(ns)

    def done(self):
        pass


class Gauge(Stopwatch):
    """A Stopwatch that also runs a kernel between stretches of operations
    and gives each operation's scale to the reference speed."""

    def __init__(self, kernel):
        super().__init__()
        self.kernel = kernel
        self.scales = []  # one per operation
        self.kernel_s.append(kernel_s(kernel))
        self._pending_ns = 0

    def op(self, ns):
        super().op(ns)
        self._pending_ns += ns
        if self._pending_ns >= STRETCH_S * 1e9:
            self.done()

    def done(self):
        """Close the stretch: run the kernel, scale its operations."""
        if len(self.scales) == len(self.op_ns):
            return
        self.kernel_s.append(kernel_s(self.kernel))
        f = scale(self.kernel, self.kernel_s[-2], self.kernel_s[-1])
        self.scales.extend([f] * (len(self.op_ns) - len(self.scales)))
        self._pending_ns = 0
