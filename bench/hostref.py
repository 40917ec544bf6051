"""A fixed reference kernel that measures the host's current speed.

The benchmark's host is a few vCPUs of a shared machine whose speed
drifts by tens of percent over phases of seconds to minutes. The drift
moves every timing alike, so the benchmark times this kernel between
the program's runs and divides each run's time by the kernel's time at
that moment. The kernel uses only python and numpy, never the program,
so a change to the program cannot change it.

Its work mixes what the program spends its time on: interpreted Python
with small objects and calls (the tape's per-node overhead), numpy
calls on a few dozen elements, and `matmul`/`sin`/`tanh` over a
1024x32 array (the wide networks' kernels).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time on a 2-vCPU Linux VM (python 3.11, numpy 2.4), single
# threaded, in a phase when that host ran fast; during the benchmark's
# runs its median was 1.0-1.3 times this. Normalised times are seconds
# at this speed.
NOMINAL_S = 0.0105
SAMPLES = 3  # kernel timings taken at each point

_RNG = np.random.default_rng(20231020)
_WIDE = _RNG.standard_normal((1024, 32))
_W = _RNG.standard_normal((32, 32)) / 6.0
_SMALL = _RNG.standard_normal(24)


class _Node:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents):
        self.value = value
        self.parents = parents


def _interpreted():
    nodes = []
    acc = 0.0
    for i in range(4000):
        node = _Node(i * 0.5, (i - 1, i - 2))
        nodes.append(node)
        acc += node.value if i % 3 else -node.value
    grads = {}
    for node in reversed(nodes):
        for p in node.parents:
            grads[p] = grads.get(p, 0.0) + node.value
    return acc + len(grads)


def _small_numpy():
    x = _SMALL
    for _ in range(1200):
        x = np.sin(x) * 0.5 + x * 0.5
    return float(x.sum())


def _wide_numpy():
    h = _WIDE
    for _ in range(5):
        h = np.tanh(h @ _W) + np.sin(h)
    return float(h.sum())


def kernel():
    """One run of the reference work; returns a checksum."""
    return _interpreted() + _small_numpy() + _wide_numpy()


def sample(n=SAMPLES):
    """Time the kernel n times; returns the n durations in seconds."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


def factor(samples):
    """Host slowness relative to nominal: >1 when the host runs slow."""
    return statistics.median(samples) / NOMINAL_S
