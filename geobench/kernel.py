"""Calibration kernel: a fixed CPU workload timed next to every invocation.

The speed of a small shared machine drifts by up to ~1.5x, over spans from
a fraction of a second to tens of seconds, so raw wall seconds of one
invocation move with the machine, not with the program.  The benchmark
times this kernel right before and right after each invocation; the
invocation's wall time divided by the mean of the two kernel times, times
REFERENCE_S, reads as seconds at the machine's reference speed.

The kernel mixes the two kinds of work geocount does: numpy calls on small
batched arrays and plain Python arithmetic.  Its time tracks the CPU-bound
part of an invocation (log-log correlation 0.5-0.85 per sample on the
reference machine), not memory bandwidth, which drifts far less.  It never
imports geocount, so no change to the program can change the yardstick.

Run ``python3 geobench/kernel.py`` to print the median kernel time over 300
calls; REFERENCE_S holds the value printed on the reference machine.
"""

import time

import numpy as np

# Median of 300 kernel_seconds() calls (the middle of three such
# measurements) on a 2-vCPU x86-64 container, Python 3.11.7, numpy 2.4.6,
# thread pools pinned to one thread.
REFERENCE_S = 0.0098


def _work() -> float:
    # batched 2x2 Gram determinants and elementwise updates, as in the
    # counting loop, then scalar Python arithmetic, as in the evaluators
    h = np.full((256, 2, 2), 0.3)
    acc = 0.0
    for _ in range(60):
        gram = np.einsum("bji,bjk->bik", h, h)
        acc += float(np.sum(np.sqrt(np.abs(np.linalg.det(gram)))))
        h = h * 0.999 + 1e-3
    s = 0
    x = 0.5
    for i in range(20000):
        s = (s + i * i) % 1000003
        x = x * 0.999 + 1e-3 * (i % 7)
    return acc + s + x


def kernel_seconds() -> float:
    """Median wall time of three runs of the fixed workload."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


if __name__ == "__main__":
    samples = sorted(kernel_seconds() for _ in range(300))
    print(f"{samples[len(samples) // 2]:.6f}")
