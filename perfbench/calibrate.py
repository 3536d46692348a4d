"""Reference kernels that measure how fast the machine runs at the moment.

The speed of the shared 2-core VM the benchmark was built on drifts by up
to 1.8x within a minute, and a workload and a fixed kernel drift together
(see README.md, *Steadiness*).  So ``workload.py`` states the time of each
task call at a reference speed: it scales the time by ``ref_s`` over the
kernel's time measured around the call, where ``ref_s`` is the kernel's
time at that speed.  Each workload uses the kernel whose work resembles its
own.  The kernels use numpy only, never nclyap, so a change to the program
does not change them.
"""

import time

import numpy as np

_A = np.array([[-1.0, 0.5], [0.0, -0.8]])
_M = np.random.default_rng(0).normal(size=(160, 160)) / np.sqrt(160.0)


def python_kernel():
    """RK4 on a 2-vector: interpreter overhead around tiny numpy calls."""
    x, h = np.ones(2), 1e-3
    start = time.perf_counter()
    for _ in range(1000):
        k1 = _A @ x
        k2 = _A @ (x + 0.5 * h * k1)
        k3 = _A @ (x + 0.5 * h * k2)
        k4 = _A @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return time.perf_counter() - start


def blas_kernel():
    """Dense products of 160x160 matrices: single-threaded BLAS."""
    y = _M
    start = time.perf_counter()
    for _ in range(80):
        y = _M @ y
        y /= np.abs(y).max()
    return time.perf_counter() - start


# workload -> (kernel, the kernel's time in seconds at the reference speed)
KERNELS = {
    "hierarchy": (python_kernel, 0.015),
    "block": (blas_kernel, 0.02),
    "converse": (python_kernel, 0.015),
}
