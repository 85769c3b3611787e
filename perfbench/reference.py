"""Reference kernels: fixed computations that do not touch koopest.

Timed between jobs, they track the speed a shared host gives this process
at the moment.  A job's time divided by the time of the kernels around it
cancels that drift and keeps any change made to koopest.  Each kernel
stands for one kind of work the jobs do (interpreted loops, small and
streamed numpy arrays, float text); every workload is normalized by their
sum, about 0.1 s on a 2-vCPU Xeon VM.
"""

import time

import numpy as np

_SMALL = np.linspace(0.1, 1.0, 100_000)  # 0.8 MB, in cache
_TEXT = [float(v) for v in np.random.default_rng(0).normal(size=15_000)]


def interp():
    """Interpreted integer arithmetic: the per-step loops."""
    s = 0
    for i in range(300_000):
        s += i * i


def numpy_small():
    """Vectorized transcendental and power kernels on an in-cache array."""
    for _ in range(40):
        np.exp(_SMALL) * _SMALL**3.0


def numpy_stream():
    """In-place arithmetic streaming arrays far larger than the caches.

    The 16 MB arrays live only during the call, so they add nothing to the
    peak resident set of a job."""
    big = np.linspace(0.1, 1.0, 2_000_000)
    out = np.empty_like(big)
    for _ in range(4):
        np.multiply(big, 1.0001, out=out)
        np.add(out, big, out=out)


def text():
    """Float formatting and parsing: CSV writing and reading."""
    [float(t) for t in [repr(v) for v in _TEXT]]


KERNELS = {"interp": interp, "numpy_small": numpy_small, "numpy_stream": numpy_stream, "text": text}


def timed() -> dict:
    """Wall time of each kernel, in seconds."""
    times = {}
    for name, kernel in KERNELS.items():
        t0 = time.perf_counter()
        kernel()
        times[name] = time.perf_counter() - t0
    return times


timed()  # warm-up: first calls pay for allocation and lazy set-up
