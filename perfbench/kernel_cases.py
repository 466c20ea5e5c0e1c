"""The six fixed kernel cases: a cross-backend output check and a timing.

These are the cases of ``benchmarks/bench_kernels.py``: conv on 8 images
of 16 channels at 28x28, and 8 reads of two 16x16 windows from a 3x64x64
canvas for bilinear sampling.
"""

import statistics
import time

import numpy as np

from probe import kernel_owners

CROSS_BACKEND_TOL = 1e-9


def cases():
    """{kernel name: args}, drawn from a fixed seed."""
    rng = np.random.default_rng(0)
    grid = rng.uniform(-1, 1, size=(8, 2, 16, 16, 2))
    return {
        "conv2d_forward": (rng.normal(size=(8, 16, 28, 28)), rng.normal(size=(32, 16, 3, 3)), 2, 1),
        "conv2d_input_grad": (rng.normal(size=(8, 32, 14, 14)), rng.normal(size=(32, 16, 3, 3)),
                              2, 1, 28, 28),
        "conv2d_kernel_grad": (rng.normal(size=(8, 32, 14, 14)), rng.normal(size=(8, 16, 28, 28)),
                               2, 1, 3, 3),
        "bilinear_forward": (rng.normal(size=(8, 3, 64, 64)), grid),
        "bilinear_image_grad": (rng.normal(size=(8, 2, 3, 16, 16)), grid, 64, 64),
        "bilinear_grid_grad": (rng.normal(size=(8, 2, 3, 16, 16)), rng.normal(size=(8, 3, 64, 64)),
                               grid),
    }


def available_backends():
    """{name: kernel module}; the active kernels alone when kpp has no
    backend selection."""
    try:
        from kpp import backend
    except ImportError:
        return {"active": kernel_owners()[0]}
    return backend.get_backends()


def check():
    """Run every case once on every importable backend.

    Returns (ok, max |diff| between the first two backends, or None when
    only one is importable).  With one backend the check is that outputs
    are finite.
    """
    outputs = [{name: getattr(module, name)(*args) for name, args in cases().items()}
               for module in available_backends().values()]
    ok = all(np.all(np.isfinite(out)) for per in outputs for out in per.values())
    if len(outputs) < 2:
        return ok, None
    first, second = outputs[0], outputs[1]
    diff = max(float(np.max(np.abs(first[n] - second[n]))) for n in first)
    return ok and diff <= CROSS_BACKEND_TOL, diff


def time_cases(kernels, repeats=7):
    """{kernel name: median ms over repeats} on the given kernel module."""
    result = {}
    for name, args in cases().items():
        fn = getattr(kernels, name)
        fn(*args)
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - start)
        result[name] = statistics.median(times) * 1e3
    return result
