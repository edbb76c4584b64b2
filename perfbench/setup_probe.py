"""Set-up probe: the fixed cost paid before the first approximation.

Run in a fresh interpreter.  It times ``import lindsim``, building the
workload's generators, and ``generator_stats`` plus ``exact_channel`` on
each, then prints one JSON line with that time and the environment the
program ran in: Python, numpy and scipy versions, CPU count and the OpenBLAS
thread count in effect.

    python3 perfbench/setup_probe.py '[["random", {"d": 2, "m": 3, "seed": 7}]]'
"""

import json
import os
import sys
import time


def _openblas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be read."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath
        getter = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    getter.argtypes = []
    getter.restype = ctypes.c_int
    return int(getter())


def main(argv) -> int:
    models = json.loads(argv[1])
    start = time.perf_counter()
    import lindsim

    for name, params in models:
        gen = lindsim.builtin_model(name, params)
        lindsim.generator_stats(gen)
        lindsim.exact_channel(gen, 1.0)
    elapsed = time.perf_counter() - start

    import numpy
    import scipy

    print(json.dumps({
        "setup_s": elapsed,
        "lindsim": os.path.dirname(lindsim.__file__),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "openblas_threads": _openblas_threads(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
