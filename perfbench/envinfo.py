"""Environment record written with every result."""

import os
import platform


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas(pkg):
    try:
        deps = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{deps.get('name', '?')} {deps.get('version', '?')}"


def record(blas_threads):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "blas_threads": int(blas_threads),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }
