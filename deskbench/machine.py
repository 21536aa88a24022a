"""Machine facts recorded with every result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

# Thread-count getters of the OpenBLAS builds numpy wheels bundle.
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_build() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return {}
    return {"name": deps.get("name"), "version": deps.get("version")}


def _openblas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))  # already loaded by numpy: same handle
        for name in _OPENBLAS_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def facts(thread_vars) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_threads": _openblas_threads(),
        "thread_env": {var: os.environ.get(var) for var in thread_vars},
    }
