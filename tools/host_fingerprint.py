"""Report the host that bit-level results hold on: the CPU, numpy's version
and the SIMD features it found, its BLAS build, and the BLAS core in use.

Usage::

    python tools/host_fingerprint.py

numpy picks some float64 kernels (``arctan2``, ``exp``, ``log``, ...) by
the CPU features it finds, and a ``DYNAMIC_ARCH`` OpenBLAS picks its
kernels by the CPU at run time, so two trees compared bit for bit agree
on hosts with the same fingerprint.  The BLAS core is read through
``scipy_openblas_get_corename64_`` where the bundled OpenBLAS exports it,
and is ``None`` where it does not.  Run as a script, this prints the
fingerprint as JSON; ``check_stats.py``, ``cli_bytes.py`` and
``kernel_times.py`` print it as one line on standard error.
"""

from __future__ import annotations

import ctypes
import json
import platform
import sys
from pathlib import Path

import numpy as np

#: OpenBLAS entry points that name the core picked at run time
CORENAME = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename_",
            "openblas_get_corename64_", "openblas_get_corename")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_core(blas: dict):
    """The core name the loaded OpenBLAS reports, or None."""
    numpy_dir = Path(np.__file__).resolve().parent
    candidates = [*sorted((numpy_dir.parent / "numpy.libs").glob("*openblas*")),
                  *sorted(Path(blas.get("lib directory", "")).glob("*openblas*.so*"))]
    for path in candidates:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in CORENAME:
            get = getattr(lib, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return None


def fingerprint() -> dict:
    from numpy._core._multiarray_umath import __cpu_features__

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd_found": [name for name, found in __cpu_features__.items() if found],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_core": _blas_core(blas),
    }


def report(stream=sys.stderr) -> None:
    """One line: the fingerprint, for a tool's standard error."""
    print(f"host: {json.dumps(fingerprint())}", file=stream, flush=True)


if __name__ == "__main__":
    print(json.dumps(fingerprint(), indent=1))
