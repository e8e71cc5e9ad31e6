"""Locating the program in the checkout, pinning BLAS threads, and the
environment record every result carries.

Only the standard library is imported here, because ``pin_blas_threads`` must
run before numpy is first imported.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One BLAS thread ran as fast as two at these shapes on a 2-core box, and it
# keeps the timings free of thread scheduling noise.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout does not hold the program's sources."""


def pin_blas_threads() -> None:
    """Pin BLAS threads for this process and every child it starts."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def use_checkout_sources() -> None:
    """Import ``residiff`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "residiff" / "__init__.py").is_file():
        raise MissingProgram(f"no residiff sources under {SRC}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import residiff

    if Path(residiff.__file__).resolve().parent != SRC / "residiff":
        raise MissingProgram(f"residiff imported from {residiff.__file__}, not {SRC}")


def _blas_threads_in_effect():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record(seed: int) -> dict:
    """Machine and library facts a result is only comparable under."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_effect": _blas_threads_in_effect(),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }
