"""The BLAS thread count every GEMM in :mod:`repro.nn` runs on.

numpy's wheel bundles OpenBLAS (``scipy-openblas``), which starts one
thread per core unless told otherwise.  That costs the engine twice:

* **bits** — OpenBLAS splits long inner products across threads, so a
  GEMM's rounding depends on the thread count (LeNet differs from
  ``conv2``, K=500, onward by up to 3.3e-6 between 1 and 2 threads);
* **time** — the engine's GEMMs are small stacked per-sample calls that
  gain nothing from threads, and a threaded call after an idle gap
  waits ~24 ms for its workers to wake.

So the package pins the count to :data:`PINNED_THREADS` the first time
it compiles or runs a network (:func:`blas_threads`).  Only this
process's OpenBLAS is touched, through ``ctypes`` on the library numpy
loaded (``numpy.libs/libscipy_openblas64_*.so``): the
``OPENBLAS_NUM_THREADS`` variable works only before numpy is imported.
A numpy without that library or symbol keeps its own count and reports
:data:`UNPINNED`.  The first pin runs under a module lock, so racing
first calls pin once.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading

import numpy as np


__all__ = ["PINNED_THREADS", "UNPINNED", "blas_threads"]

#: Threads every GEMM of the package runs on once pinned.
PINNED_THREADS = 1
#: Recorded when numpy's OpenBLAS cannot be found or has no setter.
UNPINNED = "unpinned"

_SETTER = "scipy_openblas_set_num_threads64_"
_LIBRARY = os.path.join(os.path.dirname(np.__file__), os.pardir,
                        "numpy.libs", "libscipy_openblas64_*.so")

#: ``None`` until the first pin attempt, then its outcome.
_pinned: int | str | None = None
_PIN_LOCK = threading.Lock()


def _openblas():
    """numpy's bundled OpenBLAS (already loaded, so this is a handle to
    the same copy), or ``None``."""
    for path in sorted(glob.glob(_LIBRARY)):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _pin() -> int | str:
    global _pinned
    with _PIN_LOCK:
        if _pinned is None:
            setter = getattr(_openblas(), _SETTER, None)
            if setter is not None:
                setter(ctypes.c_int(PINNED_THREADS))
            _pinned = UNPINNED if setter is None else PINNED_THREADS
        return _pinned


def blas_threads() -> int | str:
    """Pin numpy's OpenBLAS on first call; return the count it runs on
    (:data:`PINNED_THREADS`, or :data:`UNPINNED`)."""
    pinned = _pinned
    return pinned if pinned is not None else _pin()
