"""BLAS thread count chosen by problem size.

numpy and scipy each load their own OpenBLAS (numpy's ``libscipy_openblas64_``
and scipy's ``libscipy_openblas``), and both start one thread per core. For
the small kernel systems of a typical pair that loses time: waking the
threads costs more than the n x n LU, solves and products gain.
``threads_for(n)`` therefore runs a score on one thread below
``THREADED_MIN_N`` and leaves the inherited count alone from there on.

The counts are set at runtime through each library's exported
``*_set_num_threads`` symbol, found with ``ctypes`` among the libraries that
are already loaded (the mechanism threadpoolctl uses);
``OPENBLAS_NUM_THREADS`` is read only when a library loads. Where a library
or symbol is not found, nothing is changed for it. The count is
process-wide, so scores should not run concurrently from several threads of
one process.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from pathlib import Path

import numpy
import scipy.linalg  # loads scipy's OpenBLAS before the lookup below

#: Smallest n scored on the inherited thread count; below it, one thread.
#: On 2 cores one thread wins below it and two win at n = 2000; in between
#: they are level within run-to-run noise. Timings are in docs/formats.md.
THREADED_MIN_N = 1000


def _find_controls():
    """(get, set) thread-count functions of each loaded OpenBLAS copy."""
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return ()
    controls = []
    for package, suffix in ((numpy, "64_"), (scipy, "")):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("libscipy_openblas*.so")):
            try:
                lib = ctypes.CDLL(str(path), mode=noload)
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
                set_ = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            controls.append((get, set_))
    return tuple(controls)


_CONTROLS = _find_controls()


def thread_counts() -> tuple[int, ...]:
    """Current thread count of each found OpenBLAS copy."""
    return tuple(get() for get, _ in _CONTROLS)


@contextmanager
def threads_for(n: int):
    """Run the body on one BLAS thread if n < THREADED_MIN_N.

    Each library's previous count is restored on exit, exceptions included.
    At n >= THREADED_MIN_N nothing is changed.
    """
    controls = _CONTROLS if n < THREADED_MIN_N else ()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)
