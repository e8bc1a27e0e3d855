"""Every score runs on one BLAS thread.

numpy and scipy each load their own OpenBLAS (numpy's ``libscipy_openblas64_``
and scipy's ``libscipy_openblas``), and both start one thread per core. Up
to n = 1200 that loses time or breaks even on the kernel systems of a pair:
waking the threads costs more than the n x n LU, solves and products gain.
``one_thread()`` therefore runs every score on one thread of each copy, so
its bits also do not depend on the core count. At n = 2000 two threads are
a fifth faster, a cost accepted because ``tcep`` subsamples pairs to 1000
points by default; the timings are in docs/formats.md.

The counts are set at runtime through each library's exported
``*_set_num_threads`` symbol, found with ``ctypes`` among the libraries that
are already loaded (the mechanism threadpoolctl uses);
``OPENBLAS_NUM_THREADS`` is read only when a library loads. Where a library
or symbol is not found, nothing is changed for it. The count is
process-wide, so scores should not run concurrently from several threads of
one process.

A setter is called only when a count must change. OpenBLAS stops its
helper threads at every fork, and the first setter call in the child starts
them again, where they busy-spin beside the worker. So ``kiim.bench`` forks
its pools inside ``one_thread()``: a worker inherits one thread and scores
on it without calling a setter.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from pathlib import Path

import numpy
import scipy.linalg  # loads scipy's OpenBLAS before the lookup below

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
def one_thread():
    """Run the body on one thread of each found OpenBLAS copy.

    A library's setter is called only if its count is not already 1, and
    what was changed is restored on exit, exceptions included.
    """
    changed = []
    for get, set_ in _CONTROLS:
        count = get()
        if count != 1:
            set_(1)
            changed.append((set_, count))
    try:
        yield
    finally:
        for set_, count in changed:
            set_(count)
