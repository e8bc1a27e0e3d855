"""BLAS thread count chosen by problem size.

numpy and scipy each load their own OpenBLAS (numpy's ``libscipy_openblas64_``
and scipy's ``libscipy_openblas``), and both start one thread per core. For
the small kernel systems of a typical pair that loses time: waking the
threads costs more than the n x n LU, solves and products gain.
``threads_for(n)`` therefore runs a score on one thread below
``THREADED_MIN_N`` and on the inherited count from there on.

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
its pools on one thread, and a worker scores below ``THREADED_MIN_N`` on the
count it inherited without calling a setter. At or above it a worker sets
the counts its parent had before the fork (``record_parent_counts``), so a
pooled score equals a serial one bit for bit.
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


#: In a pool worker, the counts of the parent before it forked the pool;
#: None in any other process.
_parent_counts: tuple[int, ...] | None = None


def record_parent_counts(counts: tuple[int, ...]) -> None:
    """Pool initializer: keep the parent's counts for n >= THREADED_MIN_N.

    It calls no setter, so a forked worker keeps the one thread it inherits.
    """
    global _parent_counts
    _parent_counts = counts


@contextmanager
def threads_for(n: int):
    """Run the body on one BLAS thread if n < THREADED_MIN_N.

    At n >= THREADED_MIN_N a pool worker runs it on its parent's counts, and
    any other process on the count it has. A library's setter is called only
    if its count differs from the target, and what was changed is restored
    on exit, exceptions included.
    """
    targets = (1,) * len(_CONTROLS) if n < THREADED_MIN_N else _parent_counts or ()
    changed = []
    for (get, set_), target in zip(_CONTROLS, targets):
        count = get()
        if count != target:
            set_(target)
            changed.append((set_, count))
    try:
        yield
    finally:
        for set_, count in changed:
            set_(count)
