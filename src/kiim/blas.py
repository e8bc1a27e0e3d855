"""kiim's binding to LAPACK, and every score on one BLAS thread.

``lapack`` is scipy's compiled LAPACK module, loaded from its file without
importing the ``scipy.linalg`` package, whose ``__init__`` (through scipy's
``array_api_compat``) imports every lazy numpy submodule, ``numpy.f2py`` and
``numpy.testing`` included, and so doubles the start of a command.

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
one process. Two measured hazards make that a rule for the solves as well:

* ``lapack.dgetrs`` shifts the caller's pivot array to 1-based indices in
  place for the length of the call. Two threads that solve with one shared
  ``(lu, piv)``, even into separate outputs, got values off by 1.4 to 1.7
  times the largest entry at n = 100, 300 and 1000 on one OpenBLAS thread
  (and by up to 460 times on two); with a private pivot copy per thread the
  results were exact.
* A solve split by column blocks is not always one call bit for bit: a
  split matched at n <= 512 and at n = 1000, but at n = 700, 777 and 999
  only a split at column 384 did.

So kiim never solves one factor from two threads and never splits a solve.

A setter is called only when a count must change. OpenBLAS stops its
helper threads at every fork, and the first setter call in the child starts
them again, where they busy-spin beside the worker. So ``kiim.bench`` forks
its pools inside ``one_thread()``: a worker inherits one thread and scores
on it without calling a setter.

The ``kiim`` command goes further: ``kiim.cli`` loads both copies with
``OPENBLAS_NUM_THREADS`` at 1 unless the caller set it, so no helper thread
starts and ``one_thread()`` never calls a setter. A library caller loads
them at its own count. There a pooled run still restarts the caller's
helpers, when ``one_thread()`` restores the count after the fork, and they
spin for a moment: the 0.3 s after each pooled ``run_synthetic`` call took
about 250 ms of the caller's CPU on a 2-core machine (docs/formats.md).
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
from contextlib import contextmanager
from pathlib import Path

import numpy

_SCIPY_DIR = Path(importlib.util.find_spec("scipy").origin).parent


def _load_lapack(linalg_dir: Path):
    """scipy's compiled LAPACK module, loaded from its file in ``linalg_dir``,
    or ``scipy.linalg.lapack`` where no ``_flapack`` file exists.

    The routines are the very objects ``scipy.linalg.lapack`` re-exports,
    whichever of the two a process loads first: CPython initializes a
    single-phase extension module like this one once per file and name, and
    later loads reuse it.
    """
    name = "scipy.linalg._flapack"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = linalg_dir / f"_flapack{suffix}"
        if path.is_file():
            loader = importlib.machinery.ExtensionFileLoader(name, str(path))
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(name, loader, origin=str(path)))
            loader.exec_module(module)
            return module
    from scipy.linalg import lapack
    return lapack


# Also loads scipy's OpenBLAS, which _flapack links, before the lookup below.
lapack = _load_lapack(_SCIPY_DIR / "linalg")


def _find_controls():
    """(get, set) thread-count functions of each loaded OpenBLAS copy."""
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return ()
    controls = []
    for package_dir, suffix in ((Path(numpy.__file__).parent, "64_"), (_SCIPY_DIR, "")):
        libs = package_dir.parent / f"{package_dir.name}.libs"
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
