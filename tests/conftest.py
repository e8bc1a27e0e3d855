import tracemalloc
from pathlib import Path

import numpy
import pytest
import scipy

from kiim import blas
from tcep_fixture import build_fixture


@pytest.fixture(scope="session")
def tcep_dir(tmp_path_factory):
    """Benchmark-format directory with 108 pairs and the ten exclusions."""
    return build_fixture(tmp_path_factory.mktemp("tcep"))


@pytest.fixture
def both_wheel_openblas():
    """True when numpy and scipy each ship the wheel's OpenBLAS copy, so
    ``kiim.blas`` should find two thread controls."""
    wheel_libs = [Path(package.__file__).parent.parent / f"{package.__name__}.libs"
                  for package in (numpy, scipy)]
    return all(any(libs.glob("libscipy_openblas*.so")) for libs in wheel_libs)


@pytest.fixture(autouse=True)
def blas_threads_unchanged():
    """A test must leave every OpenBLAS copy on the thread count it found."""
    getters = [get for get, _ in blas._CONTROLS]
    before = [get() for get in getters]
    yield
    assert [get() for get in getters] == before


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` runs fn() and returns the peak bytes that
    tracemalloc saw allocated while it ran."""
    def measure(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
