import pytest

from kiim import blas
from tcep_fixture import build_fixture


@pytest.fixture(scope="session")
def tcep_dir(tmp_path_factory):
    """Benchmark-format directory with 108 pairs and the ten exclusions."""
    return build_fixture(tmp_path_factory.mktemp("tcep"))


@pytest.fixture(autouse=True)
def blas_threads_unchanged():
    """A test must leave every OpenBLAS copy on the thread count it found."""
    getters = [get for get, _ in blas._CONTROLS]
    before = [get() for get in getters]
    yield
    assert [get() for get in getters] == before
