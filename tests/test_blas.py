"""The BLAS thread rule: one thread below THREADED_MIN_N, restored after."""

import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest
import scipy

from kiim import PairedDataset, blas, infer_direction, rank_ablation, scoring
from kiim.bench import run_tasks

needs_blas = pytest.mark.skipif(not blas.thread_counts(),
                                reason="no OpenBLAS thread control found")


@pytest.fixture
def two_threads():
    """Every found OpenBLAS copy at 2 threads, whatever the core count."""
    before = blas.thread_counts()
    for _, set_ in blas._CONTROLS:
        set_(2)
    yield (2,) * len(before)
    for (_, set_), count in zip(blas._CONTROLS, before):
        set_(count)


def _recording_setters(monkeypatch):
    """Forward every setter call to the library and record its argument."""
    calls = [[] for _ in blas._CONTROLS]

    def spy(set_, record):
        def set_and_record(count):
            record.append(count)
            set_(count)
        return set_and_record

    monkeypatch.setattr(blas, "_CONTROLS", tuple(
        (get, spy(set_, record)) for (get, set_), record in zip(blas._CONTROLS, calls)))
    return calls


def _dataset(n):
    rng = np.random.default_rng(0)
    xs = rng.standard_normal(n)
    return PairedDataset(xs, np.tanh(xs) + 0.3 * rng.standard_normal(n))


def test_finds_both_wheel_openblas_copies():
    wheel_libs = [Path(package.__file__).parent.parent / f"{package.__name__}.libs"
                  for package in (np, scipy)]
    if not all(any(libs.glob("libscipy_openblas*.so")) for libs in wheel_libs):
        pytest.skip("numpy or scipy does not ship the wheel's OpenBLAS")
    assert len(blas.thread_counts()) == 2


@needs_blas
def test_small_n_runs_on_one_thread_and_restores(two_threads):
    with blas.threads_for(100):
        assert blas.thread_counts() == (1,) * len(two_threads)
    assert blas.thread_counts() == two_threads
    with pytest.raises(RuntimeError):
        with blas.threads_for(blas.THREADED_MIN_N - 1):
            assert blas.thread_counts() == (1,) * len(two_threads)
            raise RuntimeError("inside")
    assert blas.thread_counts() == two_threads


@needs_blas
def test_large_n_keeps_the_inherited_count(two_threads, monkeypatch):
    calls = _recording_setters(monkeypatch)
    for n in (blas.THREADED_MIN_N, 5000):
        with blas.threads_for(n):
            assert blas.thread_counts() == two_threads
    assert all(record == [] for record in calls)


@needs_blas
def test_no_controls_is_a_no_op(two_threads, monkeypatch):
    getters = [get for get, _ in blas._CONTROLS]
    monkeypatch.setattr(blas, "_CONTROLS", ())
    with blas.threads_for(100):
        assert [get() for get in getters] == list(two_threads)
    assert blas.thread_counts() == ()


@needs_blas
def test_infer_direction_scores_small_n_on_one_thread(two_threads, monkeypatch):
    calls = _recording_setters(monkeypatch)
    seen = []
    score = scoring.direction_score

    def spy(*args):
        seen.append(blas.thread_counts())
        return score(*args)

    monkeypatch.setattr(scoring, "direction_score", spy)
    infer_direction(_dataset(100), "KIIM")
    assert seen == [(1,) * len(two_threads)] * 2
    assert all(record == [1, 2] for record in calls)
    # IGCI is cheap enough to take at the threshold, where nothing is pinned.
    seen.clear()
    infer_direction(_dataset(blas.THREADED_MIN_N), "IGCIUniform")
    assert seen == [two_threads] * 2
    assert all(record == [1, 2] for record in calls)


@needs_blas
def test_rank_ablation_scores_small_n_on_one_thread(two_threads, monkeypatch):
    seen = []
    spectrum = scoring.sym_eig

    def spy(*args):
        seen.append(blas.thread_counts())
        return spectrum(*args)

    monkeypatch.setattr(scoring, "sym_eig", spy)
    rank_ablation(_dataset(60), 3)
    assert seen == [(1,) * len(two_threads)] * 2
    assert blas.thread_counts() == two_threads


def _threads_after_decision(n):
    """Pool task: a KIIM decision at n, then the counts and the OS threads."""
    infer_direction(_dataset(n), "KIIM")
    return blas.thread_counts(), len(os.listdir("/proc/self/task"))


def _counts_inside(n):
    """Pool task: the counts seen inside ``threads_for(n)``."""
    with blas.threads_for(n):
        return blas.thread_counts()


@needs_blas
@pytest.mark.skipif(not Path("/proc/self/task").is_dir()
                    or multiprocessing.get_start_method() != "fork",
                    reason="needs /proc/self/task and forked pool workers")
def test_pool_workers_score_small_n_without_blas_helpers(two_threads):
    ones = (1,) * len(two_threads)
    assert run_tasks([100] * 4, _threads_after_decision, jobs=2) == [(ones, 1)] * 4
    assert blas.thread_counts() == two_threads


@needs_blas
def test_pool_workers_score_large_n_on_the_parents_counts(two_threads):
    ones = (1,) * len(two_threads)
    results = run_tasks([100, blas.THREADED_MIN_N, 5000, 100], _counts_inside, jobs=2)
    assert results == [ones, two_threads, two_threads, ones]
    assert blas.thread_counts() == two_threads
