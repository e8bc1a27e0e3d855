"""The BLAS thread rule: every score runs on one thread, and the counts the
process had are restored after, so a score does not depend on them. Also the
LAPACK module kiim calls, and its fallback."""

import multiprocessing
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack

from kiim import PairedDataset, blas, infer_direction, rank_ablation, scoring
from kiim.bench import run_trials

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


@contextmanager
def _counts_seen_by(module, name):
    """Record the thread counts at every call of ``module.name``."""
    seen = []
    original = getattr(module, name)

    def spy(*args):
        seen.append(blas.thread_counts())
        return original(*args)

    setattr(module, name, spy)
    try:
        yield seen
    finally:
        setattr(module, name, original)


def _dataset(n):
    rng = np.random.default_rng(0)
    xs = rng.standard_normal(n)
    return PairedDataset(xs, np.tanh(xs) + 0.3 * rng.standard_normal(n))


def test_finds_both_wheel_openblas_copies(both_wheel_openblas):
    if not both_wheel_openblas:
        pytest.skip("numpy or scipy does not ship the wheel's OpenBLAS")
    assert len(blas.thread_counts()) == 2


def test_lapack_falls_back_to_scipy_linalg_without_a_flapack_file(tmp_path):
    lapack = blas._load_lapack(tmp_path)
    for name in ("dlange", "dpotrf", "dpocon", "dgetrf", "dgecon", "dpotrs", "dgetrs"):
        assert getattr(lapack, name) is getattr(scipy.linalg.lapack, name)


@needs_blas
def test_small_n_runs_on_one_thread_and_restores(two_threads):
    with blas.one_thread():
        assert blas.thread_counts() == (1,) * len(two_threads)
    assert blas.thread_counts() == two_threads
    with pytest.raises(RuntimeError):
        with blas.one_thread():
            assert blas.thread_counts() == (1,) * len(two_threads)
            raise RuntimeError("inside")
    assert blas.thread_counts() == two_threads


@needs_blas
def test_every_n_scores_on_one_thread(two_threads, monkeypatch):
    calls = _recording_setters(monkeypatch)
    with _counts_seen_by(scoring, "_direction_score") as seen:
        for n in (100, 999, 1000, 5000):
            infer_direction(_dataset(n), "IGCIUniform")
    assert seen == [(1,) * len(two_threads)] * 8
    assert all(record == [1, 2] * 4 for record in calls)


@needs_blas
def test_no_controls_is_a_no_op(two_threads, monkeypatch):
    getters = [get for get, _ in blas._CONTROLS]
    monkeypatch.setattr(blas, "_CONTROLS", ())
    with blas.one_thread():
        assert [get() for get in getters] == list(two_threads)
    assert blas.thread_counts() == ()


@needs_blas
def test_infer_direction_scores_small_n_on_one_thread(two_threads, monkeypatch):
    calls = _recording_setters(monkeypatch)
    ones = (1,) * len(two_threads)
    with _counts_seen_by(scoring, "_direction_score") as seen:
        infer_direction(_dataset(100), "KIIM")
    assert seen == [ones] * 2
    assert all(record == [1, 2] for record in calls)
    # IGCI is cheap enough to take at n = 1000, which is pinned like the rest.
    with _counts_seen_by(scoring, "_direction_score") as seen:
        infer_direction(_dataset(1000), "IGCIUniform")
    assert seen == [ones] * 2
    assert all(record == [1, 2, 1, 2] for record in calls)


@needs_blas
def test_rank_ablation_scores_small_n_on_one_thread(two_threads):
    with _counts_seen_by(scoring, "sym_eig") as seen:
        rank_ablation(_dataset(60), 3)
    assert seen == [(1,) * len(two_threads)] * 2
    assert blas.thread_counts() == two_threads


def _threads_after_decision(n):
    """Pool task: a KIIM decision at n, then the counts and the OS threads."""
    infer_direction(_dataset(n), "KIIM")
    return (((blas.thread_counts(), len(os.listdir("/proc/self/task"))), None),)


def _counts_while_scoring(n):
    """Pool task: the counts each direction of an IGCI decision at n saw."""
    with _counts_seen_by(scoring, "_direction_score") as seen:
        infer_direction(_dataset(n), "IGCIUniform")
    return ((seen, None),)


@needs_blas
@pytest.mark.skipif(not Path("/proc/self/task").is_dir()
                    or multiprocessing.get_start_method() != "fork",
                    reason="needs /proc/self/task and forked pool workers")
def test_pool_workers_score_small_n_without_blas_helpers(two_threads):
    ones = (1,) * len(two_threads)
    tasks = [(("",), _threads_after_decision, n) for n in (100, 1000, 100, 100)]
    assert [outcome for (outcome,) in run_trials(tasks, jobs=2)] == [((ones, 1), None)] * 4
    assert blas.thread_counts() == two_threads


@needs_blas
def test_pool_workers_score_every_n_on_one_thread(two_threads):
    ones = (1,) * len(two_threads)
    tasks = [(("",), _counts_while_scoring, n) for n in (100, 1000, 5000, 100)]
    assert [outcome for (outcome,) in run_trials(tasks, jobs=2)] == [([ones] * 2, None)] * 4
    assert blas.thread_counts() == two_threads


@needs_blas
def test_large_n_scores_do_not_depend_on_the_starting_count(two_threads):
    dataset = _dataset(1000)

    def scores():
        decisions = [infer_direction(dataset, method) for method in ("KCDC", "ANM")]
        return [(d.score_xy.score.hex(), d.score_yx.score.hex()) for d in decisions]

    on_two = scores()
    with blas.one_thread():
        assert scores() == on_two
