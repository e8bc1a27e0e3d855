"""Monte-Carlo harness tests: the shared worker-pool runner."""

import functools
import logging
import multiprocessing
import os
import subprocess
import sys
import textwrap
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import kiim.bench
from kiim import Mechanism, MechanismSpec, Method, Noise, NumericalError, PairedDataset, \
    RunConfig, baselines, evaluate_tcep, generate, gram, infer_direction, load_tcep, \
    run_ablation, run_synthetic, scoring, table1_grid
from kiim.bench import _synthetic_trial, run_trials
from kiim.errors import attempt
from kiim.scoring import score_datasets

CELLS = [(Mechanism.ANM1, Noise.GAUSSIAN), (Mechanism.MNM2, Noise.UNIFORM)]


def _spy_pools(monkeypatch, **pool_kwargs):
    """Make ``kiim.bench`` open its pools with ``pool_kwargs``; returns the list
    that records each pool's ``max_workers``."""
    opened = []

    class Spy(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            opened.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(kiim.bench, "ProcessPoolExecutor", functools.partial(Spy, **pool_kwargs))
    return opened


def _one_outcome(fn, *args):
    """A task function with one label: ``fn(*args)`` as its one outcome."""
    return ((fn(*args), None),)


def _single(entries):
    """The one outcome of each entry of one-label tasks."""
    return [outcome for (outcome,) in entries]


def test_run_trials_keeps_task_order_on_a_pool():
    tasks = [(("",), _one_outcome, abs, t) for t in range(-9, 10)]
    expected = [(abs(t), None) for t in range(-9, 10)]
    assert _single(run_trials(tasks, jobs=1)) == expected
    assert _single(run_trials(tasks, jobs=2)) == expected


def test_run_trials_opens_no_more_workers_than_tasks(monkeypatch):
    opened = _spy_pools(monkeypatch)
    assert _single(run_trials([(("",), _one_outcome, abs, -1)], jobs=2)) == [(1, None)]
    assert opened == []
    assert _single(run_trials([(("",), _one_outcome, abs, t) for t in (-1, 2, -3)],
                              jobs=8)) == [(1, None), (2, None), (3, None)]
    assert opened == [3]


@pytest.mark.parametrize("run", ["synthetic", "ablation", "tcep"])
def test_each_run_call_opens_one_pool(monkeypatch, tcep_dir, run):
    opened = _spy_pools(monkeypatch)
    if run == "synthetic":
        assert len(run_synthetic(CELLS, [Method.KIIM, Method.ANM], trials=2, n=30, jobs=2)) == 4
    elif run == "ablation":
        assert len(run_ablation(CELLS, d_max=1, trials=2, n=30, jobs=2)) == 4
    else:
        pairs = [p for p in load_tcep(tcep_dir) if p.id <= 4]
        evaluate_tcep(pairs, [Method.IGCI_UNIFORM, Method.IGCI_GAUSS], jobs=2)
    assert opened == [2]


def test_synthetic_parallel_run_matches_serial():
    cells = [(Mechanism.ANM1, Noise.GAUSSIAN), (Mechanism.MNM2, Noise.UNIFORM)]
    methods = [Method.KIIM, Method.IGCI_UNIFORM]
    serial = run_synthetic(cells, methods, trials=8, n=60, seed=5, jobs=1)
    parallel = run_synthetic(cells, methods, trials=8, n=60, seed=5, jobs=2)
    assert len(serial) == 4
    assert serial == parallel


def test_ablation_parallel_run_matches_serial():
    serial = run_ablation(CELLS, d_max=2, trials=8, n=60, seed=5, jobs=1)
    parallel = run_ablation(CELLS, d_max=2, trials=8, n=60, seed=5, jobs=2)
    assert len(serial) == 6
    assert serial == parallel


def test_forked_workers_inherit_the_numpy_modules_a_trial_imports():
    # The test process has numpy.ma and numpy.random already, so only a fresh
    # interpreter shows whether each worker would import them again.
    probe = textwrap.dedent("""
        import multiprocessing, sys
        from kiim.bench import run_trials

        def loaded():
            return ([name for name in ("numpy.ma", "numpy.random") if name in sys.modules], None),

        print(multiprocessing.get_start_method())
        print(run_trials([(("a",), loaded), (("b",), loaded)], jobs=2))
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    method, outcomes = result.stdout.splitlines()
    if method != "fork":
        pytest.skip(f"workers start by {method}, not fork")
    assert outcomes == str([((["numpy.ma", "numpy.random"], None),)] * 2)


def test_pooled_run_under_spawn_matches_serial(monkeypatch):
    methods = [Method.KIIM, Method.IGCI_UNIFORM]
    serial = run_synthetic(CELLS, methods, trials=2, n=30, seed=3, jobs=1)
    # Each spawned worker starts fresh: it imports numpy and loads scipy's LAPACK itself.
    opened = _spy_pools(monkeypatch, mp_context=multiprocessing.get_context("spawn"))
    assert run_synthetic(CELLS, methods, trials=2, n=30, seed=3, jobs=2) == serial
    assert opened == [2]


def test_repeated_ablation_cells_are_scored_once():
    cell, other = (Mechanism.ANM1, Noise.GAUSSIAN), (Mechanism.MNM2, Noise.UNIFORM)
    ablation = run_ablation([other, other, cell], d_max=1, trials=2, n=30)
    assert [(r.mechanism, r.noise, r.discarded_top) for r in ablation] == [
        (*other, 0), (*other, 1), (*cell, 0), (*cell, 1)]


@pytest.mark.parametrize("run", ["synthetic", "ablation"])
def test_failed_trials_are_counted_and_logged_once(monkeypatch, caplog, run):
    def fail(*args):
        raise NumericalError("singular ridge system")

    trials, seed = 3, 4
    cell = (Mechanism.ANM1, Noise.GAUSSIAN)
    with caplog.at_level(logging.WARNING, logger="kiim.bench"):
        if run == "synthetic":
            monkeypatch.setattr(scoring, "_decision", fail)
            results = run_synthetic([cell], [Method.KIIM], trials=trials, n=30, seed=seed)
            suffix = " KIIM"
        else:
            monkeypatch.setattr(kiim.bench, "rank_ablation", fail)
            results = run_ablation([cell], d_max=1, trials=trials, n=30, seed=seed)
            suffix = ""
    assert [(r.errors, r.correct) for r in results] == [(trials, 0)] * len(results)
    failed = [(r.levelno, r.getMessage()) for r in caplog.records
              if "trial failed" in r.getMessage()]
    assert failed == [(logging.WARNING, f"trial failed: ANM1/Gaussian seed {seed ^ t}{suffix}: "
                       "singular ridge system") for t in range(trials)]


def test_one_methods_failures_stay_in_its_own_rows_on_a_pool(monkeypatch, caplog):
    methods, trials, seed = [Method.KIIM, Method.RW_KIIM], 3, 4
    clean = run_synthetic(CELLS, methods, trials=trials, n=30, seed=seed, jobs=1)
    infer = scoring._decision

    def fail_rw_kiim(dataset, method, *args):
        if method is Method.RW_KIIM:
            raise NumericalError("singular ridge system")
        return infer(dataset, method, *args)

    monkeypatch.setattr(scoring, "_decision", fail_rw_kiim)
    # Forked workers inherit the patched module; a fresh worker would not.
    opened = _spy_pools(monkeypatch, mp_context=multiprocessing.get_context("fork"))
    with caplog.at_level(logging.WARNING, logger="kiim.bench"):
        results = run_synthetic(CELLS, methods, trials=trials, n=30, seed=seed, jobs=2)
    assert opened == [2]
    assert [r.method for r in results] == methods * len(CELLS)
    assert results[0::2] == clean[0::2]
    assert all(r.errors == 0 for r in results[0::2])
    assert [(r.errors, r.correct) for r in results[1::2]] == [(trials, 0)] * len(CELLS)
    failed = [(r.levelno, r.getMessage()) for r in caplog.records
              if "trial failed" in r.getMessage()]
    # One task per trial: the warnings come in (trial, cell) order.
    assert failed == [(logging.WARNING, f"trial failed: {cell} seed {seed ^ t} RwKIIM: "
                       "singular ridge system")
                      for t in range(trials) for cell in ("ANM1/Gaussian", "MNM2/Uniform")]


def test_a_synthetic_task_scores_one_dataset_with_every_method(monkeypatch):
    sizes = []
    run_trials = kiim.bench.run_trials
    monkeypatch.setattr(kiim.bench, "run_trials",
                        lambda tasks, jobs: sizes.append(len(tasks)) or run_trials(tasks, jobs))
    results = run_synthetic(table1_grid(), list(Method), trials=8, n=10)
    assert len(results) == 10 * 6
    # One task per trial, each scoring all ten cells' datasets.
    assert sizes == [8]


# KIIM and Rw-KIIM apart, and KIIM repeated: the repeat is scored once.
_MIXED_ORDER = [Method.KCDC, Method.KIIM, Method.IGCI_GAUSS, Method.RW_KIIM, Method.KIIM]


@pytest.mark.parametrize("jobs", [1, 2])
def test_results_do_not_depend_on_method_order(tcep_dir, jobs):
    methods = list(dict.fromkeys(_MIXED_ORDER))
    alone = {m: run_synthetic(CELLS, [m], trials=3, n=30, seed=2) for m in methods}
    assert run_synthetic(CELLS, _MIXED_ORDER, trials=3, n=30, seed=2, jobs=jobs) == tuple(
        alone[m][k] for k in range(len(CELLS)) for m in methods)
    pairs = [p for p in load_tcep(tcep_dir) if p.id <= 6]
    alone = {m: evaluate_tcep(pairs, [m]) for m in methods}
    report = evaluate_tcep(pairs, _MIXED_ORDER, jobs=jobs)
    assert report.accuracies == tuple(alone[m].accuracies[0] for m in methods)
    assert report.results == tuple(sorted((r for m in methods for r in alone[m].results),
                                          key=lambda r: (r.pair_id, r.method.value)))


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failed_dataset_counts_against_every_method(monkeypatch, caplog, jobs):
    methods, trials, seed = [Method.KIIM, Method.IGCI_GAUSS, Method.RW_KIIM], 3, 4
    cell, bad = (Mechanism.ANM1, Noise.GAUSSIAN), seed ^ 1
    clean = run_synthetic([cell], methods, trials=trials, n=30, seed=seed)
    bad_hits = [r.correct for r in run_synthetic([cell], methods, trials=1, n=30, seed=bad)]
    generate = kiim.bench.generate

    def fail_one_seed(spec):
        if spec.seed == bad:
            raise NumericalError("generator failed")
        return generate(spec)

    monkeypatch.setattr(kiim.bench, "generate", fail_one_seed)
    _spy_pools(monkeypatch, mp_context=multiprocessing.get_context("fork"))
    with caplog.at_level(logging.WARNING, logger="kiim.bench"):
        results = run_synthetic([cell], methods, trials=trials, n=30, seed=seed, jobs=jobs)
    assert [r.method for r in results] == methods
    assert [(r.errors, r.correct) for r in results] == [
        (1, r.correct - hit) for r, hit in zip(clean, bad_hits)]
    failed = [(r.levelno, r.getMessage()) for r in caplog.records
              if "trial failed" in r.getMessage()]
    assert failed == [(logging.WARNING, f"trial failed: ANM1/Gaussian seed {bad} {m.value}: "
                       "generator failed") for m in methods]


@pytest.mark.parametrize("cells, message", [
    ([(Mechanism.ANM2, Noise.GAUSSIAN)], "cell 'ANM2:Gaussian' is not in the benchmark grid"),
    ([], "empty cell selection"),
], ids=["off-grid", "empty"])
@pytest.mark.parametrize("run", ["synthetic", "ablation"])
def test_runs_reject_cells_outside_the_grid_before_any_trial(monkeypatch, run, cells, message):
    ran = []
    run_trials = kiim.bench.run_trials
    monkeypatch.setattr(kiim.bench, "run_trials",
                        lambda tasks, *args: ran.extend(tasks) or run_trials(tasks, *args))
    with pytest.raises(ValueError, match=message):
        if run == "synthetic":
            run_synthetic(cells, [Method.KIIM], trials=2, n=30)
        else:
            run_ablation(cells, d_max=1, trials=2, n=30)
    assert ran == []


# Three cells whose generators all draw the cause first from the trial's seed.
_TRIAL_CELLS = [(Mechanism.ANM1, Noise.GAUSSIAN), (Mechanism.MNM2, Noise.UNIFORM),
                (Mechanism.CNM, Noise.GAUSSIAN)]


def _hex(outcomes):
    """Each ``(decision, error)`` as float hex scores and the direction, or the error."""
    return [error if d is None else (d.score_xy.score.hex(), d.score_yx.score.hex(), d.direction)
            for d, error in outcomes]


def _per_dataset(outcomes, methods):
    """``score_datasets``'s flat outcomes, one tuple per dataset."""
    return [outcomes[k:k + len(methods)] for k in range(0, len(outcomes), len(methods))]


def _alone(dataset, methods):
    """``_hex`` of each method's decision on a fresh copy of ``dataset``, scored by itself."""
    copy = PairedDataset(dataset.xs.copy(), dataset.ys.copy())
    return _hex([(infer_direction(copy, method), None) for method in methods])


def _attempted_alone(dataset, methods):
    """``_alone``, with a failing method's message in its place."""
    copy = PairedDataset(dataset.xs.copy(), dataset.ys.copy())
    return _hex([attempt((infer_direction, copy, method)) for method in methods])


def test_every_score_of_a_trial_is_the_score_of_its_dataset_alone():
    methods = list(Method)
    for t in range(3):
        datasets = [generate(MechanismSpec(mechanism=m, noise=z, n=60, seed=9 ^ t))
                    for m, z in table1_grid()]
        together = _per_dataset(score_datasets(datasets, methods, RunConfig()), methods)
        assert len(together) == len(datasets)
        for dataset, outcomes in zip(datasets, together):
            assert _hex(outcomes) == _alone(dataset, methods)


def _count_calls(monkeypatch, module, names):
    """Record the arguments of each call to the functions ``names`` of ``module``."""
    built = {name: [] for name in names}
    for name, calls in built.items():
        def spy(*args, _original=getattr(module, name), _calls=calls):
            _calls.append(args)
            return _original(*args)

        monkeypatch.setattr(module, name, spy)
    return built


def _count_shared_work(monkeypatch):
    """Record the Grams and the Rw-KIIM coefficient matrices that KIIM and
    Rw-KIIM build."""
    return _count_calls(monkeypatch, scoring, ("gram", "reweighted_cond_matrix"))


def _count_cause_parts(monkeypatch):
    """Record KCDC's coefficient solves, ANM's (Gram, factor) fits and every
    ridge factor that KCDC and ANM make."""
    return _count_calls(monkeypatch, baselines,
                        ("_kcdc_coeffs", "_anm_fit", "ridge_factorization"))


def test_a_trial_builds_its_shared_cause_work_once(monkeypatch):
    """Three cells with one cause: one Gram and one coefficient matrix for the
    cause, one of each for every effect."""
    built = _count_shared_work(monkeypatch)
    _synthetic_trial(_TRIAL_CELLS, 40, 5, (Method.KIIM, Method.RW_KIIM), RunConfig())
    assert {name: len(calls) for name, calls in built.items()} == {
        "gram": 1 + 3, "reweighted_cond_matrix": 1 + 3}


def test_a_trial_makes_kcdc_and_anm_cause_parts_once(monkeypatch):
    """Three cells with one cause: KCDC factors and solves the cause's system
    and builds the cause's output Gram once, and ANM factors the cause's Gram
    once; every effect, the cause in the other direction, gets its own."""
    config = RunConfig()
    built = _count_cause_parts(monkeypatch)
    grams = _count_calls(monkeypatch, baselines, ("gram",))["gram"]
    _synthetic_trial(_TRIAL_CELLS, 40, 5, (Method.KCDC, Method.ANM), config)
    assert {name: len(calls) for name, calls in built.items()} == {
        "_kcdc_coeffs": 1 + 3, "_anm_fit": 1 + 3, "ridge_factorization": 2 * (1 + 3)}
    assert [spec for spec, _ in grams].count(config.kcdc_output_kernel) == 1 + 3


def test_a_trial_whose_causes_differ_scores_each_dataset_as_alone(monkeypatch):
    generate = kiim.bench.generate

    def perturb_mnm2(spec):
        dataset = generate(spec)
        if spec.mechanism is not Mechanism.MNM2:
            return dataset
        xs = dataset.xs.copy()
        xs[0] = np.nextafter(xs[0], np.inf)
        return PairedDataset(xs, dataset.ys)

    monkeypatch.setattr(kiim.bench, "generate", perturb_mnm2)
    seen = []
    score = kiim.bench.score_datasets

    def spy(datasets, methods, config):
        outcomes = score(datasets, methods, config)
        seen.append((datasets, _per_dataset(outcomes, methods)))
        return outcomes

    monkeypatch.setattr(kiim.bench, "score_datasets", spy)
    built = {**_count_shared_work(monkeypatch), **_count_cause_parts(monkeypatch)}
    methods = [Method.RW_KIIM, Method.ANM, Method.KCDC, Method.KIIM]
    results = run_synthetic(_TRIAL_CELLS, methods, trials=2, n=40, seed=5)
    # Only the outer cells share a cause, and they are no neighbours: each of
    # the three datasets builds its own two Grams, two coefficient matrices,
    # two KCDC solves and two ANM fits.
    assert {name: len(calls) for name, calls in built.items()} == {
        "gram": 2 * 3 * 2, "reweighted_cond_matrix": 2 * 3 * 2, "_kcdc_coeffs": 2 * 3 * 2,
        "_anm_fit": 2 * 3 * 2, "ridge_factorization": 2 * 2 * 3 * 2}
    monkeypatch.setattr(kiim.bench, "score_datasets", score)
    assert len(seen) == 2
    for datasets, outcomes in seen:
        anm1, mnm2, cnm = (ds.xs.tobytes() for ds in datasets)
        assert anm1 == cnm != mnm2
        for dataset, per_method in zip(datasets, outcomes):
            assert _hex(per_method) == _alone(dataset, methods)
    assert results == tuple(r for cell in _TRIAL_CELLS
                            for r in run_synthetic([cell], methods, trials=2, n=40, seed=5))


@pytest.mark.parametrize("method, helper", [(Method.KCDC, "_kcdc_coeffs"),
                                            (Method.ANM, "_anm_fit")], ids=["KCDC", "ANM"])
def test_a_failed_shared_cause_part_is_not_cached(monkeypatch, method, helper):
    """When the shared cause's part raises, nothing is cached: every cell
    tries it again and reports the message it reports alone, and the other
    methods' outcomes do not change."""
    config, methods = RunConfig(), list(Method)
    datasets = [generate(MechanismSpec(mechanism=m, noise=z, n=40, seed=5))
                for m, z in _TRIAL_CELLS]
    assert len({ds.xs.tobytes() for ds in datasets}) == 1
    clean = _per_dataset(score_datasets(datasets, methods, config), methods)
    cause = datasets[0].standardized("xs")
    # The first argument each helper gets for the shared cause.
    mark = gram(config.kcdc_input_kernel, cause) if method is Method.KCDC else cause
    original, tries = getattr(baselines, helper), []

    def fail_on_the_shared_cause(first, *args):
        if np.array_equal(first, mark):
            tries.append(first)
            raise NumericalError("singular cause system")
        return original(first, *args)

    monkeypatch.setattr(baselines, helper, fail_on_the_shared_cause)
    together = _per_dataset(score_datasets(datasets, methods, config), methods)
    assert len(tries) == len(datasets)
    k = methods.index(method)
    for dataset, outcomes, before in zip(datasets, together, clean):
        assert _hex(outcomes) == _attempted_alone(dataset, methods)
        assert _hex(outcomes)[k] == "singular cause system"
        assert _hex(outcomes[:k] + outcomes[k + 1:]) == _hex(before[:k] + before[k + 1:])


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failed_draw_fails_only_its_own_cells_rows(monkeypatch, caplog, jobs):
    methods, trials, seed = [Method.KIIM, Method.IGCI_GAUSS], 3, 4
    bad = seed ^ 2
    clean = run_synthetic(_TRIAL_CELLS, methods, trials=trials, n=30, seed=seed)
    bad_hits = [r.correct for r in run_synthetic([_TRIAL_CELLS[1]], methods, trials=1, n=30,
                                                 seed=bad)]
    generate = kiim.bench.generate

    def fail_one_draw(spec):
        if spec.mechanism is Mechanism.MNM2 and spec.seed == bad:
            raise NumericalError("generator failed")
        return generate(spec)

    monkeypatch.setattr(kiim.bench, "generate", fail_one_draw)
    _spy_pools(monkeypatch, mp_context=multiprocessing.get_context("fork"))
    with caplog.at_level(logging.WARNING, logger="kiim.bench"):
        results = run_synthetic(_TRIAL_CELLS, methods, trials=trials, n=30, seed=seed,
                                jobs=jobs)
    assert results[:2] == clean[:2] and results[4:] == clean[4:]
    assert [(r.errors, r.correct) for r in results[2:4]] == [
        (1, r.correct - hit) for r, hit in zip(clean[2:4], bad_hits)]
    failed = [r.getMessage() for r in caplog.records if "trial failed" in r.getMessage()]
    assert failed == [f"trial failed: MNM2/Uniform seed {bad} {m.value}: generator failed"
                      for m in methods]


def test_a_two_cell_trial_holds_at_most_five_n_by_n_arrays(traced_peak):
    """A trial keeps its shared cause's Gram and Rw-KIIM coefficients from one
    dataset to the next: one n x n array more than one dataset's four, with
    the same 1 MB for vectors and Gram row blocks."""
    n = 1000
    outcomes = []
    peak = traced_peak(lambda: outcomes.extend(
        _synthetic_trial(_TRIAL_CELLS[:2], n, 0, tuple(Method), RunConfig())))
    assert peak < 5 * n * n * 8 + 1e6
    assert [error for _, error in outcomes] == [None] * 2 * len(Method)
