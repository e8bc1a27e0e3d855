"""Monte-Carlo harness tests: the shared worker-pool runner."""

import logging

import pytest

import kiim.bench
from kiim import Mechanism, Method, Noise, NumericalError, run_ablation, run_synthetic
from kiim.bench import run_tasks


def test_run_tasks_keeps_task_order_on_a_pool():
    tasks = list(range(-9, 10))
    expected = [abs(t) for t in tasks]
    assert run_tasks(tasks, abs, jobs=1) == expected
    assert run_tasks(tasks, abs, jobs=2) == expected


def test_synthetic_parallel_run_matches_serial():
    cells = [(Mechanism.ANM1, Noise.GAUSSIAN), (Mechanism.MNM2, Noise.UNIFORM)]
    methods = [Method.KIIM, Method.IGCI_UNIFORM]
    serial = run_synthetic(cells, methods, trials=8, n=60, seed=5, jobs=1)
    parallel = run_synthetic(cells, methods, trials=8, n=60, seed=5, jobs=2)
    assert len(serial) == 4
    assert serial == parallel


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
            monkeypatch.setattr(kiim.bench, "infer_direction", fail)
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
