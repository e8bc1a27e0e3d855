"""Monte-Carlo harness tests: the shared worker-pool runner."""

from kiim import Mechanism, Method, Noise, run_synthetic
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
