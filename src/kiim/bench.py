"""Seeded Monte-Carlo harness over the synthetic grid.

Each (mechanism, noise) cell runs ``trials`` independent datasets; trial
t uses seed ``base_seed XOR t`` so cells share draws and reruns are
reproducible. A trial is correct when the inferred direction is XtoY, the
generator's causal direction; Undecided and in-trial failures count as
incorrect (failures are also logged and tallied).
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import blas
from .config import RunConfig
from .errors import TRIAL_ERRORS, ConfigurationError
from .pairs import Direction
from .scoring import Method, check_sample_size, infer_direction, rank_ablation
from .synthdata import Mechanism, MechanismSpec, Noise, generate, table1_grid

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CellResult:
    """Accuracy of one method on one grid cell."""

    mechanism: Mechanism
    noise: Noise
    method: Method
    trials: int
    correct: int
    errors: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.trials

    @property
    def accuracy_std(self) -> float:
        p = self.accuracy
        return math.sqrt(p * (1.0 - p) / self.trials)


@dataclass(frozen=True)
class AblationCellResult:
    """Accuracy of the fixed-discard score at one d on one grid cell."""

    mechanism: Mechanism
    noise: Noise
    discarded_top: int
    trials: int
    correct: int
    errors: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.trials


def parse_cells(text: str) -> tuple[tuple[Mechanism, Noise], ...]:
    """Grid selection grammar: ``all`` or comma-separated MECH:NOISE items."""
    if text.strip().lower() == "all":
        return table1_grid()
    cells = []
    for item in text.split(","):
        name, sep, noise = item.strip().partition(":")
        if not sep:
            raise ConfigurationError(f"cell {item!r} must look like ANM1:Gaussian")
        try:
            cell = (Mechanism(name.strip()), Noise(noise.strip()))
        except ValueError as exc:
            raise ConfigurationError(f"unknown cell {item!r}") from exc
        if cell not in table1_grid():
            raise ConfigurationError(f"cell {item!r} is not in the benchmark grid")
        cells.append(cell)
    if not cells:
        raise ConfigurationError("empty cell selection")
    return tuple(cells)


def _trial_outcome(task) -> tuple[bool, str | None]:
    mechanism, noise, n, seed, method, config = task
    spec = MechanismSpec(mechanism=mechanism, noise=noise, n=n, seed=seed)
    try:
        decision = infer_direction(generate(spec), method, config)
    except TRIAL_ERRORS as exc:
        return False, f"{mechanism.value}/{noise.value} seed {seed} {method.value}: {exc}"
    return decision.direction is Direction.X_TO_Y, None


def _ablation_outcome(task) -> tuple[tuple[bool, ...], str | None]:
    mechanism, noise, n, seed, d_max, config = task
    spec = MechanismSpec(mechanism=mechanism, noise=noise, n=n, seed=seed)
    try:
        points = rank_ablation(generate(spec), d_max, config)
    except TRIAL_ERRORS as exc:
        return (False,) * (d_max + 1), f"{mechanism.value}/{noise.value} seed {seed}: {exc}"
    return tuple(p.direction is Direction.X_TO_Y for p in points), None


def run_tasks(tasks, worker, jobs: int) -> list:
    """``[worker(t) for t in tasks]``, in order, on a pool of ``jobs`` processes
    when ``jobs > 1``; ``worker`` must be a picklable module-level function.

    The pool is forked on one BLAS thread, so workers inherit one thread and
    below ``blas.THREADED_MIN_N`` never start OpenBLAS helpers (see ``blas``).
    """
    if jobs > 1:
        counts = blas.thread_counts()
        with blas.threads_for(0), ProcessPoolExecutor(
                max_workers=jobs, initializer=blas.record_parent_counts,
                initargs=(counts,)) as pool:
            return list(pool.map(worker, tasks, chunksize=4))
    return [worker(task) for task in tasks]


def _run_cell(tasks, worker, jobs: int) -> tuple[list, int]:
    """Run one cell's (value, failure message) tasks; return the values and
    the failure count, logging each failure."""
    outcomes = run_tasks(tasks, worker, jobs)
    failures = [msg for _, msg in outcomes if msg]
    for msg in failures:
        log.warning("trial failed: %s", msg)
    return [value for value, _ in outcomes], len(failures)


def _check_run(trials: int, seed: int) -> None:
    if trials < 1:
        raise ValueError("need at least 1 trial")
    if seed < 0:
        raise ValueError("seed must be nonnegative")


def run_synthetic(cells, methods, trials: int = 100, n: int = 100, seed: int = 0,
                  config: RunConfig | None = None, jobs: int = 1) -> tuple[CellResult, ...]:
    """Accuracy per (cell, method) over seeded independent trials."""
    config = config or RunConfig()
    _check_run(trials, seed)
    methods = tuple(Method(m) for m in methods)
    if not methods:
        raise ValueError("need at least one method")
    check_sample_size(methods, n)
    results = []
    for mechanism, noise in cells:
        for method in methods:
            tasks = [(mechanism, noise, n, seed ^ t, method, config) for t in range(trials)]
            hits, errors = _run_cell(tasks, _trial_outcome, jobs)
            results.append(CellResult(mechanism=mechanism, noise=noise, method=method,
                                      trials=trials, correct=sum(hits), errors=errors))
    return tuple(results)


def run_ablation(cells, d_max: int, trials: int = 100, n: int = 100, seed: int = 0,
                 config: RunConfig | None = None, jobs: int = 1) -> tuple[AblationCellResult, ...]:
    """Accuracy per (cell, fixed discard count d) for d = 0..d_max."""
    config = config or RunConfig()
    _check_run(trials, seed)
    if not 0 <= d_max < n:
        raise ValueError("d_max must lie in [0, n)")
    check_sample_size((Method.KIIM,), n)
    results = []
    for mechanism, noise in cells:
        tasks = [(mechanism, noise, n, seed ^ t, d_max, config) for t in range(trials)]
        flags, errors = _run_cell(tasks, _ablation_outcome, jobs)
        for d in range(d_max + 1):
            results.append(AblationCellResult(
                mechanism=mechanism, noise=noise, discarded_top=d, trials=trials,
                correct=sum(f[d] for f in flags), errors=errors))
    return tuple(results)
