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
    """Grid selection grammar: ``all`` or comma-separated MECH:NOISE items.
    The runs reject a parsed cell that is not in the grid."""
    if text.strip().lower() == "all":
        return table1_grid()
    cells = []
    for item in text.split(","):
        name, sep, noise = item.strip().partition(":")
        if not sep:
            raise ConfigurationError(f"cell {item!r} must look like ANM1:Gaussian")
        try:
            cells.append((Mechanism(name.strip()), Noise(noise.strip())))
        except ValueError as exc:
            raise ConfigurationError(f"unknown cell {item!r}") from exc
    return tuple(cells)


def _synthetic_trial(mechanism, noise, n, seed, method, config) -> bool:
    spec = MechanismSpec(mechanism=mechanism, noise=noise, n=n, seed=seed)
    return infer_direction(generate(spec), method, config).direction is Direction.X_TO_Y


def _ablation_trial(mechanism, noise, n, seed, d_max, config) -> tuple[bool, ...]:
    spec = MechanismSpec(mechanism=mechanism, noise=noise, n=n, seed=seed)
    return tuple(p.direction is Direction.X_TO_Y
                 for p in rank_ablation(generate(spec), d_max, config))


def _run_trial(task) -> tuple:
    """``(fn(*args), None)`` for a task ``(fn, *args)``, or ``(None, message)``
    when ``fn`` raises one of ``TRIAL_ERRORS``."""
    fn, *args = task
    try:
        return fn(*args), None
    except TRIAL_ERRORS as exc:
        return None, str(exc) or repr(exc)


def run_tasks(tasks, worker, jobs: int) -> list:
    """``[worker(t) for t in tasks]``, in order, on a pool of ``jobs`` processes
    when ``jobs > 1``; ``worker`` must be a picklable module-level function.

    The pool is forked on one BLAS thread, so forked workers inherit one
    thread, score on it and never start OpenBLAS helpers (see ``blas``).
    """
    if jobs > 1:
        with blas.one_thread(), ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, tasks, chunksize=4))
    return [worker(task) for task in tasks]


def run_trials(tasks, label, jobs: int) -> list[tuple]:
    """``run_tasks`` over ``(fn, *args)`` tasks with ``_run_trial``; each failure
    of task i logs one warning, ``trial failed: <label(i)>: <message>``."""
    outcomes = run_tasks(tasks, _run_trial, jobs)
    for i, (_, error) in enumerate(outcomes):
        if error is not None:
            log.warning("trial failed: %s: %s", label(i), error)
    return outcomes


def _check_run(cells, methods, seed: int, n: int | None, trials: int = 1) -> tuple:
    """The argument check shared by every run; returns ``(cells, methods)``, each
    with repeats dropped, in first-seen order. ``cells=None`` skips the grid
    check and ``n=None`` the sample-size check."""
    if trials < 1:
        raise ValueError("need at least 1 trial")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    methods = tuple(dict.fromkeys(Method(m) for m in methods))
    if not methods:
        raise ValueError("need at least one method")
    if cells is not None:
        cells = tuple(dict.fromkeys((Mechanism(m), Noise(z)) for m, z in cells))
        if not cells:
            raise ValueError("empty cell selection")
        for mechanism, noise in cells:
            if (mechanism, noise) not in table1_grid():
                raise ValueError(f"cell '{mechanism.value}:{noise.value}' is not in the "
                                 "benchmark grid")
    if n is not None:
        check_sample_size(methods, n)
    return cells, methods


def run_synthetic(cells, methods, trials: int = 100, n: int = 100, seed: int = 0,
                  config: RunConfig | None = None, jobs: int = 1) -> tuple[CellResult, ...]:
    """Accuracy per (cell, method) over seeded independent trials; repeats are
    scored once, in first-seen order."""
    config = config or RunConfig()
    cells, methods = _check_run(cells, methods, seed, n, trials)
    results = []
    for mechanism, noise in cells:
        cell = f"{mechanism.value}/{noise.value}"
        for method in methods:
            tasks = [(_synthetic_trial, mechanism, noise, n, seed ^ t, method, config)
                     for t in range(trials)]
            outcomes = run_trials(tasks, lambda t: f"{cell} seed {seed ^ t} {method.value}", jobs)
            hits = [hit for hit, _ in outcomes]
            results.append(CellResult(mechanism=mechanism, noise=noise, method=method,
                                      trials=trials, correct=hits.count(True),
                                      errors=hits.count(None)))
    return tuple(results)


def run_ablation(cells, d_max: int, trials: int = 100, n: int = 100, seed: int = 0,
                 config: RunConfig | None = None, jobs: int = 1) -> tuple[AblationCellResult, ...]:
    """Accuracy per (cell, fixed discard count d) for d = 0..d_max; a repeated
    cell is scored once, in first-seen order."""
    config = config or RunConfig()
    cells, _ = _check_run(cells, (Method.KIIM,), seed, n, trials)
    if not 0 <= d_max < n:
        raise ValueError("d_max must lie in [0, n)")
    results = []
    for mechanism, noise in cells:
        cell = f"{mechanism.value}/{noise.value}"
        tasks = [(_ablation_trial, mechanism, noise, n, seed ^ t, d_max, config)
                 for t in range(trials)]
        outcomes = run_trials(tasks, lambda t: f"{cell} seed {seed ^ t}", jobs)
        flags = [f for f, _ in outcomes if f is not None]
        for d in range(d_max + 1):
            results.append(AblationCellResult(
                mechanism=mechanism, noise=noise, discarded_top=d, trials=trials,
                correct=sum(f[d] for f in flags), errors=trials - len(flags)))
    return tuple(results)
