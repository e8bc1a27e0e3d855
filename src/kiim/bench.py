"""Seeded Monte-Carlo harness over the synthetic grid.

Each (mechanism, noise) cell runs ``trials`` independent datasets; trial
t uses seed ``base_seed XOR t`` so cells share draws and reruns are
reproducible. One pool task is one trial: it draws every requested cell's
dataset and scores them together with every requested method
(``kiim.scoring.score_datasets``), so work on the cause column that the
cells share is done once per trial. A method's trial is correct when the
inferred direction is XtoY, the generator's causal direction; Undecided and
failures (captured by ``kiim.errors.attempt``) count as incorrect, and
failures are also logged and tallied. A failed draw counts against every
method of its cell, and a failure of the whole task against every (cell,
method).
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import blas
from .config import RunConfig
from .errors import ConfigurationError, attempt
from .pairs import Direction
from .scoring import Method, check_sample_size, rank_ablation, score_datasets
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


def _synthetic_trial(cells, n, seed, methods, config) -> tuple:
    """Per (cell, method), cell by cell, ``(hit, None)`` with hit True for a
    correct decision, or ``(None, message)``. Every cell's dataset is drawn at
    ``seed`` and all are scored together; a cell whose draw fails fails only
    its own methods."""
    drawn = [attempt((generate, MechanismSpec(mechanism=mechanism, noise=noise, n=n,
                                              seed=seed)))
             for mechanism, noise in cells]
    scored = iter(score_datasets([ds for ds, error in drawn if error is None], methods, config))
    outcomes = []
    for _, error in drawn:
        for _ in methods:
            d, message = next(scored) if error is None else (None, error)
            outcomes.append((None if d is None else d.direction is Direction.X_TO_Y, message))
    return tuple(outcomes)


def _ablation_trial(mechanism, noise, n, seed, d_max, config) -> tuple:
    spec = MechanismSpec(mechanism=mechanism, noise=noise, n=n, seed=seed)
    return ((tuple(p.direction is Direction.X_TO_Y
                   for p in rank_ablation(generate(spec), d_max, config)), None),)


def run_trials(tasks, jobs: int) -> list[tuple]:
    """For each task ``(labels, fn, *args)``, in order, ``fn(*args)``: one
    outcome per label, ``(value, None)`` or ``(None, message)``. A task that
    raises one of ``errors.TRIAL_ERRORS`` fails every label with its message
    (``errors.attempt``). Tasks run on one pool of ``min(jobs, len(tasks))``
    processes if that is above 1 (so ``fn`` must be picklable); then one
    warning per failed label, ``trial failed: <label>: <message>``.

    The pool is forked on one BLAS thread, so forked workers inherit one
    thread, score on it and never start OpenBLAS helpers (see ``blas``).
    Tasks go out in chunks of up to 4, and small enough that each worker
    gets at least four chunks when there are tasks for it: a run of 8 trial
    tasks on 2 workers goes one task at a time.
    """
    calls = [task[1:] for task in tasks]
    workers = min(jobs, len(calls))
    if workers > 1:
        # numpy imports these on first use: numpy.random for the draws and
        # numpy.ma inside np.quantile (Rw-KIIM's weight clip). Imported once
        # here, every forked worker inherits them instead of importing them
        # again at each pool.
        import numpy.ma
        import numpy.random
        chunksize = max(1, min(4, len(calls) // (4 * workers)))
        with blas.one_thread(), ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(attempt, calls, chunksize=chunksize))
    else:
        outcomes = [attempt(call) for call in calls]
    entries = []
    for (labels, *_), (value, error) in zip(tasks, outcomes):
        entry = value if error is None else ((None, error),) * len(labels)
        entries.append(entry)
        for label, (_, message) in zip(labels, entry):
            if message is not None:
                log.warning("trial failed: %s: %s", label, message)
    return entries


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
                  config: RunConfig = RunConfig(), jobs: int = 1) -> tuple[CellResult, ...]:
    """Accuracy per (cell, method) over seeded independent trials; repeats are
    scored once, in first-seen order. One task per trial scores every cell
    with every method (``_synthetic_trial``)."""
    cells, methods = _check_run(cells, methods, seed, n, trials)
    tasks = [(tuple(f"{mechanism.value}/{noise.value} seed {seed ^ t} {method.value}"
                    for mechanism, noise in cells for method in methods),
              _synthetic_trial, cells, n, seed ^ t, methods, config)
             for t in range(trials)]
    outcomes = run_trials(tasks, jobs)
    results = []
    for k, (mechanism, noise) in enumerate(cells):
        for j, method in enumerate(methods):
            hits = [trial[k * len(methods) + j][0] for trial in outcomes]
            results.append(CellResult(mechanism=mechanism, noise=noise, method=method,
                                      trials=trials, correct=hits.count(True),
                                      errors=hits.count(None)))
    return tuple(results)


def run_ablation(cells, d_max: int, trials: int = 100, n: int = 100, seed: int = 0,
                 config: RunConfig = RunConfig(), jobs: int = 1) -> tuple[AblationCellResult, ...]:
    """Accuracy per (cell, fixed discard count d) for d = 0..d_max; a repeated
    cell is scored once, in first-seen order."""
    cells, _ = _check_run(cells, (Method.KIIM,), seed, n, trials)
    if not 0 <= d_max < n:
        raise ValueError("d_max must lie in [0, n)")
    tasks = [((f"{mechanism.value}/{noise.value} seed {seed ^ t}",),
              _ablation_trial, mechanism, noise, n, seed ^ t, d_max, config)
             for mechanism, noise in cells for t in range(trials)]
    outcomes = run_trials(tasks, jobs)
    results = []
    for k, (mechanism, noise) in enumerate(cells):
        flags = [f for (f, _), in outcomes[k * trials:(k + 1) * trials] if f is not None]
        for d in range(d_max + 1):
            results.append(AblationCellResult(
                mechanism=mechanism, noise=noise, discarded_top=d, trials=trials,
                correct=sum(f[d] for f in flags), errors=trials - len(flags)))
    return tuple(results)
