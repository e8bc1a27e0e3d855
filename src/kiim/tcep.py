"""Cause-effect-pairs benchmark: directory ingestion and the accuracy protocol.

The directory layout is the published one: ``pair0001.txt`` ...
``pair0108.txt`` plus ``pairmeta.txt`` whose rows read

    id  cause_first_col  cause_last_col  effect_first_col  effect_last_col  weight

with 1-based column indices. Pairs whose cause or effect spans several
columns are excluded as multivariate, pairs with non-finite cells as
missing-valued, and pair 86 has no usable ground truth; the ten standard
exclusions leave 98 scored pairs. Each usable dataset is oriented so that
xs is the annotated cause, making XtoY the correct answer everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bench import _check_run, run_trials
from .config import RunConfig
from .errors import IngestionError
from .pairs import Direction, PairedDataset, read_pair_file
from .scoring import Method, infer_direction

MULTIVARIATE_IDS = frozenset({52, 53, 54, 55, 71, 105})
MISSING_VALUE_IDS = frozenset({81, 82, 83})
NO_GROUND_TRUTH_IDS = frozenset({86})


@dataclass(frozen=True, eq=False)
class TcepPair:
    """One metadata row; an excluded pair has a reason and no dataset."""

    id: int
    dataset: PairedDataset | None
    weight: float
    exclusion_reason: str | None = None

    @property
    def excluded(self) -> bool:
        return self.exclusion_reason is not None


@dataclass(frozen=True)
class PairResult:
    """One (pair, method) evaluation; ``error`` set when the method failed."""

    pair_id: int
    method: Method
    score_xy: float | None
    score_yx: float | None
    direction: Direction | None
    correct: bool
    error: str | None = None


@dataclass(frozen=True)
class MethodAccuracy:
    method: Method
    evaluated: int
    correct: int
    accuracy: float
    weighted_accuracy: float


@dataclass(frozen=True)
class TcepReport:
    loaded: int
    excluded: int
    usable: int
    results: tuple[PairResult, ...]
    accuracies: tuple[MethodAccuracy, ...]


def _parse_meta(path: Path) -> dict[int, tuple[int, int, int, int, float]]:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read metadata: {exc}", path=str(path)) from exc
    meta: dict[int, tuple[int, int, int, int, float]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) < 6:
            raise IngestionError("metadata row needs 6 fields", path=str(path), line=lineno)
        try:
            pid = int(tokens[0])
            spans = tuple(int(t) for t in tokens[1:5])
            weight = float(tokens[5])
        except ValueError as exc:
            raise IngestionError("non-numeric metadata field", path=str(path),
                                 line=lineno) from exc
        if pid < 1:
            raise IngestionError("pair id must be at least 1", path=str(path), line=lineno)
        if not 0 < weight < np.inf:  # NaN fails too
            raise IngestionError("weight must be positive and finite", path=str(path),
                                 line=lineno)
        if min(spans) < 1 or spans[1] < spans[0] or spans[3] < spans[2]:
            raise IngestionError("column spans need 1 <= first <= last", path=str(path),
                                 line=lineno)
        if pid in meta:
            raise IngestionError(f"repeated pair id {pid}", path=str(path), line=lineno)
        meta[pid] = (*spans, weight)
    if not meta:
        raise IngestionError("metadata file has no rows", path=str(path))
    return meta


def load_tcep(directory) -> tuple[TcepPair, ...]:
    """Load every pair named in the metadata, sorted by id, with exclusions."""
    root = Path(directory)
    meta = _parse_meta(root / "pairmeta.txt")
    pairs = []
    for pid in sorted(meta):
        cause_first, cause_last, effect_first, effect_last, weight = meta[pid]
        data_path = root / f"pair{pid:04d}.txt"
        table = read_pair_file(data_path)
        reason = None
        if pid in MULTIVARIATE_IDS or cause_last > cause_first or effect_last > effect_first:
            reason = "multivariate"
        elif pid in NO_GROUND_TRUTH_IDS:
            reason = "no ground truth"
        elif table.shape[1] < max(cause_first, effect_first):
            raise IngestionError("metadata column exceeds table width", path=str(data_path))
        else:
            xs = table[:, cause_first - 1]
            ys = table[:, effect_first - 1]
            if pid in MISSING_VALUE_IDS or not (np.isfinite(xs).all() and np.isfinite(ys).all()):
                reason = "missing values"
        dataset = PairedDataset(xs, ys) if reason is None else None
        pairs.append(TcepPair(id=pid, dataset=dataset, weight=weight, exclusion_reason=reason))
    return tuple(pairs)


def evaluate_tcep(pairs, methods, config: RunConfig | None = None, seed: int = 0,
                  subsample_limit: int = 1000, jobs: int = 1) -> TcepReport:
    """Score every usable pair with every method and tally accuracies.

    Oversized pairs are subsampled to ``subsample_limit`` points with a
    generator seeded by (seed, pair id), so reports are reproducible.
    Undecided or errored evaluations count as incorrect; the weighted
    accuracy uses the metadata weights. A repeated method is scored once,
    in first-seen order.
    """
    config = config or RunConfig()
    pairs = tuple(pairs)
    if subsample_limit < 0:
        raise ValueError("subsample limit must be nonnegative (0 disables subsampling)")
    _, methods = _check_run(None, methods, seed, subsample_limit or None)
    usable = [p for p in pairs if not p.excluded]
    if not usable:
        raise ValueError("no usable pairs to evaluate")
    keys, tasks = [], []
    for pair in usable:
        dataset = pair.dataset
        if subsample_limit and dataset.n > subsample_limit:
            rng = np.random.default_rng([seed, pair.id])
            dataset = dataset.subsampled(subsample_limit, rng)
        for method in methods:
            keys.append((pair.id, method))
            tasks.append((infer_direction, dataset, method, config))
    outcomes = run_trials(tasks, lambda i: f"pair {keys[i][0]} {keys[i][1].value}", jobs)
    results = []
    for (pid, method), (d, error) in zip(keys, outcomes):
        if d is None:
            results.append(PairResult(pid, method, None, None, None, False, error))
        else:
            results.append(PairResult(pid, method, d.score_xy.score, d.score_yx.score,
                                      d.direction, d.direction is Direction.X_TO_Y))
    results.sort(key=lambda r: (r.pair_id, r.method.value))
    weights = {p.id: p.weight for p in usable}
    accuracies = []
    for method in methods:
        rows = [r for r in results if r.method is method]
        correct = sum(r.correct for r in rows)
        total_weight = sum(weights[r.pair_id] for r in rows)
        hit_weight = sum(weights[r.pair_id] for r in rows if r.correct)
        accuracies.append(MethodAccuracy(method=method, evaluated=len(rows), correct=correct,
                                         accuracy=correct / len(rows),
                                         weighted_accuracy=hit_weight / total_weight))
    return TcepReport(loaded=len(pairs), excluded=sum(p.excluded for p in pairs),
                      usable=len(usable),
                      results=tuple(results),
                      accuracies=tuple(accuracies))
