"""Paired scalar observations: the unit of pairwise causal inference.

Also holds the whitespace-separated text format of pair files: the files
that ``infer`` reads and the cause-effect benchmark's pair files.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import IngestionError


class Direction(str, Enum):
    X_TO_Y = "XtoY"
    Y_TO_X = "YtoX"
    UNDECIDED = "Undecided"


@dataclass(frozen=True, eq=False)
class PairedDataset:
    """Two aligned sequences of scalar observations (x_i, y_i)."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float).ravel()
        ys = np.asarray(self.ys, dtype=float).ravel()
        if xs.size != ys.size:
            raise ValueError("xs and ys must have equal lengths")
        if xs.size == 0:
            raise ValueError("empty dataset")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("dataset contains non-finite values")
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return int(self.xs.size)

    def subsampled(self, size: int, rng: np.random.Generator) -> "PairedDataset":
        """Uniform subsample without replacement, original order preserved."""
        if size >= self.n:
            return self
        idx = np.sort(rng.choice(self.n, size=size, replace=False))
        return PairedDataset(self.xs[idx], self.ys[idx])


def standardize(values) -> np.ndarray:
    """Zero-mean, unit-variance rescaling; rejects a constant or overflowing spread."""
    v = np.asarray(values, dtype=float).ravel()
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below instead
        sd = float(v.std())
    if sd == 0.0:
        raise ValueError("cannot standardize a constant variable")
    if not sd < np.inf:  # NaN fails too
        raise ValueError("cannot standardize: the variance overflows")
    return (v - v.mean()) / sd


def read_pair_file(path) -> np.ndarray:
    """Parse a whitespace-separated numeric table into an (n, m) array.

    Blank lines are skipped. Ragged rows or non-numeric cells raise an
    ingestion error naming the file and 1-based line number.
    """
    path = Path(path)
    rows: list[list[float]] = []
    width = None
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read pair file: {exc}", path=str(path)) from exc
    # One conversion of a rectangular table: numpy calls float() on each token.
    # A ragged or non-numeric table falls through to the loop, which names the line.
    tokens = [parts for parts in map(str.split, text.splitlines()) if parts]
    if tokens and all(len(parts) == len(tokens[0]) for parts in tokens):
        try:
            return np.array(tokens, dtype=float)
        except ValueError:
            pass
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            row = [float(tok) for tok in parts]
        except ValueError as exc:
            raise IngestionError("non-numeric cell", path=str(path), line=lineno) from exc
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise IngestionError("ragged row", path=str(path), line=lineno)
        rows.append(row)
    if not rows:
        raise IngestionError("empty pair file", path=str(path))
    return np.asarray(rows, dtype=float)


def load_pair_dataset(path) -> PairedDataset:
    """Load the first two columns of a pair file as a dataset."""
    table = read_pair_file(path)
    if table.shape[1] < 2:
        raise IngestionError("pair file needs at least two columns", path=str(path))
    return PairedDataset(table[:, 0], table[:, 1])


def write_pair_text(path, dataset: PairedDataset) -> None:
    """Export as two whitespace-separated columns (benchmark file shape)."""
    lines = [f"{x:.16g} {y:.16g}" for x, y in zip(dataset.xs, dataset.ys)]
    Path(path).write_text("\n".join(lines) + "\n")
