"""Paired scalar observations: the unit of pairwise causal inference.

Also holds the whitespace-separated text format of pair files: the files
that ``infer`` reads and the cause-effect benchmark's pair files. Its line
reader also reads the benchmark's ``pairmeta.txt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    #: Column name -> its standardized values; see ``standardized``.
    _standardized: dict = field(default_factory=dict, init=False, repr=False)

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

    def standardized(self, column: str) -> np.ndarray:
        """``standardize`` of the column ``"xs"`` or ``"ys"``, read-only and
        computed once per dataset: every method and both directions read it."""
        values = self._standardized.get(column)
        if values is None:
            values = standardize(getattr(self, column))
            values.setflags(write=False)
            self._standardized[column] = values
        return values

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


def _read_lines(path: Path, what: str) -> list[str]:
    """The lines of a UTF-8 text file, without a leading byte-order mark; a
    file that cannot be read or decoded is an ingestion error naming ``what``
    and the file."""
    try:
        return path.read_text(encoding="utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read {what}: {exc}", path=str(path)) from exc


def read_pair_file(path) -> np.ndarray:
    """Parse a whitespace-separated numeric table into an (n, m) array.

    Blank lines are skipped. Ragged rows or non-numeric cells raise an
    ingestion error naming the file and 1-based line number.
    """
    path = Path(path)
    lines = _read_lines(path, "pair file")
    rows = [parts for parts in map(str.split, lines) if parts]
    if not rows:
        raise IngestionError("empty pair file", path=str(path))
    try:
        # numpy calls float() on each token and rejects a ragged table.
        return np.array(rows, dtype=float)
    except ValueError:
        # Name the first line that float() or the first row's width rejects.
        for lineno, parts in enumerate(map(str.split, lines), start=1):
            if not parts:
                continue
            try:
                list(map(float, parts))
            except ValueError as exc:
                raise IngestionError("non-numeric cell", path=str(path), line=lineno) from exc
            if len(parts) != len(rows[0]):
                raise IngestionError("ragged row", path=str(path), line=lineno)
        raise


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
