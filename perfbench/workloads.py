"""The benchmark's three workloads: seeded inputs, the kiim commands that run
on them, and the comparison of each command's outputs with the reference.

Every workload draws its inputs from a fixed universe that
``perfbench/record.py`` scored once and stored under ``perfbench/reference``.
The run seed chooses the order in which a run walks that universe (and, for
the pairs workload, which variants share a directory), so any seed is
covered by the recorded outcomes and a run makes at least one pass over the
universe. Commands are driven through the in-process ``kiim.cli.main``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Scores must agree with the reference to this relative tolerance. It
# absorbs roundoff from another BLAS thread count or a reordered product in
# the ill-conditioned ridge systems: one against two OpenBLAS threads moved
# the pairs workload's scores by up to 4.4e-11 relative, and CSV scores carry
# 12 significant digits. Directions, correct counts and error outcomes are
# compared exactly.
SCORE_RTOL = 1e-7
SCORE_ATOL = 1e-13

ALL_METHODS = "kiim,rw-kiim,kcdc,igci-gauss,igci-uniform,anm"

# The ten published grid cells, in table order.
CELLS = (
    ("ANM1", "Gaussian"), ("ANM1", "Uniform"),
    ("ANM2", "SquaredGaussian"), ("ANM2", "Uniform"),
    ("MNM1", "Gaussian"), ("MNM1", "Uniform"),
    ("MNM2", "Gaussian"), ("MNM2", "Uniform"),
    ("CNM", "Gaussian"), ("CNM", "Uniform"),
)


def import_kiim():
    """Import kiim from this checkout's source tree (there is no build step)."""
    src = ROOT / "src"
    if not (src / "kiim" / "__init__.py").is_file():
        raise FileNotFoundError(f"no kiim sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import kiim

    return kiim


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def draw_pair(mechanism: str, noise: str, n: int, seed: int) -> np.ndarray:
    """One (cause, effect) sample of the five structural equations, as (n, 2).

    The benchmark's own generator, so inputs do not depend on the program
    under test: cause ~ N(0, 1); Gaussian, Uniform(-1, 1) or squared
    Gaussian noise.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    if noise == "Gaussian":
        eps = rng.standard_normal(n)
    elif noise == "Uniform":
        eps = rng.uniform(-1.0, 1.0, n)
    else:
        eps = rng.standard_normal(n) ** 2
    if mechanism == "ANM1":
        y = x**3 + x + eps
    elif mechanism == "ANM2":
        y = x + eps
    elif mechanism == "MNM1":
        y = (x**3 + x) * np.exp(eps)
    elif mechanism == "MNM2":
        y = (np.sin(10.0 * x) + np.exp(3.0 * x)) * np.exp(eps)
    else:
        y = (np.log(x + 10.0) + x**2) ** eps
    return np.column_stack([x, y])


def write_table(path: Path, table: np.ndarray) -> None:
    path.write_text("\n".join(" ".join(f"{v:.17g}" for v in row) for row in table) + "\n")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one kiim command in this process; return its exit code and stdout."""
    from kiim.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def scores_match(got: float, want: float) -> bool:
    return abs(got - want) <= SCORE_RTOL * max(abs(got), abs(want)) + SCORE_ATOL


@dataclass
class Outcome:
    """What one command call did, judged against the reference.

    ``operations`` are the units the reference records (infer calls, grid
    trials, pair x method rows); ``departures`` are those whose outcome
    differs from it.
    """

    decisions: int
    correct: int
    operations: int
    departures: int
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Unit:
    """One command call of a run: the argv and what the reference keys it by."""

    argv: tuple[str, ...]
    key: object


class Workload:
    name = ""
    why = ""
    jobs = 1
    # A run makes at least this many command calls, in whole passes over its
    # plan (infer needs 1000+ calls so that at least 10 latency samples lie
    # beyond p99).
    min_units = 1
    # Exact per-layer counts are taken over the first ``window_units`` calls
    # of the traced phase, whose inputs the seed fixes.
    window_units = 1

    def params(self) -> dict:
        raise NotImplementedError

    def plan(self, workdir: Path, seed: int) -> list[Unit]:
        """Write this run's inputs under ``workdir``; return its calls in order."""
        raise NotImplementedError

    def warmup_argv(self, workdir: Path) -> list[str]:
        """Write the input of one small command of this workload's kind, and
        return its argv; set-up runs it so lazy initialization is done."""
        raise NotImplementedError

    def check(self, unit: Unit, code: int, stdout: str, reference: dict) -> Outcome:
        raise NotImplementedError

    def record(self, workdir: Path) -> dict:
        """Outcomes of the whole input universe, keyed as ``check`` reads them."""
        raise NotImplementedError

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.json"

    def load_reference(self, path: Path | None = None) -> dict:
        path = path or self.reference_path()
        data = json.loads(path.read_text())
        if data.get("params") != self.params():
            raise ValueError(f"reference {path} was recorded for other parameters; "
                             f"re-record it with perfbench/record.py")
        return data["outcomes"]


class InferWorkload(Workload):
    """Closed loop, one client: ``kiim infer FILE --method kiim`` back to back."""

    name = "infer-n100"
    why = ("CLI default path at the paper's n = 100: per-call fixed costs "
           "(BLAS wake-up, Gram, parsing) dominate; no pool")

    # KIIM only: a six-method mix puts the latency median between the
    # methods' latency bands.
    METHOD = "kiim"

    def __init__(self, n: int = 100, per_cell: int = 36, cells=CELLS,
                 min_units: int = 1000, window_units: int = 100):
        self.n = n
        self.per_cell = per_cell
        self.cells = tuple(cells)
        self.min_units = min_units
        self.window_units = window_units

    def params(self) -> dict:
        return {"n": self.n, "per_cell": self.per_cell,
                "cells": [list(c) for c in self.cells], "method": self.METHOD}

    def _universe(self):
        """(key, table, truth): every other file is written effect-first."""
        for c, (mechanism, noise) in enumerate(self.cells):
            for k in range(self.per_cell):
                table = draw_pair(mechanism, noise, self.n, 10_000 + 1_000 * c + k)
                swapped = k % 2 == 1
                yield (f"c{c:02d}k{k:03d}", table[:, ::-1] if swapped else table,
                       "YtoX" if swapped else "XtoY")

    def _write(self, root: Path) -> list[tuple[str, Path]]:
        root.mkdir(parents=True, exist_ok=True)
        files = []
        for key, table, _ in self._universe():
            path = root / f"{key}.txt"
            write_table(path, table)
            files.append((key, path))
        return files

    def _unit(self, key: str, path: Path) -> Unit:
        return Unit(("infer", str(path), "--method", self.METHOD), key)

    def plan(self, workdir: Path, seed: int) -> list[Unit]:
        files = self._write(workdir / "infer")
        order = np.random.default_rng(seed).permutation(len(files))
        return [self._unit(*files[i]) for i in order]

    def warmup_argv(self, workdir: Path) -> list[str]:
        path = workdir / "warmup.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        write_table(path, draw_pair("ANM1", "Gaussian", self.n, 1))
        return ["infer", str(path), "--method", self.METHOD]

    def _outcome(self, code: int, stdout: str) -> dict:
        if code not in (0, 2):
            return {"exit": code}
        doc = json.loads(stdout)
        return {"exit": code, "direction": doc["direction"],
                "score_xy": doc["score_xy"]["score"], "score_yx": doc["score_yx"]["score"]}

    def check(self, unit: Unit, code: int, stdout: str, reference: dict) -> Outcome:
        want = reference[unit.key]
        try:
            got = self._outcome(code, stdout)
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(1, 0, 1, 1, [f"{unit.key}: unreadable output ({exc})"])
        correct = int(got.get("direction") == want["truth"])
        same = (got["exit"] == want["exit"] and got.get("direction") == want.get("direction")
                and all(scores_match(got[k], want[k]) for k in ("score_xy", "score_yx")
                        if k in want))
        notes = [] if same else [f"{unit.key}: got {got}, reference {want}"]
        return Outcome(1, correct, 1, 0 if same else 1, notes)

    def record(self, workdir: Path) -> dict:
        truths = {key: truth for key, _, truth in self._universe()}
        outcomes = {}
        for key, path in self._write(workdir / "infer"):
            outcome = self._outcome(*run_cli(list(self._unit(key, path).argv)))
            outcomes[key] = {"truth": truths[key], **outcome}
        return outcomes


class GridWorkload(Workload):
    """``kiim synthetic`` over the grid with every method through the worker pools."""

    name = "grid-pool"
    why = ("synthetic grid, six methods, --jobs nproc: the only workload with "
           "process pools (one per cell x method), pickling and BLAS x workers")

    # Base seeds of the calls of one pass; the run seed picks their order.
    GRID_SEEDS = 2

    # kiim.bench maps a pool's trials in chunks of 4, so 8 trials give each
    # of the two workers of a 2-core machine a chunk of its own.
    def __init__(self, cells: str = "all", methods: str = ALL_METHODS, n: int = 100,
                 trials: int = 8, jobs: int | None = None):
        self.cells = cells
        self.methods = methods
        self.n = n
        self.trials = trials
        self.jobs = jobs or nproc()

    def params(self) -> dict:
        return {"cells": self.cells, "methods": self.methods, "n": self.n,
                "trials": self.trials, "grid_seeds": self.GRID_SEEDS}

    def _seeds(self) -> list[int]:
        # Trial t of a run with base seed s uses seed s ^ t; spacing the base
        # seeds by 4096 keeps the trial seeds of different units distinct.
        return [(k + 1) << 12 for k in range(self.GRID_SEEDS)]

    def _unit(self, seed: int, out: Path) -> Unit:
        return Unit(("synthetic", "--cells", self.cells, "--methods", self.methods,
                     "--n", str(self.n), "--trials", str(self.trials), "--seed", str(seed),
                     "--jobs", str(self.jobs), "--out-dir", str(out)), str(seed))

    def plan(self, workdir: Path, seed: int) -> list[Unit]:
        out = workdir / "grid-out"
        seeds = self._seeds()
        order = np.random.default_rng(seed).permutation(len(seeds))
        return [self._unit(seeds[i], out) for i in order]

    def warmup_argv(self, workdir: Path) -> list[str]:
        return ["synthetic", "--cells", "ANM1:Gaussian", "--methods", "kiim", "--n", str(self.n),
                "--trials", "2", "--jobs", str(self.jobs), "--out-dir", str(workdir / "warmup")]

    @staticmethod
    def _rows(out: Path) -> dict:
        with open(out / "synthetic.csv", newline="") as fh:
            return {f"{r['mechanism']}/{r['noise']}/{r['method']}":
                    [int(r["trials"]), int(r["correct"]), int(r["errors"])]
                    for r in csv.DictReader(fh)}

    def check(self, unit: Unit, code: int, stdout: str, reference: dict) -> Outcome:
        want = reference[unit.key]
        operations = sum(trials for trials, _, _ in want.values())
        try:
            got = self._rows(Path(unit.argv[-1])) if code == 0 else {}
        except (OSError, ValueError, KeyError) as exc:
            got, notes = {}, [f"seed {unit.key}: unreadable output ({exc})"]
        else:
            notes = [] if code == 0 else [f"seed {unit.key}: exit code {code}"]
        departures = 0
        correct = 0
        for row, (trials, want_correct, want_errors) in want.items():
            if row not in got:
                departures += trials
                continue
            _, got_correct, got_errors = got[row]
            correct += got_correct
            # Only per-row counts are visible, so this is the least number
            # of trials whose outcome must have changed.
            moved = max(abs(got_correct - want_correct), abs(got_errors - want_errors))
            departures += min(moved, trials)
            if moved:
                notes.append(f"seed {unit.key} {row}: got correct/errors "
                             f"{got_correct}/{got_errors}, reference {want_correct}/{want_errors}")
        return Outcome(operations, correct, operations, departures, notes)

    def record(self, workdir: Path) -> dict:
        outcomes = {}
        for seed in self._seeds():
            unit = self._unit(seed, workdir / "grid-out")
            code, _ = run_cli(list(unit.argv))
            if code != 0:
                raise RuntimeError(f"synthetic seed {seed} exited {code}")
            outcomes[unit.key] = self._rows(workdir / "grid-out")
        return outcomes


class PairsWorkload(Workload):
    """``kiim tcep DIR --methods <all six> --jobs 1`` on generated large pairs."""

    name = "pairs-large"
    why = ("pairs benchmark at n = 300..1200 (subsampled to 1000): dense LU, "
           "B^T B and eigvalsh dominate, all six methods, no pool")

    # Cells the scorers separate well, as in the published-layout fixture.
    PAIR_CELLS = (("ANM1", "Gaussian"), ("MNM1", "Gaussian"), ("MNM2", "Gaussian"),
                  ("MNM2", "Uniform"), ("CNM", "Gaussian"), ("ANM1", "Uniform"),
                  ("MNM1", "Uniform"))

    # Four passes of two calls: one pass takes about 9 s, and a median over
    # four is steadier than over three against BLAS stalls at n = 1000.
    min_units = 8

    # Pairs per size band; a call scores one of each band.
    VARIANTS = 2

    def __init__(self, bands=(300, 700, 1200), methods: str = ALL_METHODS,
                 subsample_limit: int = 1000):
        self.bands = tuple(bands)
        self.methods = methods
        self.subsample_limit = subsample_limit

    def params(self) -> dict:
        return {"bands": list(self.bands), "variants": self.VARIANTS, "methods": self.methods,
                "subsample_limit": self.subsample_limit}

    def _pair_id(self, band: int, variant: int) -> int:
        return band * self.VARIANTS + variant + 1

    def _write_dir(self, root: Path, ids: list[int]) -> None:
        """Published layout: pairNNNN.txt plus pairmeta.txt; every third pair
        is stored effect-first and oriented by its metadata row."""
        root.mkdir(parents=True, exist_ok=True)
        meta = []
        for pid in ids:
            mechanism, noise = self.PAIR_CELLS[pid % len(self.PAIR_CELLS)]
            table = draw_pair(mechanism, noise, self.bands[(pid - 1) // self.VARIANTS],
                              20_000 + pid)
            if pid % 3 == 0:
                write_table(root / f"pair{pid:04d}.txt", table[:, ::-1])
                meta.append(f"{pid:04d} 2 2 1 1 1")
            else:
                write_table(root / f"pair{pid:04d}.txt", table)
                meta.append(f"{pid:04d} 1 1 2 2 1")
        (root / "pairmeta.txt").write_text("\n".join(meta) + "\n")

    def _unit(self, directory: Path, out: Path, key) -> Unit:
        return Unit(("tcep", str(directory), "--methods", self.methods, "--jobs", "1",
                     "--seed", "0", "--subsample-limit", str(self.subsample_limit),
                     "--out-dir", str(out)), key)

    def plan(self, workdir: Path, seed: int) -> list[Unit]:
        """Unit i holds one variant of each size band; each band's variants
        are visited in a seed-chosen order, so a pass covers every pair."""
        rng = np.random.default_rng(seed)
        orders = [rng.permutation(self.VARIANTS) for _ in self.bands]
        units = []
        for i in range(self.VARIANTS):
            ids = sorted(self._pair_id(b, int(order[i])) for b, order in enumerate(orders))
            directory = workdir / "pairs" / f"unit{i}"
            self._write_dir(directory, ids)
            units.append(self._unit(directory, workdir / "pairs-out", tuple(ids)))
        return units

    def warmup_argv(self, workdir: Path) -> list[str]:
        self._write_dir(workdir / "warmup", [1])
        return ["tcep", str(workdir / "warmup"), "--methods", "kiim", "--jobs", "1",
                "--out-dir", str(workdir / "warmup-out")]

    @staticmethod
    def _rows(out: Path) -> dict:
        rows = {}
        with open(out / "tcep_pairs.csv", newline="") as fh:
            for r in csv.DictReader(fh):
                rows.setdefault(str(int(r["pair_id"])), {})[r["method"]] = {
                    "decision": r["decision"], "correct": r["correct"],
                    "score_xy": float(r["score_xy"]) if r["score_xy"] else None,
                    "score_yx": float(r["score_yx"]) if r["score_yx"] else None}
        return rows

    @staticmethod
    def _same(got: dict, want: dict) -> bool:
        if got["decision"] != want["decision"] or got["correct"] != want["correct"]:
            return False
        for k in ("score_xy", "score_yx"):
            if (got[k] is None) != (want[k] is None):
                return False
            if got[k] is not None and not scores_match(got[k], want[k]):
                return False
        return True

    def check(self, unit: Unit, code: int, stdout: str, reference: dict) -> Outcome:
        expected = [(str(pid), method, reference[str(pid)][method])
                    for pid in unit.key for method in reference[str(pid)]]
        try:
            got = self._rows(Path(unit.argv[-1])) if code == 0 else {}
        except (OSError, ValueError, KeyError) as exc:
            got, notes = {}, [f"pairs {unit.key}: unreadable output ({exc})"]
        else:
            notes = [] if code == 0 else [f"pairs {unit.key}: exit code {code}"]
        departures = 0
        correct = 0
        for pid, method, want in expected:
            row = got.get(pid, {}).get(method)
            if row is not None and row["correct"] == "true":
                correct += 1
            if row is None or not self._same(row, want):
                departures += 1
                notes.append(f"pair {pid} {method}: got {row}, reference {want}")
        return Outcome(len(expected), correct, len(expected), departures, notes)

    def record(self, workdir: Path) -> dict:
        ids = [self._pair_id(b, v) for b in range(len(self.bands)) for v in range(self.VARIANTS)]
        self._write_dir(workdir / "pairs-all", ids)
        unit = self._unit(workdir / "pairs-all", workdir / "pairs-out", tuple(ids))
        code, _ = run_cli(list(unit.argv))
        if code != 0:
            raise RuntimeError(f"tcep exited {code}")
        return self._rows(workdir / "pairs-out")


WORKLOADS = {w.name: w for w in (InferWorkload, GridWorkload, PairsWorkload)}


def make(name: str) -> Workload:
    return WORKLOADS[name]()


def clean(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
