"""Shipping gate: eight release criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line; the
numbered order below mirrors the release checklist. The heavy benchmark
criteria use the stated protocol (100 trials of 100 samples per cell).
"""

import json
import math
import os
import re
import time

import numpy as np
import pytest

from kiim import Direction, Mechanism, MechanismSpec, Method, Noise, PairedDataset, \
    RunConfig, Spectrum, TangencyError, construct_equal_norm_density, \
    default_composite, energy_rank_score, generate, gram, invariance_matrix, \
    kiim_matrix, kiim_score, log_kernel, rational_quadratic, rbf, run_ablation, \
    run_synthetic, standardize, sym_eig, table1_grid, verify_lemma1
from kiim.cli import main
from kiim.theory import FiniteBasisDensity
from oracles import brute_force_kiim_score, dense_kiim_matrix, enumerate_energy_rank

JOBS = min(4, os.cpu_count() or 1)

STRONG_CELLS = (
    (Mechanism.ANM1, Noise.GAUSSIAN),
    (Mechanism.ANM1, Noise.UNIFORM),
    (Mechanism.MNM1, Noise.GAUSSIAN),
    (Mechanism.MNM1, Noise.UNIFORM),
    (Mechanism.MNM2, Noise.GAUSSIAN),
    (Mechanism.MNM2, Noise.UNIFORM),
)
COMPLEX_CELLS = ((Mechanism.CNM, Noise.GAUSSIAN), (Mechanism.CNM, Noise.UNIFORM))


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def report_dirs(tmp_path_factory):
    return tmp_path_factory.mktemp("reports")


def test_criterion_1_strong_cell_accuracy():
    started = time.monotonic()
    results = run_synthetic(STRONG_CELLS + COMPLEX_CELLS, [Method.KIIM],
                            trials=100, n=100, seed=0, jobs=JOBS)
    elapsed = time.monotonic() - started
    accuracy = {(r.mechanism, r.noise): r.accuracy for r in results}
    strong = min(accuracy[cell] for cell in STRONG_CELLS)
    complex_ = min(accuracy[cell] for cell in COMPLEX_CELLS)
    ok = strong >= 0.95 and complex_ >= 0.85 and elapsed < 300
    _report(1, ok,
            f"KIIM 100x100: worst strong cell {strong:.2f} (need >= 0.95), "
            f"worst complex cell {complex_:.2f} (need >= 0.85), {elapsed:.0f}s")


def test_criterion_2_failure_signatures():
    anm = run_synthetic([(Mechanism.MNM1, Noise.GAUSSIAN), (Mechanism.MNM1, Noise.UNIFORM)],
                        [Method.ANM], trials=100, n=100, seed=0, jobs=JOBS)
    igci = run_synthetic([(Mechanism.ANM2, Noise.UNIFORM)],
                         [Method.IGCI_GAUSS, Method.IGCI_UNIFORM],
                         trials=100, n=100, seed=0, jobs=JOBS)
    worst_anm = max(r.accuracy for r in anm)
    igci_accs = [r.accuracy for r in igci]
    ok = worst_anm <= 0.05 and all(0.35 <= a <= 0.65 for a in igci_accs)
    _report(2, ok,
            f"ANM on MNM1 {worst_anm:.2f} (need <= 0.05), IGCI on ANM2/Uniform "
            f"{', '.join(f'{a:.2f}' for a in igci_accs)} (need within [0.35, 0.65])")


def test_criterion_3_hard_cell_honesty():
    (result,) = run_synthetic([(Mechanism.ANM2, Noise.UNIFORM)], [Method.KIIM],
                              trials=100, n=100, seed=0, jobs=JOBS)
    ok = 0.40 <= result.accuracy <= 0.75
    _report(3, ok,
            f"KIIM on ANM2/Uniform {result.accuracy:.2f} (need within [0.40, 0.75])")


def test_criterion_4_discard_one_beats_discard_zero():
    cells = ((Mechanism.ANM1, Noise.GAUSSIAN), (Mechanism.MNM2, Noise.GAUSSIAN))
    results = run_ablation(cells, d_max=1, trials=100, n=100, seed=0, jobs=JOBS)
    accuracy = {(r.mechanism, r.noise, r.discarded_top): r.accuracy for r in results}
    pieces = []
    ok = True
    for mechanism, noise in cells:
        d0 = accuracy[(mechanism, noise, 0)]
        d1 = accuracy[(mechanism, noise, 1)]
        ok = ok and d1 >= d0
        pieces.append(f"{mechanism.value}/{noise.value} d1 {d1:.2f} vs d0 {d0:.2f}")
    _report(4, ok, "fixed-discard accuracy: " + "; ".join(pieces) + " (need d1 >= d0)")


def test_criterion_5_pairs_benchmark_pipeline(tcep_dir, report_dirs):
    out_a, out_b = report_dirs / "tcep_a", report_dirs / "tcep_b"
    started = time.monotonic()
    code_a = main(["tcep", str(tcep_dir), "--methods", "kiim", "--jobs", str(JOBS),
                   "--out-dir", str(out_a)])
    elapsed = time.monotonic() - started
    code_b = main(["tcep", str(tcep_dir), "--methods", "kiim", "--jobs", str(JOBS),
                   "--out-dir", str(out_b)])
    body = json.loads((out_a / "tcep_summary.json").read_text())
    counts = (body["loaded"], body["excluded"], body["usable"])
    accuracy = body["accuracies"][0]["accuracy"]
    stable = (out_a / "tcep_pairs.csv").read_bytes() == (out_b / "tcep_pairs.csv").read_bytes()
    ok = (code_a == code_b == 0 and counts == (108, 10, 98) and accuracy > 0.5
          and stable and elapsed < 900)
    _report(5, ok,
            f"loaded/excluded/evaluated {counts[0]}/{counts[1]}/{counts[2]} "
            f"(need 108/10/98), KIIM accuracy {accuracy:.2f} (need > 0.5), "
            f"per-pair CSV byte-stable: {stable}, {elapsed:.0f}s")


def test_criterion_6_oracle_equivalence():
    config = RunConfig()
    worst_matrix = 0.0
    worst_score = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal(8)
        ys = xs**3 + xs + 0.3 * rng.standard_normal(8)
        Kx = gram(config.kernel_x, standardize(xs))
        Ky = gram(config.kernel_y, standardize(ys))
        M = kiim_matrix(Kx, Ky, config.lam)
        dense = dense_kiim_matrix(np.array(Kx), np.array(Ky), config.lam)
        worst_matrix = max(worst_matrix, float(np.abs(M - dense).max()))
        score = kiim_score(PairedDataset(xs, ys), Direction.X_TO_Y).score
        worst_score = max(worst_score, abs(score - brute_force_kiim_score(xs, ys)))
    matches = 0
    rng = np.random.default_rng(999)
    for case in range(1000):
        n = int(rng.integers(1, 30))
        values = np.sort(rng.exponential(size=n))[::-1]
        if case % 7 == 0:
            values[max(1, n // 2):] = 0.0
        if case % 13 == 0:
            values[:] = 0.0
        spectrum = Spectrum(eigenvalues=values, clamped_count=0, negative_count=0,
                            min_raw=float(values.min()))
        result = energy_rank_score(spectrum)
        discarded, score = enumerate_energy_rank(values)
        if result.discarded_top == discarded and math.isclose(
                result.score, score, rel_tol=1e-12, abs_tol=1e-15):
            matches += 1
    ok = worst_matrix <= 1e-8 and worst_score <= 1e-8 and matches == 1000
    _report(6, ok,
            f"dense-oracle max |diff| matrix {worst_matrix:.2e}, score {worst_score:.2e} "
            f"(need <= 1e-08); energy rule exact on {matches}/1000 spectra")


def test_criterion_7_lemma_suite():
    stationary = [rbf(), rbf(0.7), log_kernel(), rational_quadratic(),
                  default_composite("product")]
    rng = np.random.default_rng(7)
    max_gap = 0.0
    for trial in range(100):
        samples = rng.standard_normal(12) + rng.uniform(0.5, 2.0)
        gap = verify_lemma1(samples, stationary[trial % len(stationary)])[2]
        max_gap = max(max_gap, gap)
    distinct = 0
    tangent = 0
    max_residual = 0.0
    rng = np.random.default_rng(77)
    for _ in range(1000):
        while True:
            alpha = rng.normal(0.0, 1.0, 4)
            theta = rng.normal(0.0, 1.0, 4)
            if abs(alpha @ theta) > 1e-3:
                break
        lam = rng.uniform(0.5, 2.0, 4)
        p = FiniteBasisDensity(alpha, lam, theta)
        try:
            q = construct_equal_norm_density(p)
        except TangencyError:
            tangent += 1
            continue
        norm_res = abs(q.normalization - p.normalization) / max(1.0, abs(p.normalization))
        sq_res = abs(q.embedding_sq_norm - p.embedding_sq_norm) / max(1.0, p.embedding_sq_norm)
        max_residual = max(max_residual, norm_res, sq_res)
        if float(np.abs(q.coefficients - p.coefficients).max()) > 1e-8:
            distinct += 1
    ok = max_gap <= 1e-12 and max_residual <= 1e-10 and distinct >= 990
    _report(7, ok,
            f"reflection gap max {max_gap:.2e} (need <= 1e-12); equal-norm construction "
            f"residual max {max_residual:.2e} (need <= 1e-10), distinct {distinct}/1000 "
            f"(need >= 990, {tangent} tangent)")


def _scan_reports(root):
    """Yield (file, offending token) for any non-finite value in a report."""
    pattern = re.compile(r"(?<![a-z0-9_])(nan|inf|infinity)(?![a-z0-9_])")
    for path in sorted(root.rglob("*")):
        if path.suffix == ".json":
            stack = [json.loads(path.read_text())]
            while stack:
                node = stack.pop()
                if isinstance(node, dict):
                    stack.extend(node.values())
                elif isinstance(node, list):
                    stack.extend(node)
                elif isinstance(node, float) and not math.isfinite(node):
                    yield path.name, repr(node)
        elif path.suffix in (".csv", ".svg"):
            for token in pattern.findall(path.read_text().lower()):
                yield path.name, token


def test_criterion_8_numerical_hygiene(tcep_dir, report_dirs):
    config = RunConfig()
    worst_ratio = 0.0
    checked = 0
    for mechanism, noise in table1_grid():
        for seed in range(5):
            ds = generate(MechanismSpec(mechanism, noise, n=100, seed=seed))
            for direction in (Direction.X_TO_Y, Direction.Y_TO_X):
                for reweighted in (False, True):
                    M = invariance_matrix(ds, direction, config, reweighted=reweighted)
                    spectrum = sym_eig(M)
                    trace = float(np.trace(M))
                    if spectrum.min_raw < 0.0:
                        worst_ratio = max(worst_ratio, -spectrum.min_raw / trace)
                    checked += 1
    code = main(["synthetic", "--cells", "ANM1:Gaussian", "--methods",
                 "kiim,rw-kiim,kcdc,igci-gauss,igci-uniform,anm", "--trials", "5",
                 "--n", "60", "--out-dir", str(report_dirs / "synthetic")])
    assert code == 0
    code = main(["ablation", "--cells", "MNM2:Gaussian", "--d-max", "2", "--trials", "5",
                 "--n", "60", "--out-dir", str(report_dirs / "ablation")])
    assert code == 0
    offenders = list(_scan_reports(report_dirs))
    ok = worst_ratio <= 1e-10 and not offenders
    _report(8, ok,
            f"min-eigenvalue ratio {worst_ratio:.2e} of trace across {checked} matrices "
            f"(need <= 1e-10); non-finite report values: {offenders or 'none'}")
