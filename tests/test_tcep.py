"""Benchmark-directory tests: ingestion, exclusions, orientation, accuracy."""

import logging

import numpy as np
import pytest

from kiim import Direction, IngestionError, Mechanism, MechanismSpec, Method, Noise, \
    TcepPair, evaluate_tcep, generate, load_tcep, write_pair_text
from tcep_fixture import BIG_PAIR, MISSING, MULTIVARIATE, NO_TRUTH, _pair_dataset


def _anm1(seed, n=80):
    return generate(MechanismSpec(Mechanism.ANM1, Noise.GAUSSIAN, n=n, seed=seed))


def _finish(root, meta_lines):
    (root / "pairmeta.txt").write_text("".join(meta_lines))
    return root


def _tiny_dir(tmp_path, tables, spans=None, weights=None):
    """Write pair files from (n, 2+) arrays with default metadata."""
    meta = []
    for i, table in enumerate(tables, start=1):
        rows = [" ".join(f"{v:.16g}" for v in row) for row in np.atleast_2d(table)]
        (tmp_path / f"pair{i:04d}.txt").write_text("\n".join(rows) + "\n")
        span = (spans or {}).get(i, "1 1 2 2")
        weight = (weights or {}).get(i, 1.0)
        meta.append(f"{i:04d} {span} {weight:g}\n")
    return _finish(tmp_path, meta)


def test_fixture_counts_and_reasons(tcep_dir):
    pairs = load_tcep(tcep_dir)
    assert len(pairs) == 108
    assert [p.id for p in pairs] == list(range(1, 109))
    reasons = {p.id: p.exclusion_reason for p in pairs if p.excluded}
    assert len(reasons) == 10
    assert {pid for pid, r in reasons.items() if r == "multivariate"} == set(MULTIVARIATE)
    assert {pid for pid, r in reasons.items() if r == "missing values"} == set(MISSING)
    assert {pid for pid, r in reasons.items() if r == "no ground truth"} == {NO_TRUTH}


def test_excluded_pairs_carry_no_dataset(tcep_dir):
    for pair in load_tcep(tcep_dir):
        assert (pair.dataset is None) == pair.excluded


def test_metadata_orients_reversed_columns(tcep_dir):
    # pair 3 is stored effect-first; the loader must still put the cause in xs
    pair = load_tcep(tcep_dir)[2]
    expected = _pair_dataset(3)
    assert pair.id == 3
    np.testing.assert_allclose(pair.dataset.xs, expected.xs, rtol=1e-14)
    np.testing.assert_allclose(pair.dataset.ys, expected.ys, rtol=1e-14)


def test_fixture_weights_respected(tcep_dir):
    pairs = {p.id: p for p in load_tcep(tcep_dir)}
    assert pairs[2].weight == 0.5
    assert pairs[8].weight == 1.0


def test_missing_metadata_file(tmp_path):
    with pytest.raises(IngestionError):
        load_tcep(tmp_path)


def test_short_metadata_row_reports_line(tmp_path):
    write_pair_text(tmp_path / "pair0001.txt", _anm1(0))
    (tmp_path / "pairmeta.txt").write_text("0001 1 1 2 2\n")
    with pytest.raises(IngestionError, match=r":1"):
        load_tcep(tmp_path)


@pytest.mark.parametrize("row", [
    "0001 1 1 2 two 1.0\n",
    "0001 1 1 2 2 0\n",
    "0001 1 1 2 2 -1\n",
    "0001 1 1 2 2 nan\n",
    "0001 1 1 2 2 inf\n",
    "0001 0 0 2 2 1\n",
    "0001 2 1 2 2 1\n",
    "",
    "0001 1 1 2 2 1\n0001 2 2 1 1 0.5\n",
])
def test_bad_metadata_rows(tmp_path, row):
    write_pair_text(tmp_path / "pair0001.txt", _anm1(0))
    (tmp_path / "pairmeta.txt").write_text(row)
    with pytest.raises(IngestionError):
        load_tcep(tmp_path)


@pytest.mark.parametrize("pid", [0, -1])
def test_pair_id_below_one_is_rejected(tmp_path, pid):
    # Both files exist: id 0 would read pair0000.txt and id -1 pair-001.txt.
    write_pair_text(tmp_path / f"pair{pid:04d}.txt", _anm1(0))
    (tmp_path / "pairmeta.txt").write_text(f"{pid} 1 1 2 2 1.0\n")
    with pytest.raises(IngestionError, match=r"pair id.*:1"):
        load_tcep(tmp_path)


def test_metadata_column_beyond_table_width(tmp_path):
    write_pair_text(tmp_path / "pair0001.txt", _anm1(0))
    (tmp_path / "pairmeta.txt").write_text("0001 1 1 3 3 1.0\n")
    with pytest.raises(IngestionError):
        load_tcep(tmp_path)


def test_nan_cell_excludes_any_pair(tmp_path):
    ds = _anm1(1)
    table = np.column_stack([ds.xs, ds.ys])
    table[4, 1] = np.nan
    root = _tiny_dir(tmp_path, [table])
    (pair,) = load_tcep(root)
    assert pair.excluded and pair.exclusion_reason == "missing values"


def test_column_span_marks_multivariate(tmp_path):
    ds = _anm1(2)
    table = np.column_stack([ds.xs, ds.ys, ds.ys])
    root = _tiny_dir(tmp_path, [table], spans={1: "1 2 3 3"})
    (pair,) = load_tcep(root)
    assert pair.excluded and pair.exclusion_reason == "multivariate"


def _stack(ds):
    return np.column_stack([ds.xs, ds.ys])


def test_all_correct_directory(tmp_path):
    root = _tiny_dir(tmp_path, [_stack(_anm1(seed)) for seed in (1, 2, 3)])
    report = evaluate_tcep(load_tcep(root), [Method.KIIM])
    assert (report.loaded, report.excluded, report.usable) == (3, 0, 3)
    (acc,) = report.accuracies
    assert acc.method is Method.KIIM
    assert (acc.evaluated, acc.correct) == (3, 3)
    assert acc.accuracy == 1.0 and acc.weighted_accuracy == 1.0


def test_flipped_pair_is_scored_incorrect(tmp_path):
    ds = _anm1(0, n=100)
    root = _tiny_dir(tmp_path, [np.column_stack([ds.ys, ds.xs])])
    report = evaluate_tcep(load_tcep(root), [Method.KIIM])
    (result,) = report.results
    assert result.direction is Direction.Y_TO_X
    assert not result.correct
    assert report.accuracies[0].accuracy == 0.0


def test_identical_columns_are_undecided_and_incorrect(tmp_path):
    xs = np.linspace(-1.0, 1.0, 40)
    root = _tiny_dir(tmp_path, [np.column_stack([xs, xs])])
    report = evaluate_tcep(load_tcep(root), [Method.KIIM])
    (result,) = report.results
    assert result.direction is Direction.UNDECIDED
    assert result.error is None
    assert not result.correct


def test_method_error_is_recorded_and_run_continues(tmp_path, caplog):
    good = _stack(_anm1(4))
    ds = _anm1(5)
    degenerate = np.column_stack([ds.xs, np.ones(ds.n)])
    root = _tiny_dir(tmp_path, [good, degenerate])
    with caplog.at_level(logging.WARNING, logger="kiim.tcep"):
        report = evaluate_tcep(load_tcep(root), [Method.KIIM])
    by_id = {r.pair_id: r for r in report.results}
    assert by_id[1].correct and by_id[1].error is None
    assert by_id[2].error is not None and not by_id[2].correct
    assert by_id[2].score_xy is None
    assert report.accuracies[0].accuracy == 0.5
    # the failure's message is logged once, naming the pair and the method
    failed = [(r.levelno, r.getMessage()) for r in caplog.records
              if "trial failed" in r.getMessage()]
    assert failed == [(logging.WARNING, f"trial failed: pair 2 KIIM: {by_id[2].error}")]


def test_weighted_accuracy_uses_metadata_weights(tmp_path):
    good = _stack(_anm1(0, n=100))
    ds = _anm1(1, n=100)
    flipped = np.column_stack([ds.ys, ds.xs])
    root = _tiny_dir(tmp_path, [good, flipped], weights={1: 1.0, 2: 3.0})
    report = evaluate_tcep(load_tcep(root), [Method.KIIM])
    (acc,) = report.accuracies
    assert acc.accuracy == 0.5
    assert acc.weighted_accuracy == pytest.approx(0.25)


def test_parallel_run_matches_serial(tcep_dir):
    pairs = [p for p in load_tcep(tcep_dir) if p.id <= 12]
    serial = evaluate_tcep(pairs, [Method.KIIM, Method.IGCI_UNIFORM], jobs=1)
    parallel = evaluate_tcep(pairs, [Method.KIIM, Method.IGCI_UNIFORM], jobs=2)
    assert serial == parallel


def test_oversized_pair_subsampling_is_reproducible(tcep_dir):
    pairs = [p for p in load_tcep(tcep_dir) if p.id == BIG_PAIR]
    assert pairs[0].dataset.n == 1200
    first = evaluate_tcep(pairs, [Method.IGCI_UNIFORM], subsample_limit=200, seed=9)
    second = evaluate_tcep(pairs, [Method.IGCI_UNIFORM], subsample_limit=200, seed=9)
    assert first == second
    other = evaluate_tcep(pairs, [Method.IGCI_UNIFORM], subsample_limit=200, seed=10)
    assert other.results[0].score_xy != first.results[0].score_xy


def test_methods_accept_plain_strings(tmp_path):
    root = _tiny_dir(tmp_path, [_stack(_anm1(6))])
    report = evaluate_tcep(load_tcep(root), ["KIIM"])
    assert report.accuracies[0].method is Method.KIIM


def test_repeated_method_is_scored_once(tmp_path):
    root = _tiny_dir(tmp_path, [_stack(_anm1(seed)) for seed in range(3)])
    report = evaluate_tcep(load_tcep(root), ["KIIM", Method.ANM, Method.KIIM])
    assert [(a.method, a.evaluated) for a in report.accuracies] == [(Method.KIIM, 3),
                                                                    (Method.ANM, 3)]
    assert len(report.results) == 6


def test_evaluate_requires_methods_and_usable_pairs(tmp_path):
    root = _tiny_dir(tmp_path, [_stack(_anm1(7))])
    pairs = load_tcep(root)
    with pytest.raises(ValueError):
        evaluate_tcep(pairs, [])
    only_excluded = [TcepPair(id=1, dataset=None, weight=1.0, exclusion_reason="multivariate")]
    with pytest.raises(ValueError):
        evaluate_tcep(only_excluded, [Method.KIIM])


def test_undecodable_metadata_names_the_file(tmp_path):
    write_pair_text(tmp_path / "pair0001.txt", _anm1(0))
    (tmp_path / "pairmeta.txt").write_bytes(b"0001 1 1 2 2 1.0\n\xff\n")
    with pytest.raises(IngestionError, match=r"utf-8.*pairmeta\.txt"):
        load_tcep(tmp_path)
