import numpy as np
import pytest

from kiim import IngestionError, PairedDataset, load_pair_dataset, \
    read_pair_file, standardize, write_pair_text


def test_dataset_validation():
    with pytest.raises(ValueError):
        PairedDataset([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        PairedDataset([], [])
    with pytest.raises(ValueError):
        PairedDataset([1.0, np.nan], [1.0, 2.0])


def test_dataset_arrays_are_frozen():
    ds = PairedDataset([1.0, 2.0], [3.0, 4.0])
    with pytest.raises(ValueError):
        ds.xs[0] = 9.0


def test_subsampled_keeps_alignment_and_order():
    rng = np.random.default_rng(0)
    xs = np.arange(50.0)
    ds = PairedDataset(xs, xs * 2.0)
    sub = ds.subsampled(10, rng)
    assert sub.n == 10
    assert (np.diff(sub.xs) > 0).all()
    np.testing.assert_array_equal(sub.ys, sub.xs * 2.0)


def test_subsampled_noop_when_small():
    ds = PairedDataset([1.0, 2.0], [3.0, 4.0])
    assert ds.subsampled(5, np.random.default_rng(0)) is ds


def test_subsample_seeded_reproducible():
    ds = PairedDataset(np.arange(100.0), np.arange(100.0))
    a = ds.subsampled(20, np.random.default_rng(42))
    b = ds.subsampled(20, np.random.default_rng(42))
    np.testing.assert_array_equal(a.xs, b.xs)


def test_standardize_moments():
    rng = np.random.default_rng(5)
    v = standardize(rng.uniform(3.0, 9.0, 200))
    assert abs(v.mean()) <= 1e-12
    assert v.std() == pytest.approx(1.0, abs=1e-12)


def test_standardize_constant_rejected():
    with pytest.raises(ValueError):
        standardize([2.0, 2.0, 2.0])


def test_read_pair_file_roundtrip(tmp_path):
    ds = PairedDataset([1.5, -2.25, 3.125], [0.5, 0.25, -0.125])
    path = tmp_path / "pair.txt"
    write_pair_text(path, ds)
    table = read_pair_file(path)
    np.testing.assert_array_equal(table[:, 0], ds.xs)
    np.testing.assert_array_equal(table[:, 1], ds.ys)


def test_read_pair_file_skips_blank_lines(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("1 2\n\n3 4\n")
    assert read_pair_file(path).shape == (2, 2)


def test_read_pair_file_accepts_nan_tokens(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("1 2\nNaN 4\n")
    table = read_pair_file(path)
    assert np.isnan(table[1, 0])


def test_read_pair_file_names_bad_line(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("1 2\n3 oops\n")
    with pytest.raises(IngestionError) as info:
        read_pair_file(path)
    assert info.value.line == 2
    assert "pair.txt" in str(info.value)


def test_read_pair_file_ragged_row(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("1 2\n3 4 5\n")
    with pytest.raises(IngestionError) as info:
        read_pair_file(path)
    assert info.value.line == 2


def test_read_pair_file_empty(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("\n\n")
    with pytest.raises(IngestionError):
        read_pair_file(path)


def test_read_pair_file_missing():
    with pytest.raises(IngestionError):
        read_pair_file("/nonexistent/pair0001.txt")


def test_load_pair_dataset_takes_first_two_columns(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("1 2 99\n3 4 99\n")
    ds = load_pair_dataset(path)
    np.testing.assert_array_equal(ds.xs, [1.0, 3.0])
    np.testing.assert_array_equal(ds.ys, [2.0, 4.0])


def test_load_pair_dataset_needs_two_columns(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("1\n2\n")
    with pytest.raises(IngestionError):
        load_pair_dataset(path)


def test_read_pair_file_undecodable_bytes_name_the_file(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_bytes(b"1 2\n\xff 4\n")
    with pytest.raises(IngestionError, match=r"utf-8.*pair\.txt"):
        read_pair_file(path)
