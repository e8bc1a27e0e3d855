"""Adversarial pairs: every (pair, method) ends in the outcome that
docs/formats.md documents for it, a decision with finite scores or a typed
error."""

import re
from pathlib import Path

import numpy as np
import pytest

from adversarial_fixture import adversarial_pairs, build_fixture, overflow_pairs
from kiim import Method, infer_direction, write_pair_text
from kiim.cli import main, parse_method
from kiim.tcep import evaluate_tcep, load_tcep


@pytest.fixture(scope="module")
def adversarial_dir(tmp_path_factory):
    return build_fixture(tmp_path_factory.mktemp("adversarial"))


def _documented_outcomes():
    """(pair id, method) -> outcome cell, and pair id -> name, read from the
    "Adversarial pairs" table of docs/formats.md."""
    doc = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
    section = doc.split("## Adversarial pairs", 1)[1].split("\n#", 1)[0]
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]
    header, body = rows[0], rows[2:]
    methods = [Method(name) for name in header[2:]]
    outcomes, names = {}, {}
    for pid, name, *cells in body:
        names[int(pid)] = name.strip("`")
        for method, cell in zip(methods, cells):
            outcomes[int(pid), method] = cell.strip("`")
    return outcomes, names


def test_documented_table_names_every_pair_and_method():
    outcomes, names = _documented_outcomes()
    assert names == dict(enumerate(adversarial_pairs(), start=1))
    assert set(outcomes) == {(pid, method) for pid in names for method in Method}


@pytest.mark.parametrize("jobs", [1, 2])
def test_every_adversarial_pair_ends_in_its_documented_outcome(adversarial_dir, jobs):
    outcomes, _ = _documented_outcomes()
    report = evaluate_tcep(load_tcep(adversarial_dir), list(Method), jobs=jobs)
    assert {(r.pair_id, r.method) for r in report.results} == set(outcomes)
    for r in report.results:
        expected = outcomes[r.pair_id, r.method]
        if r.error is None:
            assert r.direction.value == expected, (r.pair_id, r.method)
            assert np.isfinite([r.score_xy, r.score_yx]).all(), (r.pair_id, r.method)
        else:
            assert expected.startswith("error: "), (r.pair_id, r.method, r.error)
            assert r.error.startswith(expected.removeprefix("error: ")), (r.pair_id, r.method)


def test_identical_columns_score_bit_for_bit_alike_both_ways(adversarial_dir):
    pid = list(adversarial_pairs()).index("identical-columns") + 1
    pair = [p for p in load_tcep(adversarial_dir) if p.id == pid]
    results = evaluate_tcep(pair, list(Method)).results
    assert len(results) == len(Method)
    for r in results:
        assert r.score_xy.hex() == r.score_yx.hex(), r.method


def test_tcep_command_writes_only_finite_numbers(adversarial_dir, tmp_path, capsys):
    out = tmp_path / "runs"
    methods = "kiim,rw-kiim,kcdc,igci-gauss,igci-uniform,anm"
    assert main(["tcep", str(adversarial_dir), "--methods", methods,
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    non_finite = re.compile(r"\b(nan|inf|infinity)\b", flags=re.IGNORECASE)
    for path in out.iterdir():
        assert not non_finite.search(path.read_text()), path.name


@pytest.mark.parametrize("name", list(overflow_pairs()))
def test_an_overflowing_variance_is_an_input_error(name, tmp_path, capsys):
    dataset = overflow_pairs()[name]
    path = tmp_path / "pair.txt"
    write_pair_text(path, dataset)
    for method in ("kiim", "rw-kiim", "kcdc", "igci-gauss", "anm"):
        with pytest.raises(ValueError, match="the variance overflows"):
            infer_direction(dataset, parse_method(method))
        assert main(["infer", str(path), "--method", method]) == 1
        assert "the variance overflows" in capsys.readouterr().err
