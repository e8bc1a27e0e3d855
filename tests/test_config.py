"""Config tests: kernel grammar, config files, resolution, digests."""

import dataclasses
import re
from pathlib import Path

import pytest

from kiim import ConfigurationError, RunConfig, \
    build_config, config_digest, default_composite, kernel_sum, kernel_to_text, \
    log_kernel, parse_kernel, polynomial, product, rational_quadratic, rbf, \
    read_config_file, serialize_config
from kiim.config import config_items


GRAMMAR_CASES = [
    ("rbf", rbf()),
    ("rbf:median", rbf()),
    ("rbf:0.7", rbf(0.7)),
    ("log", log_kernel()),
    ("rq", rational_quadratic()),
    ("poly:3", polynomial(3)),
    ("product(rbf:median,log,rq)", default_composite("product")),
    ("sum(rbf:0.5,log)", kernel_sum(rbf(0.5), log_kernel())),
    ("product(sum(rbf:0.5,log),rq,poly:2)",
     product(kernel_sum(rbf(0.5), log_kernel()), rational_quadratic(), polynomial(2))),
]


@pytest.mark.parametrize("text,expected", GRAMMAR_CASES)
def test_parse_kernel(text, expected):
    assert parse_kernel(text) == expected


@pytest.mark.parametrize("text,expected", GRAMMAR_CASES)
def test_kernel_text_round_trip(text, expected):
    assert parse_kernel(kernel_to_text(expected)) == expected


def test_parse_kernel_ignores_case_and_whitespace():
    assert parse_kernel("  RBF:Median ") == rbf()
    assert parse_kernel("PRODUCT(rbf,LOG,rq)") == default_composite("product")


def test_default_rbf_prints_median():
    assert kernel_to_text(rbf()) == "rbf:median"
    assert kernel_to_text(rbf(0.7)) == "rbf:0.7"


@pytest.mark.parametrize("text", [
    "", "   ", "rbf:-1", "rbf:0", "rbf:x", "poly", "poly:x", "poly:2.5",
    "log:2", "rq:1", "product(rbf)", "sum(log)", "product(rbf,log",
    "product(rbf,(log)", "wat", "sum()",
])
def test_parse_kernel_rejects(text):
    with pytest.raises(ConfigurationError):
        parse_kernel(text)


def test_read_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# full line comment\n"
        "\n"
        "lambda = 0.01\n"
        "  kernel.x =  rbf:2.0  # trailing comment\n"
        "composite_mode=sum\n",
        encoding="utf-8",
    )
    assert read_config_file(path) == {
        "lambda": "0.01",
        "kernel.x": "rbf:2.0",
        "composite_mode": "sum",
    }


def test_read_config_file_reports_bad_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lambda = 0.01\nnot a pair\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match=r"2"):
        read_config_file(path)


def test_read_config_file_missing(tmp_path):
    with pytest.raises(ConfigurationError):
        read_config_file(tmp_path / "absent.cfg")


def test_build_config_defaults():
    assert build_config({}) == RunConfig()


def test_build_config_threads_lambda_into_baselines():
    config = build_config({"lambda": "0.5"})
    assert config.lam == 0.5
    for name in ("kcdc_input_kernel", "kcdc_output_kernel", "anm_ridge", "anm_kernel"):
        assert getattr(config, name) == getattr(RunConfig(), name)  # KCDC reads config.lam


def test_build_config_baseline_keys():
    config = build_config({
        "kcdc.kernel_in": "rbf:2.0",
        "kcdc.kernel_out": "log",
        "anm.ridge": "0.01",
        "anm.kernel": "rq",
    })
    assert config.kcdc_input_kernel == rbf(2.0)
    assert config.kcdc_output_kernel == log_kernel()
    assert config.anm_ridge == 0.01
    assert config.anm_kernel == rational_quadratic()


@pytest.mark.parametrize("settings", [
    {"composite_mode": "sum"},
    {"unknown_key": "1"},
    {"lambda": "zero"},
    {"lambda": "-1"},
    {"lambda": "nan"},
    {"lambda": "inf"},
    {"energy_threshold": "0"},
    {"energy_threshold": "1.5"},
    {"embedding_form": "eq5"},
    {"tie_tolerance": "-1e-9"},
    {"tie_tolerance": "nan"},
    {"tie_tolerance": "inf"},
    {"rw.clip_quantile": "0.5"},
    {"rw.clip_quantile": "1.2"},
    {"igci.reference": "uniform"},
    {"anm.ridge": "-1"},
    {"anm.ridge": "nan"},
    {"anm.ridge": "inf"},
    {"kernel.x": "wat"},
    {"kernel.y": "poly:0"},
    {"kernel.y": "poly:-2"},
    {"kernel.y": "rbf:nan"},
    {"kernel.y": "rbf:inf"},
])
def test_build_config_rejects(settings):
    with pytest.raises(ConfigurationError):
        build_config(settings)


def test_serialize_config_is_sorted_key_value_lines():
    text = serialize_config(RunConfig())
    lines = text.splitlines()
    assert len(lines) == 10
    keys = [line.split(" = ")[0] for line in lines]
    assert keys == sorted(keys)
    assert text.endswith("\n")
    assert "lambda = 0.001" in lines
    assert "kernel.x = product(rbf:median,log,rq)" in lines


def test_serialize_round_trips_through_build():
    config = build_config({
        "lambda": "0.02",
        "kernel.y": "sum(rbf:0.5,log)",
        "tie_tolerance": "1e-10",
    })
    reparsed = {}
    for line in serialize_config(config).splitlines():
        key, _, value = line.partition(" = ")
        reparsed[key] = value
    assert build_config(reparsed) == config


def test_config_digest_is_stable_sha256_hex():
    first = config_digest(RunConfig())
    second = config_digest(build_config({}))
    assert first == second
    assert len(first) == 64
    assert set(first) <= set("0123456789abcdef")


def test_config_digest_tracks_changes():
    base = RunConfig()
    assert config_digest(dataclasses.replace(base, lam=0.5)) != config_digest(base)
    assert config_digest(build_config({"anm.ridge": "0.5"})) != config_digest(base)


def test_config_items_cover_every_field():
    # a field without a config key would silently miss the digest
    config = RunConfig(
        lam=0.02, energy_threshold=0.8, kernel_x=rbf(0.5), kernel_y=polynomial(2),
        tie_tolerance=1e-9, rw_clip_quantile=0.9, kcdc_input_kernel=rbf(1.5),
        kcdc_output_kernel=kernel_sum(rbf(0.5), log_kernel()), anm_ridge=0.05,
        anm_kernel=rational_quadratic())
    fields = [f.name for f in dataclasses.fields(RunConfig)]
    for name in fields:
        assert getattr(config, name) != getattr(RunConfig(), name), name
    items = config_items(config)
    assert len(items) == len(fields)
    assert build_config(items) == config


def test_formats_doc_lists_every_config_key():
    doc = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
    section = doc.split("## Config files", 1)[1].split("\n#", 1)[0]
    keys = re.findall(r"^\| `([^`]+)`", section, flags=re.MULTILINE)
    assert sorted(keys) == sorted(config_items(RunConfig()))


def test_read_config_file_undecodable_bytes_name_the_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"lambda = 0.01\n# \xff\n")
    with pytest.raises(ConfigurationError, match=r"run\.cfg.*utf-8"):
        read_config_file(path)
