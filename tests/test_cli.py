"""End-to-end CLI tests: exit codes, emitted files, determinism."""

import argparse
import json
import os
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import numpy as np
import pytest

from kiim import CausalDecision, Direction, DirectionScore, Mechanism, MechanismSpec, Method, \
    Noise, PairedDataset, RunConfig, build_config, config_digest, default_composite, generate, \
    write_pair_text
from kiim.cli import build_parser, main, parse_method
from kiim.config import _KEYS, config_items
from kiim.report import SCHEMA_VERSION, format_value


@pytest.fixture
def pair_file(tmp_path):
    ds = generate(MechanismSpec(Mechanism.ANM1, Noise.GAUSSIAN, n=80, seed=0))
    path = tmp_path / "pair.txt"
    write_pair_text(path, ds)
    return path


def _json_output(capsys):
    return json.loads(capsys.readouterr().out)


def test_parse_method_aliases():
    assert parse_method("KIIM") is Method.KIIM
    assert parse_method(" rw-kiim ") is Method.RW_KIIM


def test_infer_decides_forward(pair_file, capsys):
    assert main(["infer", str(pair_file)]) == 0
    payload = _json_output(capsys)
    assert payload["schema"] == SCHEMA_VERSION
    assert payload["direction"] == "XtoY"
    assert payload["method"] == "KIIM"
    assert payload["n"] == 80
    assert len(payload["config_digest"]) == 64
    assert payload["score_xy"]["retained_count"] >= 1
    assert 0.0 < payload["score_xy"]["retained_energy_ratio"] <= 1.0


def test_infer_identical_columns_is_undecided(tmp_path, capsys):
    xs = np.linspace(0.0, 1.0, 30)
    path = tmp_path / "pair.txt"
    write_pair_text(path, PairedDataset(xs, xs))
    assert main(["infer", str(path)]) == 2
    assert _json_output(capsys)["direction"] == "Undecided"


def test_infer_baseline_score_has_no_rank_fields(pair_file, capsys):
    assert main(["infer", str(pair_file), "--method", "anm"]) == 0
    payload = _json_output(capsys)
    assert payload["method"] == "ANM"
    assert "retained_count" not in payload["score_xy"]


def test_infer_flag_changes_config_digest(pair_file, capsys):
    main(["infer", str(pair_file)])
    default_digest = _json_output(capsys)["config_digest"]
    main(["infer", str(pair_file), "--kernel-x", "rbf:2.0"])
    assert _json_output(capsys)["config_digest"] != default_digest


def test_infer_reads_config_file(pair_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.5\n")
    main(["infer", str(pair_file), "--config", str(cfg)])
    from_file = _json_output(capsys)["config_digest"]
    main(["infer", str(pair_file), "--lambda", "0.5"])
    assert _json_output(capsys)["config_digest"] == from_file


@pytest.mark.parametrize("argv", [
    ["infer", "does-not-exist.txt"],
    ["infer", "{pair}", "--method", "wat"],
    ["infer", "{pair}", "--kernel-x", "wat"],
    ["infer", "{pair}", "--lambda", "-1"],
    ["infer", "{pair}", "--lambda", "abc"],
    ["unknown-command"],
    [],
])
def test_bad_input_exits_one(pair_file, argv, capsys):
    argv = [a.format(pair=pair_file) for a in argv]
    assert main(argv) == 1
    assert capsys.readouterr().err


def test_infer_malformed_pair_file(tmp_path, capsys):
    path = tmp_path / "pair.txt"
    path.write_text("1.0 2.0\n3.0\n")
    assert main(["infer", str(path)]) == 1
    assert "2" in capsys.readouterr().err


def test_infer_bad_config_file_key(pair_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no_such_key = 1\n")
    assert main(["infer", str(pair_file), "--config", str(cfg)]) == 1


def test_composite_mode_is_gone(pair_file, tmp_path, capsys):
    # The sum composite is spelled through kernel.x and kernel.y.
    assert main(["infer", str(pair_file), "--composite-mode", "sum"]) == 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text("composite_mode = sum\n")
    capsys.readouterr()
    assert main(["infer", str(pair_file), "--config", str(cfg)]) == 1
    assert "composite_mode" in capsys.readouterr().err
    spelled = build_config({"kernel.x": "sum(rbf:median,log,rq)",
                            "kernel.y": "sum(rbf:median,log,rq)"})
    assert spelled == RunConfig(kernel_x=default_composite("sum"),
                                kernel_y=default_composite("sum"))


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_infer_rejects_non_finite_lambda(pair_file, value, capsys):
    # NaN passed the old `lam <= 0` check and failed later as exit 3.
    assert main(["infer", str(pair_file), "--lambda", value]) == 1
    captured = capsys.readouterr()
    assert "error: lambda must be positive and finite" in captured.err
    assert not captured.out


def test_infer_rejects_non_finite_anm_ridge_from_config_file(pair_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("anm.ridge = nan\n")
    assert main(["infer", str(pair_file), "--method", "anm", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "error: anm ridge must be positive and finite" in captured.err
    assert "NaN" not in captured.out + captured.err


def test_infer_never_prints_nan(pair_file, monkeypatch, capsys):
    nan = DirectionScore(score=float("nan"))
    monkeypatch.setattr("kiim.cli.infer_direction", lambda *args: CausalDecision(
        direction=Direction.UNDECIDED, score_xy=nan, score_yx=nan, method=Method.ANM))
    assert main(["infer", str(pair_file), "--method", "anm"]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert "not JSON compliant" in captured.err


def test_infer_numerical_failure_exits_three(tmp_path, capsys):
    # duplicated cause values make the ridge system singular once the
    # regularizer underflows to nothing
    xs = np.array([0.0, 0.0, 1.0, 2.0, 3.0, 4.0])
    ys = np.array([1.0, 2.0, 0.5, 1.5, 2.5, 3.0])
    path = tmp_path / "pair.txt"
    write_pair_text(path, PairedDataset(xs, ys))
    assert main(["infer", str(path), "--lambda", "1e-300"]) == 3
    assert "numerical" in capsys.readouterr().err


@pytest.mark.parametrize("argv,settings", [
    (["infer", "{pair}", "--kernel-x", "rbf:1e200"], None),
    (["infer", "{pair}", "--method", "anm"], "anm.kernel = rbf:1e180"),
    (["infer", "{pair}", "--kernel-x", "rbf:1e-170"], None),
    (["infer", "{pair}", "--method", "kcdc"], "kcdc.kernel_in = rbf:1e-200"),
    (["infer", "{pair}", "--kernel-y", "rbf:1e-200", "--method", "rw-kiim"], None),
    (["synthetic", "--cells", "ANM1:Gaussian", "--kernel-x", "rbf:1e200", "--trials", "2"], None),
    (["synthetic", "--cells", "ANM1:Gaussian", "--kernel-x", "rbf:1e200", "--trials", "2",
      "--jobs", "2"], None),
], ids=["x-1e200", "anm-config-1e180", "x-1e-170", "kcdc-config-1e-200", "rw-kiim-y-1e-200",
        "synthetic", "synthetic-jobs2"])
def test_an_rbf_width_whose_square_overflows_or_vanishes_is_a_bad_kernel(
        argv, settings, pair_file, tmp_path, capsys):
    # Rejected before any work: no OverflowError traceback, no RuntimeWarning, no report.
    argv = [a.format(pair=pair_file) for a in argv]
    if settings:
        (tmp_path / "run.cfg").write_text(settings + "\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    out = tmp_path / "runs"
    if argv[0] == "synthetic":
        argv += ["--out-dir", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: bad kernel 'rbf:1e")
    assert "finite nonzero square" in captured.err
    assert not captured.out
    assert not out.exists()


def test_an_overflowing_gram_is_a_numerical_failure(tmp_path, capsys):
    # (x x' + 1)^200 overflows at the standardized outlier (about 6.9): exit 3, no warning.
    rng = np.random.default_rng(0)
    xs = rng.standard_normal(50)
    xs[7] = 40.0
    path = tmp_path / "pair.txt"
    write_pair_text(path, PairedDataset(xs, xs**2 + rng.standard_normal(50)))
    assert main(["infer", str(path), "--kernel-x", "poly:200"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "numerical failure: poly kernel Gram has an entry that is not finite\n"
    assert not captured.out


@pytest.mark.parametrize("argv,target", [
    (["infer", "{pair}"], "kiim.cli.infer_direction"),
    (["synthetic", "--cells", "ANM1:Gaussian", "--trials", "2", "--n", "100000000000",
      "--out-dir", "{out}"], "kiim.bench.generate"),
], ids=["infer", "synthetic"])
def test_running_out_of_memory_exits_one(argv, target, pair_file, tmp_path, monkeypatch,
                                         capsys):
    # Nothing is allocated: the scoring or drawing step raises as numpy would.
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)")

    monkeypatch.setattr(target, out_of_memory)
    assert main([a.format(pair=pair_file, out=tmp_path / "runs") for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.endswith("error: Unable to allocate 745. GiB for an array with shape "
                                 "(100000000000,)\n")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "runs").exists()


def _run_synthetic(out_dir, seed="3"):
    return main(["synthetic", "--cells", "ANM1:Gaussian", "--methods", "kiim,anm",
                 "--trials", "3", "--n", "40", "--seed", seed,
                 "--out-dir", str(out_dir)])


def test_synthetic_writes_reports(tmp_path, capsys):
    out = tmp_path / "runs"
    assert _run_synthetic(out) == 0
    stdout = capsys.readouterr().out
    assert "accuracy" in stdout
    csv_lines = (out / "synthetic.csv").read_text().splitlines()
    assert csv_lines[0] == "mechanism,noise,method,trials,correct,errors,accuracy,accuracy_std"
    assert len(csv_lines) == 3
    assert csv_lines[1].startswith("ANM1,Gaussian,KIIM,3,")
    body = json.loads((out / "synthetic.json").read_text())
    assert body["schema"] == 1
    assert body["config"]["lambda"] == "0.001"
    assert len(body["results"]) == 2
    assert "total_seconds" in body["timings"]


def test_synthetic_reruns_are_byte_stable(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    assert _run_synthetic(first) == 0
    assert _run_synthetic(second) == 0
    assert (first / "synthetic.csv").read_bytes() == (second / "synthetic.csv").read_bytes()
    bodies = []
    for out in (first, second):
        body = json.loads((out / "synthetic.json").read_text())
        body.pop("timings")
        bodies.append(body)
    assert bodies[0] == bodies[1]


def test_repeated_cells_and_methods_are_scored_once(tmp_path):
    out = tmp_path / "runs"
    assert main(["synthetic", "--cells", "ANM1:Gaussian,ANM1:Gaussian",
                 "--methods", "kiim,anm,kiim", "--trials", "2", "--n", "30",
                 "--out-dir", str(out)]) == 0
    rows = [line.split(",")[:3] for line in (out / "synthetic.csv").read_text().splitlines()[1:]]
    assert rows == [["ANM1", "Gaussian", "KIIM"], ["ANM1", "Gaussian", "ANM"]]


def test_synthetic_rejects_unknown_cell(tmp_path, capsys):
    # ANM2:Gaussian names a known mechanism and noise but lies off the grid
    for cell in ("FOO:Gaussian", "ANM2:Gaussian"):
        assert main(["synthetic", "--cells", cell, "--out-dir", str(tmp_path)]) == 1
        assert f"cell {cell!r}" in capsys.readouterr().err


def test_ablation_writes_reports(tmp_path, capsys):
    out = tmp_path / "runs"
    code = main(["ablation", "--cells", "ANM1:Gaussian", "--d-max", "1",
                 "--trials", "2", "--n", "30", "--seed", "0", "--out-dir", str(out)])
    assert code == 0
    csv_lines = (out / "ablation.csv").read_text().splitlines()
    assert csv_lines[0] == "mechanism,noise,discarded_top,trials,correct,errors,accuracy"
    assert len(csv_lines) == 3  # d = 0 and d = 1
    body = json.loads((out / "ablation.json").read_text())
    assert body["d_max"] == 1
    assert [r["discarded_top"] for r in body["results"]] == [0, 1]
    ElementTree.parse(out / "ablation.svg")
    assert "best d=" in capsys.readouterr().out


def test_tcep_command_full_run(tcep_dir, tmp_path, capsys):
    out = tmp_path / "runs"
    code = main(["tcep", str(tcep_dir), "--methods", "igci-uniform",
                 "--subsample-limit", "200", "--jobs", "2", "--out-dir", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "loaded 108 pairs, excluded 10, evaluated 98" in stdout
    body = json.loads((out / "tcep_summary.json").read_text())
    assert (body["loaded"], body["excluded"], body["usable"]) == (108, 10, 98)
    assert len(body["exclusions"]) == 10
    (acc,) = body["accuracies"]
    assert acc["method"] == "IGCIUniform"
    assert acc["evaluated"] == 98
    assert acc["accuracy"] > 0.5
    csv_lines = (out / "tcep_pairs.csv").read_text().splitlines()
    assert csv_lines[0] == "pair_id,method,score_xy,score_yx,decision,correct"
    assert len(csv_lines) == 99
    ElementTree.parse(out / "tcep_accuracy.svg")


def test_run_summaries_share_one_envelope(tmp_path):
    pairs = tmp_path / "pairs"
    pairs.mkdir()
    write_pair_text(pairs / "pair0001.txt",
                    generate(MechanismSpec(Mechanism.ANM1, Noise.GAUSSIAN, n=40, seed=0)))
    (pairs / "pairmeta.txt").write_text("0001 1 1 2 2 1\n")
    runs = [
        (["synthetic", "--cells", "ANM1:Gaussian", "--trials", "2", "--n", "30"],
         "synthetic.json"),
        (["ablation", "--cells", "ANM1:Gaussian", "--d-max", "1", "--trials", "2", "--n", "30"],
         "ablation.json"),
        (["tcep", str(pairs), "--methods", "igci-uniform"], "tcep_summary.json"),
    ]
    envelope = {"schema", "command", "run_id", "config", "config_digest", "seed", "timings"}
    digest = config_digest(build_config({"lambda": "0.01"}))
    for argv, summary in runs:
        out = tmp_path / argv[0]
        assert main(argv + ["--lambda", "0.01", "--seed", "4", "--out-dir", str(out)]) == 0
        body = json.loads((out / summary).read_text())
        assert envelope <= set(body)
        assert (body["command"], body["seed"], body["config_digest"]) == (argv[0], 4, digest)
        assert body["run_id"] == f"{argv[0]}-{digest[:12]}-seed4"
        assert body["config"]["lambda"] == "0.01"
        assert set(body["timings"]) == {"total_seconds"}


def test_ablation_rejects_d_max_not_below_n(tmp_path, capsys):
    # every trial would fail: a spectrum of n eigenvalues allows d <= n - 1
    assert main(["ablation", "--n", "100", "--d-max", "100", "--trials", "2",
                 "--out-dir", str(tmp_path)]) == 1
    assert "d_max" in capsys.readouterr().err
    assert not (tmp_path / "ablation.csv").exists()


@pytest.mark.parametrize("argv,method,report", [
    (["synthetic", "--methods", "kiim,anm", "--n", "7", "--trials", "2"], "ANM", "synthetic.csv"),
    (["ablation", "--n", "4", "--d-max", "2", "--trials", "2"], "KIIM", "ablation.csv"),
    (["tcep", "TCEP_DIR", "--methods", "kiim,anm", "--subsample-limit", "7"], "ANM",
     "tcep_pairs.csv"),
])
def test_runs_reject_sizes_a_method_cannot_score(argv, method, report, tcep_dir, tmp_path,
                                                 capsys):
    # below its minimum the method would fail on every dataset of the run
    argv = [str(tcep_dir) if a == "TCEP_DIR" else a for a in argv]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 1
    assert f"{method} needs at least" in capsys.readouterr().err
    assert not (tmp_path / report).exists()


@pytest.mark.parametrize("argv,message", [
    (["synthetic", "--seed", "-1", "--trials", "2"], "seed must be nonnegative"),
    (["ablation", "--seed", "-3", "--trials", "2"], "seed must be nonnegative"),
    (["tcep", "TCEP_DIR", "--seed", "-1"], "seed must be nonnegative"),
    (["synthetic", "--jobs", "0", "--trials", "2"], "--jobs must be at least 1"),
    (["ablation", "--jobs", "-2", "--trials", "2"], "--jobs must be at least 1"),
    (["tcep", "TCEP_DIR", "--jobs", "0"], "--jobs must be at least 1"),
    (["theory-check", "--draws", "-5"], "--draws must be at least 1"),
    (["theory-check", "--draws", "0"], "--draws must be at least 1"),
    (["tcep", "TCEP_DIR", "--trials", "0", "--n", "-5"], "unrecognized arguments"),
], ids=["synthetic-seed", "ablation-seed", "tcep-seed", "synthetic-jobs", "ablation-jobs",
        "tcep-jobs", "draws-negative", "draws-zero", "tcep-trials"])
def test_runs_reject_negative_seeds_and_counts(argv, message, tcep_dir, tmp_path, capsys):
    argv = [str(tcep_dir) if a == "TCEP_DIR" else a for a in argv]
    out = tmp_path / "runs"
    if argv[0] != "theory-check":
        argv += ["--out-dir", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert not captured.out
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["synthetic", "--cells", "ANM1:Gaussian", "--methods", "kiim,igci-uniform",
     "--trials", "3", "--n", "40"],
    ["ablation", "--cells", "ANM1:Gaussian", "--d-max", "1", "--trials", "2", "--n", "30"],
], ids=["synthetic", "ablation"])
def test_json_results_match_csv_rows(argv, tmp_path):
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    header, *rows = (tmp_path / f"{argv[0]}.csv").read_text().splitlines()
    columns = header.split(",")
    results = json.loads((tmp_path / f"{argv[0]}.json").read_text())["results"]
    assert [sorted(r) for r in results] == [sorted(columns)] * len(rows)
    assert [",".join(format_value(r[c]) for c in columns) for r in results] == rows


def test_tcep_rejects_negative_subsample_limit(tcep_dir, tmp_path, capsys):
    assert main(["tcep", str(tcep_dir), "--subsample-limit", "-5",
                 "--out-dir", str(tmp_path)]) == 1
    assert "subsample limit" in capsys.readouterr().err
    assert not (tmp_path / "tcep_pairs.csv").exists()


def test_tcep_missing_directory(tmp_path, capsys):
    assert main(["tcep", str(tmp_path / "absent"), "--out-dir", str(tmp_path)]) == 1


def test_theory_check_prints_statistics(capsys):
    assert main(["theory-check", "--draws", "5"]) == 0
    stdout = capsys.readouterr().out
    assert "5 sample sets" in stdout
    assert "5 draws" in stdout
    assert "tangent" in stdout


@pytest.mark.parametrize("command", ["infer", "synthetic", "tcep", "ablation", "theory-check"])
def test_help_shows_every_flag_default(command, capsys):
    """``--help`` renders with exit 0, so no help string holds a stray ``%``,
    and it shows each flag's default as ``(default <value>)``: argparse's
    own, or for a config flag the text of ``RunConfig()``'s value."""
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # joins wrapped help lines
    positionals = {"infer": ["pair.txt"], "tcep": ["pairs"]}.get(command, [])
    args = vars(build_parser().parse_args([command, *positionals]))
    items = config_items(RunConfig())
    config_defaults = {name: items[key] for key, (name, _, _) in _KEYS.items()}
    for name, value in args.items():
        if name in ("command", "func", "pair_file", "directory"):
            continue
        value = config_defaults.get(name) if value is None else value
        if value is not None:
            assert f"(default {value})" in text, name


def test_repeated_main_calls_share_no_state(pair_file, capsys):
    assert main(["infer", str(pair_file)]) == 0
    first = _json_output(capsys)
    assert main(["infer", str(pair_file), "--method", "anm", "--lambda", "0.01"]) == 0
    assert _json_output(capsys)["method"] == "ANM"
    assert main(["infer", str(pair_file), "--no-such-flag"]) == 1
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert main(["theory-check", "--draws", "2"]) == 0
    assert "2 draws" in capsys.readouterr().out
    assert main(["infer", str(pair_file)]) == 0
    last = _json_output(capsys)
    assert last == first
    assert last["method"] == "KIIM"
    assert last["config_digest"] == config_digest(RunConfig())


def test_main_builds_its_parser_once(pair_file, monkeypatch, capsys):
    argvs = [["infer", str(pair_file)], ["infer", str(pair_file), "--method", "igci-gauss"],
             ["infer", str(pair_file), "--lambda", "x"], ["theory-check", "--draws", "1"],
             ["synthetic", "--n", "-1"]]
    assert main(argvs[0]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    codes = [main(argvs[i % len(argvs)]) for i in range(10)]
    assert codes == [0, 0, 1, 0, 1] * 2
    assert built == []


def test_a_fresh_cli_run_loads_lapack_without_the_scipy_linalg_package(pair_file,
                                                                     both_wheel_openblas):
    # The test process imports scipy.linalg itself, so only a fresh
    # interpreter shows what a command loads. scipy.linalg's __init__ would
    # pull in numpy.f2py and numpy.testing, and scipy.special would add about
    # 3.6 MB to every run's resident set. An infer imports no pool, logging or
    # benchmark module, and its OpenBLAS copies load on one thread, so the
    # process runs as one OS thread; the caller's environment is left as it was.
    probe = textwrap.dedent("""
        import json, os, sys
        environ = dict(os.environ)
        import kiim.cli
        from kiim import blas
        code = kiim.cli.main(["infer", sys.argv[1]])
        loaded = [name for name in ("scipy.linalg", "numpy.f2py", "numpy.testing",
                                    "scipy.special", "concurrent.futures", "multiprocessing",
                                    "logging", "kiim.bench", "kiim.tcep", "kiim.theory",
                                    "kiim.synthdata") if name in sys.modules]
        threads = (len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task")
                   else None)
        counts = blas.thread_counts()
        restored = dict(os.environ) == environ
        import scipy.linalg.lapack
        same = [name for name in sys.argv[2:]
                if getattr(scipy.linalg.lapack, name) is getattr(blas.lapack, name)]
        print(json.dumps([code, loaded, same, counts, threads, restored]))
    """)
    routines = ["dlange", "dpotrf", "dpocon", "dgetrf", "dgecon", "dpotrs", "dgetrs"]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    runs = []
    for caller in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        result = subprocess.run([sys.executable, "-c", probe, str(pair_file), *routines],
                                capture_output=True, text=True,
                                env={**env, **caller, "PYTHONPATH": str(src)}, check=True)
        *infer_stdout, last = result.stdout.splitlines(keepends=True)
        runs.append(("".join(infer_stdout), *json.loads(last)))
    (single_stdout, code, loaded, same, counts, threads, restored), caller_two = runs
    assert code == 0
    assert loaded == []
    assert same == routines
    assert threads in (1, None)
    assert restored
    if both_wheel_openblas:
        assert counts == [1, 1]
    two_stdout, code, _, _, counts, _, restored = caller_two
    assert two_stdout == single_stdout
    assert code == 0
    assert restored
    if both_wheel_openblas and (os.cpu_count() or 1) >= 2:
        assert counts == [2, 2]
