"""Fast checks of the benchmark itself at tiny sizes.

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import record  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def tiny(name):
    """A few-second version of each workload; a run covers its whole universe."""
    if name == "infer-n100":
        return workloads.InferWorkload(n=30, per_cell=2, cells=workloads.CELLS[:2],
                                       min_units=4, window_units=2)
    if name == "grid-pool":
        workload = workloads.GridWorkload(cells="ANM1:Gaussian,MNM1:Gaussian",
                                          methods="kiim,anm", n=30, trials=1, jobs=2)
        workload.min_units = 2
        return workload
    workload = workloads.PairsWorkload(bands=(40, 90), methods="kiim,igci-gauss",
                                       subsample_limit=60)
    workload.min_units = 2
    return workload


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def recorded(request, tmp_path_factory):
    workload = tiny(request.param)
    root = tmp_path_factory.mktemp(request.param)
    record.record(workload, root / "reference.json", workdir=root / "record")
    return workload, workload.load_reference(root / "reference.json")


def _run(workload, reference, tmp_path, trace=False):
    return run.run(workload, seed=3, seconds=0.0, trace=trace, workdir=tmp_path,
                   reference=reference)


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_every_metric_present_with_its_unit(recorded, trace, tmp_path):
    workload, reference = recorded
    doc = _run(workload, reference, tmp_path, trace)
    result = doc["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    for key in ("nproc", "python", "numpy", "scipy", "blas", "OPENBLAS_NUM_THREADS",
                "OMP_NUM_THREADS", "MKL_NUM_THREADS", "jobs", "start_method", "git_commit"):
        assert key in doc["environment"]
    if trace and workload.name == "grid-pool":
        # One pool per cell x method, and spans from inside the workers.
        assert result["metrics"]["bench.pools_opened"]["value"] == 4
        assert result["metrics"]["kernels.gram.calls_per_decision"]["value"] > 0


def _alter(name, reference):
    """Change one recorded outcome: a direction, or a correct count."""
    if name == "infer-n100":
        entry = reference[sorted(reference)[0]]
        entry["direction"] = "YtoX" if entry["direction"] == "XtoY" else "XtoY"
    elif name == "grid-pool":
        rows = reference[sorted(reference)[0]]
        row = rows[sorted(rows)[0]]
        row[1] += -1 if row[1] == row[0] else 1
    else:
        methods = reference[sorted(reference)[0]]
        entry = methods[sorted(methods)[0]]
        entry["decision"] = "YtoX" if entry["decision"] == "XtoY" else "XtoY"


def test_altered_reference_shows_as_one_failed_operation(recorded, tmp_path):
    workload, reference = recorded
    altered = json.loads(json.dumps(reference))
    _alter(workload.name, altered)
    result = _run(workload, altered, tmp_path)["result"]
    assert not result["correct"]
    assert result["failed"] == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "infer-n100",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
