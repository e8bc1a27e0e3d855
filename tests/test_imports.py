"""The package imports lazily: ``import kiim`` loads no submodule, and each
exported name is its submodule's own object."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kiim

# Every name the package exports, by the submodule that defines it.
EXPORTED = {
    "baselines": ["IgciReference", "hsic", "spacing_entropy"],
    "bench": ["AblationCellResult", "CellResult", "parse_cells", "run_ablation",
              "run_synthetic"],
    "config": ["RunConfig", "build_config", "config_digest", "kernel_to_text", "parse_kernel",
               "read_config_file", "serialize_config"],
    "embeddings": ["reweighted_cond_matrix", "reweighting_vector", "ridge_factorization"],
    "errors": ["ConfigurationError", "IngestionError", "NumericalError", "TangencyError"],
    "kernels": ["MEDIAN", "KernelFamily", "KernelSpec", "center", "default_composite", "gram",
                "kernel_sum", "log_kernel", "median_heuristic", "polynomial", "product",
                "rational_quadratic", "rbf"],
    "pairs": ["Direction", "PairedDataset", "load_pair_dataset", "read_pair_file",
              "standardize", "write_pair_text"],
    "scoring": ["CausalDecision", "DirectionScore", "Method", "Spectrum", "anm_score",
                "energy_rank_score", "fixed_discard_score", "igci_score", "infer_direction",
                "invariance_matrix", "kcdc_score", "kiim_matrix", "kiim_score", "rank_ablation",
                "sym_eig"],
    "synthdata": ["Mechanism", "MechanismSpec", "Noise", "generate", "table1_grid"],
    "tcep": ["MethodAccuracy", "PairResult", "TcepPair", "TcepReport", "evaluate_tcep",
             "load_tcep"],
    "theory": ["FiniteBasisDensity", "construct_equal_norm_density", "verify_lemma1"],
}
SUBMODULES = [*EXPORTED, "blas", "cli", "report"]


def test_import_kiim_loads_no_numpy_and_no_submodule():
    # The test process has numpy and every submodule loaded, so only a fresh
    # interpreter shows what the import itself loads.
    probe = ("import json, sys; import kiim; print(json.dumps(sorted("
             "name for name in sys.modules if name.split('.')[0] in ('numpy', 'scipy') "
             "or name.startswith('kiim.'))))")
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert json.loads(result.stdout) == []


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_every_exported_name_is_its_submodules_object(module):
    source = importlib.import_module(f"kiim.{module}")
    for name in EXPORTED[module]:
        assert getattr(kiim, name) is getattr(source, name), name
        namespace = {}
        exec(f"from kiim import {name}", namespace)
        assert namespace[name] is getattr(source, name), name


def test_the_export_list_and_the_submodules():
    exported = {name for names in EXPORTED.values() for name in names}
    assert set(kiim.__all__) == exported
    assert exported <= set(dir(kiim))
    for module in SUBMODULES:
        assert getattr(kiim, module) is importlib.import_module(f"kiim.{module}")
        namespace = {}
        exec(f"from kiim import {module}", namespace)
        assert namespace[module] is sys.modules[f"kiim.{module}"]
    with pytest.raises(AttributeError, match="no_such_name"):
        kiim.no_such_name
    with pytest.raises(ImportError):
        exec("from kiim import no_such_name", {})
