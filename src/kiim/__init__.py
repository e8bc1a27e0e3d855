"""Pairwise causal direction inference from the invariance of conditional
kernel mean embeddings, with deviance, entropy and residual-independence
baselines, synthetic and real-pair benchmarks, and executable checks of
the underlying identifiability facts.

``import kiim`` imports no submodule (and so not numpy): each exported name
is looked up in its submodule on first use (``__getattr__``), so a command
loads only the modules it runs.
"""

import importlib

#: Every exported name, by the submodule that defines it.
_EXPORTS = {
    "baselines": ("IgciReference", "hsic", "spacing_entropy"),
    "bench": ("AblationCellResult", "CellResult", "parse_cells", "run_ablation",
              "run_synthetic"),
    "config": ("RunConfig", "build_config", "config_digest", "kernel_to_text", "parse_kernel",
               "read_config_file", "serialize_config"),
    "embeddings": ("reweighted_cond_matrix", "reweighting_vector", "ridge_factorization"),
    "errors": ("ConfigurationError", "IngestionError", "NumericalError", "TangencyError"),
    "kernels": ("MEDIAN", "KernelFamily", "KernelSpec", "center", "default_composite", "gram",
                "kernel_sum", "log_kernel", "median_heuristic", "polynomial", "product",
                "rational_quadratic", "rbf", "resolve"),
    "pairs": ("Direction", "PairedDataset", "load_pair_dataset", "read_pair_file",
              "standardize", "write_pair_text"),
    "scoring": ("CausalDecision", "DirectionScore", "Method", "Spectrum", "anm_score",
                "energy_rank_score", "fixed_discard_score", "igci_score", "infer_direction",
                "invariance_matrix", "kcdc_score", "kiim_matrix", "kiim_score", "rank_ablation",
                "sym_eig"),
    "synthdata": ("Mechanism", "MechanismSpec", "Noise", "generate", "table1_grid"),
    "tcep": ("MethodAccuracy", "PairResult", "TcepPair", "TcepReport", "evaluate_tcep",
             "load_tcep"),
    "theory": ("FiniteBasisDensity", "construct_equal_norm_density", "verify_lemma1"),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"blas", "cli", "report"}

__all__ = list(_SUBMODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
