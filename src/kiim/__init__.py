"""Pairwise causal direction inference from the invariance of conditional
kernel mean embeddings, with deviance, entropy and residual-independence
baselines, synthetic and real-pair benchmarks, and executable checks of
the underlying identifiability facts.
"""

from .baselines import IgciReference, anm_score, hsic, igci_score, kcdc_score, \
    spacing_entropy
from .bench import AblationCellResult, CellResult, parse_cells, run_ablation, run_synthetic
from .config import RunConfig, build_config, config_digest, kernel_to_text, parse_kernel, \
    read_config_file, serialize_config
from .embeddings import reweighted_cond_matrix, reweighting_vector, ridge_factorization
from .errors import ConfigurationError, IngestionError, NumericalError, TangencyError
from .kernels import MEDIAN, KernelFamily, KernelSpec, center, \
    default_composite, gram, kernel_sum, log_kernel, median_heuristic, polynomial, product, \
    rational_quadratic, rbf, resolve
from .pairs import Direction, PairedDataset, load_pair_dataset, read_pair_file, \
    standardize, write_pair_text
from .scoring import CausalDecision, DirectionScore, Method, Spectrum, \
    energy_rank_score, fixed_discard_score, infer_direction, invariance_matrix, \
    kiim_matrix, kiim_score, rank_ablation, sym_eig
from .synthdata import Mechanism, MechanismSpec, Noise, generate, table1_grid
from .tcep import MethodAccuracy, PairResult, TcepPair, TcepReport, evaluate_tcep, load_tcep
from .theory import FiniteBasisDensity, construct_equal_norm_density, verify_lemma1

__version__ = "0.1.0"
