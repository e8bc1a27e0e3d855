"""Invariance-matrix scores and the pairwise direction decision.

The score of a candidate direction averages the smallest eigenvalues of the
invariance matrix M = B^T B (B built from the standardized cause and effect
Gram matrices) that jointly carry at least the configured energy fraction.
It is read from B: ||B||_F^2 is the total energy, and when a power-step bound
shows that the top eigenvalue alone exceeds the share the rule may drop, the
score is ||B||_F^2 / n. Only when that certificate fails is M formed and
eigendecomposed. Small score means stable conditional embeddings, i.e. the
plausible causal direction. Every decision and ablation runs on one BLAS
thread (see ``kiim.blas``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .baselines import _anm_score, _kcdc_score, igci_score, IgciReference, roles
from .blas import one_thread
from .config import RunConfig
from .embeddings import reweighted_cond_matrix, reweighting_vector, ridge_factorization
from .errors import NumericalError, attempt
from .kernels import ColumnCache, center, gram
from .pairs import Direction, PairedDataset

CLAMP_FACTOR = 1e-10


class Method(str, Enum):
    KIIM = "KIIM"
    RW_KIIM = "RwKIIM"
    KCDC = "KCDC"
    IGCI_GAUSS = "IGCIGauss"
    IGCI_UNIFORM = "IGCIUniform"
    ANM = "ANM"


#: Fewest paired samples each method can score; fewer always raise.
MIN_SAMPLES = {Method.KIIM: 5, Method.RW_KIIM: 5, Method.KCDC: 5,
               Method.IGCI_GAUSS: 10, Method.IGCI_UNIFORM: 10, Method.ANM: 10}


def check_sample_size(methods, n: int) -> None:
    """Reject a sample size at which a method would fail every dataset."""
    for method in methods:
        if n < MIN_SAMPLES[method]:
            raise ValueError(f"{method.value} needs at least {MIN_SAMPLES[method]} "
                             f"paired samples, got {n}")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues sorted descending and floored at zero.

    ``clamped_count`` counts roundoff-scale negatives (within
    CLAMP_FACTOR of the largest magnitude) that were zeroed;
    ``negative_count`` flags genuine negatives beyond that threshold,
    which were also floored but indicate a non-PSD input. ``min_raw``
    keeps the smallest eigenvalue before flooring for diagnostics.
    """

    eigenvalues: np.ndarray
    clamped_count: int
    negative_count: int
    min_raw: float


@dataclass(frozen=True)
class DirectionScore:
    """Score of one direction plus spectral diagnostics when available.

    The rank fields are None for scorers that do not work on a spectrum.
    """

    score: float
    retained_count: int | None = None
    retained_energy_ratio: float | None = None
    discarded_top: int | None = None


@dataclass(frozen=True)
class CausalDecision:
    direction: Direction
    score_xy: DirectionScore
    score_yx: DirectionScore
    method: Method


def _kiim_factor(Kx: np.ndarray, Ky: np.ndarray, lam: float) -> np.ndarray:
    """B = H K_x (K_x+lam I)^{-1} K_y, formed as H (K_y - lam S) with
    S = (K_x+lam I)^{-1} K_y: the two agree because K_x = (K_x+lam I) - lam I.
    S is solved, shifted and centred in one array, after the factor is freed."""
    if Kx.shape != Ky.shape:
        raise ValueError("Gram matrices must have matching dimensions")
    S = ridge_factorization(Kx, lam).solve(np.array(Ky, dtype=float, order="F"), overwrite=True)
    S *= lam
    np.subtract(Ky, S, out=S)
    return center(S, out=S)


def kiim_matrix(Kx: np.ndarray, Ky: np.ndarray, lam: float) -> np.ndarray:
    """Invariance matrix K_y (K_x+lam I)^{-1} K_x H K_x (K_x+lam I)^{-1} K_y.

    Assembled as B^T B with B = H K_x (K_x+lam I)^{-1} K_y (valid because
    H = H^T H), which keeps the result symmetric PSD up to roundoff;
    ``sym_eig`` symmetrizes it exactly.
    """
    B = _kiim_factor(Kx, Ky, lam)
    return B.T @ B


def _coeffs_factor(A: np.ndarray, Ky: np.ndarray) -> np.ndarray:
    """B = H C^T with C = K_y A: column i of A holds the conditional-embedding
    coefficients a_i, so B^T B = C H C^T is the scatter of the centred
    embeddings, pulled back through the effect Gram matrix. Centred in place."""
    C_T = (Ky @ A).T
    return center(C_T, out=C_T)


def sym_eig(M) -> Spectrum:
    """Full eigenvalue spectrum of a symmetric matrix, descending."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    scale = float(np.abs(M).max()) if M.size else 0.0
    if scale > 0 and float(np.abs(M - M.T).max()) > 1e-8 * scale:
        raise ValueError("matrix is not symmetric within 1e-8 relative")
    try:
        raw = np.linalg.eigvalsh(0.5 * (M + M.T))[::-1]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    threshold = -CLAMP_FACTOR * float(np.abs(raw).max()) if raw.size else 0.0
    negative = raw < 0
    tiny = negative & (raw > threshold)
    return Spectrum(eigenvalues=np.maximum(raw, 0.0),
                    clamped_count=int(tiny.sum()),
                    negative_count=int((negative & ~tiny).sum()),
                    min_raw=float(raw.min()) if raw.size else 0.0)


def energy_rank_score(spectrum: Spectrum,
                      energy_threshold: float = RunConfig.energy_threshold) -> DirectionScore:
    """Average of the bottom eigenvalues holding >= the threshold energy.

    With eigenvalues pi_1 >= ... >= pi_n, the retained tail starts at the
    largest index whose suffix sum still reaches energy_threshold times
    the total; the score is that suffix sum divided by n.
    """
    eig = spectrum.eigenvalues
    if eig.size == 0:
        raise ValueError("empty spectrum")
    if not 0.0 < energy_threshold <= 1.0:
        raise ValueError("energy threshold must lie in (0, 1]")
    tails = np.cumsum(eig[::-1])[::-1]
    start = 0
    if tails[0] > 0.0:
        start = int(np.nonzero(tails >= energy_threshold * tails[0])[0].max())
    return fixed_discard_score(spectrum, start)


def fixed_discard_score(spectrum: Spectrum, discard: int) -> DirectionScore:
    """Ablation path: drop exactly ``discard`` top eigenvalues, average the rest."""
    eig = spectrum.eigenvalues
    n = eig.size
    if not 0 <= discard < n:
        raise ValueError("discard count must lie in [0, n)")
    tails = np.cumsum(eig[::-1])[::-1]
    retained = float(tails[discard])
    total = float(tails[0])
    return DirectionScore(score=retained / n, retained_count=n - discard,
                          retained_energy_ratio=min(retained / total, 1.0) if total > 0 else 1.0,
                          discarded_top=discard)


def factor_score(B: np.ndarray,
                 energy_threshold: float = RunConfig.energy_threshold) -> DirectionScore:
    """``energy_rank_score(sym_eig(B.T @ B), energy_threshold)``, read from B.

    Three power steps on B^T B from the largest row of B give a Rayleigh
    quotient rho <= sigma_1^2. If rho exceeds 1 - energy_threshold of the
    total ||B||_F^2 (with a 1e-6 relative margin for roundoff), the rule
    discards nothing and the score is ||B||_F^2 / n; else, or when a step's
    norm is 0 or not finite, the spectrum decides.
    """
    # np.vdot sums over the C-order ravel, which it would copy once per
    # operand for an F-order B; one ravel keeps that order with one copy.
    flat = B.ravel()
    total = float(np.vdot(flat, flat))
    del flat
    if total > 0.0:
        v = B[np.argmax(np.einsum("ij,ij->i", B, B))]
        for _ in range(3):
            v = B.T @ (B @ v)
            norm = float(np.linalg.norm(v))
            if not 0.0 < norm < np.inf:  # the step under- or overflowed: no bound
                break
            v = v / norm
        else:
            if float(np.linalg.norm(B @ v)) ** 2 > (1.0 - energy_threshold) * total * (1.0 + 1e-6):
                return DirectionScore(score=total / B.shape[0], retained_count=B.shape[0],
                                      retained_energy_ratio=1.0, discarded_top=0)
    return energy_rank_score(sym_eig(B.T @ B), energy_threshold)


def _invariance_factor(dataset: PairedDataset, direction, config: RunConfig,
                       reweighted: bool, cache: ColumnCache) -> np.ndarray:
    """B of M = B^T B for one direction. ``cache`` holds the Gram of each
    column standardized under its kernel spec, so calls that share it build
    each Gram once. Rw-KIIM's coefficients for a cause column, an n x n
    array more, are kept under ``"coeffs"`` by ``ColumnCache.shared``."""
    if dataset.n < 5:
        raise ValueError("invariance score needs at least 5 paired samples")
    names = roles(direction)
    grams = []
    for spec, name in zip((config.kernel_x, config.kernel_y), names):
        key = cache.key(spec, getattr(dataset, name))
        if key not in cache:
            cache[key] = gram(spec, dataset.standardized(name))
        grams.append(cache[key])
    Kx, Ky = grams
    if reweighted:
        # Rw-KIIM weights the cause sample toward a uniform reference on its range.
        A = cache.shared(cache.key("coeffs", getattr(dataset, names[0])),
                         lambda: reweighted_cond_matrix(
                             Kx, reweighting_vector(dataset.standardized(names[0]),
                                                    clip_quantile=config.rw_clip_quantile),
                             config.lam))
        return _coeffs_factor(A, Ky)
    return _kiim_factor(Kx, Ky, config.lam)


def invariance_matrix(dataset: PairedDataset, direction, config: RunConfig,
                      reweighted: bool = False) -> np.ndarray:
    """M = B^T B for one direction of a dataset."""
    B = _invariance_factor(dataset, direction, config, reweighted, ColumnCache())
    return B.T @ B


def kiim_score(dataset: PairedDataset, direction,
               config: RunConfig = RunConfig()) -> DirectionScore:
    """Invariance score of one direction (plain conditional embeddings)."""
    return _direction_score(dataset, direction, Method.KIIM, config, ColumnCache())


def _direction_score(dataset, direction, method: Method, config, cache) -> DirectionScore:
    if method in (Method.KIIM, Method.RW_KIIM):
        B = _invariance_factor(dataset, direction, config, method is Method.RW_KIIM, cache)
        return factor_score(B, config.energy_threshold)
    if method is Method.KCDC:
        return DirectionScore(score=_kcdc_score(dataset, direction, config, cache))
    if method is Method.IGCI_GAUSS:
        return DirectionScore(score=igci_score(dataset, direction, IgciReference.GAUSSIAN))
    if method is Method.IGCI_UNIFORM:
        return DirectionScore(score=igci_score(dataset, direction, IgciReference.UNIFORM))
    return DirectionScore(score=_anm_score(dataset, direction, config, cache))


def _decide(score_xy: float, score_yx: float, tie_tolerance: float) -> Direction:
    """A tie when the gap is at most ``tie_tolerance`` times the larger score,
    or times 1 when both scores are below 1: an absolute floor there."""
    if abs(score_xy - score_yx) <= tie_tolerance * max(score_xy, score_yx, 1.0):
        return Direction.UNDECIDED
    return Direction.X_TO_Y if score_xy < score_yx else Direction.Y_TO_X


def _decision(dataset, method: Method, config, cache) -> CausalDecision:
    """Both directions on one BLAS thread (``blas.one_thread``), sharing
    ``cache`` (see ``_invariance_factor``)."""
    with one_thread():
        score_xy = _direction_score(dataset, Direction.X_TO_Y, method, config, cache)
        score_yx = _direction_score(dataset, Direction.Y_TO_X, method, config, cache)
    return CausalDecision(direction=_decide(score_xy.score, score_yx.score, config.tie_tolerance),
                          score_xy=score_xy, score_yx=score_yx, method=method)


def infer_direction(dataset: PairedDataset, method,
                    config: RunConfig = RunConfig()) -> CausalDecision:
    """Score both directions with identical settings and compare.

    Smaller score wins; ties within the tolerance are Undecided (see ``_decide``).
    Both directions run on one BLAS thread (``blas.one_thread``) and share Grams.
    """
    return _decision(dataset, Method(method), config, ColumnCache())


#: The methods that share one cache in ``score_datasets``, in the order they run.
_CACHE_GROUPS = ((Method.KIIM, Method.RW_KIIM), (Method.KCDC,), (Method.ANM,),
                 (Method.IGCI_GAUSS, Method.IGCI_UNIFORM))


def score_datasets(datasets, methods, config: RunConfig) -> tuple:
    """``attempt((infer_direction, dataset, method, config))`` for each dataset
    and each method, flat in (dataset, method) order: ``(decision, None)``, or
    ``(None, message)`` for a failure (see ``errors.attempt``).

    The methods run a group at a time over every dataset, each group on a
    cache of its own that is dropped before the next group runs: KIIM and
    Rw-KIIM share one (see ``_invariance_factor``), then KCDC, ANM and the
    IGCI scores (which read none) run. While a dataset is scored its cache
    holds the columns of the next one (``ColumnCache.hold``), so from one
    dataset to the next it keeps only the entries of a column that the next
    dataset holds bit for bit, as the cells of a synthetic trial hold their
    cause. Such a column's Rw-KIIM coefficients, KCDC coefficients and
    output Gram (``baselines._kcdc_score``) and ANM Gram and factor
    (``baselines._anm_score``) are stored only then. So a lone dataset keeps
    the working set of one decision, at most four n x n arrays, and a run of
    datasets with one cause at most five.
    """
    methods = [Method(m) for m in methods]
    nexts = [(ds.xs, ds.ys) for ds in datasets[1:]] + [()]
    outcomes = {}
    for group in _CACHE_GROUPS:
        cache = ColumnCache()
        for k, (dataset, columns) in enumerate(zip(datasets, nexts)):
            cache.hold(*columns)
            for method in methods:
                if method in group:
                    outcomes[k, method] = attempt((_decision, dataset, method, config, cache))
            cache.evict()
    return tuple(outcomes[k, method] for k in range(len(datasets)) for method in methods)


def rank_ablation(dataset: PairedDataset, d_max: int,
                  config: RunConfig = RunConfig()) -> tuple[CausalDecision, ...]:
    """KIIM decisions for every fixed discard count d = 0..d_max; point d
    has ``discarded_top == d`` in both of its scores.

    Both spectra are computed once, from shared Grams, on one BLAS thread
    (``blas.one_thread``); each d then slices the sorted eigenvalues
    directly, bypassing the energy rule.
    """
    if not 0 <= d_max < dataset.n:
        raise ValueError("d_max must lie in [0, n)")
    cache, spectra = ColumnCache(), []
    with one_thread():
        for direction in (Direction.X_TO_Y, Direction.Y_TO_X):
            B = _invariance_factor(dataset, direction, config, False, cache)
            spectra.append(sym_eig(B.T @ B))
    points = []
    for d in range(d_max + 1):
        score_xy, score_yx = (fixed_discard_score(spectrum, d) for spectrum in spectra)
        points.append(CausalDecision(
            direction=_decide(score_xy.score, score_yx.score, config.tie_tolerance),
            score_xy=score_xy, score_yx=score_yx, method=Method.KIIM))
    return tuple(points)
