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

from .baselines import anm_score, igci_score, kcdc_score, IgciReference, oriented
from .blas import one_thread
from .config import RunConfig
from .embeddings import reweighted_cond_matrix, reweighting_vector, ridge_factorization
from .errors import NumericalError
from .kernels import center, gram
from .pairs import Direction, PairedDataset, standardize

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


def energy_rank_score(spectrum: Spectrum, energy_threshold: float = 0.9) -> DirectionScore:
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


def factor_score(B: np.ndarray, energy_threshold: float = 0.9) -> DirectionScore:
    """``energy_rank_score(sym_eig(B.T @ B), energy_threshold)``, read from B.

    Three power steps on B^T B from the largest row of B give a Rayleigh
    quotient rho <= sigma_1^2. If rho exceeds 1 - energy_threshold of the
    total ||B||_F^2 (with a 1e-6 relative margin for roundoff), the rule
    discards nothing and the score is ||B||_F^2 / n; else the spectrum decides.
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
            v = v / np.linalg.norm(v)
        if float(np.linalg.norm(B @ v)) ** 2 > (1.0 - energy_threshold) * total * (1.0 + 1e-6):
            return DirectionScore(score=total / B.shape[0], retained_count=B.shape[0],
                                  retained_energy_ratio=1.0, discarded_top=0)
    return energy_rank_score(sym_eig(B.T @ B), energy_threshold)


def _invariance_factor(dataset: PairedDataset, direction, config: RunConfig,
                       reweighted: bool, grams: dict) -> np.ndarray:
    """B of M = B^T B for one direction. ``grams`` maps (kernel spec, column
    name) to the Gram of that standardized column; calls that share it
    build each Gram once."""
    if dataset.n < 5:
        raise ValueError("invariance score needs at least 5 paired samples")
    names = ("xs", "ys") if oriented(dataset, direction)[0] is dataset.xs else ("ys", "xs")
    keys = tuple(zip((config.kernel_x, config.kernel_y), names))
    for spec, name in keys:
        if (spec, name) not in grams:
            grams[spec, name] = gram(spec, standardize(getattr(dataset, name)))
    Kx, Ky = (grams[key] for key in keys)
    if reweighted:
        # Rw-KIIM weights the cause sample toward a uniform reference on its range.
        r = reweighting_vector(standardize(getattr(dataset, names[0])),
                               clip_quantile=config.rw_clip_quantile)
        return _coeffs_factor(reweighted_cond_matrix(Kx, r, config.lam), Ky)
    return _kiim_factor(Kx, Ky, config.lam)


def invariance_matrix(dataset: PairedDataset, direction, config: RunConfig,
                      reweighted: bool = False) -> np.ndarray:
    """M = B^T B for one direction of a dataset."""
    B = _invariance_factor(dataset, direction, config, reweighted, {})
    return B.T @ B


def kiim_score(dataset: PairedDataset, direction, config: RunConfig | None = None) -> DirectionScore:
    """Invariance score of one direction (plain conditional embeddings)."""
    return direction_score(dataset, direction, Method.KIIM, config or RunConfig())


def direction_score(dataset: PairedDataset, direction, method, config: RunConfig,
                    grams: dict | None = None) -> DirectionScore:
    """One direction's score under any method, wrapped uniformly; ``grams``
    is the Gram cache of ``_invariance_factor``, shared by its callers."""
    method = Method(method)
    if method in (Method.KIIM, Method.RW_KIIM):
        B = _invariance_factor(dataset, direction, config, method is Method.RW_KIIM,
                               {} if grams is None else grams)
        return factor_score(B, config.energy_threshold)
    if method is Method.KCDC:
        return DirectionScore(score=kcdc_score(dataset, direction, config))
    if method is Method.IGCI_GAUSS:
        return DirectionScore(score=igci_score(dataset, direction, IgciReference.GAUSSIAN))
    if method is Method.IGCI_UNIFORM:
        return DirectionScore(score=igci_score(dataset, direction, IgciReference.UNIFORM))
    return DirectionScore(score=anm_score(dataset, direction, config))


def _decide(score_xy: float, score_yx: float, tie_tolerance: float) -> Direction:
    if abs(score_xy - score_yx) <= tie_tolerance * max(score_xy, score_yx, 1.0):
        return Direction.UNDECIDED
    return Direction.X_TO_Y if score_xy < score_yx else Direction.Y_TO_X


def infer_direction(dataset: PairedDataset, method, config: RunConfig | None = None) -> CausalDecision:
    """Score both directions with identical settings and compare.

    Smaller score wins; ties within the relative tolerance are Undecided.
    Both directions run on one BLAS thread (``blas.one_thread``) and share Grams.
    """
    config = config or RunConfig()
    method = Method(method)
    grams = {}
    with one_thread():
        score_xy = direction_score(dataset, Direction.X_TO_Y, method, config, grams)
        score_yx = direction_score(dataset, Direction.Y_TO_X, method, config, grams)
    return CausalDecision(direction=_decide(score_xy.score, score_yx.score, config.tie_tolerance),
                          score_xy=score_xy, score_yx=score_yx, method=method)


def rank_ablation(dataset: PairedDataset, d_max: int,
                  config: RunConfig | None = None) -> tuple[CausalDecision, ...]:
    """KIIM decisions for every fixed discard count d = 0..d_max; point d
    has ``discarded_top == d`` in both of its scores.

    Both spectra are computed once, from shared Grams, on one BLAS thread
    (``blas.one_thread``); each d then slices the sorted eigenvalues
    directly, bypassing the energy rule.
    """
    config = config or RunConfig()
    if not 0 <= d_max < dataset.n:
        raise ValueError("d_max must lie in [0, n)")
    grams, spectra = {}, []
    with one_thread():
        for direction in (Direction.X_TO_Y, Direction.Y_TO_X):
            B = _invariance_factor(dataset, direction, config, False, grams)
            spectra.append(sym_eig(B.T @ B))
    points = []
    for d in range(d_max + 1):
        score_xy, score_yx = (fixed_discard_score(spectrum, d) for spectrum in spectra)
        points.append(CausalDecision(
            direction=_decide(score_xy.score, score_yx.score, config.tie_tolerance),
            score_xy=score_xy, score_yx=score_yx, method=Method.KIIM))
    return tuple(points)
