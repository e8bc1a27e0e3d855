"""Baseline direction scorers: conditional-deviance, entropy-comparison,
and regression-residual-independence methods.

Every scorer returns a plain real number for one direction; smaller wins
when both directions are compared. Entropy-comparison scores may be
negative, the other two are nonnegative.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .config import RunConfig
from .embeddings import ridge_factorization
from .kernels import ColumnCache, KernelSpec, center, gram, rbf
from .pairs import Direction, PairedDataset


class IgciReference(str, Enum):
    GAUSSIAN = "Gaussian"
    UNIFORM = "Uniform"


def roles(direction) -> tuple[str, str]:
    """Names of the (cause-candidate, effect-candidate) columns of a pair,
    ``"xs"`` or ``"ys"``, for one direction."""
    direction = Direction(direction)
    if direction is Direction.X_TO_Y:
        return "xs", "ys"
    if direction is Direction.Y_TO_X:
        return "ys", "xs"
    raise ValueError("direction must be XtoY or YtoX")


def _kcdc_coeffs(Kx: np.ndarray, lam: float) -> np.ndarray:
    """KCDC's cause part: A = (K_x + lam I)^{-1} K_x, column i holding a_i."""
    return ridge_factorization(Kx, lam).solve(Kx)


def _kcdc_spread(A: np.ndarray, Ky: np.ndarray) -> float:
    """KCDC's rest: the population variance of sqrt(max(0, a_i^T K_y a_i))."""
    sq = np.einsum("ij,ij->j", Ky @ A, A)
    norms = np.sqrt(np.maximum(sq, 0.0))
    return float(norms.var())


def kcdc_deviance(Kx: np.ndarray, Ky: np.ndarray, lam: float) -> float:
    """Population variance of the conditional-embedding norms.

    Norm i is sqrt(max(0, a_i^T K_y a_i)) with a_i = (K_x + lam I)^{-1} k_{x_i};
    the guard exists because the log input kernel is not positive definite.
    """
    if Kx.shape != Ky.shape:
        raise ValueError("Gram matrices must have matching dimensions")
    return _kcdc_spread(_kcdc_coeffs(Kx, lam), Ky)


def kcdc_score(dataset: PairedDataset, direction, config: RunConfig = RunConfig()) -> float:
    """Deviance of conditional embeddings of the effect given the cause,
    with ridge ``config.lam`` on the embedding solves."""
    return _kcdc_score(dataset, direction, config, ColumnCache())


def _kcdc_score(dataset: PairedDataset, direction, config: RunConfig,
                cache: ColumnCache) -> float:
    """``kcdc_score``, reading from ``cache`` the cause's A, under
    ``"coeffs"``, and the effect's Gram, under the output kernel, or
    storing them there (``ColumnCache.shared``). The cause's Gram and
    factor are freed before the effect's Gram is built."""
    if dataset.n < 5:
        raise ValueError("deviance score needs at least 5 paired samples")
    cause, effect = roles(direction)
    x, y = dataset.standardized(cause), dataset.standardized(effect)
    A = cache.shared(cache.key("coeffs", getattr(dataset, cause)),
                     lambda: _kcdc_coeffs(gram(config.kcdc_input_kernel, x), config.lam))
    Ky = cache.shared(cache.key(config.kcdc_output_kernel, getattr(dataset, effect)),
                      lambda: gram(config.kcdc_output_kernel, y))
    return _kcdc_spread(A, Ky)


def spacing_entropy(values) -> float:
    """Differential entropy via 1-spacings of the sorted sample.

    H = H_{n-1} + mean over the n-1 gaps of log(gap), with the harmonic
    number H_{n-1} = psi(n) - psi(1); zero gaps (tied values) are skipped
    in the sum but still counted in the denominator.
    """
    v = np.sort(np.asarray(values, dtype=float).ravel())
    n = v.size
    if n < 2:
        raise ValueError("entropy estimate needs at least 2 samples")
    gaps = np.diff(v)
    positive = gaps[gaps > 0]
    if positive.size == 0:
        raise ValueError("entropy estimate needs at least 2 distinct values")
    return float((1.0 / np.arange(1, n)).sum() + np.log(positive).sum() / (n - 1))


def _reference_normalize(dataset: PairedDataset, column: str,
                         reference: IgciReference) -> np.ndarray:
    if reference is IgciReference.GAUSSIAN:
        return dataset.standardized(column)
    values = getattr(dataset, column)
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        raise ValueError("cannot normalize a constant variable")
    if not hi - lo < np.inf:
        raise ValueError("cannot normalize: the range overflows")
    return (values - lo) / (hi - lo)


def igci_score(dataset: PairedDataset, direction,
               reference: IgciReference = IgciReference.GAUSSIAN) -> float:
    """Entropy difference H(effect) - H(cause) after reference normalization.

    Negative values favor the scored direction; the smaller of the two
    directional scores wins, consistent with the other scorers.
    """
    reference = IgciReference(reference)
    if dataset.n < 10:
        raise ValueError("entropy comparison needs at least 10 paired samples")
    cause, effect = roles(direction)
    h_cause = spacing_entropy(_reference_normalize(dataset, cause, reference))
    h_effect = spacing_entropy(_reference_normalize(dataset, effect, reference))
    return h_effect - h_cause


def _doubly_centered(K: np.ndarray) -> np.ndarray:
    """H K H of a symmetric K, which is center(center(K)^T), as one fresh
    F-order array: center(K) is written into its transpose, and its columns
    are then centred in place."""
    out = np.empty(K.shape, order="F")
    center(K, out=out.T)
    return center(out, out=out)


def hsic(u, v, kernel: KernelSpec = rbf()) -> float:
    """Hilbert-Schmidt independence statistic (1/n^2) tr(K_u H K_v H).

    Biased V-statistic form, clamped at 0; near 0 when u and v are
    independent samples.
    """
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.size != v.size:
        raise ValueError("sequences must have equal length")
    if u.size < 5:
        raise ValueError("independence statistic needs at least 5 samples")
    n = u.size
    # A temporary, so numpy forms the product in its buffer (temporary
    # elision, from 256 KiB) instead of a third n x n array; the sum runs
    # over that buffer's layout.
    value = float((_doubly_centered(gram(kernel, u)) * gram(kernel, v)).sum()) / n**2
    return max(value, 0.0)


def _anm_fit(x: np.ndarray, config: RunConfig) -> tuple:
    """ANM's cause part: the cause's Gram K and the factor of K + ridge I."""
    K = gram(config.anm_kernel, x)
    return K, ridge_factorization(K, config.anm_ridge)


def anm_score(dataset: PairedDataset, direction, config: RunConfig = RunConfig()) -> float:
    """Dependence between cause and the residual of a kernel ridge fit.

    Fits effect = f(cause) by kernel ridge regression and returns
    hsic(cause, residual); an additive-noise pair fit in the causal
    direction leaves residuals nearly independent of the cause.
    """
    return _anm_score(dataset, direction, config, ColumnCache())


def _anm_score(dataset: PairedDataset, direction, config: RunConfig,
               cache: ColumnCache) -> float:
    """``anm_score``, reading the cause's (Gram, factor) pair from ``cache``
    under ANM's kernel, or storing it there (``ColumnCache.shared``)."""
    if dataset.n < 10:
        raise ValueError("regression score needs at least 10 paired samples")
    cause, effect = roles(direction)
    x, y = dataset.standardized(cause), dataset.standardized(effect)
    K, factor = cache.shared(cache.key(config.anm_kernel, getattr(dataset, cause)),
                             lambda: _anm_fit(x, config))
    residual = y - K @ factor.solve(y)
    del K, factor  # unless cached, freed before hsic builds its two Grams
    # Fixed unit bandwidth: the median heuristic would rescale the residuals
    # and hide how small they are, so the score would not vanish for a near
    # perfect fit. Unit bandwidth matches the median one on the standardized
    # cause anyway.
    return hsic(x, residual, kernel=rbf(1.0))
