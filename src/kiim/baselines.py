"""The private baseline scorers (conditional deviance, entropy comparison,
regression-residual independence), ``hsic``, ``spacing_entropy`` and ``roles``.

Each scorer returns a real number for one direction; smaller wins. Entropy
comparisons may be negative, the other two are not. Their one entry, which
checks the sample size, is ``kiim.scoring._direction_score``.
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


def _kcdc_score(dataset: PairedDataset, direction, config: RunConfig,
                cache: ColumnCache) -> float:
    """``scoring.kcdc_score``, with the cause's A and the effect's Gram as
    KCDC's parts in ``cache`` (``ColumnCache.part``). The cause's Gram and
    factor are freed before the effect's Gram is built."""
    cause, effect = roles(direction)
    x, y = dataset.standardized(cause), dataset.standardized(effect)
    A = cache.part("KCDC coeffs", getattr(dataset, cause),
                   lambda: _kcdc_coeffs(gram(config.kcdc_input_kernel, x), config.lam))
    Ky = cache.part("KCDC output Gram", getattr(dataset, effect),
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


def _igci_score(dataset: PairedDataset, direction, reference: IgciReference,
                cache: ColumnCache) -> float:
    """``scoring.igci_score``, with each column's entropy held in ``cache``
    (``ColumnCache.held``), so a decision estimates each column's entropy
    once."""
    h_cause, h_effect = (
        cache.held(("IGCI entropy", reference), getattr(dataset, name),
                   lambda: spacing_entropy(_reference_normalize(dataset, name, reference)))
        for name in roles(direction))
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


def _anm_score(dataset: PairedDataset, direction, config: RunConfig,
               cache: ColumnCache) -> float:
    """``scoring.anm_score``, with the cause's (Gram, factor) pair as ANM's
    part in ``cache`` (``ColumnCache.part``)."""
    cause, effect = roles(direction)
    x, y = dataset.standardized(cause), dataset.standardized(effect)
    K, factor = cache.part("ANM fit", getattr(dataset, cause), lambda: _anm_fit(x, config))
    residual = y - K @ factor.solve(y)
    del K, factor  # unless cached, freed before hsic builds its two Grams
    # Fixed unit bandwidth: the median heuristic would rescale the residuals
    # and hide how small they are, so the score would not vanish for a near
    # perfect fit. Unit bandwidth matches the median one on the standardized
    # cause anyway.
    return hsic(x, residual, kernel=rbf(1.0))
