"""Conditional mean-embedding coefficients and the reweighted estimator.

Embeddings are never materialized: a conditional embedding mu_{Y|x_i} is
represented by its coefficient vector a_i against the effect samples, and
all n vectors are computed at once as the columns of one coefficient
matrix, so one factorization serves every right-hand side.

* ``ridge_factorization`` factors (K_x + lambda I) once, by LAPACK's
  ``dpotrf`` or ``dgetrf`` called directly: KIIM solves it against K_y,
  KCDC against K_x, and ANM for its kernel ridge fit.
* ``reweighting_vector`` and ``reweighted_cond_matrix`` give the
  importance-reweighted coefficients behind Rw-KIIM.
"""

from __future__ import annotations

import math

import numpy as np

from .blas import lapack
from .config import RunConfig
from .errors import NumericalError
from .kernels import center


class _Factorization:
    """Factorization of (matrix + shift I).

    KIIM, Rw-KIIM and KCDC solve a factor once, against n right-hand sides.
    ANM solves one against one right-hand side; a synthetic trial keeps the
    ANM factor of its shared cause and solves it once per dataset
    (``scoring.score_datasets``). Those solves run one dataset at a time on
    one thread, never concurrently: ``dgetrs`` shifts the pivot array in
    place while it runs (see ``kiim.blas``). Callers make the factor
    before they copy the right-hand side: the transient Cholesky copy below
    and that right-hand side are then never live together, which keeps a
    decision within four n x n arrays.

    ``matrix`` is a private F-order array: the shift goes onto its diagonal
    and the LU overwrites it, so the factor costs no n x n array beyond it.
    Tries Cholesky (``dpotrf``) first, on a transient copy; the default
    composite kernel is indefinite, so a partial-pivot LU (``dgetrf``)
    fallback is routine rather than exceptional. Either factor is judged by
    LAPACK's estimate of its reciprocal 1-norm condition number (``dpocon``
    or ``dgecon``; 0 for an exactly singular LU), and a numerical error
    carrying 1 / rcond is raised when rcond <= n eps.
    """

    def __init__(self, matrix: np.ndarray, shift: float):
        if not 0.0 < shift < math.inf:
            raise ValueError("ridge shift must be positive and finite")
        self._n = matrix.shape[0]
        matrix[np.diag_indices(self._n)] += shift
        anorm = lapack.dlange("1", matrix)
        c, info = lapack.dpotrf(matrix, lower=False, clean=False)
        if info == 0:
            self._kind, self._fac = "cholesky", (c, False)
            rcond, _ = lapack.dpocon(c, anorm, uplo="U")
        else:
            lu, piv, info = lapack.dgetrf(matrix, overwrite_a=True)
            self._kind, self._fac = "lu", (lu, piv)
            rcond = 0.0 if info > 0 else lapack.dgecon(lu, anorm)[0]
        if not rcond > np.finfo(float).eps * self._n:  # NaN fails too
            raise NumericalError("matrix is numerically singular despite ridge",
                                 condition_estimate=math.inf if rcond == 0 else 1.0 / rcond)

    def solve(self, rhs: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Solve against ``rhs``; with ``overwrite`` a private F-order rhs
        becomes the result, with no copy."""
        if self._kind == "cholesky":
            x, _ = lapack.dpotrs(self._fac[0], rhs, lower=False, overwrite_b=overwrite)
        else:
            x, _ = lapack.dgetrs(*self._fac, rhs, overwrite_b=overwrite)
        return x


def ridge_factorization(K: np.ndarray, shift: float) -> _Factorization:
    """Factor (K + shift I) once, for its solves (see ``_Factorization``)."""
    # K + 0.0 is the private copy, bit for bit the off-diagonal of K + shift I.
    return _Factorization(np.add(K, 0.0, order="F", dtype=float), shift)


def reweighting_vector(xs, clip_quantile: float = RunConfig.rw_clip_quantile) -> np.ndarray:
    """Positive importance weights r_i = u(x_i) / p_hat(x_i) toward a uniform
    reference u on the sample range.

    The sample density is a Gaussian KDE with Silverman bandwidth
    1.06 std(xs) n^{-1/5}; weights above the ``clip_quantile`` empirical
    quantile are clamped to that quantile's value (no clipping at 1.0).
    """
    x = np.asarray(xs, dtype=float).ravel()
    n = x.size
    if n < 5:
        raise ValueError("reweighting needs at least 5 samples")
    lo, hi = float(x.min()), float(x.max())
    if hi <= lo:
        raise ValueError("degenerate sample range")
    if not 0.5 < clip_quantile <= 1.0:
        raise ValueError("clip quantile must lie in (0.5, 1]")
    h = 1.06 * float(x.std()) * n ** (-0.2)
    # exp((x_i - x_j)^2 / (-2 h^2)), step by step in one n x n buffer.
    kde = np.subtract(x[:, None], x[None, :])
    np.square(kde, out=kde)
    kde /= -2.0 * h * h
    np.exp(kde, out=kde)
    dens = kde.sum(axis=1) / (n * h * np.sqrt(2.0 * np.pi))
    r = (1.0 / (hi - lo)) / dens
    if clip_quantile < 1.0:
        r = np.minimum(r, np.quantile(r, clip_quantile))
    return r


def _reweighted_system(Kx: np.ndarray, r: np.ndarray, lam: float):
    n = Kx.shape[0]
    w = np.asarray(r, dtype=float).ravel()
    if w.shape[0] != n:
        raise ValueError("reweighting length does not match Gram dimension")
    if not (np.isfinite(w).all() and (w > 0).all()):
        raise ValueError("reweighting vector must be strictly positive and finite")
    s = np.sqrt(w)
    # G = H R^{1/2} K_x R^{1/2} H in one array: R^{1/2} K_x R^{1/2} is
    # symmetric, so H (.) H = center(center(.)^T), and the transposed view is
    # the F-order matrix that the LU overwrites. A Cholesky factor is a copy
    # of G, which is freed when this function returns.
    G = s[:, None] * Kx
    G *= s
    G = center(G, out=G).T
    return s, _Factorization(center(G, out=G), lam * n)


def reweighted_cond_matrix(Kx: np.ndarray, r: np.ndarray, lam: float) -> np.ndarray:
    """All reweighted coefficients: H R^{1/2} G^{-1} R^{1/2} H K_x with
    G = H R^{1/2} K_x R^{1/2} H + lam n I."""
    s, fac = _reweighted_system(Kx, r, lam)
    T = center(Kx, out=np.empty(Kx.shape, order="F"))
    T *= s[:, None]
    T = fac.solve(T, overwrite=True)
    T *= s[:, None]
    return center(T, out=T)
