"""Conditional mean-embedding coefficients and the reweighted estimator.

Embeddings are never materialized: a conditional embedding mu_{Y|x_i} is
represented by its coefficient vector a_i against the effect samples, and
all n vectors are computed at once as the columns of one coefficient
matrix, so one factorization serves every right-hand side.

* ``ridge_factorization`` factors (K_x + lambda I) once: KIIM solves it
  against K_y, KCDC against K_x, and ANM for its kernel ridge fit.
* ``reweighting_vector`` and ``reweighted_cond_matrix`` give the
  importance-reweighted coefficients behind Rw-KIIM.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from .errors import NumericalError
from .kernels import center


class _Factorization:
    """One-time factorization of a square matrix, reused across solves.

    Tries Cholesky first; the default composite kernel is indefinite, so a
    partial-pivot LU fallback is routine rather than exceptional. Raises a
    numerical error (with a crude condition estimate from the LU pivots)
    when the matrix is numerically singular.
    """

    def __init__(self, matrix: np.ndarray):
        self._n = matrix.shape[0]
        try:
            self._fac = scipy.linalg.cho_factor(matrix, check_finite=False)
            self._kind = "cholesky"
            return
        except (np.linalg.LinAlgError, ValueError):
            pass
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(matrix, check_finite=False)
        diag = np.abs(np.diag(lu))
        if diag.min() <= np.finfo(float).eps * self._n * diag.max():
            cond = float("inf") if diag.min() == 0.0 else float(diag.max() / diag.min())
            raise NumericalError("matrix is numerically singular despite ridge",
                                 condition_estimate=cond)
        self._fac = (lu, piv)
        self._kind = "lu"

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._kind == "cholesky":
            return scipy.linalg.cho_solve(self._fac, rhs, check_finite=False)
        return scipy.linalg.lu_solve(self._fac, rhs, check_finite=False)


def ridge_factorization(K: np.ndarray, shift: float) -> _Factorization:
    """Factor (K + shift I) once for reuse across all right-hand sides."""
    if shift <= 0:
        raise ValueError("ridge shift must be positive")
    return _Factorization(np.asarray(K, dtype=float) + shift * np.eye(K.shape[0]))


def reweighting_vector(xs, clip_quantile: float = 0.95) -> np.ndarray:
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
    sq = (x[:, None] - x[None, :]) ** 2
    dens = np.exp(-sq / (2.0 * h * h)).sum(axis=1) / (n * h * np.sqrt(2.0 * np.pi))
    r = (1.0 / (hi - lo)) / dens
    if clip_quantile < 1.0:
        r = np.minimum(r, np.quantile(r, clip_quantile))
    return r


def _reweighted_system(Kx: np.ndarray, r: np.ndarray, lam: float):
    # A function of its own so that G is freed before the caller's solve.
    n = Kx.shape[0]
    w = np.asarray(r, dtype=float).ravel()
    if w.shape[0] != n:
        raise ValueError("reweighting length does not match Gram dimension")
    if not (np.isfinite(w).all() and (w > 0).all()):
        raise ValueError("reweighting vector must be strictly positive and finite")
    s = np.sqrt(w)
    # R^{1/2} K_x R^{1/2} is symmetric, so H (.) H = center(center(.)^T).
    return s, ridge_factorization(center(center(s[:, None] * Kx * s[None, :]).T), lam * n)


def reweighted_cond_matrix(Kx: np.ndarray, r: np.ndarray, lam: float) -> np.ndarray:
    """All reweighted coefficients: H R^{1/2} G^{-1} R^{1/2} H K_x with
    G = H R^{1/2} K_x R^{1/2} H + lam n I."""
    s, fac = _reweighted_system(Kx, r, lam)
    T = fac.solve(s[:, None] * center(Kx))
    return center(s[:, None] * T)
