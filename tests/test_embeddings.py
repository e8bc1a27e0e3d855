import math
import warnings

import numpy as np
import pytest
import scipy.linalg

import oracles
from kiim import (NumericalError, default_composite, gram, rbf, reweighted_cond_matrix,
                  reweighting_vector, ridge_factorization)
from kiim.baselines import _kcdc_coeffs, _kcdc_spread
from test_kernels import _gram_samples


def _coeffs(K: np.ndarray, lam: float) -> np.ndarray:
    """Column i holds the conditional coefficients (K + lam I)^{-1} k_i."""
    return ridge_factorization(K, lam).solve(K)


def test_scalar_solve():
    a = _coeffs(np.array([[1.0]]), 1e-3)[:, 0]
    assert a[0] == pytest.approx(1.0 / 1.001, abs=1e-15)


def test_diagonal_solve():
    a = _coeffs(np.eye(2), 1e-3)[:, 1]
    np.testing.assert_allclose(a, [0.0, 1.0 / 1.001], atol=1e-15)


def test_regularization_dominance():
    rng = np.random.default_rng(0)
    K = gram(rbf(1.0), rng.standard_normal(12))
    a = _coeffs(K, 1e9)[:, 3]
    k_col = K[:, 3]
    assert np.linalg.norm(a) <= 1e-6 * np.linalg.norm(k_col) * K.shape[0]


def test_solve_residual():
    rng = np.random.default_rng(1)
    for seed in range(10):
        r = np.random.default_rng(seed)
        K = gram(rbf(), r.standard_normal(20))
        lam = 1e-3
        i = int(rng.integers(0, 20))
        a = _coeffs(K, lam)[:, i]
        lhs = (K + lam * np.eye(20)) @ a
        k_col = K[:, i]
        assert np.linalg.norm(lhs - k_col) <= 1e-8 * np.linalg.norm(k_col)


def test_matrix_columns_match_single_solves():
    rng = np.random.default_rng(2)
    K = gram(rbf(), rng.standard_normal(9))
    fac = ridge_factorization(K, 1e-3)
    A = fac.solve(K)
    for i in range(9):
        np.testing.assert_allclose(A[:, i], fac.solve(K[:, i]), atol=1e-12)


@pytest.mark.parametrize("shift", [0.0, -1.0, math.nan, math.inf])
def test_ridge_factorization_rejects_nonpositive_shift(shift):
    # Every factor path checks in one place: the ridge solve of KIIM, KCDC
    # and ANM, and Rw-KIIM's system, whose shift is lam * n.
    with pytest.raises(ValueError, match="ridge shift must be positive and finite"):
        ridge_factorization(np.eye(2), shift)
    with pytest.raises(ValueError, match="ridge shift must be positive and finite"):
        _kcdc_spread(_kcdc_coeffs(np.eye(5), shift), np.eye(5))
    with pytest.raises(ValueError, match="ridge shift must be positive and finite"):
        reweighted_cond_matrix(np.eye(5), np.ones(5), shift)


def test_ridge_lu_is_bitwise_that_of_the_shifted_matrix():
    # The shift goes onto the diagonal of one private copy, factored in place.
    # The composite Grams hold -0.0 entries, which K + shift I turns into 0.0.
    for xs in [*_gram_samples(), np.random.default_rng(1).standard_normal(700)]:
        K = gram(default_composite(), xs)
        fac = ridge_factorization(K, 1e-3)
        assert fac._kind == "lu"
        lu, piv = scipy.linalg.lu_factor(K + 1e-3 * np.eye(xs.size))
        np.testing.assert_array_equal(fac._fac[0].view(np.uint64), lu.view(np.uint64))
        np.testing.assert_array_equal(fac._fac[1], piv)


def test_ridge_cholesky_is_bitwise_that_of_the_shifted_matrix():
    K = gram(rbf(), np.random.default_rng(4).standard_normal(300))
    fac = ridge_factorization(K, 1e-3)
    assert fac._kind == "cholesky"
    c, lower = scipy.linalg.cho_factor(K + 1e-3 * np.eye(300))
    assert fac._fac[1] == lower
    np.testing.assert_array_equal(fac._fac[0].view(np.uint64), c.view(np.uint64))


def test_singular_solve_reports_condition():
    # (ones - I) + I is the all-ones matrix: rank 1, exactly singular
    with pytest.raises(NumericalError) as info:
        ridge_factorization(np.ones((3, 3)) - np.eye(3), 1.0)
    assert info.value.condition_estimate > 1e12


def test_singular_cholesky_factor_reports_condition():
    # diag(1, 1e-20) + 1e-30 I is positive definite, so Cholesky succeeds, but
    # its condition number of 1e20 is far past 1 / (n eps).
    with pytest.raises(NumericalError) as info:
        ridge_factorization(np.diag([1.0, 1e-20]), 1e-30)
    assert info.value.condition_estimate > 1e19


def test_exactly_singular_lu_raises_without_a_warning():
    # diag(-1, 1) + I = diag(0, 2): Cholesky fails, and the LU's first pivot
    # is exactly zero (getrf info = 1), which is rcond 0 and no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError) as info:
            ridge_factorization(np.diag([-1.0, 1.0]), 1.0)
    assert info.value.condition_estimate == math.inf


def test_reweighting_on_uniform_grid_is_mild():
    xs = np.linspace(0.0, 1.0, 400)
    r = reweighting_vector(xs, clip_quantile=1.0)
    assert r.min() >= 0.5 and r.max() <= 2.0


def test_reweighting_requires_spread():
    with pytest.raises(ValueError):
        reweighting_vector([2.0] * 10)


def test_reweighting_needs_five_samples():
    with pytest.raises(ValueError):
        reweighting_vector([1.0, 2.0, 3.0])


def test_reweighting_clip_quantile_bounds():
    xs = np.linspace(0.0, 1.0, 20)
    with pytest.raises(ValueError):
        reweighting_vector(xs, clip_quantile=0.5)
    with pytest.raises(ValueError):
        reweighting_vector(xs, clip_quantile=1.1)


def test_reweighting_clipping_behavior():
    rng = np.random.default_rng(6)
    xs = np.concatenate([rng.standard_normal(100), [8.0]])  # outlier inflates its weight
    unclipped = reweighting_vector(xs, clip_quantile=1.0)
    clipped = reweighting_vector(xs, clip_quantile=0.95)
    cap = np.quantile(unclipped, 0.95)
    assert unclipped.max() > cap
    assert clipped.max() == pytest.approx(cap)
    assert (clipped > 0).all() and np.isfinite(clipped).all()


def test_reweighted_identity_weights_match_direct_formula():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(12)
    K = gram(rbf(1.0), x)
    got = reweighted_cond_matrix(K, np.ones(12), 1e-3)
    h = oracles.centering(12)
    direct = h @ np.linalg.inv(h @ K @ h + 1e-3 * 12 * np.eye(12)) @ h @ K
    assert np.abs(got - direct).max() <= 1e-9


def test_reweighted_single_point_is_annihilated():
    K = np.array([[1.0]])
    A = reweighted_cond_matrix(K, np.ones(1), 1e-3)
    assert A[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_reweighted_matches_dense_oracle():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        K = gram(rbf(1.0), rng.standard_normal(5))
        r = rng.uniform(0.2, 3.0, 5)
        got = reweighted_cond_matrix(K, r, 1e-3)
        want = oracles.dense_reweighted_coeffs(K, r, 1e-3)
        assert np.abs(got - want).max() <= 1e-10
        i = int(rng.integers(0, 5))
        assert np.abs(got[:, i] - want[:, i]).max() <= 1e-10


def test_reweighted_coeffs_sum_to_zero():
    rng = np.random.default_rng(8)
    K = gram(rbf(), rng.standard_normal(30))
    r = reweighting_vector(rng.standard_normal(30))
    A = reweighted_cond_matrix(K, r, 1e-3)
    assert np.abs(A.sum(axis=0)).max() <= 1e-10


def test_reweighted_rejects_bad_weights():
    K = np.eye(5)
    with pytest.raises(ValueError):
        reweighted_cond_matrix(K, np.array([1, 1, 0, 1, 1.0]), 1e-3)
    with pytest.raises(ValueError):
        reweighted_cond_matrix(K, np.ones(4), 1e-3)
