import functools
import math

import numpy as np
import pytest

import oracles
from kiim import (MEDIAN, KernelSpec, KernelFamily, NumericalError, center, default_composite,
                  gram, kernel_sum, log_kernel, median_heuristic, polynomial, product,
                  rational_quadratic, rbf, resolve)


def _k(spec, x, xp):
    """k(x, x') as the off-diagonal entry of the Gram matrix over [x, x']."""
    return gram(spec, [x, xp])[0, 1]


def test_eval_rbf_zero_distance():
    assert _k(rbf(1.0), 0.7, 0.7) == 1.0


def test_eval_log_unit_distance():
    assert _k(log_kernel(), 0.0, 1.0) == pytest.approx(-math.log(2), abs=1e-12)


def test_eval_rq_unit_distance():
    assert _k(rational_quadratic(), 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_eval_polynomial():
    assert _k(polynomial(3), 2.0, 1.0) == pytest.approx(27.0, abs=1e-12)


def test_composite_product_diagonal_is_zero():
    spec = product(rbf(1.0), log_kernel(), rational_quadratic())
    assert _k(spec, 0.3, 0.3) == 0.0


def test_composite_sum_adds_parts():
    spec = kernel_sum(rbf(1.0), rational_quadratic())
    assert _k(spec, 0.0, 1.0) == pytest.approx(math.exp(-1.0) + 0.5, abs=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        rbf(-1.0)
    with pytest.raises(ValueError):
        polynomial(0)
    with pytest.raises(ValueError):
        product(rbf(1.0))
    with pytest.raises(ValueError):
        KernelSpec(KernelFamily.LOG, bandwidth=2.0)
    # A family name is not a family, and a composite part must be a spec.
    with pytest.raises(ValueError):
        KernelSpec("rbf")
    with pytest.raises(ValueError):
        product(rbf(1.0), 3)


@pytest.mark.parametrize("make", [lambda: rbf(math.inf), lambda: rbf(True),
                                  lambda: polynomial(True), lambda: rbf(1e200),
                                  lambda: rbf(np.float64(1e200)), lambda: rbf(10**400),
                                  lambda: rbf(1e-170)],
                         ids=["rbf-inf", "rbf-bool", "poly-bool", "rbf-square-inf",
                              "rbf-numpy-square-inf", "rbf-int-square-inf", "rbf-square-0"])
def test_spec_rejects_parameters_parse_kernel_rejects(make):
    # An infinite width gives an all-ones Gram and prints as "rbf:inf";
    # a bool passes as an int and prints as "rbf:True" or "poly:True".
    # A width whose square overflows or underflows would divide by inf or 0.
    with pytest.raises(ValueError):
        make()


def test_a_gram_that_overflows_is_a_numerical_error():
    # (40 * 40 + 1)^200 overflows; it raises with no numpy warning.
    with pytest.raises(NumericalError, match="poly kernel Gram has an entry that is not finite"):
        gram(polynomial(200), [0.0, 1.0, 40.0])
    with pytest.raises(NumericalError, match="log kernel"):
        gram(log_kernel(), [-1e200, 1e200])
    # A median width whose square underflows is rejected as it resolves.
    with pytest.raises(ValueError, match="finite nonzero square"):
        gram(rbf(), [0.0, 1e-170, 2e-170])
    assert np.isfinite(gram(polynomial(200), [0.0, 1.0, 2.0])).all()


def test_median_heuristic_single_pair():
    assert median_heuristic([0.0, 1.0]) == 1.0


def test_median_heuristic_degenerate_fallback():
    assert median_heuristic([5.0, 5.0, 5.0]) == 1.0


def test_median_heuristic_three_points():
    # distances {1, 2, 3}, median 2
    assert median_heuristic([0.0, 1.0, 3.0]) == 2.0


def test_median_heuristic_needs_two_samples():
    with pytest.raises(ValueError):
        median_heuristic([1.0])


def test_median_heuristic_permutation_invariant():
    rng = np.random.default_rng(3)
    xs = rng.standard_normal(40)
    perm = rng.permutation(40)
    assert median_heuristic(xs) == median_heuristic(xs[perm])


def test_median_heuristic_matches_triu_oracle():
    rng = np.random.default_rng(11)
    normal = rng.standard_normal(101)
    inputs = (rng.integers(0, 4, 200).astype(float),  # tie-heavy
              rng.integers(0, 4, 1000).astype(float),   # tie-heavy, even n = 1000
              np.append(normal, 1e6),                   # one far outlier
              1e4 * rng.uniform(-1.0, 1.0, 150),
              normal)
    for xs in inputs:
        m = oracles.triu_median(xs)
        assert median_heuristic(xs) == (m if m > 0.0 else 1.0)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 7, 100, 999, 1000])
def test_median_heuristic_is_the_triu_median_bit_for_bit(n):
    # n(n - 1)/2 pairs: 1, 3, 6, 15, 21, 4950, 498501, 499500, odd and even
    # counts alike, so both the one- and the two-middle branch are held.
    xs = np.random.default_rng(n).standard_normal(n)
    for sample in (xs, np.round(xs, 1)):  # the second one tie-heavy
        m = oracles.triu_median(sample)
        assert median_heuristic(sample) == (m if m > 0.0 else 1.0)
    assert median_heuristic(np.full(n, 0.5)) == 1.0


def test_resolve_replaces_median_marker():
    spec = resolve(default_composite(), [0.0, 1.0, 3.0])
    assert all(part.bandwidth != MEDIAN for part in spec.parts)
    assert spec.parts[0].bandwidth == 2.0


def test_gram_single_point():
    g = gram(rbf(1.0), [0.0])
    assert g.shape == (1, 1)
    assert g[0, 0] == 1.0


def test_gram_rbf_two_points():
    g = gram(rbf(1.0), [0.0, 1.0])
    expected = np.array([[1.0, math.exp(-1)], [math.exp(-1), 1.0]])
    np.testing.assert_allclose(g, expected, atol=1e-15)


def test_gram_log_two_points():
    g = gram(log_kernel(), [0.0, 1.0])
    expected = np.array([[0.0, -math.log(2)], [-math.log(2), 0.0]])
    np.testing.assert_allclose(g, expected, atol=1e-15)


def test_gram_empty_rejected():
    with pytest.raises(ValueError):
        gram(rbf(1.0), [])


def _gram_samples():
    rng = np.random.default_rng(0)
    return [
        rng.standard_normal(31),
        rng.integers(0, 4, 40).astype(float),  # integer-valued, tie-heavy
        np.append(rng.standard_normal(30), 1e6),  # one far outlier
        rng.uniform(-1e4, 1e4, 33),
    ]


def test_gram_bitwise_symmetric():
    # Nothing mirrors the Gram: symmetry rests on each kernel being a
    # function of x - x' (negated exactly by a swap) or of x x'.
    for spec in (rbf(), log_kernel(), rational_quadratic(), polynomial(2), polynomial(3),
                 default_composite(), default_composite("sum")):
        for xs in _gram_samples():
            values = gram(spec, xs)
            assert (values == values.T).all()
            assert not values.flags.writeable


@pytest.mark.parametrize("mode", ["product", "sum"])
def test_composite_gram_matches_reduce_oracle_bitwise(mode):
    # 700 points take several row blocks, the last one short.
    extra = np.random.default_rng(1).standard_normal(700)
    for xs in [*_gram_samples(), extra]:
        expected = oracles.reduce_composite_gram(xs, mode)
        actual = gram(default_composite(mode), xs)
        np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def _dense_gram(spec, xs):
    """The Gram of a plain kernel, or of a composite of plain kernels, as one
    n x n numpy expression per part."""
    a, b = xs[:, None], xs[None, :]
    d2 = (a - b) ** 2
    fam = spec.family
    if fam is KernelFamily.RBF:
        width = spec.bandwidth
        if width == MEDIAN:
            width = oracles.triu_median(xs)
            width = width if width > 0.0 else 1.0
        return np.exp(-d2 / width**2)
    if fam is KernelFamily.LOG:
        return -np.log1p(d2)
    if fam is KernelFamily.RATIONAL_QUADRATIC:
        return 1.0 - d2 / (d2 + 1.0)
    if fam is KernelFamily.POLYNOMIAL:
        return (a * b + 1.0) ** spec.degree
    combine = np.multiply if fam is KernelFamily.COMPOSITE_PRODUCT else np.add
    return functools.reduce(combine, (_dense_gram(part, xs) for part in spec.parts))


@pytest.mark.parametrize("spec", [rbf(0.7), rbf(), log_kernel(), rational_quadratic(),
                                  polynomial(3), default_composite(),
                                  default_composite("sum")],
                         ids=["rbf-fixed", "rbf-median", "log", "rq", "poly", "product", "sum"])
@pytest.mark.parametrize("n", [100, 1500])
def test_gram_of_every_family_is_the_dense_expression_bit_for_bit(spec, n):
    # At n = 1500 the rows are evaluated in blocks of 87, the last one short.
    xs = np.random.default_rng(n).standard_normal(n)
    expected = _dense_gram(spec, xs)
    np.testing.assert_array_equal(gram(spec, xs).view(np.uint64), expected.view(np.uint64))


def test_default_gram_peak_memory_at_n_1000(traced_peak):
    # The result is 8 MB; n x n temporaries per part once peaked at 48 MB.
    xs = np.random.default_rng(2).standard_normal(1000)
    assert traced_peak(lambda: gram(default_composite(), xs)) < 24e6


def test_gram_diagonals():
    rng = np.random.default_rng(1)
    xs = rng.standard_normal(12)
    assert (np.diag(gram(rbf(), xs)) == 1.0).all()
    assert (np.diag(gram(log_kernel(), xs)) == 0.0).all()
    assert (np.diag(gram(rational_quadratic(), xs)) == 1.0).all()


def test_rbf_gram_near_psd():
    rng = np.random.default_rng(7)
    for _ in range(10):
        xs = rng.standard_normal(rng.integers(5, 50))
        values = gram(rbf(), xs)
        eig = np.linalg.eigvalsh(values)
        assert eig.min() >= -1e-10 * np.trace(values)


def test_centering_matrix_small_cases():
    np.testing.assert_array_equal(center(np.eye(1)), [[0.0]])
    np.testing.assert_allclose(center(np.eye(2)), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)
    with pytest.raises(ValueError):
        center(np.eye(0))


def test_centering_matrix_annihilates_ones():
    h = center(np.eye(5))
    assert np.abs(h @ np.ones(5)).max() <= 1e-15
    np.testing.assert_array_equal(center(np.full((5, 3), 2.5)), np.zeros((5, 3)))


def test_centering_matrix_idempotent_rank():
    h = center(np.eye(9))
    assert np.abs(h @ h - h).max() <= 1e-12
    eig = np.sort(np.linalg.eigvalsh(h))
    assert eig[0] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(eig[1:], 1.0, atol=1e-12)


def test_center_matches_centering_oracle():
    rng = np.random.default_rng(12)
    for n in (1, 2, 9):
        X = rng.standard_normal((n, 4))
        np.testing.assert_allclose(center(X), oracles.centering(n) @ X, rtol=0, atol=1e-14)
        np.testing.assert_allclose(center(center(X)), center(X), rtol=0, atol=1e-14)
