import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from adversarial_fixture import real_pair_shapes
from kiim import (CausalDecision, Direction, IgciReference, Mechanism, MechanismSpec, Method,
                  Noise, NumericalError, PairedDataset, RunConfig, Spectrum, generate,
                  table1_grid, anm_score, energy_rank_score, fixed_discard_score, gram,
                  igci_score, infer_direction, invariance_matrix, kcdc_score, kiim_matrix,
                  kiim_score, median_heuristic, rank_ablation, rbf, standardize, sym_eig)
from kiim import baselines, scoring
from kiim.errors import TRIAL_ERRORS
from kiim.scoring import (MIN_SAMPLES, _CACHE_GROUPS, _coeffs_factor, _decide, factor_score,
                          score_datasets)


def _spectrum(vals):
    arr = np.array(sorted(vals, reverse=True), dtype=float)
    return Spectrum(eigenvalues=arr, clamped_count=0, negative_count=0,
                    min_raw=float(arr.min()))


def _random_dataset(seed, n=8):
    rng = np.random.default_rng(seed)
    return PairedDataset(rng.standard_normal(n), rng.standard_normal(n))


# ---------------------------------------------------------------- kiim_matrix

def test_kiim_matrix_single_point_is_zero():
    m = kiim_matrix(np.array([[1.0]]), np.array([[1.0]]), 1e-3)
    np.testing.assert_array_equal(m, [[0.0]])


def test_kiim_matrix_identity_grams():
    n, lam = 4, 1e-3
    m = kiim_matrix(np.eye(n), np.eye(n), lam)
    expected = oracles.centering(n) / (1.0 + lam) ** 2
    assert np.abs(m - expected).max() <= 1e-12


def test_kiim_matrix_dimension_and_lambda_checks():
    with pytest.raises(ValueError):
        kiim_matrix(np.eye(2), np.eye(3), 1e-3)
    with pytest.raises(ValueError):
        kiim_matrix(np.eye(2), np.eye(2), 0.0)


def test_kiim_matrix_matches_dense_oracle():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        Kx = gram(rbf(), rng.standard_normal(6))
        Ky = gram(rbf(), rng.standard_normal(6))
        got = kiim_matrix(Kx, Ky, 1e-3)
        want = oracles.dense_kiim_matrix(Kx, Ky, 1e-3)
        assert np.abs(got - want).max() <= 1e-9


def test_coeffs_factor_agrees_with_kiim_matrix():
    # C H C^T with C = K_y A and A the ridge solve is the same matrix
    rng = np.random.default_rng(11)
    Kx = gram(rbf(), rng.standard_normal(10))
    Ky = gram(rbf(), rng.standard_normal(10))
    A = np.linalg.solve(Kx + 1e-3 * np.eye(10), Kx)
    B = _coeffs_factor(A, Ky)
    got = B.T @ B
    want = kiim_matrix(Kx, Ky, 1e-3)
    assert np.abs(got - want).max() <= 1e-10


def test_identity_factor_is_as_accurate_as_the_product_form():
    """B is formed as H (K_y - lam S) with S = (K_x+lam I)^{-1} K_y, not as
    center(K_x @ S). Against a long-double reference, its scores (||B||_F^2 / n
    at the default threshold) must err no more than the product form's in
    the median, and below 1e-13 everywhere."""
    config = RunConfig()
    spec = config.kernel_x
    errors = {"identity": [], "product": []}
    for mechanism, noise in table1_grid():
        for n in (60, 100):
            ds = generate(MechanismSpec(mechanism=mechanism, noise=noise, n=n, seed=0))
            columns = (gram(spec, standardize(ds.xs)), gram(spec, standardize(ds.ys)))
            for Kx, Ky in (columns, columns[::-1]):
                ref = oracles.longdouble_kiim_factor(Kx, Ky, config.lam)
                want = float((ref * ref).sum() / n)
                for form, B in (("identity", scoring._kiim_factor(Kx, Ky, config.lam)),
                                ("product", oracles.product_kiim_factor(Kx, Ky, config.lam))):
                    got = factor_score(B)
                    assert got.discarded_top == 0
                    errors[form].append(abs(got.score - want) / want)
    assert len(errors["identity"]) == 40
    assert np.median(errors["identity"]) <= np.median(errors["product"])
    assert max(errors["identity"]) < 1e-13


_WORKING_SET_METHODS = (Method.KIIM, Method.RW_KIIM, Method.KCDC, Method.ANM)


@pytest.mark.parametrize("method", _WORKING_SET_METHODS, ids=[m.value for m in _WORKING_SET_METHODS])
def test_decision_holds_at_most_four_n_by_n_arrays(method, traced_peak):
    """One decision at n = 1000 keeps at most four n x n float64 arrays live,
    4 n^2 8 bytes, with 1 MB for vectors and Gram row blocks. The
    sym_eig(B^T B) spectrum path is outside this rule: rank_ablation takes
    it at n <= 100, and factor_score only when its certificate fails."""
    n = 1000
    mechanism, noise = table1_grid()[0]
    ds = generate(MechanismSpec(mechanism=mechanism, noise=noise, n=n, seed=0))
    assert traced_peak(lambda: infer_direction(ds, method)) < 4 * n * n * 8 + 1e6


def test_one_dataset_scored_by_every_method_holds_at_most_four_n_by_n_arrays(traced_peak):
    """The runs score a dataset with all its methods in one call, KIIM and
    Rw-KIIM on one pair of Grams; the pair is released before KCDC and ANM
    run, so the one-decision bound above still holds."""
    n = 1000
    mechanism, noise = table1_grid()[0]
    ds = generate(MechanismSpec(mechanism=mechanism, noise=noise, n=n, seed=0))
    outcomes = []
    peak = traced_peak(lambda: outcomes.extend(score_datasets((ds,), tuple(Method), RunConfig())))
    assert peak < 4 * n * n * 8 + 1e6
    assert [error for _, error in outcomes] == [None] * len(Method)


# -------------------------------------------------------------------- sym_eig

def test_sym_eig_diagonal():
    s = sym_eig(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(s.eigenvalues, [3.0, 2.0, 1.0], atol=1e-12)
    assert s.clamped_count == 0 and s.negative_count == 0


def test_sym_eig_flags_true_negative():
    s = sym_eig([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(s.eigenvalues, [1.0, 0.0], atol=1e-12)
    assert s.clamped_count == 0
    assert s.negative_count == 1
    assert s.min_raw == pytest.approx(-1.0, abs=1e-12)


def test_sym_eig_clamps_roundoff_negative():
    eps = 1e-14
    s = sym_eig(np.diag([1.0, -eps]))
    assert s.eigenvalues[1] == 0.0
    assert s.clamped_count == 1
    assert s.negative_count == 0
    assert s.min_raw == pytest.approx(-eps)


def test_sym_eig_zero_matrix():
    s = sym_eig(np.zeros((3, 3)))
    np.testing.assert_array_equal(s.eigenvalues, np.zeros(3))


def test_sym_eig_rejects_asymmetry():
    with pytest.raises(ValueError):
        sym_eig([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        sym_eig(np.zeros((2, 3)))


def test_sym_eig_matches_jacobi_oracle():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((7, 7))
        M = A @ A.T
        got = sym_eig(M).eigenvalues
        want = np.maximum(oracles.jacobi_eigenvalues(M), 0.0)
        assert np.abs(got - want).max() <= 1e-9 * max(np.trace(M), 1.0)


# ---------------------------------------------------------------- rank scores

def test_energy_rule_keeps_all_when_top_dominates():
    s = energy_rank_score(_spectrum([5.0, 3.0, 1.0, 1.0]))
    assert s.score == pytest.approx(2.5)
    assert s.discarded_top == 0 and s.retained_count == 4


def test_energy_rule_flat_spectrum_drops_two():
    s = energy_rank_score(_spectrum([0.5] * 20))
    assert s.score == pytest.approx(0.45)
    assert s.discarded_top == 2 and s.retained_count == 18
    assert s.retained_energy_ratio == pytest.approx(0.9)


def test_energy_rule_single_eigenvalue():
    s = energy_rank_score(_spectrum([7.0]))
    assert s.score == pytest.approx(7.0)
    assert s.discarded_top == 0


def test_energy_rule_zero_total():
    s = energy_rank_score(_spectrum([0.0, 0.0]))
    assert s.score == 0.0 and s.discarded_top == 0


def test_energy_rule_threshold_validation():
    with pytest.raises(ValueError):
        energy_rank_score(_spectrum([1.0]), energy_threshold=0.0)
    with pytest.raises(ValueError):
        energy_rank_score(_spectrum([1.0]), energy_threshold=1.5)


def test_energy_rule_matches_enumeration():
    rng = np.random.default_rng(123)
    for case in range(1000):
        n = int(rng.integers(1, 30))
        eig = rng.uniform(0.0, 1.0, n) ** 2
        if case % 7 == 0:
            eig[rng.integers(0, n)] = 0.0
        threshold = float(rng.uniform(0.5, 1.0))
        s = energy_rank_score(_spectrum(eig), threshold)
        d, score = oracles.enumerate_energy_rank(eig, threshold)
        assert s.discarded_top == d
        assert s.score == pytest.approx(score, abs=1e-12)
        assert 0.0 <= s.retained_energy_ratio <= 1.0


def test_energy_rule_discards_nothing_at_default_threshold():
    # Pins an open question: at energy_threshold = 0.9 the top eigenvalue of
    # every grid score holds more than 10% of the energy, so the rule keeps
    # the whole spectrum and the score is trace(M) / n.
    for mechanism, noise in table1_grid():
        for seed in range(3):
            ds = generate(MechanismSpec(mechanism=mechanism, noise=noise, n=100, seed=seed))
            for direction in (Direction.X_TO_Y, Direction.Y_TO_X):
                assert kiim_score(ds, direction).discarded_top == 0


def test_fixed_discard_enumeration_example():
    s = fixed_discard_score(_spectrum([5.0, 3.0, 1.0, 1.0]), 1)
    assert s.score == pytest.approx(1.25)
    assert s.retained_count == 3


def test_fixed_discard_boundaries():
    spec = _spectrum([5.0, 3.0, 1.0, 1.0])
    assert fixed_discard_score(spec, 0).score == pytest.approx(2.5)  # trace / n
    assert fixed_discard_score(spec, 3).score == pytest.approx(0.25)  # smallest / n
    with pytest.raises(ValueError):
        fixed_discard_score(spec, 4)
    with pytest.raises(ValueError):
        fixed_discard_score(spec, -1)


def test_discard_scores_monotone_nonincreasing():
    rng = np.random.default_rng(9)
    eig = np.sort(rng.uniform(0.0, 2.0, 15))[::-1]
    spec = _spectrum(eig)
    scores = [fixed_discard_score(spec, d).score for d in range(15)]
    assert all(a >= b - 1e-15 for a, b in zip(scores, scores[1:]))
    assert energy_rank_score(spec).score <= scores[0] + 1e-15


# --------------------------------------------------- score read from the factor

_DIRECTIONS = (Direction.X_TO_Y, Direction.Y_TO_X)
_INVARIANCE_METHODS = (Method.KIIM, Method.RW_KIIM)


def _spectrum_path(ds, method, config):
    """Both directional scores from the full spectrum of M = B^T B."""
    return [energy_rank_score(sym_eig(invariance_matrix(ds, direction, config,
                                                        method is Method.RW_KIIM)),
                              config.energy_threshold)
            for direction in _DIRECTIONS]


def _both_scores(ds, method, config):
    """The two directional scores of one decision, in ``_DIRECTIONS`` order."""
    decision = infer_direction(ds, method, config)
    return [decision.score_xy, decision.score_yx]


def _assert_same_rank_and_score(got, want):
    assert got.discarded_top == want.discarded_top
    assert got.retained_count == want.retained_count
    assert got.score == pytest.approx(want.score, rel=1e-12, abs=0.0)


def _counting(monkeypatch, name, modules=(scoring,)):
    """Record every call of ``name`` made through any of ``modules``."""
    calls = []
    for module in modules:
        def spy(*args, _original=getattr(module, name), **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("method", _INVARIANCE_METHODS, ids=[m.value for m in _INVARIANCE_METHODS])
def test_certified_score_matches_spectrum_path_on_grid(method, monkeypatch):
    config = RunConfig()
    for mechanism, noise in table1_grid():
        for seed in range(3):
            ds = generate(MechanismSpec(mechanism=mechanism, noise=noise, n=100, seed=seed))
            want = _spectrum_path(ds, method, config)
            eig_calls = _counting(monkeypatch, "sym_eig")
            got = _both_scores(ds, method, config)
            monkeypatch.undo()
            assert eig_calls == []  # the certificate held: no spectrum was computed
            for g, w in zip(got, want):
                _assert_same_rank_and_score(g, w)


def test_flat_spectrum_falls_back_to_the_spectrum(monkeypatch):
    # 0.5 Q with Q orthogonal: B^T B = 0.25 I, so sigma_1^2 is 1/20 of the total.
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((20, 20)))
    B = 0.5 * q
    eig_calls = _counting(monkeypatch, "sym_eig")
    got = factor_score(B)
    assert len(eig_calls) == 1
    assert got == energy_rank_score(sym_eig(B.T @ B))
    assert got.discarded_top == 2


def test_zero_factor_falls_back_and_scores_zero(monkeypatch):
    eig_calls = _counting(monkeypatch, "sym_eig")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0/0 in the certificate
        got = factor_score(np.zeros((6, 6)))
    assert len(eig_calls) == 1
    assert got.score == 0.0 and got.discarded_top == 0


def test_power_steps_that_underflow_fall_back_without_a_warning():
    """A cause that is zero but for one spike gives B entries so small that
    the power steps underflow to a zero vector. The spectrum then decides,
    with no 0/0 on the way; both scores lie below 1, so the tie floor makes
    each decision Undecided."""
    x = np.zeros(250)
    x[7] = 1.0
    ds = PairedDataset(x, x + np.random.default_rng(0).standard_normal(250))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kiim, rw_kiim = (infer_direction(ds, m) for m in (Method.KIIM, Method.RW_KIIM))
    assert (kiim.score_xy.score, kiim.score_yx.score) == (4.6031610230577923e-32,
                                                          1.0935506194316636e-222)
    assert (rw_kiim.score_xy.score, rw_kiim.score_yx.score) == (3.870340946799775e-225,
                                                                8.196543971105377e-223)
    assert kiim.direction is rw_kiim.direction is Direction.UNDECIDED


def test_factor_score_matches_energy_rule_on_random_factors():
    rng = np.random.default_rng(31)
    for case in range(300):
        n = int(rng.integers(1, 25))
        # Column scales from flat to one dominant direction.
        B = rng.standard_normal((n, n)) * rng.uniform(0.0, 1.0, n) ** float(rng.uniform(0, 8))
        threshold = float(rng.uniform(0.3, 1.0)) if case % 3 else 0.9
        got = factor_score(B, threshold)
        want = energy_rank_score(sym_eig(B.T @ B), threshold)
        assert got.discarded_top == want.discarded_top
        assert got.score == pytest.approx(want.score, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("method", _INVARIANCE_METHODS, ids=[m.value for m in _INVARIANCE_METHODS])
def test_lower_energy_threshold_still_matches_spectrum_path(method):
    config = dataclasses.replace(RunConfig(), energy_threshold=0.5)
    for mechanism, noise in table1_grid():
        ds = generate(MechanismSpec(mechanism=mechanism, noise=noise, n=60, seed=1))
        want = _spectrum_path(ds, method, config)
        got = _both_scores(ds, method, config)
        for g, w in zip(got, want):
            _assert_same_rank_and_score(g, w)


# Gram builds per decision: the invariance methods share one Gram per column
# between the two directions; KCDC builds two per direction, ANM three (its
# regression and HSIC's two) and IGCI none.
_GRAMS_PER_DECISION = {Method.KIIM: 2, Method.RW_KIIM: 2, Method.KCDC: 4, Method.ANM: 6,
                       Method.IGCI_GAUSS: 0, Method.IGCI_UNIFORM: 0}


@pytest.mark.parametrize("method", list(Method), ids=[m.value for m in Method])
def test_decision_builds_each_gram_once(method, monkeypatch):
    ds = _random_dataset(22, n=40)
    calls = _counting(monkeypatch, "gram", (scoring, baselines))
    infer_direction(ds, method)
    assert len(calls) == _GRAMS_PER_DECISION[method]
    if method in _INVARIANCE_METHODS:
        calls.clear()
        infer_direction(ds, method, dataclasses.replace(RunConfig(), kernel_y=rbf()))
        assert len(calls) == 4


def test_rank_ablation_builds_each_gram_once(monkeypatch):
    calls = _counting(monkeypatch, "gram")
    rank_ablation(_random_dataset(23, n=30), 2)
    assert len(calls) == 2


def _tie_heavy(n, seed):
    rng = np.random.default_rng(seed)
    xs = (rng.random(n) < 0.2).astype(float)
    xs[:2] = (0.0, 1.0)
    ys = xs + (rng.random(n) < 0.15)
    return PairedDataset(xs, ys)


def _outlier(n, seed):
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal(n)
    xs[n // 2] = 1e6
    return PairedDataset(xs, np.tanh(xs) + 0.1 * rng.standard_normal(n))


def _tiny(n, seed):
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal(n)
    return PairedDataset(xs, xs**3 + 0.3 * rng.standard_normal(n))


_ADVERSARIAL = {"integer-ties": lambda seed: _tie_heavy(100, seed),
                "outlier-1e6": lambda seed: _outlier(100, seed),
                "n5": lambda seed: _tiny(5, seed),
                "n10": lambda seed: _tiny(10, seed)}


def test_tie_heavy_columns_use_the_fallback_bandwidth():
    ds = _tie_heavy(100, 0)
    assert median_heuristic(standardize(ds.xs)) == 1.0
    assert median_heuristic(standardize(ds.ys)) == 1.0


@pytest.mark.parametrize("shape", sorted(_ADVERSARIAL))
@pytest.mark.parametrize("method", _INVARIANCE_METHODS, ids=[m.value for m in _INVARIANCE_METHODS])
def test_adversarial_shapes_decide_as_the_spectrum_path(shape, method):
    config = RunConfig()
    for seed in range(5):
        ds = _ADVERSARIAL[shape](seed)
        decision = infer_direction(ds, method, config)
        want = _spectrum_path(ds, method, config)
        for g, w in zip((decision.score_xy, decision.score_yx), want):
            assert np.isfinite(g.score)
            _assert_same_rank_and_score(g, w)
        assert decision.direction is _decide(want[0].score, want[1].score,
                                             config.tie_tolerance)


# -------------------------------------------------------------- dataset level

def test_kiim_score_matches_brute_force():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal(8)
        ys = rng.standard_normal(8)
        got = kiim_score(PairedDataset(xs, ys), Direction.X_TO_Y).score
        want = oracles.brute_force_kiim_score(xs, ys)
        assert abs(got - want) <= 1e-8


def test_identical_sequences_score_symmetric():
    rng = np.random.default_rng(10)
    xs = rng.standard_normal(30)
    ds = PairedDataset(xs, xs.copy())
    assert kiim_score(ds, Direction.X_TO_Y).score == \
        kiim_score(ds, Direction.Y_TO_X).score


@pytest.mark.parametrize("method", list(Method), ids=[m.value for m in Method])
def test_swap_exchanges_direction_scores(method):
    ds = _random_dataset(3, n=40)
    decision = infer_direction(ds, method)
    swapped = infer_direction(PairedDataset(ds.ys, ds.xs), method)
    assert swapped.score_xy == decision.score_yx
    assert swapped.score_yx == decision.score_xy
    flip = {Direction.X_TO_Y: Direction.Y_TO_X, Direction.Y_TO_X: Direction.X_TO_Y,
            Direction.UNDECIDED: Direction.UNDECIDED}
    assert swapped.direction is flip[decision.direction]


# Each method's own public per-direction score; Rw-KIIM has none.
_DOORS = {
    Method.KIIM: kiim_score,
    Method.KCDC: kcdc_score,
    Method.IGCI_GAUSS: lambda ds, direction: igci_score(ds, direction, IgciReference.GAUSSIAN),
    Method.IGCI_UNIFORM: lambda ds, direction: igci_score(ds, direction, IgciReference.UNIFORM),
    Method.ANM: anm_score,
}


@pytest.mark.parametrize("method", list(Method), ids=[m.value for m in Method])
def test_direction_score_minimum_sample_size(method):
    n = MIN_SAMPLES[method]
    rng = np.random.default_rng(21)
    ds = PairedDataset(rng.standard_normal(n), rng.standard_normal(n))
    assert np.isfinite(infer_direction(ds, method, RunConfig()).score_xy.score)
    smaller = PairedDataset(ds.xs[:-1], ds.ys[:-1])
    # One sample short fails with the run-level message at every entry.
    message = f"{method.value} needs at least {n} paired samples, got {n - 1}"
    entries = [lambda: infer_direction(smaller, method, RunConfig())]
    for d in (Direction.X_TO_Y, Direction.Y_TO_X):
        if method in _DOORS:
            entries.append(lambda d=d: _DOORS[method](smaller, d))
        if method in (Method.KIIM, Method.RW_KIIM):
            entries.append(lambda d=d: invariance_matrix(smaller, d, RunConfig(),
                                                         reweighted=method is Method.RW_KIIM))
    if method is Method.KIIM:
        entries.append(lambda: rank_ablation(smaller, 0))
    for entry in entries:
        with pytest.raises(ValueError) as info:
            entry()
        assert str(info.value) == message
    assert score_datasets([smaller], [method], RunConfig()) == ((None, message),)


def test_every_method_has_a_minimum_and_one_cache_group():
    # score_datasets would miss a method outside every group with a late KeyError.
    assert set(MIN_SAMPLES) == set(Method)
    for method in Method:
        assert sum(method in group for group in _CACHE_GROUPS) == 1, method


# Derandomized with no example database: every run searches the same inputs.
_SEARCH = settings(derandomize=True, database=None, deadline=None, max_examples=50)
_SEEDS = st.integers(0, 2**32 - 1)
_SIZES = st.integers(20, 60)
_SLOPES = st.one_of(st.floats(0.1, 10.0), st.floats(-10.0, -0.1))
_SHIFTS = st.floats(-100.0, 100.0)


def _assert_same_scores(ds, other, method):
    config = RunConfig()
    for a, b in zip(_both_scores(ds, method, config), _both_scores(other, method, config)):
        assert abs(a.score - b.score) <= 1e-9 * max(abs(a.score), 1.0)


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
@_SEARCH
@given(seed=_SEEDS, n=_SIZES, perm_seed=_SEEDS)
@example(seed=4, n=40, perm_seed=12)
def test_kiim_score_permutation_invariant(method, seed, n, perm_seed):
    ds = _random_dataset(seed, n=n)
    perm = np.random.default_rng(perm_seed).permutation(n)
    _assert_same_scores(ds, PairedDataset(ds.xs[perm], ds.ys[perm]), method)


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
@_SEARCH
@given(seed=_SEEDS, n=_SIZES, ax=_SLOPES, bx=_SHIFTS, ay=_SLOPES, by=_SHIFTS)
@example(seed=5, n=35, ax=3.0, bx=-7.0, ay=-0.5, by=2.0)
def test_kiim_score_affine_invariant(method, seed, n, ax, bx, ay, by):
    ds = _random_dataset(seed, n=n)
    _assert_same_scores(ds, PairedDataset(ax * ds.xs + bx, ay * ds.ys + by), method)


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(seed=_SEEDS)
def test_real_pair_shapes_score_finitely_or_raise_typed_errors(method, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (5, 6, 10, 11, 30, 60):
            for shape, ds in real_pair_shapes(seed, n).items():
                try:
                    decision = infer_direction(ds, method)
                except TRIAL_ERRORS:
                    continue
                scores = [decision.score_xy.score, decision.score_yx.score]
                assert np.isfinite(scores).all(), (shape, n)
                assert decision.direction in Direction


def test_kiim_score_minimum_size():
    with pytest.raises(ValueError):
        kiim_score(PairedDataset([1.0, 2.0], [3.0, 4.0]), Direction.X_TO_Y)


def test_kiim_score_constant_variable_rejected():
    ds = PairedDataset(np.ones(10), np.arange(10.0))
    with pytest.raises(ValueError):
        kiim_score(ds, Direction.X_TO_Y)


def test_invariance_matrix_psd_property():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 60))
        ds = PairedDataset(rng.standard_normal(n), rng.standard_normal(n))
        for reweighted in (False, True):
            m = invariance_matrix(ds, Direction.X_TO_Y, RunConfig(), reweighted=reweighted)
            eig = np.linalg.eigvalsh(m)
            assert eig.min() >= -1e-10 * max(np.trace(m), 1.0)


def test_rw_kiim_score_runs_and_differs():
    ds = _random_dataset(7, n=40)
    plain = kiim_score(ds, Direction.X_TO_Y).score
    rw = infer_direction(ds, Method.RW_KIIM, RunConfig()).score_xy.score
    assert rw >= 0.0
    assert rw != plain


def test_direction_score_wraps_baselines_without_rank_fields():
    ds = _random_dataset(8, n=30)
    score = infer_direction(ds, Method.KCDC, RunConfig()).score_xy
    assert score.retained_count is None
    assert score.retained_energy_ratio is None
    score = infer_direction(ds, Method.KIIM, RunConfig()).score_xy
    assert score.retained_count is not None


# ------------------------------------------------------------ infer_direction

def test_infer_identical_pair_is_undecided():
    xs = np.random.default_rng(13).standard_normal(25)
    decision = infer_direction(PairedDataset(xs, xs.copy()), Method.KIIM)
    assert decision.direction is Direction.UNDECIDED


def test_infer_smaller_score_wins():
    ds = _random_dataset(14, n=30)
    decision = infer_direction(ds, Method.KIIM)
    if decision.score_xy.score < decision.score_yx.score:
        assert decision.direction is Direction.X_TO_Y
    else:
        assert decision.direction is Direction.Y_TO_X


def test_infer_records_method_and_digest():
    ds = _random_dataset(15, n=20)
    decision = infer_direction(ds, "KCDC")
    assert decision.method is Method.KCDC


def test_infer_all_methods_run():
    ds = _random_dataset(16, n=40)
    for method in Method:
        decision = infer_direction(ds, method)
        assert decision.direction in (Direction.X_TO_Y, Direction.Y_TO_X,
                                      Direction.UNDECIDED)


def test_a_decision_calls_no_scipy_factor_wrapper_and_no_np_median(monkeypatch):
    # The ridge factor and its solves call LAPACK directly, and the median
    # heuristic partitions; a wrapper brought back would raise here.
    ds = generate(MechanismSpec(mechanism=Mechanism.MNM1, noise=Noise.UNIFORM, n=100, seed=0))
    expected = [infer_direction(ds, method) for method in Method]

    def forbidden(*args, **kwargs):
        raise AssertionError("a wrapper was called on the decision path")

    for name in ("cho_factor", "lu_factor", "cho_solve", "lu_solve", "norm"):
        monkeypatch.setattr(scipy.linalg, name, forbidden)
    monkeypatch.setattr(np, "median", forbidden)
    assert [infer_direction(ds, method) for method in Method] == expected


def test_tie_tolerance_is_configurable():
    ds = _random_dataset(17, n=30)
    loose = dataclasses.replace(RunConfig(), tie_tolerance=1e6)
    decision = infer_direction(ds, Method.KIIM, loose)
    assert decision.direction is Direction.UNDECIDED


def test_tie_gap_is_absolute_below_score_one():
    """Pins today's rule, an open question in docs/formats.md ("Tie floor"):
    _decide scales tie_tolerance by max(a, b, 1.0), so below a score of 1 the
    gap is absolute. Rw-KIIM's scores here differ ninefold, far beyond the
    relative tolerance, yet both lie below 1e-12, so the decision is a tie.
    A purely relative rule would read YtoX, which is wrong."""
    ds = generate(MechanismSpec(mechanism=Mechanism.MNM2, noise=Noise.GAUSSIAN, n=100, seed=3))
    decision = infer_direction(ds, Method.RW_KIIM)
    a, b = decision.score_xy.score, decision.score_yx.score
    assert a == pytest.approx(1.711e-14, rel=1e-3) and b == pytest.approx(1.916e-15, rel=1e-3)
    assert abs(a - b) > RunConfig().tie_tolerance * max(a, b)
    assert decision.direction is Direction.UNDECIDED


# lam = -lambda_min of this dataset's composite K_x makes KIIM's K_x + lam I
# singular (KCDC's log-kernel Gram and Rw-KIIM's G + lam n I are not); at
# lam = 2.2e-16 the ridge is below roundoff in every method's system. A pivot
# ratio let KIIM's case through to a score of 4.4e29 and Rw-KIIM's to 4e23.
@pytest.mark.parametrize("method, lam", [
    (Method.KIIM, 7.304923144063962),
    (Method.RW_KIIM, 2.2e-16),
    (Method.KCDC, 2.2e-16),
])
def test_singular_ridge_system_raises_instead_of_deciding(method, lam):
    ds = generate(MechanismSpec(mechanism=Mechanism.ANM1, noise=Noise.GAUSSIAN, n=100, seed=0))
    with pytest.raises(NumericalError, match="numerically singular") as info:
        infer_direction(ds, method, RunConfig(lam=lam))
    assert info.value.condition_estimate > 1e14


@pytest.mark.xfail(strict=True, reason="KIIM reads the heavy-tailed effect side as the cause")
def test_kiim_decides_a_log_mechanism_with_a_heavy_tailed_cause():
    # The cause x is log-normal, the effect log(x) plus noise. On seeds 0-4
    # KIIM decided YtoX all 5 times and ANM decided XtoY 4 times.
    rng = np.random.default_rng(0)
    x = np.exp(2 * rng.standard_normal(100))
    y = np.log(x) + 0.3 * rng.standard_normal(100)
    assert infer_direction(PairedDataset(x, y), Method.KIIM).direction is Direction.X_TO_Y


# Both kernels positive definite: rbf() with the median bandwidth.
_RBF = dataclasses.replace(RunConfig(), kernel_x=rbf(), kernel_y=rbf())


def test_a_positive_definite_kernel_loses_an_mnm2_dataset():
    """Pins today's outcome, an open question in docs/formats.md ("Kernel"):
    the default kernel decides this MNM2 dataset and rbf() does not. The
    standardized effect is heavy-tailed, so its default-kernel Gram is small
    (largest magnitude 0.003, against 0.16 for the cause's), and the
    direction that ends on it, the causal one, scores 2.7e-5 against 2.4.
    rbf() has a unit diagonal, so neither Gram is small, and KIIM reads YtoX."""
    ds = generate(MechanismSpec(mechanism=Mechanism.MNM2, noise=Noise.GAUSSIAN, n=100, seed=0))
    config = RunConfig()
    small = [np.abs(gram(spec, standardize(column))).max()
             for spec, column in ((config.kernel_y, ds.ys), (config.kernel_x, ds.xs))]
    assert small[0] < 0.01 < small[1]
    assert infer_direction(ds, Method.KIIM, config).direction is Direction.X_TO_Y
    assert infer_direction(ds, Method.KIIM, _RBF).direction is Direction.Y_TO_X


def test_a_positive_definite_kernel_decides_the_log_mirror_pair():
    """Pins today's outcome, an open question in docs/formats.md ("Kernel"):
    on the mirror pair of the strict xfail above the heavy-tailed column is
    the cause, so its default-kernel Gram is the small one (largest magnitude
    0.02, against 0.17 for the effect's), and the default kernel reads it as
    the effect. rbf() decides the pair."""
    rng = np.random.default_rng(0)
    x = np.exp(2 * rng.standard_normal(100))
    ds = PairedDataset(x, np.log(x) + 0.3 * rng.standard_normal(100))
    config = RunConfig()
    small = [np.abs(gram(spec, standardize(column))).max()
             for spec, column in ((config.kernel_x, ds.xs), (config.kernel_y, ds.ys))]
    assert small[0] < 0.05 < small[1]
    assert infer_direction(ds, Method.KIIM, config).direction is Direction.Y_TO_X
    assert infer_direction(ds, Method.KIIM, _RBF).direction is Direction.X_TO_Y


# -------------------------------------------------------------- rank_ablation

def test_rank_ablation_d_zero_is_trace_over_n():
    ds = _random_dataset(18, n=20)
    config = RunConfig()
    points = rank_ablation(ds, 3, config)
    assert all(isinstance(p, CausalDecision) and p.method is Method.KIIM for p in points)
    assert [p.score_xy.discarded_top for p in points] == [0, 1, 2, 3]
    assert [p.score_yx.discarded_top for p in points] == [0, 1, 2, 3]
    m = invariance_matrix(ds, Direction.X_TO_Y, config)
    assert points[0].score_xy.score == pytest.approx(np.trace(m) / 20, rel=1e-9)


def test_rank_ablation_full_boundary():
    ds = _random_dataset(19, n=10)
    points = rank_ablation(ds, 9)
    spectrum = sym_eig(invariance_matrix(ds, Direction.X_TO_Y, RunConfig()))
    assert points[-1].score_xy.score == pytest.approx(spectrum.eigenvalues[-1] / 10)


def test_rank_ablation_validates_d_max():
    ds = _random_dataset(20, n=10)
    with pytest.raises(ValueError):
        rank_ablation(ds, 10)
    with pytest.raises(ValueError):
        rank_ablation(ds, -1)
