import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from kiim import (CausalDecision, Direction, MechanismSpec, Method, PairedDataset, RunConfig,
                  Spectrum, generate, table1_grid,
                  energy_rank_score, fixed_discard_score, gram, infer_direction,
                  invariance_matrix, kiim_matrix, kiim_score,
                  median_heuristic, rank_ablation, rbf, standardize, sym_eig)
from kiim import baselines, scoring
from kiim.errors import TRIAL_ERRORS
from kiim.scoring import MIN_SAMPLES, _coeffs_factor, _decide, direction_score, factor_score


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
            got = [direction_score(ds, direction, method, config) for direction in _DIRECTIONS]
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
        got = [direction_score(ds, direction, method, config) for direction in _DIRECTIONS]
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


@pytest.mark.parametrize("method", list(Method), ids=[m.value for m in Method])
def test_direction_score_minimum_sample_size(method):
    n = MIN_SAMPLES[method]
    rng = np.random.default_rng(21)
    ds = PairedDataset(rng.standard_normal(n), rng.standard_normal(n))
    assert np.isfinite(direction_score(ds, Direction.X_TO_Y, method, RunConfig()).score)
    smaller = PairedDataset(ds.xs[:-1], ds.ys[:-1])
    with pytest.raises(ValueError):
        direction_score(smaller, Direction.X_TO_Y, method, RunConfig())


# Derandomized with no example database: every run searches the same inputs.
_SEARCH = settings(derandomize=True, database=None, deadline=None, max_examples=50)
_SEEDS = st.integers(0, 2**32 - 1)
_SIZES = st.integers(20, 60)
_SLOPES = st.one_of(st.floats(0.1, 10.0), st.floats(-10.0, -0.1))
_SHIFTS = st.floats(-100.0, 100.0)


def _assert_same_scores(ds, other, method):
    for direction in (Direction.X_TO_Y, Direction.Y_TO_X):
        a = direction_score(ds, direction, method, RunConfig()).score
        b = direction_score(other, direction, method, RunConfig()).score
        assert abs(a - b) <= 1e-9 * max(abs(a), 1.0)


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


def _real_pair_shapes(seed, n):
    """One dataset per column shape that real cause-effect pairs show."""
    rng = np.random.default_rng(seed)
    xs, noise = rng.standard_normal(n), rng.standard_normal(n)
    ties = rng.integers(0, 4, n).astype(float)
    binary = rng.integers(0, 2, n).astype(float)
    outlier = xs + noise
    outlier[rng.integers(n)] = 1e6
    half = xs[:(n + 1) // 2]
    half_y = np.tanh(half) + 0.1 * noise[:half.size]
    return {
        "integer-ties": PairedDataset(ties, ties**2 + rng.integers(0, 3, n)),
        "binary-cause": PairedDataset(binary, binary + 0.1 * noise),
        "outlier-1e6": PairedDataset(xs, outlier),
        "scale-1e-9": PairedDataset(1e-9 * xs, 1e-9 * (xs**3 + noise)),
        "scale-1e9": PairedDataset(1e9 * xs, 1e9 * (xs**3 + noise)),
        "duplicated-rows": PairedDataset(np.tile(half, 2)[:n], np.tile(half_y, 2)[:n]),
        "linear-map": PairedDataset(xs, 2.0 * xs + 1.0),
        "single-y": PairedDataset(xs, np.full(n, 3.0)),
    }


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(seed=_SEEDS)
def test_real_pair_shapes_score_finitely_or_raise_typed_errors(method, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (5, 6, 10, 11, 30, 60):
            for shape, ds in _real_pair_shapes(seed, n).items():
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
    rw = direction_score(ds, Direction.X_TO_Y, Method.RW_KIIM, RunConfig()).score
    assert rw >= 0.0
    assert rw != plain


def test_direction_score_wraps_baselines_without_rank_fields():
    ds = _random_dataset(8, n=30)
    score = direction_score(ds, Direction.X_TO_Y, Method.KCDC, RunConfig())
    assert score.retained_count is None
    assert score.retained_energy_ratio is None
    score = direction_score(ds, Direction.X_TO_Y, Method.KIIM, RunConfig())
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


def test_tie_tolerance_is_configurable():
    ds = _random_dataset(17, n=30)
    loose = dataclasses.replace(RunConfig(), tie_tolerance=1e6)
    decision = infer_direction(ds, Method.KIIM, loose)
    assert decision.direction is Direction.UNDECIDED


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
