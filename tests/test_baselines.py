import math

import numpy as np
import pytest
from scipy.special import digamma

import oracles
from kiim import (ConfigurationError, Direction, IgciReference, Mechanism,
                  MechanismSpec, Method, Noise, PairedDataset, RunConfig, anm_score,
                  baselines, build_config, generate, gram, hsic, igci_score, infer_direction,
                  kcdc_score, rbf, run_synthetic, spacing_entropy)
from kiim.baselines import _kcdc_coeffs, _kcdc_spread, _reference_normalize, roles


def _cell_accuracy(results):
    assert len(results) == 1
    return results[0].accuracy


def test_roles_name_the_cause_and_effect_columns():
    assert roles(Direction.X_TO_Y) == ("xs", "ys")
    assert roles(Direction.Y_TO_X) == ("ys", "xs")
    with pytest.raises(ValueError):
        roles(Direction.UNDECIDED)


def test_baseline_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(anm_ridge=0.0)
    for ridge in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            RunConfig(anm_ridge=ridge)
    with pytest.raises(ValueError):
        _kcdc_spread(_kcdc_coeffs(np.eye(6), -1.0), np.eye(6))


# ----------------------------------------------------------------------- KCDC

def test_kcdc_identical_causes_give_zero_deviance():
    # constant x: every column of K_x is the same, so every a_i is the same
    ones = np.ones((4, 4))
    Ky = np.diag([1.0, 2.0, 3.0, 4.0])
    assert _kcdc_spread(_kcdc_coeffs(ones, 1e-3), Ky) == 0.0


def test_kcdc_two_point_hand_value():
    # identity K_x, K_y = diag(1, 4), tiny ridge: norms {1, 2}, variance 1/4
    Kx = np.eye(2)
    Ky = np.diag([1.0, 4.0])
    assert _kcdc_spread(_kcdc_coeffs(Kx, 1e-9), Ky) == pytest.approx(0.25, abs=1e-6)


def test_kcdc_score_nonnegative():
    rng = np.random.default_rng(0)
    for seed in range(10):
        r = np.random.default_rng(seed)
        ds = PairedDataset(r.standard_normal(20), r.standard_normal(20))
        assert kcdc_score(ds, Direction.X_TO_Y) >= 0.0
    with pytest.raises(ValueError):
        kcdc_score(PairedDataset(rng.standard_normal(3), rng.standard_normal(3)),
                   Direction.X_TO_Y)


def test_kcdc_ridge_is_the_run_lambda():
    # One ridge for every method: a RunConfig built in code and one parsed
    # from settings must give KCDC the same lambda.
    ds = generate(MechanismSpec(mechanism=Mechanism.ANM1, noise=Noise.GAUSSIAN, n=60, seed=0))
    direct = infer_direction(ds, Method.KCDC, RunConfig(lam=0.5)).score_xy
    parsed = infer_direction(ds, Method.KCDC, build_config({"lambda": "0.5"})).score_xy
    assert direct.score == parsed.score
    assert direct.score == kcdc_score(ds, Direction.X_TO_Y, RunConfig(lam=0.5))
    assert direct.score != kcdc_score(ds, Direction.X_TO_Y)


def test_kcdc_additive_cubic_accuracy_is_loosely_high():
    results = run_synthetic([(Mechanism.ANM1, Noise.GAUSSIAN)], [Method.KCDC],
                            trials=40, n=100, seed=0)
    assert _cell_accuracy(results) >= 0.8


# ----------------------------------------------------------------------- IGCI

def test_spacing_entropy_uniform_grid():
    # equal gaps of 0.1: psi(11) - psi(1) = H_10, plus log(0.1)
    h10 = math.fsum(1.0 / k for k in range(1, 11))
    got = spacing_entropy(np.linspace(0.0, 1.0, 11))
    assert got == pytest.approx(h10 + math.log(0.1), rel=1e-12)


def test_spacing_entropy_skips_ties():
    # positive gaps are both 1: the log terms vanish, leaving psi(5) - psi(1)
    h4 = math.fsum(1.0 / k for k in range(1, 5))
    assert spacing_entropy([0.0, 0.0, 1.0, 1.0, 2.0]) == pytest.approx(h4, rel=1e-12)


def _log_spacing_mean(values):
    gaps = np.diff(np.sort(values))
    return np.log(gaps[gaps > 0]).sum() / (len(values) - 1)


_SPACING_SAMPLES = [np.random.default_rng(n).standard_normal(n)
                    for n in (2, 3, 10, 100, 1000, 5000)]
# 400 draws of 6 values: all but 5 gaps are ties
_SPACING_SAMPLES.append(np.random.default_rng(7).integers(0, 6, 400).astype(float))


@pytest.mark.parametrize("values", _SPACING_SAMPLES, ids=lambda v: f"n{v.size}")
def test_spacing_entropy_constant_is_digammas_difference(values):
    # H_{n-1} is psi(n) - psi(1); kiim sums it instead of importing digamma
    n = values.size
    expected = digamma(n) - digamma(1) + _log_spacing_mean(values)
    assert spacing_entropy(values) == pytest.approx(expected, rel=1e-13, abs=1e-13)


def test_spacing_entropy_of_two_values_is_one_plus_the_log_gap():
    values = np.array([0.3, -1.7])
    assert spacing_entropy(values) == 1.0 + _log_spacing_mean(values)


def test_spacing_entropy_degenerate_inputs():
    with pytest.raises(ValueError):
        spacing_entropy([1.0])
    with pytest.raises(ValueError):
        spacing_entropy([2.0, 2.0, 2.0])


def test_igci_identical_pair_scores_zero_and_undecided():
    rng = np.random.default_rng(1)
    xs = rng.standard_normal(40)
    ds = PairedDataset(xs, xs.copy())
    assert igci_score(ds, Direction.X_TO_Y) == 0.0
    assert igci_score(ds, Direction.Y_TO_X) == 0.0
    decision = infer_direction(ds, Method.IGCI_GAUSS)
    assert decision.direction is Direction.UNDECIDED


def test_igci_needs_ten_samples():
    rng = np.random.default_rng(2)
    ds = PairedDataset(rng.standard_normal(8), rng.standard_normal(8))
    with pytest.raises(ValueError):
        igci_score(ds, Direction.X_TO_Y)


def test_igci_uniform_reference_nails_additive_cubic():
    results = run_synthetic([(Mechanism.ANM1, Noise.GAUSSIAN)], [Method.IGCI_UNIFORM],
                            trials=40, n=100, seed=0)
    assert _cell_accuracy(results) >= 0.95


def test_igci_uniform_reference_affine_invariant():
    rng = np.random.default_rng(3)
    ds = PairedDataset(rng.standard_normal(60), rng.standard_normal(60) ** 3)
    moved = PairedDataset(5.0 * ds.xs + 11.0, 0.25 * ds.ys - 2.0)
    for direction in (Direction.X_TO_Y, Direction.Y_TO_X):
        a = igci_score(ds, direction, IgciReference.UNIFORM)
        b = igci_score(moved, direction, IgciReference.UNIFORM)
        assert abs(a - b) <= 1e-9 * max(abs(a), 1.0)


def test_igci_references_disagree_in_general():
    rng = np.random.default_rng(4)
    ds = PairedDataset(rng.standard_normal(50), rng.standard_normal(50))
    gauss = igci_score(ds, Direction.X_TO_Y, IgciReference.GAUSSIAN)
    uniform = igci_score(ds, Direction.X_TO_Y, IgciReference.UNIFORM)
    assert gauss != uniform


@pytest.mark.parametrize("method", [Method.IGCI_GAUSS, Method.IGCI_UNIFORM])
def test_an_igci_decision_estimates_each_columns_entropy_once(method, monkeypatch):
    reference = IgciReference.GAUSSIAN if method is Method.IGCI_GAUSS else IgciReference.UNIFORM
    ds = generate(MechanismSpec(Mechanism.ANM1, Noise.GAUSSIAN, n=60, seed=3))
    h_x, h_y = (spacing_entropy(_reference_normalize(ds, name, reference))
                for name in ("xs", "ys"))
    calls = []

    def spy(values, _original=baselines.spacing_entropy):
        calls.append(values)
        return _original(values)

    monkeypatch.setattr(baselines, "spacing_entropy", spy)
    decision = infer_direction(ds, method)
    assert len(calls) == 2
    # Each direction is H(effect) - H(cause) of the two estimates, bit for bit.
    assert decision.score_xy.score.hex() == (h_y - h_x).hex()
    assert decision.score_yx.score.hex() == (h_x - h_y).hex()
    # Columns with the same bits share one estimate, and both scores are +0.0.
    calls.clear()
    same = infer_direction(PairedDataset(ds.xs, ds.xs.copy()), method)
    assert len(calls) == 1
    assert [math.copysign(1.0, s.score) for s in (same.score_xy, same.score_yx)] == [1.0, 1.0]


# ----------------------------------------------------------------------- HSIC

def test_hsic_constant_argument_vanishes():
    rng = np.random.default_rng(5)
    assert hsic(rng.standard_normal(30), np.full(30, 2.5)) <= 1e-12


def test_hsic_identical_sequences_positive():
    v = np.arange(1.0, 21.0)
    assert hsic(v, v) > 0.0


def test_hsic_symmetric_and_permutation_invariant():
    rng = np.random.default_rng(6)
    u = rng.standard_normal(25)
    v = u + 0.3 * rng.standard_normal(25)
    a = hsic(u, v)
    assert abs(a - hsic(v, u)) <= 1e-12
    perm = rng.permutation(25)
    assert abs(a - hsic(u[perm], v[perm])) <= 1e-12 * max(a, 1.0)


def test_hsic_matches_dense_oracle():
    rng = np.random.default_rng(9)
    for n in (5, 17, 60, 200):
        u = rng.standard_normal(n)
        v = np.sin(u) + 0.5 * rng.standard_normal(n)
        want = oracles.dense_hsic(gram(rbf(), u), gram(rbf(), v))
        assert hsic(u, v) == pytest.approx(want, rel=1e-10)


def test_hsic_input_validation():
    with pytest.raises(ValueError):
        hsic([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        hsic([1.0, 2.0], [1.0, 2.0])


def test_hsic_separates_dependence_from_independence():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(200)
    dependent = hsic(x, x**2)
    independent = hsic(x, rng.standard_normal(200))
    assert dependent > 10.0 * independent


# ------------------------------------------------------------------------ ANM

def test_anm_noiseless_cubic_is_decided_forward():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(50)
    ds = PairedDataset(x, x**3 + x)
    # interpolating fit: residuals vanish, so the dependence score does too
    assert anm_score(ds, Direction.X_TO_Y) <= 1e-6
    assert anm_score(ds, Direction.X_TO_Y) < anm_score(ds, Direction.Y_TO_X)
    assert infer_direction(ds, Method.ANM).direction is Direction.X_TO_Y


def test_anm_needs_ten_samples():
    rng = np.random.default_rng(9)
    ds = PairedDataset(rng.standard_normal(8), rng.standard_normal(8))
    with pytest.raises(ValueError):
        anm_score(ds, Direction.X_TO_Y)


@pytest.mark.parametrize("seed", [0, 17])
def test_anm_score_shrinks_with_noise_amplitude(seed):
    scores = []
    for scale in (1.0, 0.3, 0.05):
        spec = MechanismSpec(Mechanism.ANM1, Noise.GAUSSIAN, n=100, seed=seed)
        ds = generate(spec, noise_sampler=lambda r, size: scale * r.standard_normal(size))
        scores.append(anm_score(ds, Direction.X_TO_Y))
    assert scores[0] > scores[1] > scores[2]


def test_anm_fails_on_multiplicative_noise():
    results = run_synthetic([(Mechanism.MNM1, Noise.GAUSSIAN)], [Method.ANM],
                            trials=20, n=100, seed=0)
    assert _cell_accuracy(results) <= 0.2
