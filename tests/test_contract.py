"""Every method on every input: finite scores and a decision, or a typed error.

A property test of that contract over the column shapes that real
cause-effect pairs show, the relations between them, sample sizes and
ridges. For every method it also asserts no warning, mirrored scores when
the pair is swapped, and the same outcome kind when the rows are permuted.
Over the same shapes, a pair scored in one run after a dataset that holds
its columns gets the outcome it gets alone, bit for bit.
That permuted rows also give the same scores (within 1e-9 relative,
absolute below 1) is a known failure, pinned as a strict xfail.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kiim import Direction, Method, PairedDataset, RunConfig, infer_direction
from kiim.errors import TRIAL_ERRORS, attempt
from kiim.scoring import score_datasets


def _spike(rng, n):
    v = np.zeros(n)
    v[rng.integers(n)] = 1.0
    return v


def _outlier(rng, n):
    v = rng.standard_normal(n)
    v[rng.integers(n)] = 1e12
    return v


#: Column shapes: name -> (rng, n) -> n finite values.
SHAPES = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "log-normal": lambda rng, n: np.exp(2.0 * rng.standard_normal(n)),
    "cauchy": lambda rng, n: rng.standard_cauchy(n),
    "2-levels": lambda rng, n: rng.integers(0, 2, n).astype(float),
    "3-levels": lambda rng, n: rng.integers(0, 3, n).astype(float),
    "spike": _spike,
    "outlier-1e12": _outlier,
    "scale-1e-300": lambda rng, n: 1e-300 * rng.standard_normal(n),
    "subnormal": lambda rng, n: 1e-310 * rng.standard_normal(n),
    "scale-1e150": lambda rng, n: 1e150 * rng.standard_normal(n),
    "near-constant": lambda rng, n: 1.0 + 1e-13 * rng.standard_normal(n),
    "rounded": lambda rng, n: np.round(rng.standard_normal(n), 1),
}

#: Effect from cause x and a second column e; each stays finite for every shape.
RELATIONS = {
    "independent": lambda x, e: e,
    "additive": lambda x, e: x + e,
    "multiplicative": lambda x, e: x * e,
    "cube-root": lambda x, e: np.cbrt(x) + e,
    "tanh": lambda x, e: np.tanh(x) + e,
    "signed-log": lambda x, e: np.sign(x) * np.log1p(np.abs(x)) + e,
    "identical": lambda x, e: x,
}

_FLIP = {Direction.X_TO_Y: Direction.Y_TO_X, Direction.Y_TO_X: Direction.X_TO_Y,
         Direction.UNDECIDED: Direction.UNDECIDED}


def _decide(dataset, method, config):
    """The decision, or None for a typed error; any warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            decision = infer_direction(dataset, method, config)
        except TRIAL_ERRORS:
            return None
    scores = (decision.score_xy.score, decision.score_yx.score)
    assert np.isfinite(scores).all()
    assert decision.direction in _FLIP
    return decision


# Derandomized with no example database: every run searches the same inputs.
_SEARCH = settings(derandomize=True, database=None, deadline=None, max_examples=30)
_INPUTS = given(cause=st.sampled_from(sorted(SHAPES)), other=st.sampled_from(sorted(SHAPES)),
                relation=st.sampled_from(sorted(RELATIONS)), n=st.integers(5, 250),
                lam=st.sampled_from([1e-8, 1e-3, 10.0]), seed=st.integers(0, 2**32 - 1))


def _pair(cause, other, relation, n, seed):
    """A dataset and a permutation of its rows."""
    rng = np.random.default_rng(seed)
    x = SHAPES[cause](rng, n)
    return PairedDataset(x, RELATIONS[relation](x, SHAPES[other](rng, n))), rng.permutation(n)


@_SEARCH
@_INPUTS
def test_every_method_scores_finitely_or_raises_a_typed_error(cause, other, relation, n,
                                                              lam, seed):
    dataset, perm = _pair(cause, other, relation, n, seed)
    swapped = PairedDataset(dataset.ys, dataset.xs)
    permuted = PairedDataset(dataset.xs[perm], dataset.ys[perm])
    config = RunConfig(lam=lam)
    for method in Method:
        decision = _decide(dataset, method, config)
        mirror = _decide(swapped, method, config)
        shuffled = _decide(permuted, method, config)
        if decision is None:
            assert mirror is None and shuffled is None, method
            continue
        assert mirror is not None and shuffled is not None, method
        assert (mirror.score_xy, mirror.score_yx) == (decision.score_yx, decision.score_xy)
        assert mirror.direction is _FLIP[decision.direction]


def _hex(outcome):
    """A ``(decision, error)`` outcome as float hex scores and the direction,
    or the error message."""
    decision, error = outcome
    if decision is None:
        return error
    return decision.score_xy.score.hex(), decision.score_yx.score.hex(), decision.direction


@_SEARCH
@_INPUTS
def test_a_run_that_holds_the_pairs_columns_scores_it_as_alone(cause, other, relation, n,
                                                               lam, seed):
    """The pair follows a swapped copy of itself, which holds its columns bit
    for bit in the other roles, so it reads the Grams and Rw-KIIM
    coefficients that the copy cached: the cache keys an entry by a
    column's bits, not by its role. The other methods never read it."""
    dataset, _ = _pair(cause, other, relation, n, seed)
    datasets = [PairedDataset(dataset.ys.copy(), dataset.xs.copy()), dataset]
    methods, config = (Method.KIIM, Method.RW_KIIM), RunConfig(lam=lam)
    together = score_datasets(datasets, methods, config)
    alone = [attempt((infer_direction, ds, method, config))
             for ds in datasets for method in methods]
    assert list(map(_hex, together)) == list(map(_hex, alone))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="row order moves ill-conditioned scores past 1e-9")
def test_permuted_rows_give_the_same_scores():
    """Scores agree within 1e-9 relative (absolute below 1) when the rows are
    permuted. Known to fail: standardizing sums in row order, so a
    permutation moves the standardized columns by an ulp, and an
    ill-conditioned system or a near-tied spacing magnifies that. The nested
    search draws 30 inputs of its own from the same strategies as the test
    above (hypothesis derandomizes each search by a digest of its source, so
    the two draws differ). In them, 12 scores of KIIM, Rw-KIIM, KCDC and
    IGCIGauss moved: by up to 1.9e-7 relative for the kernel methods, and by
    1.4e-4 for IGCIGauss on a near-constant column. The search collects
    every score that moved, so that the failure lists them all."""
    moved = []

    @_SEARCH
    @_INPUTS
    def search(cause, other, relation, n, lam, seed):
        dataset, perm = _pair(cause, other, relation, n, seed)
        permuted = PairedDataset(dataset.xs[perm], dataset.ys[perm])
        config = RunConfig(lam=lam)
        for method in Method:
            decision = _decide(dataset, method, config)
            if decision is None:
                continue
            shuffled = _decide(permuted, method, config)
            for a, b in ((decision.score_xy, shuffled.score_xy),
                         (decision.score_yx, shuffled.score_yx)):
                if not abs(a.score - b.score) <= 1e-9 * max(abs(a.score), 1.0):
                    moved.append((method.value, cause, other, relation, n, lam, seed,
                                  abs(a.score - b.score) / max(abs(a.score), 1.0)))

    search()
    assert not moved, "\n".join(map(str, moved))
