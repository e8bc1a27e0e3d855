"""Generator tests: determinism, formulas via sampler hooks, grid, validation."""

import numpy as np
import pytest

from kiim import Mechanism, MechanismSpec, Noise, generate, table1_grid
from kiim.errors import ConfigurationError

CAUSE = np.array([0.5, -0.3, 1.2, -1.1, 0.05, 2.0])
EPS = np.array([0.1, -0.2, 0.3, 0.0, -0.4, 0.25])


def _hooked(mechanism):
    spec = MechanismSpec(mechanism, Noise.GAUSSIAN, n=CAUSE.size, seed=0,
                         experimental=True)
    return generate(spec,
                    cause_sampler=lambda rng, size: CAUSE[:size],
                    noise_sampler=lambda rng, size: EPS[:size])


@pytest.mark.parametrize("mechanism,expected", [
    (Mechanism.ANM1, CAUSE**3 + CAUSE + EPS),
    (Mechanism.ANM2, CAUSE + EPS),
    (Mechanism.MNM1, (CAUSE**3 + CAUSE) * np.exp(EPS)),
    (Mechanism.MNM2, (np.sin(10.0 * CAUSE) + np.exp(3.0 * CAUSE)) * np.exp(EPS)),
    (Mechanism.CNM, (np.log(CAUSE + 10.0) + CAUSE**2) ** EPS),
])
def test_structural_equations(mechanism, expected):
    ds = _hooked(mechanism)
    np.testing.assert_array_equal(ds.xs, CAUSE)
    np.testing.assert_allclose(ds.ys, expected, rtol=1e-15)


def test_same_seed_reproduces_exactly():
    spec = MechanismSpec(Mechanism.MNM2, Noise.UNIFORM, n=64, seed=123)
    a, b = generate(spec), generate(spec)
    np.testing.assert_array_equal(a.xs, b.xs)
    np.testing.assert_array_equal(a.ys, b.ys)


def test_distinct_seeds_differ():
    a = generate(MechanismSpec(Mechanism.ANM1, Noise.GAUSSIAN, n=64, seed=0))
    b = generate(MechanismSpec(Mechanism.ANM1, Noise.GAUSSIAN, n=64, seed=1))
    assert not np.array_equal(a.xs, b.xs)


def test_zero_noise_anm2_reproduces_cause():
    spec = MechanismSpec(Mechanism.ANM2, Noise.UNIFORM, n=40, seed=3)
    ds = generate(spec, noise_sampler=lambda rng, size: np.zeros(size))
    np.testing.assert_array_equal(ds.ys, ds.xs)


def test_cubic_mechanism_amplifies_variance():
    ds = generate(MechanismSpec(Mechanism.ANM1, Noise.GAUSSIAN, n=500, seed=7))
    assert ds.ys.var() > ds.xs.var()


def test_grid_is_the_ten_benchmark_cells():
    grid = table1_grid()
    assert len(grid) == 10
    assert grid == (
        (Mechanism.ANM1, Noise.GAUSSIAN),
        (Mechanism.ANM1, Noise.UNIFORM),
        (Mechanism.ANM2, Noise.SQUARED_GAUSSIAN),
        (Mechanism.ANM2, Noise.UNIFORM),
        (Mechanism.MNM1, Noise.GAUSSIAN),
        (Mechanism.MNM1, Noise.UNIFORM),
        (Mechanism.MNM2, Noise.GAUSSIAN),
        (Mechanism.MNM2, Noise.UNIFORM),
        (Mechanism.CNM, Noise.GAUSSIAN),
        (Mechanism.CNM, Noise.UNIFORM),
    )


def test_spec_coerces_enum_values():
    spec = MechanismSpec("ANM1", "Gaussian", n=8, seed=0)
    assert spec.mechanism is Mechanism.ANM1
    assert spec.noise is Noise.GAUSSIAN


def test_spec_rejects_tiny_n():
    with pytest.raises(ValueError):
        MechanismSpec(Mechanism.ANM1, Noise.GAUSSIAN, n=1, seed=0)


def test_off_grid_cell_requires_experimental_flag():
    with pytest.raises(ValueError):
        MechanismSpec(Mechanism.ANM1, Noise.SQUARED_GAUSSIAN, n=8, seed=0)
    spec = MechanismSpec(Mechanism.ANM1, Noise.SQUARED_GAUSSIAN, n=8, seed=0,
                         experimental=True)
    assert spec.experimental


def test_recovered_noise_moments():
    # ANM2 exposes the noise as ys - xs
    n = 4000
    gauss = generate(MechanismSpec(Mechanism.ANM2, Noise.SQUARED_GAUSSIAN, n=n, seed=11,
                                   experimental=True))
    eps = gauss.ys - gauss.xs
    assert abs(eps.mean() - 1.0) < 3.0 * np.sqrt(2.0 / n)

    uniform = generate(MechanismSpec(Mechanism.ANM2, Noise.UNIFORM, n=n, seed=11))
    eps = uniform.ys - uniform.xs
    assert eps.min() > -1.0 and eps.max() < 1.0
    assert abs(eps.mean()) < 3.0 / np.sqrt(3.0 * n)


def test_all_cells_finite_across_seeds():
    for mechanism, noise in table1_grid():
        for seed in range(300):
            ds = generate(MechanismSpec(mechanism, noise, n=50, seed=seed))
            assert np.isfinite(ds.xs).all() and np.isfinite(ds.ys).all(), \
                (mechanism, noise, seed)


def test_power_mechanism_base_stays_positive():
    for seed in range(50):
        ds = generate(MechanismSpec(Mechanism.CNM, Noise.UNIFORM, n=100, seed=seed))
        assert (np.log(ds.xs + 10.0) + ds.xs**2 > 0).all()


def test_power_mechanism_rejects_hopeless_sampler():
    spec = MechanismSpec(Mechanism.CNM, Noise.GAUSSIAN, n=10, seed=0)
    with pytest.raises(ConfigurationError):
        generate(spec, cause_sampler=lambda rng, size: np.full(size, -15.0))


def test_power_mechanism_resamples_bad_draws():
    calls = []

    def flaky(rng, size):
        calls.append(size)
        if len(calls) == 1:
            return np.full(size, -15.0)
        return np.abs(rng.standard_normal(size))

    ds = generate(MechanismSpec(Mechanism.CNM, Noise.GAUSSIAN, n=12, seed=0),
                  cause_sampler=flaky)
    assert len(calls) >= 2
    assert np.isfinite(ds.ys).all()
    assert (ds.xs > 0).all()
