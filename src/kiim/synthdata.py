"""Seeded generators for the benchmark's five structural equations.

Mechanisms (cause x drawn i.i.d. standard normal, noise eps per family):

    ANM1  y = x^3 + x + eps
    ANM2  y = x + eps
    MNM1  y = (x^3 + x) exp(eps)
    MNM2  y = (sin(10 x) + exp(3 x)) exp(eps)
    CNM   y = (log(x + 10) + x^2) ** eps

The cause distribution and the Uniform-noise support are generation-side
choices; the standard-normal cause is the one consistent with all the
published per-method accuracies (a bounded cause flips the entropy
ordering that the reference-measure scorers rely on). Noise families:
Gaussian N(0,1), Uniform on (-1, 1), SquaredGaussian = N(0,1)^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigurationError
from .pairs import PairedDataset

_CNM_RETRIES = 100


class Mechanism(str, Enum):
    ANM1 = "ANM1"
    ANM2 = "ANM2"
    MNM1 = "MNM1"
    MNM2 = "MNM2"
    CNM = "CNM"


class Noise(str, Enum):
    GAUSSIAN = "Gaussian"
    UNIFORM = "Uniform"
    SQUARED_GAUSSIAN = "SquaredGaussian"


_GRID: tuple[tuple[Mechanism, Noise], ...] = (
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


def table1_grid() -> tuple[tuple[Mechanism, Noise], ...]:
    """The ten benchmarked (mechanism, noise) cells."""
    return _GRID


@dataclass(frozen=True)
class MechanismSpec:
    """Everything needed to regenerate one synthetic dataset.

    Cells outside the benchmarked grid must be marked ``experimental``.
    """

    mechanism: Mechanism
    noise: Noise
    n: int
    seed: int
    experimental: bool = field(default=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mechanism", Mechanism(self.mechanism))
        object.__setattr__(self, "noise", Noise(self.noise))
        if self.n < 2:
            raise ValueError("need at least 2 samples")
        if (self.mechanism, self.noise) not in _GRID and not self.experimental:
            raise ValueError("cell outside the benchmark grid; pass experimental=True")


def _draw_noise(noise: Noise, rng: np.random.Generator, size: int) -> np.ndarray:
    if noise is Noise.GAUSSIAN:
        return rng.standard_normal(size)
    if noise is Noise.UNIFORM:
        return rng.uniform(-1.0, 1.0, size)
    return rng.standard_normal(size) ** 2


def _default_cause(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.standard_normal(size)


def _cnm_base(x: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.log(x + 10.0) + x**2


def generate(spec: MechanismSpec, cause_sampler=None, noise_sampler=None) -> PairedDataset:
    """Draw one dataset; deterministic given the spec. ``xs`` holds the cause,
    so XtoY is the true direction.

    ``cause_sampler`` and ``noise_sampler`` are test hooks with signature
    (rng, size) -> array, replacing the default draws.
    """
    rng = np.random.default_rng(spec.seed)
    cause = cause_sampler or _default_cause
    draw_noise = noise_sampler or (lambda r, size: _draw_noise(spec.noise, r, size))
    x = np.array(cause(rng, spec.n), dtype=float)
    if spec.mechanism is Mechanism.CNM:
        base = _cnm_base(x)
        for _ in range(_CNM_RETRIES):
            bad = ~np.isfinite(base) | (base <= 0.0)
            if not bad.any():
                break
            x[bad] = cause(rng, int(bad.sum()))
            base[bad] = _cnm_base(x[bad])
        else:
            raise ConfigurationError(
                "cause sampler keeps producing nonpositive bases for the power mechanism")
    eps = np.asarray(draw_noise(rng, spec.n), dtype=float)
    m = spec.mechanism
    if m is Mechanism.ANM1:
        y = x**3 + x + eps
    elif m is Mechanism.ANM2:
        y = x + eps
    elif m is Mechanism.MNM1:
        y = (x**3 + x) * np.exp(eps)
    elif m is Mechanism.MNM2:
        y = (np.sin(10.0 * x) + np.exp(3.0 * x)) * np.exp(eps)
    else:
        y = base**eps
    return PairedDataset(xs=x, ys=y)
