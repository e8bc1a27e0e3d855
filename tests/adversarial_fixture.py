"""Builds a benchmark directory of adversarial pairs in the published layout.

One numbered pair file per input that a scorer must survive, plus
pairmeta.txt: the column shapes that real cause-effect pairs show, two
columns whose variance overflows, a mirror pair whose cause is heavy-tailed,
a pair whose cause is constant after the evaluator subsamples it, and a pair
whose effect is a copy of its cause. Every pair is written cause-first, so
XtoY is the correct answer throughout. The outcome of each (pair, method) is
documented in docs/formats.md under "Adversarial pairs".
"""

from pathlib import Path

import numpy as np

from kiim import PairedDataset, write_pair_text

SEED = 0
SUBSAMPLE_LIMIT = 1000  # evaluate_tcep's default
SUBSAMPLED_N = 1200


def real_pair_shapes(seed, n):
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


def overflow_pairs(seed=SEED, n=60):
    """Two pairs whose spread overflows float64: both columns scaled by
    1e300, so the variance reads inf, and an effect of random-signed
    +-1.5e308 values, whose sum overflows, so its mean and spread read NaN."""
    rng = np.random.default_rng(seed)
    xs, noise = rng.standard_normal(n), rng.standard_normal(n)
    signs = rng.choice([-1.0, 1.0], n)
    return {
        "variance-1e300": PairedDataset(1e300 * xs, 1e300 * (xs + noise)),
        "spread-1.5e308": PairedDataset(xs, 1.5e308 * signs),
    }


def adversarial_pairs(seed=SEED):
    """Name -> dataset; pair ids follow this order from 1."""
    pairs = {**real_pair_shapes(seed, 60), **overflow_pairs(seed)}
    # The cause is log-normal and the effect its log plus noise, so the
    # effect side looks like a cause (docs/formats.md, "What the score
    # compares").
    rng = np.random.default_rng(seed)
    xs = np.exp(2 * rng.standard_normal(100))
    pairs["log-mirror"] = PairedDataset(xs, np.log(xs) + 0.3 * rng.standard_normal(100))
    # Constant on the rows that evaluate_tcep keeps (the same choice call as
    # PairedDataset.subsampled, seeded by (seed, pair id)), varied elsewhere.
    pid = len(pairs) + 1
    kept = np.random.default_rng([seed, pid]).choice(SUBSAMPLED_N, size=SUBSAMPLE_LIMIT,
                                                      replace=False)
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal(SUBSAMPLED_N)
    xs[kept] = 1.0
    pairs["constant-after-subsample"] = PairedDataset(xs, rng.standard_normal(SUBSAMPLED_N))
    # Both roles read one Gram: the columns hold the same bits.
    xs = np.random.default_rng(seed).standard_normal(60)
    pairs["identical-columns"] = PairedDataset(xs, xs.copy())
    return pairs


def build_fixture(root, seed=SEED) -> Path:
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    meta_lines = []
    for pid, dataset in enumerate(adversarial_pairs(seed).values(), start=1):
        write_pair_text(root / f"pair{pid:04d}.txt", dataset)
        meta_lines.append(f"{pid:04d} 1 1 2 2 1")
    (root / "pairmeta.txt").write_text("\n".join(meta_lines) + "\n")
    return root
