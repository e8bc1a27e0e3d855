"""Independent reference implementations used only for cross-checking.

Everything here is deliberately written the slow, literal way: explicit
loops, dense inverses, a hand-rolled Jacobi eigensolver and fsum-based
enumeration of the rank rule. None of it imports the package under test,
so agreement between the two is evidence rather than tautology.
"""

import functools
import math

import numpy as np


def jacobi_eigenvalues(matrix, max_sweeps=100, tol=1e-14):
    """Eigenvalues of a symmetric matrix via cyclic Jacobi rotations, descending."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    for _ in range(max_sweeps):
        off = math.sqrt(math.fsum(a[i, j] ** 2 for i in range(n)
                                  for j in range(n) if i != j))
        scale = math.sqrt(math.fsum(a[i, j] ** 2 for i in range(n) for j in range(n)))
        if off <= tol * max(scale, 1.0):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.array(sorted(np.diag(a), reverse=True))


def centering(n):
    return np.eye(n) - np.ones((n, n)) / n


def dense_kiim_matrix(kx, ky, lam):
    """Literal left-to-right K_y (K_x+lam I)^{-1} K_x H K_x (K_x+lam I)^{-1} K_y."""
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    n = kx.shape[0]
    inv = np.linalg.inv(kx + lam * np.eye(n))
    m = ky @ inv @ kx @ centering(n) @ kx @ inv @ ky
    return 0.5 * (m + m.T)


def dense_hsic(ku, kv):
    """Literal tr(K_u H K_v H) / n^2 with the dense centring matrix."""
    ku = np.asarray(ku, dtype=float)
    kv = np.asarray(kv, dtype=float)
    n = ku.shape[0]
    h = centering(n)
    return float(np.trace(ku @ h @ kv @ h)) / n**2


def triu_median(samples):
    """Median of |x_i - x_j| over the index pairs i < j listed by np.triu_indices."""
    xs = np.asarray(samples, dtype=float).ravel()
    iu = np.triu_indices(xs.size, k=1)
    return float(np.median(np.abs(xs[:, None] - xs[None, :])[iu]))


def reduce_composite_gram(samples, mode="product"):
    """Default composite Gram as one n x n expression per part, combined by
    functools.reduce over np.multiply or np.add (RBF at the median width,
    then log, then RQ)."""
    xs = np.asarray(samples, dtype=float).ravel()
    med = triu_median(xs) if xs.size > 1 else 0.0
    med = med if med > 0.0 else 1.0
    a, b = xs[:, None], xs[None, :]
    d2 = (a - b) ** 2
    parts = (np.exp(-d2 / med**2), -np.log1p(d2), 1.0 - d2 / (d2 + 1.0))
    return functools.reduce(np.multiply if mode == "product" else np.add, parts)


def dense_reweighted_coeffs(kx, r, lam):
    """Columns a_i = H R^{1/2} (H R^{1/2} K_x R^{1/2} H + lam n I)^{-1} R^{1/2} H k_{x_i}."""
    kx = np.asarray(kx, dtype=float)
    n = kx.shape[0]
    root = np.diag(np.sqrt(np.asarray(r, dtype=float)))
    h = centering(n)
    inner = np.linalg.inv(h @ root @ kx @ root @ h + lam * n * np.eye(n))
    return h @ root @ inner @ root @ h @ kx


def enumerate_energy_rank(eigenvalues, threshold=0.9):
    """Exhaustive scan for the rank rule: the largest discard count whose
    retained suffix still carries >= threshold of the total energy.

    Returns (discarded_top, score) with score = fsum(retained) / n.
    """
    eig = sorted((float(v) for v in eigenvalues), reverse=True)
    n = len(eig)
    total = math.fsum(eig)
    if total <= 0.0:
        return 0, 0.0
    best = 0
    for start in range(n):
        if math.fsum(eig[start:]) >= threshold * total:
            best = start
    return best, math.fsum(eig[best:]) / n


def standardized(values):
    v = [float(x) for x in values]
    n = len(v)
    mean = math.fsum(v) / n
    var = math.fsum((x - mean) ** 2 for x in v) / n
    sd = math.sqrt(var)
    return [(x - mean) / sd for x in v]


def composite_gram(values):
    """Default pipeline kernel evaluated pointwise:
    exp(-d^2/med^2) * (-log(d^2+1)) * (1 - d^2/(d^2+1)) with med the median
    pairwise absolute distance (fallback 1 when it vanishes)."""
    v = [float(x) for x in values]
    n = len(v)
    dists = sorted(abs(v[i] - v[j]) for i in range(n) for j in range(i + 1, n))
    med = float(np.median(dists)) if dists else 1.0
    if med <= 0.0:
        med = 1.0
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            d2 = (v[i] - v[j]) ** 2
            out[i, j] = (math.exp(-d2 / med**2)
                         * -math.log1p(d2)
                         * (1.0 - d2 / (d2 + 1.0)))
    return out


def brute_force_kiim_score(xs, ys, lam=1e-3, threshold=0.9):
    """Full dataset-to-score pipeline rebuilt from scratch.

    Standardize both variables, evaluate the composite kernels pointwise,
    assemble M by the literal formula, eigendecompose with the Jacobi
    routine, clamp roundoff negatives, enumerate the rank rule.
    """
    kx = composite_gram(standardized(xs))
    ky = composite_gram(standardized(ys))
    m = dense_kiim_matrix(kx, ky, lam)
    eig = jacobi_eigenvalues(m)
    eig = np.maximum(eig, 0.0)
    return enumerate_energy_rank(eig, threshold)[1]
