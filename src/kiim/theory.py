"""Executable checks of the two identifiability facts behind the scores.

First: for a stationary kernel, the empirical mean-embedding norm of a
sample equals that of its negation exactly, so norm-based scores cannot
tell a density from its reflection. Second: even without stationarity,
densities over a finite eigenbasis admit a distinct second density with
the same normalization and the same embedding norm, built in closed form
as the second intersection of a line with an ellipse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TangencyError
from .kernels import KernelSpec, gram

_COINCIDE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FiniteBasisDensity:
    """Density p(x) proportional to phi(x)^T alpha over an m-term eigenbasis.

    ``basis_eigenvalues`` are the kernel eigenvalues lambda_i > 0 of the
    basis functions and ``basis_integrals`` their integrals theta_i, so the
    normalizer is alpha^T theta and the squared embedding norm has the
    closed form sum(lambda_i^2 alpha_i^2) / (alpha^T theta)^2. Pointwise
    nonnegativity of the represented density is not enforced; only the
    coefficient algebra matters here.
    """

    coefficients: np.ndarray
    basis_eigenvalues: np.ndarray
    basis_integrals: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.coefficients, dtype=float).ravel()
        lam = np.asarray(self.basis_eigenvalues, dtype=float).ravel()
        theta = np.asarray(self.basis_integrals, dtype=float).ravel()
        if not alpha.size == lam.size == theta.size:
            raise ValueError("coefficient, eigenvalue and integral lengths must match")
        if alpha.size == 0:
            raise ValueError("basis must be nonempty")
        if not (lam > 0).all():
            raise ValueError("basis eigenvalues must be positive")
        if not (np.isfinite(alpha).all() and np.isfinite(lam).all() and np.isfinite(theta).all()):
            raise ValueError("all entries must be finite")
        if float(alpha @ theta) == 0.0:
            raise ValueError("normalizer alpha^T theta must be nonzero")
        for name, arr in (("coefficients", alpha), ("basis_eigenvalues", lam),
                          ("basis_integrals", theta)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> int:
        return self.coefficients.size

    @property
    def normalization(self) -> float:
        return float(self.coefficients @ self.basis_integrals)

    @property
    def embedding_sq_norm(self) -> float:
        num = float(((self.basis_eigenvalues * self.coefficients) ** 2).sum())
        return num / self.normalization**2


def verify_lemma1(samples, spec: KernelSpec) -> tuple[float, float, float]:
    """Empirical embedding norms of a sample set and of its negation.

    Returns (norm_p^2, norm_q^2, gap) where norm^2 = mean of all n^2
    kernel evaluations. For kernels of the pairwise difference the two
    Gram matrices are equal term for term, so the gap is exactly zero.
    """
    s = np.asarray(samples, dtype=float).ravel()
    if s.size == 0:
        raise ValueError("need a nonempty sample set")
    norm_p = float(gram(spec, s).mean())
    norm_q = float(gram(spec, -s).mean())
    return norm_p, norm_q, abs(norm_p - norm_q)


def construct_equal_norm_density(p: FiniteBasisDensity) -> FiniteBasisDensity:
    """A second density with p's normalization and embedding norm.

    Only the first two coefficients change. They must keep the
    normalization contribution C1 = theta1 a1 + theta2 a2 (a line) and the
    norm contribution C2^2 = lambda1^2 a1^2 + lambda2^2 a2^2 (an ellipse);
    parametrizing the ellipse by beta1 = (C2/lambda1) sin(phi),
    beta2 = (C2/lambda2) cos(phi) turns the line into
    A sin(phi) + B cos(phi) = C1, whose two solutions are the original
    point and the returned one. Coinciding solutions (the line tangent to
    the ellipse) raise TangencyError.
    """
    if p.m < 2:
        raise ValueError("construction needs at least 2 basis terms")
    alpha = p.coefficients
    lam = p.basis_eigenvalues
    theta = p.basis_integrals
    c1 = theta[0] * alpha[0] + theta[1] * alpha[1]
    c2 = math.hypot(lam[0] * alpha[0], lam[1] * alpha[1])
    scale = max(1.0, math.hypot(alpha[0], alpha[1]))
    if c2 == 0.0:
        raise TangencyError("leading coefficients are zero; the ellipse is a point")
    a = theta[0] * c2 / lam[0]
    b = theta[1] * c2 / lam[1]
    r = math.hypot(a, b)
    if r == 0.0:
        # theta1 = theta2 = 0: the line constraint is vacuous and the
        # antipodal point on the ellipse is a valid second solution.
        candidates = [(-alpha[0], -alpha[1])]
    else:
        omega = math.atan2(b, a)
        s = min(1.0, max(-1.0, c1 / r))
        base = math.asin(s)
        candidates = []
        for phi in (base - omega, math.pi - base - omega):
            candidates.append((c2 / lam[0] * math.sin(phi), c2 / lam[1] * math.cos(phi)))
        dist = math.dist(candidates[0], candidates[1])
        if dist <= _COINCIDE_TOL * scale:
            raise TangencyError("the line is tangent to the ellipse; no second density")
    beta = np.array(alpha)
    best = max(candidates, key=lambda c: math.dist(c, (alpha[0], alpha[1])))
    if math.dist(best, (alpha[0], alpha[1])) <= _COINCIDE_TOL * scale:
        raise TangencyError("both intersections coincide with the input coefficients")
    beta[0], beta[1] = best
    return FiniteBasisDensity(coefficients=beta, basis_eigenvalues=lam, basis_integrals=theta)
