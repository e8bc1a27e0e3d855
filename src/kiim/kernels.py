"""Kernel functions, bandwidth selection, and Gram-matrix construction.

The default pipeline kernel is the elementwise product of an RBF kernel
(median-heuristic bandwidth), a log kernel and a rational quadratic kernel.
Note that this product has a zero diagonal (the log factor vanishes at
distance 0) and is therefore not positive definite; the sum composite
(``kernel_sum``) is kept as a configurable alternative, but the default
pipeline uses the product form.

All inputs are scalar observations; kernels are evaluated on 1-D samples,
and ``gram`` returns a plain read-only n x n array.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError

#: Bandwidth marker resolved against a sample set before evaluation.
MEDIAN = "median"

#: Gram entries evaluated per block of rows (1 MB of float64 temporaries).
_BLOCK_ELEMENTS = 1 << 17


class KernelFamily(Enum):
    RBF = "rbf"
    LOG = "log"
    RATIONAL_QUADRATIC = "rq"
    POLYNOMIAL = "poly"
    COMPOSITE_PRODUCT = "product"
    COMPOSITE_SUM = "sum"


_COMPOSITES = (KernelFamily.COMPOSITE_PRODUCT, KernelFamily.COMPOSITE_SUM)


@dataclass(frozen=True)
class KernelSpec:
    """Declarative kernel description: family plus its parameters.

    ``bandwidth`` is a finite positive width or the ``MEDIAN`` marker (RBF
    only), ``degree`` an integer >= 1 for the polynomial family, ``parts``
    the parts of the two composite families. ``bool`` is neither a width nor
    a degree, so every spec prints as text that ``parse_kernel`` reads back.
    """

    family: KernelFamily
    bandwidth: float | str | None = None
    degree: int | None = None
    parts: tuple["KernelSpec", ...] = ()

    def __post_init__(self):
        fam = self.family
        if not isinstance(fam, KernelFamily):
            raise ValueError(f"kernel family must be a KernelFamily, got {fam!r}")
        if not all(isinstance(part, KernelSpec) for part in self.parts):
            raise ValueError("every kernel part must be a KernelSpec")
        if fam is KernelFamily.RBF:
            bw = self.bandwidth
            if bw != MEDIAN and not (isinstance(bw, (int, float)) and not isinstance(bw, bool)
                                     and 0 < bw < math.inf):
                raise ValueError("RBF bandwidth must be finite and positive or the median marker")
        elif self.bandwidth is not None:
            raise ValueError(f"{fam.value} kernel takes no bandwidth")
        if fam is KernelFamily.POLYNOMIAL:
            if not (isinstance(self.degree, int) and not isinstance(self.degree, bool)
                    and self.degree >= 1):
                raise ValueError("polynomial degree must be an integer >= 1")
        elif self.degree is not None:
            raise ValueError(f"{fam.value} kernel takes no degree")
        if fam in _COMPOSITES:
            if len(self.parts) < 2:
                raise ValueError("composite kernel needs at least 2 parts")
            object.__setattr__(self, "parts", tuple(self.parts))
        elif self.parts:
            raise ValueError(f"{fam.value} kernel takes no parts")


def rbf(bandwidth: float | str = MEDIAN) -> KernelSpec:
    """RBF kernel exp(-(x - x')^2 / sigma^2)."""
    return KernelSpec(KernelFamily.RBF, bandwidth=bandwidth)


def log_kernel() -> KernelSpec:
    """Log kernel -log((x - x')^2 + 1); zero diagonal, not PSD."""
    return KernelSpec(KernelFamily.LOG)


def rational_quadratic() -> KernelSpec:
    """Rational quadratic kernel 1 - d^2 / (d^2 + 1) with d = x - x'."""
    return KernelSpec(KernelFamily.RATIONAL_QUADRATIC)


def polynomial(degree: int) -> KernelSpec:
    """Inhomogeneous polynomial kernel (x x' + 1)^degree."""
    return KernelSpec(KernelFamily.POLYNOMIAL, degree=degree)


def product(*parts: KernelSpec) -> KernelSpec:
    return KernelSpec(KernelFamily.COMPOSITE_PRODUCT, parts=tuple(parts))


def kernel_sum(*parts: KernelSpec) -> KernelSpec:
    return KernelSpec(KernelFamily.COMPOSITE_SUM, parts=tuple(parts))


def default_composite(mode: str = "product") -> KernelSpec:
    """Default pipeline kernel: RBF(median) combined with log and RQ parts."""
    parts = (rbf(), log_kernel(), rational_quadratic())
    if mode == "product":
        return product(*parts)
    if mode == "sum":
        return kernel_sum(*parts)
    raise ConfigurationError(f"unknown composite mode {mode!r}")


def median_heuristic(samples) -> float:
    """Median of pairwise Euclidean distances over distinct index pairs.

    Returns the fallback 1.0 when the median distance is 0 (degenerate
    sample sets with many ties).
    """
    xs = np.sort(np.asarray(samples, dtype=float).ravel())
    n = xs.size
    if n < 2:
        raise ValueError("median heuristic needs at least 2 samples")
    # For the sorted sample s, row k - 1 (k = 1..n//2) of the wrapped
    # differences s[(i + k) mod n] - s[i] holds the k-th diagonal s[i + k] - s[i]
    # and, negated, the (n - k)-th. The rows hold every pair i < j once, except
    # that for even n the last row holds diagonal n/2 twice; the first
    # n(n - 1)/2 entries stop before the repeat. Negation is exact, so these
    # are bit for bit the |x_i - x_j|, with no n x n mask or difference matrix.
    doubled = np.concatenate((xs, xs))
    step = doubled.itemsize
    wrapped = np.ndarray((n // 2, n), buffer=doubled, offset=step, strides=(step, step))
    dists = np.subtract(wrapped, xs)
    np.abs(dists, out=dists)
    # np.median's arithmetic: the mean of the one or two middle order statistics.
    m = n * (n - 1) // 2
    part = dists.ravel()[:m]
    part.partition(((m - 1) // 2, m // 2))
    med = float(np.mean(part[(m - 1) // 2:m // 2 + 1]))
    return med if med > 0.0 else 1.0


def resolve(spec: KernelSpec, samples) -> KernelSpec:
    """Replace every median-heuristic marker by the sample-set median width.

    Deterministic for a fixed sample set; non-RBF leaves are returned as-is.
    """
    if spec.family is KernelFamily.RBF and spec.bandwidth == MEDIAN:
        return dataclasses.replace(spec, bandwidth=median_heuristic(samples))
    if spec.family in _COMPOSITES:
        return dataclasses.replace(spec, parts=tuple(resolve(p, samples) for p in spec.parts))
    return spec


def _evaluate(spec: KernelSpec, a, b, d2):
    """Evaluate the (resolved) kernel on broadcastable point arrays a, b whose
    squared differences (a - b)**2 are ``d2``."""
    fam = spec.family
    if fam is KernelFamily.RBF:  # exp(-d2 / sigma^2)
        out = np.negative(d2)
        np.divide(out, spec.bandwidth**2, out=out)
        return np.exp(out, out=out)
    if fam is KernelFamily.LOG:  # -log1p(d2)
        out = np.log1p(d2)
        return np.negative(out, out=out)
    if fam is KernelFamily.RATIONAL_QUADRATIC:  # 1 - d2 / (d2 + 1)
        out = np.add(d2, 1.0)
        np.divide(d2, out, out=out)
        return np.subtract(1.0, out, out=out)
    if fam is KernelFamily.POLYNOMIAL:
        return (a * b + 1.0) ** spec.degree
    # A composite, folded left to right into the first part's fresh array, in place.
    combine = np.multiply if fam is KernelFamily.COMPOSITE_PRODUCT else np.add
    first, *rest = spec.parts
    out = _evaluate(first, a, b, d2)
    for part in rest:
        combine(out, _evaluate(part, a, b, d2), out=out)
    return out


def gram(spec: KernelSpec, samples) -> np.ndarray:
    """Read-only symmetric n x n Gram matrix of kernel evaluations.

    Median-heuristic bandwidths are resolved against ``samples`` first. The
    result equals its transpose bit-for-bit without mirroring: every family
    is evaluated from x - x' (which swapping the points negates exactly and
    which enters only squared) or from the commutative product x x', and
    composites combine their parts elementwise.

    Rows are evaluated in blocks of about ``_BLOCK_ELEMENTS`` entries into
    one output array, so the temporaries of each kernel part are block-sized
    rather than n x n; every entry is computed by the same operations either
    way.
    """
    xs = np.asarray(samples, dtype=float).ravel()
    if xs.size == 0:
        raise ValueError("gram needs a nonempty sample sequence")
    spec = resolve(spec, xs)
    values = np.empty((xs.size, xs.size))
    step = max(1, _BLOCK_ELEMENTS // xs.size)
    b = xs[None, :]
    for start in range(0, xs.size, step):
        a = xs[start:start + step, None]
        values[start:start + step] = _evaluate(spec, a, b, (a - b) ** 2)
    values.setflags(write=False)
    return values


def center(X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """H X with H = I - (1/n) 1 1^T, by subtracting each column's mean;
    written into ``out`` when given, which may be X itself."""
    if X.shape[0] < 1:
        raise ValueError("centering needs n >= 1")
    return np.subtract(X, X.mean(axis=0), out=out)


class ColumnCache(dict):
    """Arrays built from data columns, keyed by ``(tag, column bytes)``
    (``ColumnCache.key``), so an entry serves only a column with the same
    bits: a Gram under its kernel spec, other parts under a tag of their
    own. ``keep`` holds the bytes of the columns whose entries may outlive
    the dataset being scored; ``shared`` stores a value only for such a
    column and ``evict`` drops every other entry. A fresh cache keeps
    nothing, so ``shared`` stores nothing in it."""

    def __init__(self):
        super().__init__()
        self.keep = frozenset()

    @staticmethod
    def key(tag, column: np.ndarray) -> tuple:
        return tag, column.tobytes()

    def hold(self, *columns: np.ndarray) -> None:
        """Keep the entries of ``columns``, and no others, past ``evict``."""
        self.keep = frozenset(column.tobytes() for column in columns)

    def shared(self, key: tuple, build):
        """``self[key]``, else ``build()``, stored only when ``keep`` holds
        the column of ``key`` and ``build`` returned."""
        value = self.get(key)
        if value is None:
            value = build()
            if key[1] in self.keep:
                self[key] = value
        return value

    def evict(self) -> None:
        """Drop every entry of a column that ``keep`` does not hold."""
        for key in [key for key in self if key[1] not in self.keep]:
            del self[key]
