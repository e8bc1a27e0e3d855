"""Run configuration: typed settings, a small kernel text grammar,
`key = value` config files, and a stable digest of the resolved state.

Grammar for kernel values::

    rbf            rbf:median       rbf:0.7
    log            rq               poly:3
    product(rbf:median,log,rq)      sum(rbf:0.5,log)
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .errors import ConfigurationError
from .kernels import MEDIAN, KernelFamily, KernelSpec, default_composite, log_kernel, \
    polynomial, rational_quadratic, rbf


@dataclass(frozen=True)
class RunConfig:
    """Fully-resolved settings of every scorer and of the harness.

    ``kernel_x`` applies to whichever variable plays the cause role in the
    direction being scored, ``kernel_y`` to the effect role; both
    directions of one dataset therefore use identical machinery. ``lam`` is
    also KCDC's ridge; the ``kcdc_*`` and ``anm_*`` fields are read by those
    baselines only.
    """

    lam: float = 1e-3
    energy_threshold: float = 0.9
    kernel_x: KernelSpec = default_composite("product")
    kernel_y: KernelSpec = default_composite("product")
    tie_tolerance: float = 1e-12
    rw_clip_quantile: float = 0.95
    kcdc_input_kernel: KernelSpec = log_kernel()
    kcdc_output_kernel: KernelSpec = rational_quadratic()
    anm_ridge: float = 1e-3
    anm_kernel: KernelSpec = rbf()

    def __post_init__(self):
        # Written so that NaN fails each range check.
        if not 0 < self.lam < math.inf:
            raise ConfigurationError("lambda must be positive and finite")
        if not 0.0 < self.energy_threshold <= 1.0:
            raise ConfigurationError("energy threshold must lie in (0, 1]")
        if not 0 <= self.tie_tolerance < math.inf:
            raise ConfigurationError("tie tolerance must be nonnegative and finite")
        if not 0.5 < self.rw_clip_quantile <= 1.0:
            raise ConfigurationError("clip quantile must lie in (0.5, 1]")
        if not 0 < self.anm_ridge < math.inf:
            raise ConfigurationError("anm ridge must be positive and finite")


def parse_kernel(text: str) -> KernelSpec:
    """Parse the kernel grammar above into a spec.

    Only the grammar is checked here. ``KernelSpec`` alone checks bandwidths,
    degrees and part counts; a ValueError from it, or from reading a number,
    becomes a ConfigurationError naming the text.
    """
    t = text.strip()
    lowered = t.lower()
    head, sep, arg = lowered.partition(":")
    try:
        for fam in (KernelFamily.COMPOSITE_PRODUCT, KernelFamily.COMPOSITE_SUM):
            if lowered.startswith(fam.value + "(") and t.endswith(")"):
                inner = t[len(fam.value) + 1:-1]
                return KernelSpec(fam, parts=tuple(parse_kernel(p) for p in _split_args(inner)))
        if head == "rbf":
            return rbf(MEDIAN if not sep or arg.strip() == MEDIAN else float(arg))
        if head in (KernelFamily.LOG.value, KernelFamily.RATIONAL_QUADRATIC.value):
            if sep:
                raise ConfigurationError(f"kernel takes no argument: {text!r}")
            return KernelSpec(KernelFamily(head))
        if head == "poly":
            if not sep:
                raise ConfigurationError(f"polynomial kernel needs a degree: {text!r}")
            return polynomial(int(arg))
    except ValueError as exc:
        raise ConfigurationError(f"bad kernel {text!r}: {exc}") from exc
    raise ConfigurationError(f"unknown kernel expression {text!r}")


def _split_args(inner: str) -> list[str]:
    """Split on top-level commas, respecting nested parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ConfigurationError(f"unbalanced parentheses in {inner!r}")
        elif ch == "," and depth == 0:
            parts.append(inner[start:i])
            start = i + 1
    if depth != 0:
        raise ConfigurationError(f"unbalanced parentheses in {inner!r}")
    parts.append(inner[start:])
    return parts


def kernel_to_text(spec: KernelSpec) -> str:
    """Inverse of parse_kernel (round-trips every constructible spec)."""
    fam = spec.family
    if fam is KernelFamily.RBF:
        return "rbf:median" if spec.bandwidth == MEDIAN else f"rbf:{spec.bandwidth!r}"
    if fam is KernelFamily.POLYNOMIAL:
        return f"poly:{spec.degree}"
    if not spec.parts:
        return fam.value
    return f"{fam.value}({','.join(kernel_to_text(p) for p in spec.parts)})"


def read_config_file(path) -> dict[str, str]:
    """Read `key = value` lines; blank lines and # comments are skipped."""
    mapping: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    for number, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigurationError(f"{path}:{number}: expected key = value")
        mapping[key.strip()] = value.strip()
    return mapping


def _convert_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigurationError(f"{key} must be a number, got {value!r}") from exc


#: Config-file key -> (RunConfig field it sets, reader of its text, writer of its text).
_KEYS = {
    "anm.kernel": ("anm_kernel", parse_kernel, kernel_to_text),
    "anm.ridge": ("anm_ridge", float, repr),
    "energy_threshold": ("energy_threshold", float, repr),
    "kcdc.kernel_in": ("kcdc_input_kernel", parse_kernel, kernel_to_text),
    "kcdc.kernel_out": ("kcdc_output_kernel", parse_kernel, kernel_to_text),
    "kernel.x": ("kernel_x", parse_kernel, kernel_to_text),
    "kernel.y": ("kernel_y", parse_kernel, kernel_to_text),
    "lambda": ("lam", float, repr),
    "rw.clip_quantile": ("rw_clip_quantile", float, repr),
    "tie_tolerance": ("tie_tolerance", float, repr),
}


def build_config(settings: dict[str, str]) -> RunConfig:
    """Turn textual settings (config file plus flag overrides) into a RunConfig.

    Unknown keys are rejected rather than ignored.
    """
    fields: dict[str, object] = {}
    for key, value in settings.items():
        if key not in _KEYS:
            raise ConfigurationError(f"unknown config key {key!r}")
        name, read, _ = _KEYS[key]
        fields[name] = _convert_float(key, value) if read is float else read(value)
    return RunConfig(**fields)


def config_items(config: RunConfig) -> dict[str, str]:
    """Every setting as a config-file key and its canonical text, keys sorted."""
    return {key: write(getattr(config, name)) for key, (name, _, write) in sorted(_KEYS.items())}


def serialize_config(config: RunConfig) -> str:
    """Canonical text form of a config: sorted `key = value` lines."""
    return "".join(f"{key} = {value}\n" for key, value in config_items(config).items())


def config_digest(config: RunConfig) -> str:
    """Stable hex digest of the serialized config."""
    return hashlib.sha256(serialize_config(config).encode("utf-8")).hexdigest()
