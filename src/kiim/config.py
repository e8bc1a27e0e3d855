"""Run configuration: typed settings, a small kernel text grammar,
`key = value` config files, and a stable digest of the resolved state.

Grammar for kernel values::

    rbf            rbf:median       rbf:0.7
    log            rq               poly:3
    product(rbf:median,log,rq)      sum(rbf:0.5,log)

``composite_mode`` is a convenience key: it picks the default composite
(product or sum) for any kernel key not given explicitly, and is folded
into the resolved kernels rather than stored.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .baselines import BaselineConfig
from .errors import ConfigurationError
from .kernels import MEDIAN, KernelFamily, KernelSpec, default_composite, kernel_sum, \
    log_kernel, polynomial, product, rational_quadratic, rbf


@dataclass(frozen=True)
class RunConfig:
    """Fully-resolved settings shared by the scorers and the harness.

    ``kernel_x`` applies to whichever variable plays the cause role in the
    direction being scored, ``kernel_y`` to the effect role; both
    directions of one dataset therefore use identical machinery.
    """

    lam: float = 1e-3
    energy_threshold: float = 0.9
    kernel_x: KernelSpec = default_composite("product")
    kernel_y: KernelSpec = default_composite("product")
    tie_tolerance: float = 1e-12
    rw_clip_quantile: float = 0.95
    baselines: BaselineConfig = BaselineConfig()

    def __post_init__(self):
        if self.lam <= 0:
            raise ConfigurationError("lambda must be positive")
        if not 0.0 < self.energy_threshold <= 1.0:
            raise ConfigurationError("energy threshold must lie in (0, 1]")
        if self.tie_tolerance < 0:
            raise ConfigurationError("tie tolerance must be nonnegative")
        if not 0.5 < self.rw_clip_quantile <= 1.0:
            raise ConfigurationError("clip quantile must lie in (0.5, 1]")


def parse_kernel(text: str) -> KernelSpec:
    """Parse the kernel grammar above into a spec."""
    t = text.strip()
    if not t:
        raise ConfigurationError("empty kernel expression")
    lowered = t.lower()
    for name, factory in (("product", product), ("sum", kernel_sum)):
        if lowered.startswith(name + "(") and t.endswith(")"):
            inner = t[len(name) + 1:-1]
            parts = [parse_kernel(p) for p in _split_args(inner)]
            if len(parts) < 2:
                raise ConfigurationError(f"composite kernel needs >= 2 parts: {text!r}")
            return factory(*parts)
    head, sep, arg = lowered.partition(":")
    if head == "rbf":
        if not sep:
            return rbf()
        if arg.strip() == MEDIAN:
            return rbf(MEDIAN)
        return rbf(_positive_float(arg, text))
    if head == "log":
        _no_arg(sep, text)
        return log_kernel()
    if head == "rq":
        _no_arg(sep, text)
        return rational_quadratic()
    if head == "poly":
        if not sep:
            raise ConfigurationError(f"polynomial kernel needs a degree: {text!r}")
        try:
            degree = int(arg.strip())
        except ValueError as exc:
            raise ConfigurationError(f"bad polynomial degree in {text!r}") from exc
        return polynomial(degree)
    raise ConfigurationError(f"unknown kernel expression {text!r}")


def _no_arg(sep: str, text: str) -> None:
    if sep:
        raise ConfigurationError(f"kernel takes no argument: {text!r}")


def _positive_float(arg: str, text: str) -> float:
    try:
        value = float(arg)
    except ValueError as exc:
        raise ConfigurationError(f"bad bandwidth in {text!r}") from exc
    if value <= 0:
        raise ConfigurationError(f"bandwidth must be positive in {text!r}")
    return value


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
    if fam is KernelFamily.LOG:
        return "log"
    if fam is KernelFamily.RATIONAL_QUADRATIC:
        return "rq"
    if fam is KernelFamily.POLYNOMIAL:
        return f"poly:{spec.degree}"
    joined = ",".join(kernel_to_text(p) for p in spec.parts)
    name = "product" if fam is KernelFamily.COMPOSITE_PRODUCT else "sum"
    return f"{name}({joined})"


def read_config_file(path) -> dict[str, str]:
    """Read `key = value` lines; blank lines and # comments are skipped."""
    mapping: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
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


def build_config(settings: dict[str, str]) -> RunConfig:
    """Turn textual settings (config file plus flag overrides) into a RunConfig.

    Unknown keys are rejected rather than ignored.
    """
    settings = dict(settings)
    mode = settings.pop("composite_mode", "product")
    if mode not in ("product", "sum"):
        raise ConfigurationError("composite_mode must be product or sum")
    fields: dict[str, object] = {
        "kernel_x": default_composite(mode),
        "kernel_y": default_composite(mode),
    }
    base = {}
    for key, value in settings.items():
        if key == "lambda":
            fields["lam"] = _convert_float(key, value)
        elif key == "energy_threshold":
            fields["energy_threshold"] = _convert_float(key, value)
        elif key == "kernel.x":
            fields["kernel_x"] = parse_kernel(value)
        elif key == "kernel.y":
            fields["kernel_y"] = parse_kernel(value)
        elif key == "tie_tolerance":
            fields["tie_tolerance"] = _convert_float(key, value)
        elif key == "rw.clip_quantile":
            fields["rw_clip_quantile"] = _convert_float(key, value)
        elif key == "kcdc.kernel_in":
            base["kcdc_input_kernel"] = parse_kernel(value)
        elif key == "kcdc.kernel_out":
            base["kcdc_output_kernel"] = parse_kernel(value)
        elif key == "anm.ridge":
            base["anm_ridge"] = _convert_float(key, value)
        elif key == "anm.kernel":
            base["anm_kernel"] = parse_kernel(value)
        else:
            raise ConfigurationError(f"unknown config key {key!r}")
    try:
        fields["baselines"] = BaselineConfig(**base)
        return RunConfig(**fields)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc


def config_items(config: RunConfig) -> dict[str, str]:
    """Every setting as a config-file key and its canonical text, keys sorted."""
    b = config.baselines
    return dict(sorted({
        "anm.kernel": kernel_to_text(b.anm_kernel),
        "anm.ridge": repr(b.anm_ridge),
        "energy_threshold": repr(config.energy_threshold),
        "kcdc.kernel_in": kernel_to_text(b.kcdc_input_kernel),
        "kcdc.kernel_out": kernel_to_text(b.kcdc_output_kernel),
        "kernel.x": kernel_to_text(config.kernel_x),
        "kernel.y": kernel_to_text(config.kernel_y),
        "lambda": repr(config.lam),
        "rw.clip_quantile": repr(config.rw_clip_quantile),
        "tie_tolerance": repr(config.tie_tolerance),
    }.items()))


def serialize_config(config: RunConfig) -> str:
    """Canonical text form of a config: sorted `key = value` lines."""
    return "".join(f"{key} = {value}\n" for key, value in config_items(config).items())


def config_digest(config: RunConfig) -> str:
    """Stable hex digest of the serialized config."""
    return hashlib.sha256(serialize_config(config).encode("utf-8")).hexdigest()
