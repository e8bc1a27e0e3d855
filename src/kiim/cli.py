"""Command-line harness: single-pair inference, the synthetic benchmark,
the cause-effect-pairs benchmark, the rank ablation, and the lemma checks.

Exit codes: 0 success or a decided direction, 1 input or configuration
error or out of memory, 2 Undecided (infer only), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import time
from pathlib import Path

# numpy's and scipy's OpenBLAS read OPENBLAS_NUM_THREADS once, when they load
# (both load below: numpy through kiim.kernels, scipy's through kiim.scoring's
# kiim.blas). At 1 neither starts the helper threads that every score, run on
# one thread (kiim.blas.one_thread), would leave idle. A caller's own value
# stands, and the caller's environment is restored once both have loaded, so
# no process this one starts inherits the setting.
_PIN_THREADS = "OPENBLAS_NUM_THREADS" not in os.environ
if _PIN_THREADS:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from .config import _KEYS, RunConfig, build_config, config_digest, config_items, \
        read_config_file
    from .errors import ConfigurationError, IngestionError, NumericalError, TangencyError
    from .kernels import log_kernel, polynomial, rational_quadratic, rbf
    from .pairs import Direction, load_pair_dataset
    from .report import json_text, write_bar_chart, write_csv, write_json_summary, \
        write_line_chart
    from .scoring import Method, infer_direction
finally:
    if _PIN_THREADS:
        del os.environ["OPENBLAS_NUM_THREADS"]

_METHOD_ALIASES = {m.value.lower(): m for m in Method} | {
    "rw-kiim": Method.RW_KIIM, "igci-gauss": Method.IGCI_GAUSS,
    "igci-uniform": Method.IGCI_UNIFORM}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigurationError(message)


def parse_method(name: str) -> Method:
    try:
        return _METHOD_ALIASES[name.strip().lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown method {name!r}; choose from {', '.join(sorted(_METHOD_ALIASES))}"
        ) from None


def parse_methods(text: str) -> tuple[Method, ...]:
    return tuple(parse_method(item) for item in text.split(","))


def _config_from_args(args) -> RunConfig:
    settings: dict[str, str] = {}
    if args.config:
        settings.update(read_config_file(args.config))
    # A flag's argparse dest is the name of the field its config key sets.
    for key, (name, _, _) in _KEYS.items():
        value = getattr(args, name, None)
        if value is not None:
            settings[key] = value
    return build_config(settings)


def _write_reports(args, command: str, config: RunConfig, elapsed: float, csv_name: str,
                   records: list[dict], json_name: str, fields: dict) -> Path:
    """Write ``records`` as ``csv_name`` and the run summary (the shared envelope
    plus ``fields``) as ``json_name`` into ``--out-dir``; return that directory."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / csv_name, records)
    digest = config_digest(config)
    write_json_summary(out / json_name, {
        "command": command,
        "run_id": f"{command}-{digest[:12]}-seed{args.seed}",
        "config": config_items(config),
        "config_digest": digest,
        "seed": args.seed,
        "timings": {"total_seconds": elapsed},
        **fields,
    })
    return out


def _score_payload(score) -> dict:
    return {k: v for k, v in vars(score).items() if v is not None}


def cmd_infer(args) -> int:
    dataset = load_pair_dataset(args.pair_file)
    config = _config_from_args(args)
    decision = infer_direction(dataset, parse_method(args.method), config)
    payload = {
        "direction": decision.direction.value,
        "method": decision.method.value,
        "config_digest": config_digest(config),
        "n": dataset.n,
        "score_xy": _score_payload(decision.score_xy),
        "score_yx": _score_payload(decision.score_yx),
    }
    print(json_text(payload))
    return 2 if decision.direction is Direction.UNDECIDED else 0


def _log_to_stderr() -> None:
    """Show the warnings of a benchmark run (a failed trial) on stderr."""
    import logging
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")


def cmd_synthetic(args) -> int:
    from .bench import parse_cells, run_synthetic
    _log_to_stderr()
    config = _config_from_args(args)
    cells = parse_cells(args.cells)
    methods = parse_methods(args.methods)
    started = time.monotonic()
    results = run_synthetic(cells, methods, trials=args.trials, n=args.n,
                            seed=args.seed, config=config, jobs=args.jobs)
    elapsed = time.monotonic() - started
    records = [{**dataclasses.asdict(r), "accuracy": r.accuracy,
                "accuracy_std": r.accuracy_std} for r in results]
    out = _write_reports(args, "synthetic", config, elapsed, "synthetic.csv", records,
                         "synthetic.json", {"trials": args.trials, "n": args.n,
                                            "results": records})
    for r in results:
        print(f"{r.mechanism.value:5s} {r.noise.value:15s} {r.method.value:11s} "
              f"accuracy {r.accuracy:6.1%} +- {r.accuracy_std:.1%}")
    print(f"wrote {out / 'synthetic.csv'} and {out / 'synthetic.json'}")
    return 0


def cmd_tcep(args) -> int:
    from .tcep import evaluate_tcep, load_tcep
    _log_to_stderr()
    config = _config_from_args(args)
    methods = parse_methods(args.methods)
    pairs = load_tcep(args.directory)
    started = time.monotonic()
    report = evaluate_tcep(pairs, methods, config=config, seed=args.seed,
                           subsample_limit=args.subsample_limit, jobs=args.jobs)
    elapsed = time.monotonic() - started
    records = [{"pair_id": r.pair_id, "method": r.method, "score_xy": r.score_xy,
                "score_yx": r.score_yx, "decision": "error" if r.error else r.direction,
                "correct": r.correct} for r in report.results]
    out = _write_reports(args, "tcep", config, elapsed, "tcep_pairs.csv", records,
                         "tcep_summary.json", {
        "subsample_limit": args.subsample_limit,
        "loaded": report.loaded,
        "excluded": report.excluded,
        "usable": report.usable,
        "exclusions": [{"pair_id": p.id, "reason": p.exclusion_reason}
                       for p in pairs if p.excluded],
        "accuracies": [dataclasses.asdict(a) for a in report.accuracies],
    })
    write_bar_chart(out / "tcep_accuracy.svg", "Benchmark accuracy by method",
                    [a.method.value for a in report.accuracies],
                    [a.accuracy for a in report.accuracies], "accuracy")
    print(f"loaded {report.loaded} pairs, excluded {report.excluded}, "
          f"evaluated {report.usable}")
    for a in report.accuracies:
        print(f"{a.method.value:11s} accuracy {a.accuracy:6.1%} "
              f"(weighted {a.weighted_accuracy:6.1%})")
    print(f"wrote {out / 'tcep_pairs.csv'}, {out / 'tcep_summary.json'}, "
          f"{out / 'tcep_accuracy.svg'}")
    return 0


def cmd_ablation(args) -> int:
    from .bench import parse_cells, run_ablation
    _log_to_stderr()
    config = _config_from_args(args)
    cells = parse_cells(args.cells)
    started = time.monotonic()
    results = run_ablation(cells, d_max=args.d_max, trials=args.trials, n=args.n,
                           seed=args.seed, config=config, jobs=args.jobs)
    elapsed = time.monotonic() - started
    records = [{**dataclasses.asdict(r), "accuracy": r.accuracy} for r in results]
    out = _write_reports(args, "ablation", config, elapsed, "ablation.csv", records,
                         "ablation.json", {"trials": args.trials, "n": args.n,
                                           "d_max": args.d_max, "results": records})
    series: dict[str, list[float]] = {}
    for r in results:
        series.setdefault(f"{r.mechanism.value}/{r.noise.value}", []).append(r.accuracy)
    write_line_chart(out / "ablation.svg", "Accuracy by discarded top eigenvalues",
                     list(range(args.d_max + 1)), series, "accuracy", "discarded top d")
    for name, ys in sorted(series.items()):
        best = max(range(len(ys)), key=ys.__getitem__)
        print(f"{name:22s} best d={best} accuracy {ys[best]:6.1%}")
    print(f"wrote {out / 'ablation.csv'}, {out / 'ablation.json'}, {out / 'ablation.svg'}")
    return 0


def cmd_theory_check(args) -> int:
    import numpy as np

    from .theory import FiniteBasisDensity, construct_equal_norm_density, verify_lemma1
    rng = np.random.default_rng(args.seed)
    stationary = (rbf(), log_kernel(), rational_quadratic())
    max_stationary_gap = 0.0
    max_poly_gap = 0.0
    for _ in range(args.draws):
        samples = rng.gamma(shape=2.0, scale=1.0, size=40) - rng.uniform(0.0, 3.0)
        for spec in stationary:
            max_stationary_gap = max(max_stationary_gap, verify_lemma1(samples, spec)[2])
        max_poly_gap = max(max_poly_gap, verify_lemma1(samples, polynomial(3))[2])
    print(f"stationary-kernel embedding-norm gap over {args.draws} sample sets: "
          f"max {max_stationary_gap:.3e}")
    print(f"polynomial-kernel gap over the same sets: max {max_poly_gap:.3e}")

    tangency = 0
    distinct = 0
    max_norm_residual = 0.0
    max_normalizer_residual = 0.0
    for _ in range(args.draws):
        while True:
            alpha = rng.normal(0.0, 1.0, 4)
            theta = rng.normal(0.0, 1.0, 4)
            if abs(alpha @ theta) > 1e-3:
                break
        lam = rng.uniform(0.5, 2.0, 4)
        p = FiniteBasisDensity(alpha, lam, theta)
        try:
            q = construct_equal_norm_density(p)
        except TangencyError:
            tangency += 1
            continue
        if float(np.abs(q.coefficients - p.coefficients).max()) > 1e-8:
            distinct += 1
        max_normalizer_residual = max(max_normalizer_residual,
                                      abs(q.normalization - p.normalization))
        max_norm_residual = max(max_norm_residual,
                                abs(q.embedding_sq_norm - p.embedding_sq_norm))
    print(f"equal-norm construction over {args.draws} draws: "
          f"{distinct} distinct, {tangency} tangent")
    print(f"max normalization residual {max_normalizer_residual:.3e}, "
          f"max embedding-norm residual {max_norm_residual:.3e}")
    return 0


def _add_config_flags(parser) -> None:
    # Unset flags are None, so the config file's value stands; the help shows RunConfig()'s.
    defaults = config_items(RunConfig())
    parser.add_argument("--lambda", dest="lam", metavar="VALUE",
                        help="ridge for the conditional-embedding solves "
                             f"(default {defaults['lambda']})")
    parser.add_argument("--energy-threshold", dest="energy_threshold", metavar="FRACTION",
                        help="spectral energy the retained tail must reach "
                             f"(default {defaults['energy_threshold']})")
    parser.add_argument("--kernel-x", dest="kernel_x", metavar="SPEC",
                        help="cause-role kernel, e.g. rbf:median "
                             f"(default {defaults['kernel.x']})")
    parser.add_argument("--kernel-y", dest="kernel_y", metavar="SPEC",
                        help=f"effect-role kernel (default {defaults['kernel.y']})")
    parser.add_argument("--config", metavar="FILE",
                        help="key = value settings file; flags override it")


def _add_run_flags(parser, trials: bool) -> None:
    """--seed, --jobs and --out-dir; with ``trials``, also --trials and --n."""
    if trials:
        parser.add_argument("--trials", type=int, default=100,
                            help="independent trials per cell (default %(default)s)")
        parser.add_argument("--n", type=int, default=100,
                            help="samples per trial (default %(default)s)")
    parser.add_argument("--seed", type=int, default=0, help="base seed (default %(default)s)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default %(default)s)")
    parser.add_argument("--out-dir", default="runs", help="report directory (default %(default)s)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``kiim`` command line, built on the first call and shared by every
    later one: parsing leaves the parser unchanged and returns a new namespace."""
    parser = _Parser(prog="kiim",
                     description="Pairwise causal direction inference via the invariance "
                                 "of conditional kernel embeddings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", help="score one two-column pair file")
    p.add_argument("pair_file")
    p.add_argument("--method", default="kiim",
                   help="kiim, rw-kiim, kcdc, igci-gauss, igci-uniform, or anm "
                        "(default %(default)s)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("synthetic", help="run the synthetic benchmark grid")
    p.add_argument("--cells", default="all",
                   help="all or comma-separated MECH:NOISE cells (default %(default)s)")
    p.add_argument("--methods", default="kiim",
                   help="comma-separated methods (default %(default)s)")
    _add_run_flags(p, trials=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_synthetic)

    p = sub.add_parser("tcep", help="evaluate a cause-effect-pairs directory")
    p.add_argument("directory")
    p.add_argument("--methods", default="kiim",
                   help="comma-separated methods (default %(default)s)")
    p.add_argument("--subsample-limit", type=int, default=1000,
                   help="subsample pairs larger than this, 0 disables (default %(default)s)")
    _add_run_flags(p, trials=False)
    _add_config_flags(p)
    p.set_defaults(func=cmd_tcep)

    p = sub.add_parser("ablation", help="accuracy for fixed discard counts d = 0..d_max")
    p.add_argument("--cells", default="ANM1:Gaussian,MNM2:Gaussian",
                   help="grid cells (default %(default)s)")
    p.add_argument("--d-max", type=int, default=5,
                   help="largest discard count (default %(default)s)")
    _add_run_flags(p, trials=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("theory-check", help="print the lemma verification statistics")
    p.add_argument("--seed", type=int, default=0, help="base seed (default %(default)s)")
    p.add_argument("--draws", type=int, default=100,
                   help="sample sets / coefficient draws (default %(default)s)")
    p.set_defaults(func=cmd_theory_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for count in ("jobs", "draws"):
            if getattr(args, count, 1) < 1:
                raise ConfigurationError(f"--{count} must be at least 1")
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigurationError, IngestionError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or repr(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
