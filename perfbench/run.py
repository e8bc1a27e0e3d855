"""Benchmark of the kiim command line: end-to-end metrics per workload, or
per-layer metrics from a traced run.

    python3 perfbench/run.py --workload infer-n100 --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all

Workloads: infer-n100, grid-pool, pairs-large (see workloads.py), or ``all``,
which runs each in its own process. The benchmark imports kiim from
``src/`` of this checkout, writes its inputs and results under
``.perfbench/``, leaves the BLAS/OpenMP thread settings as it finds them and
records them. It checks every command's output against the recorded
reference; the last line of standard output is one JSON object, and the
exit code is 0 only when every output matched.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

RESULTS_DIR = workloads.ROOT / ".perfbench"
# A cold start on a shared 2-core machine varies by up to half from one try
# to the next, so setup_s is the median of nine.
SETUP_REPS = 9
# One kiim command in a fresh interpreter, as a user runs it.
COLD_START = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from kiim.cli import main; sys.exit(main(sys.argv[2:]))")
# Measurement stops after this long even when a workload's minimum call
# count is not reached, so a run ends well within three minutes.
MEASURE_CAP_S = 120.0

END_TO_END = {
    "decisions_per_s": "1/s",
    "decision_p99_ms": "ms",
    "cpu_ms_per_decision": "ms",
    "peak_rss_mb": "MB",
    "accuracy": "ratio",
    "setup_s": "s",
}

# Printed and written to the results file, but not part of the JSON result:
# infer-n100's per-call latency is bimodal (16 ms, or 20-24 ms after a BLAS
# thread stall of one scheduler tick) and the share of fast calls drifts with
# the machine's load over minutes, so the median flips between the modes
# from run to run and no bound of 25% would hold it.
REPORTED_ONLY = {
    "decision_p50_ms": "ms",
}

PER_LAYER = {
    "cli.main.self_ms": "ms/call",
    "pairs.read_pair_file.s": "s/decision",
    "report.write_csv.s": "s/decision",
    "kernels.gram.calls_per_decision": "calls/decision",
    "kernels.gram.self_s": "s/decision",
    "kernels.median_heuristic.self_s": "s/decision",
    "embeddings.ridge_factorization.calls": "count",
    "embeddings.ridge_factorization.self_s": "s/decision",
    "embeddings.lu_share": "ratio",
    "embeddings.reweighting_vector.self_s": "s/decision",
    "embeddings.reweighted_cond_matrix.self_s": "s/decision",
    "scoring.kiim_matrix.self_s": "s/decision",
    "scoring.matrix_from_coeffs.self_s": "s/decision",
    "scoring.sym_eig.calls": "count",
    "scoring.sym_eig.self_s": "s/decision",
    "scoring.sym_eig.clamped_share": "ratio",
    "scoring.energy_rank_score.discard0_share": "ratio",
    "scoring.infer_direction.self_s": "s/decision",
    "baselines.kcdc_score.self_s": "s/decision",
    "baselines.anm_score.self_s": "s/decision",
    "baselines.hsic.self_s": "s/decision",
    "baselines.igci_score.self_s": "s/decision",
    "synthdata.generate.self_s": "s/decision",
    "bench.pools_opened": "count",
    "bench.tasks": "count",
    "bench.worker_cpu_s": "s/decision",
    "bench.worker_cpu_share": "ratio",
    "tcep.load_tcep.s": "s/decision",
    "tcep.evaluate_tcep.self_s": "s/decision",
    "tcep.subsampled_pairs": "count",
    "embeddings.ridge_factorization.computed_gflop": "GFLOP",
    "embeddings.ridge_factorization.computed_gflop_per_s": "GFLOP/s",
    "scoring.kiim_matrix.computed_gflop": "GFLOP",
    "scoring.kiim_matrix.computed_gflop_per_s": "GFLOP/s",
    "scoring.sym_eig.computed_gflop": "GFLOP",
    "scoring.sym_eig.computed_gflop_per_s": "GFLOP/s",
    "reference.matmul_n1000.gflop_per_s": "GFLOP/s",
    "trace.window_decisions": "count",
    "trace.overhead_share": "ratio",
}

# Counts over the fixed window of the traced phase: the same seed must give
# the same values on every run (perfbench/check_counts.py verifies this).
EXACT_COUNTS = (
    "kernels.gram.calls_per_decision", "embeddings.ridge_factorization.calls",
    "embeddings.lu_share", "scoring.sym_eig.calls", "scoring.sym_eig.clamped_share",
    "scoring.energy_rank_score.discard0_share", "bench.pools_opened", "bench.tasks",
    "tcep.subsampled_pairs", "embeddings.ridge_factorization.computed_gflop",
    "scoring.kiim_matrix.computed_gflop", "scoring.sym_eig.computed_gflop",
    "trace.window_decisions",
)


@dataclass
class Phase:
    """Totals of one measured stretch of command calls."""

    units: int = 0
    decisions: int = 0
    correct: int = 0
    operations: int = 0
    departures: int = 0
    wall_s: float = 0.0
    cpu_self_s: float = 0.0
    cpu_children_s: float = 0.0
    unit_decisions: list[int] = field(default_factory=list)
    unit_correct: list[int] = field(default_factory=list)
    unit_wall_s: list[float] = field(default_factory=list)
    unit_cpu_s: list[float] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def measure(workload, plan, reference, seconds: float, min_units: int, tracer=None) -> Phase:
    """Run the plan's commands back to back in whole passes over the plan,
    for at least ``seconds`` and ``min_units`` calls; only the command calls
    themselves are timed. Every pass holds the same inputs whatever the
    seed, so the run's mix of inputs does not depend on the seed either."""
    phase = Phase()
    started = time.perf_counter()
    while True:
        unit = plan[phase.units % len(plan)]
        if tracer is not None:
            tracer.request = phase.units
        self0, children0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        code, stdout = workloads.run_cli(list(unit.argv))
        wall = time.perf_counter() - t0
        cpu_self = _cpu(resource.RUSAGE_SELF) - self0
        cpu_children = _cpu(resource.RUSAGE_CHILDREN) - children0
        if tracer is not None:
            tracer.collect_workers()
        outcome = workload.check(unit, code, stdout, reference)
        phase.units += 1
        phase.decisions += outcome.decisions
        phase.correct += outcome.correct
        phase.operations += outcome.operations
        phase.departures += outcome.departures
        phase.wall_s += wall
        phase.cpu_self_s += cpu_self
        phase.cpu_children_s += cpu_children
        phase.notes.extend(outcome.notes)
        phase.unit_decisions.append(outcome.decisions)
        phase.unit_correct.append(outcome.correct)
        phase.unit_wall_s.append(wall)
        phase.unit_cpu_s.append(cpu_self + cpu_children)
        phase.latencies_ms.append(1e3 * wall / max(outcome.decisions, 1))
        elapsed = time.perf_counter() - started
        done = (elapsed >= seconds and phase.units >= min_units
                and phase.units % len(plan) == 0)
        if done or elapsed >= MEASURE_CAP_S:
            return phase


def passes(phase: Phase, pass_len: int) -> list[tuple[int, int, float, float]]:
    """(decisions, correct, wall s, cpu s) of each complete pass; a pass cut
    short by the time cap counts only when there is no complete one."""
    rows = list(zip(phase.unit_decisions, phase.unit_correct, phase.unit_wall_s,
                    phase.unit_cpu_s))
    groups = [rows[i:i + pass_len] for i in range(0, len(rows), pass_len)]
    complete = [g for g in groups if len(g) == pass_len] or groups
    return [tuple(sum(column) for column in zip(*g)) for g in complete]


def percentile(values, q: int) -> float:
    """q-th percentile (1..99) by linear interpolation between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children: the largest reaped child.
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def end_to_end_metrics(phase: Phase, pass_len: int, setup_s: float) -> dict[str, float]:
    """Throughput and CPU per decision are medians over passes, so a burst of
    interference from other processes moves one pass rather than the run."""
    groups = passes(phase, pass_len)
    return {
        "decisions_per_s": statistics.median(d / w for d, _, w, _ in groups),
        "decision_p50_ms": statistics.median(phase.latencies_ms),
        "decision_p99_ms": percentile(phase.latencies_ms, 99),
        "cpu_ms_per_decision": statistics.median(1e3 * c / d for d, _, _, c in groups),
        "peak_rss_mb": peak_rss_mb(),
        "accuracy": sum(c for _, c, _, _ in groups) / sum(d for d, _, _, _ in groups),
        "setup_s": setup_s,
    }


def matmul_gflop_per_s(n: int = 1000, reps: int = 5) -> float:
    """Reference rate of one dense n x n product with the BLAS as configured."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    a @ b
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * n**3 / statistics.median(times) / 1e9


def layer_metrics(tracer, traced: Phase, untraced: Phase, window_units: int,
                  jobs: int) -> dict[str, float]:
    import tracing

    window = set(range(window_units))
    rows = tracing.aggregate(tracer.spans)
    window_rows = tracing.aggregate(tracer.spans, window)
    counts_all: dict[str, float] = {}
    counts_window: dict[str, float] = {}
    for (request, key), value in tracer.counts.items():
        counts_all[key] = counts_all.get(key, 0) + value
        if request in window:
            counts_window[key] = counts_window.get(key, 0) + value
    decisions = traced.decisions
    window_decisions = sum(traced.unit_decisions[:window_units])

    def ratio(num, den):
        return num / den if den else 0.0

    def per_decision(name, column="self_s"):
        return rows.get(name, {}).get(column, 0.0) / decisions

    def window_calls(name):
        return window_rows.get(name, {}).get("calls", 0)

    def gflop(name, counts):
        return tracing.computed_flops(counts, name) / 1e9

    cli_self = sum(row["self_s"] for name, row in rows.items() if name.startswith("cli."))
    lu = counts_window.get("factor.lu", 0)
    metrics = {
        "cli.main.self_ms": 1e3 * ratio(cli_self, rows.get("cli.main", {}).get("calls", 0)),
        "pairs.read_pair_file.s": per_decision("pairs.read_pair_file", "total_s"),
        "report.write_csv.s": per_decision("report.write_csv", "total_s"),
        "kernels.gram.calls_per_decision": ratio(window_calls("kernels.gram"), window_decisions),
        "embeddings.ridge_factorization.calls": window_calls("embeddings.ridge_factorization"),
        "embeddings.lu_share": ratio(lu, lu + counts_window.get("factor.cholesky", 0)),
        "scoring.sym_eig.calls": window_calls("scoring.sym_eig"),
        "scoring.sym_eig.clamped_share": ratio(
            counts_window.get("scoring.sym_eig.clamped", 0),
            counts_window.get("scoring.sym_eig.eigenvalues", 0)),
        "scoring.energy_rank_score.discard0_share": ratio(
            counts_window.get("scoring.energy_rank_score.discard0", 0),
            window_calls("scoring.energy_rank_score")),
        "bench.pools_opened": counts_window.get("bench.pools_opened", 0),
        "bench.tasks": counts_window.get("bench.tasks", 0),
        "bench.worker_cpu_s": traced.cpu_children_s / decisions,
        "bench.worker_cpu_share": ratio(traced.cpu_children_s, jobs * traced.wall_s),
        "tcep.load_tcep.s": per_decision("tcep.load_tcep", "total_s"),
        "tcep.subsampled_pairs": counts_window.get("tcep.subsampled_pairs", 0),
        "reference.matmul_n1000.gflop_per_s": matmul_gflop_per_s(),
        "trace.window_decisions": window_decisions,
        "trace.overhead_share": 1.0 - (traced.decisions / traced.wall_s)
                                / (untraced.decisions / untraced.wall_s),
    }
    for name in ("kernels.gram", "kernels.median_heuristic", "embeddings.ridge_factorization",
                 "embeddings.reweighting_vector", "embeddings.reweighted_cond_matrix",
                 "scoring.kiim_matrix", "scoring.matrix_from_coeffs", "scoring.sym_eig",
                 "scoring.infer_direction", "baselines.kcdc_score", "baselines.anm_score",
                 "baselines.hsic", "baselines.igci_score", "synthdata.generate",
                 "tcep.evaluate_tcep"):
        metrics[f"{name}.self_s"] = per_decision(name)
    for name in ("embeddings.ridge_factorization", "scoring.kiim_matrix", "scoring.sym_eig"):
        metrics[f"{name}.computed_gflop"] = gflop(name, counts_window)
        metrics[f"{name}.computed_gflop_per_s"] = ratio(
            gflop(name, counts_all), rows.get(name, {}).get("self_s", 0.0))
    return {name: float(metrics[name]) for name in PER_LAYER}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown"}
    return {"name": blas.get("name"), "version": blas.get("version"),
            "configuration": blas.get("openblas configuration")}


def environment(workload) -> dict:
    import multiprocessing

    import numpy as np
    import scipy

    return {
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
        "jobs": workload.jobs,
        "start_method": multiprocessing.get_start_method(),
        "git_commit": git_commit(),
    }


def _phase_summary(phase: Phase) -> dict:
    return {"units": phase.units, "decisions": phase.decisions, "correct": phase.correct,
            "operations": phase.operations, "departures": phase.departures,
            "wall_s": phase.wall_s, "cpu_self_s": phase.cpu_self_s,
            "cpu_children_s": phase.cpu_children_s,
            "latency_samples": len(phase.latencies_ms),
            "unit_wall_s": phase.unit_wall_s,
            "latency_ms_deciles": statistics.quantiles(phase.latencies_ms, n=10)
            if len(phase.latencies_ms) > 1 else phase.latencies_ms,
            "departure_notes": phase.notes[:20]}


def cold_start(argv: list[str]) -> None:
    """Run one kiim command in a fresh interpreter and wait for it."""
    proc = subprocess.run([sys.executable, "-c", COLD_START, str(workloads.ROOT / "src"), *argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=120, check=False)
    if proc.returncode not in (0, 2):
        raise RuntimeError(f"warm-up {argv} exited {proc.returncode}: {proc.stderr[-500:]}")


def run(workload, seed: int, seconds: float, trace: bool, workdir: Path,
        reference: dict, results_dir: Path | None = None) -> dict:
    """One benchmark run; returns the result document (metrics included)."""
    workloads.import_kiim()
    plan = workload.plan(workdir, seed)
    setup_times = []
    for rep in range(SETUP_REPS):
        # The input is written before the clock starts: only kiim's own
        # start-up is timed.
        argv = workload.warmup_argv(workdir / f"setup{rep}")
        t0 = time.perf_counter()
        cold_start(argv)
        setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(setup_times)
    workloads.run_cli(workload.warmup_argv(workdir / "warmup"))
    doc = {"workload": workload.name, "why": workload.why, "params": workload.params(),
           "seed": seed, "seconds": seconds, "trace": int(trace),
           "environment": environment(workload), "setup_times_s": setup_times,
           "score_rtol": workloads.SCORE_RTOL}
    if not trace:
        phase = measure(workload, plan, reference, seconds, workload.min_units)
        phases = [phase]
        values = end_to_end_metrics(phase, len(plan), setup_s)
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
        doc["reported_only"] = {k: {"value": values[k], "unit": unit}
                                for k, unit in REPORTED_ONLY.items()}
        doc["untraced"] = _phase_summary(phase)
    else:
        import tracing

        # An untraced stretch of at least a quarter of the time, then the
        # same calls again traced, so the overhead compares like with like.
        untraced = measure(workload, plan, reference, seconds / 4, workload.window_units)
        spill = workdir / "spill"
        spill.mkdir(parents=True, exist_ok=True)
        tracer = tracing.Tracer(spill)
        tracer.install()
        try:
            traced = measure(workload, plan, reference, 0.0, untraced.units, tracer)
        finally:
            tracer.uninstall()
        phases = [untraced, traced]
        values = layer_metrics(tracer, traced, untraced, workload.window_units, workload.jobs)
        metrics = {k: (v, PER_LAYER[k]) for k, v in values.items()}
        doc["untraced"] = _phase_summary(untraced)
        doc["traced"] = _phase_summary(traced)
        doc["spans"] = tracing.aggregate(tracer.spans)
        doc["counts"] = {f"{req}:{key}": v for (req, key), v in sorted(tracer.counts.items())}
        if results_dir is not None:
            results_dir.mkdir(parents=True, exist_ok=True)
            spans_path = results_dir / f"{workload.name}-seed{seed}-{os.getpid()}-spans.jsonl.gz"
            tracer.write_spans(spans_path)
            doc["spans_file"] = str(spans_path.relative_to(workloads.ROOT))
    operations = sum(p.operations for p in phases)
    departures = sum(p.departures for p in phases)
    doc["error_share"] = departures / operations
    doc["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    doc["result"] = {"correct": departures == 0, "attempted": operations,
                     "failed": departures, "metrics": doc["metrics"]}
    return doc


def report(doc: dict) -> None:
    """Human-readable lines ahead of the JSON line."""
    print(f"workload {doc['workload']}  seed {doc['seed']}  trace {doc['trace']}")
    for key, value in doc["environment"].items():
        print(f"  env {key}: {value}")
    phase = doc.get("untraced")
    print(f"  calls {phase['units']}, decisions {phase['decisions']}, "
          f"latency samples {phase['latency_samples']}")
    result = doc["result"]
    print(f"  error_share {doc['error_share']:.6g} "
          f"({result['failed']} of {result['attempted']} operations depart from the reference)")
    for note in (doc.get("untraced", {}).get("departure_notes", [])
                 + doc.get("traced", {}).get("departure_notes", []))[:10]:
        print(f"  departure: {note}")
    for name, entry in {**doc.get("reported_only", {}), **doc["metrics"]}.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory and BLAS state are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"workload {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads.import_kiim()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot import kiim from this checkout: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workload = workloads.make(args.workload)
    try:
        reference = workload.load_reference()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = RESULTS_DIR / f"work-{stamp}"
    try:
        doc = run(workload, args.seed, args.seconds, bool(args.trace), workdir, reference,
                  RESULTS_DIR / "results")
    finally:
        workloads.clean(workdir)
    (RESULTS_DIR / "results").mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "results" / f"{stamp}.json").write_text(json.dumps(doc, indent=2) + "\n")
    report(doc)
    print(json.dumps(doc["result"]))
    return 0 if doc["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
