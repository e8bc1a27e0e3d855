"""Span tracing of kiim from outside the package.

``Tracer.install`` wraps every public function of the traced kiim modules in
every module that binds it (``gram`` is imported by name into ``scoring`` and
``baselines``, so all three bindings are replaced), plus a few counters:
LAPACK factorizations, dataset subsampling and process pools. Spans are kept
in memory and written when the run ends. A span's self time is its duration
minus the time its child spans cover.

Pool workers started while tracing is installed run an initializer that
resets (fork) or installs (spawn) the tracer in the worker; each worker writes
its spans to ``spill_dir`` when it exits, and the parent merges them.
"""

from __future__ import annotations

import collections
import concurrent.futures
import functools
import gzip
import inspect
import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path

import scipy.linalg

# Layers are kiim modules; ``theory`` is on no scoring path and is left out.
LAYERS = ("cli", "config", "pairs", "kernels", "embeddings", "scoring", "baselines",
          "synthdata", "bench", "tcep", "report")

# Floating-point operations per n^3 of the dense kernels of a KIIM score,
# computed from argument shapes (counters hold exact integer sums of n^3).
# Partial-pivot LU costs 2n^3/3 and Cholesky n^3/3; a Cholesky attempt that
# failed before the LU fallback is not counted. kiim_matrix covers its own
# work: one ridge solve with n right-hand sides and three n x n products; its
# factorization is a child span with its own count. sym_eig is the
# tridiagonal reduction of eigvalsh.
FLOPS_PER_N3 = {
    "embeddings.ridge_factorization.lu": 2.0 / 3.0,
    "embeddings.ridge_factorization.cholesky": 1.0 / 3.0,
    "scoring.kiim_matrix": 8.0,
    "scoring.sym_eig": 4.0 / 3.0,
}


def computed_flops(counts: dict, span: str) -> float:
    return sum(per_n3 * counts.get(f"n3.{key}", 0) for key, per_n3 in FLOPS_PER_N3.items()
               if key == span or key.startswith(span + "."))


def _n(matrix) -> int:
    values = getattr(matrix, "values", matrix)
    return int(values.shape[0])


class Tracer:
    """In-memory spans and counters of one process.

    A span is (id, parent id, request, name, start ns, end ns, self ns). The
    request is the index of the benchmark's command call that caused it.
    Counters are keyed by (request, name).
    """

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.request = 0
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._in_map = False
        self._lu_calls = 0

    def __getstate__(self):
        # Sent to spawned pool workers: they start empty and install afresh.
        return {"spill_dir": str(self.spill_dir)}

    def __setstate__(self, state):
        self.__init__(Path(state["spill_dir"]))

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def count(self, key: str, value: float = 1) -> None:
        self.counts[(self.request, key)] += value

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        tracer = self
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0]
            stack.append(frame)
            lu_before = tracer._lu_calls
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((sid, parent, tracer.request, name, start, end,
                              end - start - frame[1]))
            if after is not None:
                after(tracer, args, result, tracer._lu_calls > lu_before)
            return result

        traced.__perfbench_traced__ = True
        return traced

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap the kiim layers and hook the counters; idempotent."""
        if self.installed:
            return
        import kiim  # noqa: F401  (the layer modules must be loaded first)

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "kiim" or name.startswith("kiim."))]
        replacements = {}
        for layer in LAYERS:
            module = sys.modules.get(f"kiim.{layer}")
            if module is None:
                continue
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")
                        and not getattr(fn, "__perfbench_traced__", False)):
                    replacements[fn] = self._wrap(f"{layer}.{attr}", fn, _AFTER.get(attr))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacements:
                    self._patch(module, attr, replacements[value])
        self._install_counters(modules)

    def _install_counters(self, modules) -> None:
        pairs = sys.modules.get("kiim.pairs")
        dataset = getattr(pairs, "PairedDataset", None)
        if dataset is not None and hasattr(dataset, "subsampled"):
            self._patch(dataset, "subsampled",
                        self._wrap("pairs.PairedDataset.subsampled", dataset.subsampled,
                                   _after_subsampled))

        tracer = self
        for attr, key in (("cho_factor", "cholesky"), ("lu_factor", "lu")):
            original = getattr(scipy.linalg, attr)

            def factor(*args, _original=original, _key=key, **kwargs):
                result = _original(*args, **kwargs)  # a failed Cholesky raises: not counted
                if _key == "lu":
                    tracer._lu_calls += 1
                tracer.count(f"factor.{_key}")
                return result

            self._patch(scipy.linalg, attr, factor)
            for module in modules:
                if vars(module).get(attr) is original:
                    self._patch(module, attr, factor)

        pool = concurrent.futures.ProcessPoolExecutor
        init, submit, pool_map = pool.__init__, pool.submit, pool.map

        def traced_init(executor, max_workers=None, mp_context=None, initializer=None,
                        initargs=(), **kwargs):
            tracer.count("bench.pools_opened")
            init(executor, max_workers, mp_context, _worker_init,
                 (tracer, tracer.request, initializer, tuple(initargs)), **kwargs)

        def traced_submit(executor, fn, /, *args, **kwargs):
            if not tracer._in_map:
                tracer.count("bench.tasks")
            return submit(executor, fn, *args, **kwargs)

        def traced_map(executor, fn, *iterables, **kwargs):
            items = [list(it) for it in iterables]
            tracer.count("bench.tasks", min(map(len, items), default=0))
            tracer._in_map = True
            try:
                return pool_map(executor, fn, *items, **kwargs)
            finally:
                tracer._in_map = False

        self._patch(pool, "__init__", traced_init)
        self._patch(pool, "submit", traced_submit)
        self._patch(pool, "map", traced_map)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- workers ------------------------------------------------------------

    def _start_worker(self, request: int) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()
        self.request = request
        multiprocessing.util.Finalize(None, self._spill, exitpriority=10)

    def _spill(self) -> None:
        path = self.spill_dir / f"worker-{os.getpid()}-{time.time_ns()}.json"
        path.write_text(json.dumps({
            "pid": os.getpid(),
            "spans": self.spans,
            "counts": [[req, key, value] for (req, key), value in self.counts.items()],
        }))

    def collect_workers(self) -> None:
        """Merge the spans and counts that exited pool workers wrote."""
        for path in sorted(self.spill_dir.glob("worker-*.json")):
            data = json.loads(path.read_text())
            pid = data["pid"]
            # Worker span ids are local to the worker; tag them with its pid.
            self.spans.extend((f"{pid}:{s[0]}", None if s[1] is None else f"{pid}:{s[1]}",
                               *s[2:]) for s in data["spans"])
            for req, key, value in data["counts"]:
                self.counts[(req, key)] += value
            path.unlink()

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _worker_init(tracer: Tracer, request: int, initializer, initargs) -> None:
    """Pool-worker initializer injected while tracing: fresh spans per worker."""
    if not tracer.installed:
        tracer.install()
    tracer._start_worker(request)
    if initializer is not None:
        initializer(*initargs)


def _after_sym_eig(tracer, args, result, _lu) -> None:
    eigenvalues = getattr(result, "eigenvalues", None)
    if eigenvalues is not None:
        tracer.count("scoring.sym_eig.eigenvalues", int(eigenvalues.size))
    tracer.count("scoring.sym_eig.clamped", int(getattr(result, "clamped_count", 0)))
    tracer.count("n3.scoring.sym_eig", _n(args[0]) ** 3)


def _after_energy_rank(tracer, args, result, _lu) -> None:
    if getattr(result, "discarded_top", None) == 0:
        tracer.count("scoring.energy_rank_score.discard0")


def _after_kiim_matrix(tracer, args, result, _lu) -> None:
    tracer.count("n3.scoring.kiim_matrix", _n(args[0]) ** 3)


def _after_ridge(tracer, args, result, used_lu) -> None:
    kind = "lu" if used_lu else "cholesky"
    tracer.count(f"n3.embeddings.ridge_factorization.{kind}", _n(args[0]) ** 3)


def _after_subsampled(tracer, args, result, _lu) -> None:
    if result is not args[0]:
        tracer.count("tcep.subsampled_pairs")


_AFTER = {
    "sym_eig": _after_sym_eig,
    "energy_rank_score": _after_energy_rank,
    "kiim_matrix": _after_kiim_matrix,
    "ridge_factorization": _after_ridge,
}


def aggregate(spans, requests=None) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds, optionally only
    for spans of the given requests."""
    table: dict[str, dict[str, float]] = {}
    for _sid, _parent, request, name, start, end, self_ns in spans:
        if requests is not None and request not in requests:
            continue
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (end - start) * 1e-9
        row["self_s"] += self_ns * 1e-9
    return table
