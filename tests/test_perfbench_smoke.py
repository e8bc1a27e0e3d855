"""One short traced run of the benchmark's grid-pool workload on this tree.

The benchmark drives ``kiim.cli.main`` and wraps kiim's public functions by
name, so a kiim change can break it without failing any other test here.
Its own tests (``python3 -m pytest perfbench``) take far longer.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Decisions of one grid-pool call: 10 cells x 6 methods x 8 trials, sent as
#: one pool of 8 trial tasks when the run has more than one CPU.
CALL_DECISIONS, CALL_TASKS = 480, 8


def test_traced_grid_pool_run_is_correct_with_finite_metrics():
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "grid-pool",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert {name: value for name, value in values.items() if not math.isfinite(value)} == {}
    calls, rest = divmod(values["trace.window_decisions"], CALL_DECISIONS)
    assert calls >= 1 and rest == 0
    pooled = len(os.sched_getaffinity(0)) > 1
    assert values["bench.pools_opened"] == (calls if pooled else 0)
    assert values["bench.tasks"] == (calls * CALL_TASKS if pooled else 0)
