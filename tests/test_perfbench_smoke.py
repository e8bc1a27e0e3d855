"""One short traced run of the benchmark's grid-pool workload on this tree.

The benchmark drives ``kiim.cli.main`` and wraps kiim's public functions by
name, so a kiim change can break it without failing any other test here.
Its own tests (``python3 -m pytest perfbench``) take far longer.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
    assert {name: metric["value"] for name, metric in result["metrics"].items()
            if not math.isfinite(metric["value"])} == {}
