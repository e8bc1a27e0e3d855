"""Check that the exact per-layer counts repeat across two traced runs.

    python3 perfbench/check_counts.py [--seed N] [--seconds S] [workload ...]

Runs ``run.py --trace 1`` twice per workload with the same seed and compares
the counts listed in ``run.EXACT_COUNTS``. They are taken over the fixed
window of the traced phase, so any difference means the program did
different work on the same inputs. Exits 1 when a count differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads


def traced_counts(name: str, seed: int, seconds: float) -> dict[str, float]:
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("run.py")),
                           "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", "1"], stdout=subprocess.PIPE, text=True, check=True)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {key: metrics[key]["value"] for key in run.EXACT_COUNTS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args(argv)
    same = True
    for name in args.workloads:
        first = traced_counts(name, args.seed, args.seconds)
        second = traced_counts(name, args.seed, args.seconds)
        for key in run.EXACT_COUNTS:
            verdict = "same" if first[key] == second[key] else "DIFFERENT"
            same &= first[key] == second[key]
            print(f"{name:12s} {key:48s} {first[key]!r:>22} {second[key]!r:>22} {verdict}")
    print("exact counts repeat" if same else "exact counts differ between runs")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
