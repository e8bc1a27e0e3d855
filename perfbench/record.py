"""Record the reference outcomes the benchmark checks every run against.

    python3 perfbench/record.py [workload ...]

Scores each workload's whole input universe with the kiim in ``src/`` of this
checkout and writes ``perfbench/reference/<workload>.json``. Record only on a
commit whose outputs are the intended behaviour; a later run that departs
from the file counts the departures as failed operations.
"""

from __future__ import annotations

import json
import os
import sys

import workloads


def record(workload, path=None, workdir=None) -> None:
    workloads.import_kiim()
    workdir = workdir or workloads.ROOT / ".perfbench" / f"record-{workload.name}-{os.getpid()}"
    try:
        outcomes = workload.record(workdir)
    finally:
        workloads.clean(workdir)
    path = path or workload.reference_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"workload": workload.name, "params": workload.params(),
                                "outcomes": outcomes}, indent=1, sort_keys=True) + "\n")


def main(argv) -> int:
    names = argv or list(workloads.WORKLOADS)
    for name in names:
        record(workloads.make(name))
        print(f"recorded {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
