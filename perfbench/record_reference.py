"""Record the exact-mode reference that the sweep checks compare against.

For every sweep workload and every input set, runs the exact-mode twin of
the workload's config through the CLI (single-threaded, which is faster and
gives the same values to far below the check tolerance) and stores each
point's ``epsilon_empirical`` in reference.json.  The sampled workload's
points are checked against these exact-mixture values.

    python3 perfbench/record_reference.py

Re-record only when a workload's inputs change, never to make a check pass.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, ROOT, child_env
from workloads import INPUT_SETS, WORKLOADS, Sweep


def record(workload: Sweep, index: int, scratch: Path) -> dict:
    out = scratch / f"{workload.name}-{index}"
    config = scratch / f"{workload.name}-{index}.ini"
    config.write_text(workload.config(index, str(out), sampled=False), encoding="utf-8")
    subprocess.run([sys.executable, "-m", "lindsim.cli", "sweep", str(config)],
                   env=child_env(single_thread=True), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if any(row["status"] != "ok" for row in rows):
        raise RuntimeError(f"{workload.name} input set {index}: a point failed")
    return {"model": workload.model(index),
            "eps": {f"{r['method']}/{r['n']}": float(r["epsilon_empirical"]) for r in rows}}


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in WORKLOADS.values():
            if not isinstance(workload, Sweep):
                continue
            reference[workload.name] = {}
            for index in range(INPUT_SETS):
                reference[workload.name][str(index)] = record(workload, index, Path(tmp))
                print(f"{workload.name} input set {index}: {workload.model(index)}", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
