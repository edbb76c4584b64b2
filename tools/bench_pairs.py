"""Compare two checkouts on one benchmark workload, in alternating pairs of runs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W --pairs N --seconds S

Pair i runs ``python3 perfbench/run.py --workload W --seed i --seconds S
--trace 0`` once in each checkout, one child process at a time, under
``PYTHONDONTWRITEBYTECODE=1``; even pairs run the parent first, odd pairs the
change.  Before each run the checkout's ``src/**/__pycache__`` is deleted:
bytecode left there by an earlier test run lowers the child's peak RSS, and a
fresh checkout has none.

For each end-to-end metric of ``BENCHMARK.json`` it prints both medians, the
parent's interquartile range and the pairs the change won (a tie counts for
neither side); then every run that was not ``correct``.  The last line is the
same summary, with every run's metrics, as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def end_to_end_metrics() -> list:
    """(name, better) of each end-to-end metric the benchmark gates on."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [(m["name"], m["better"]) for m in json.load(fh)["end_to_end"]]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in a checkout cleared of bytecode: its seed, verdict and metrics."""
    for cache in (checkout / "src").rglob("__pycache__"):
        shutil.rmtree(cache)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"seed": seed, "correct": False, "metrics": {},
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"}
    return {"seed": seed, "correct": bool(doc["correct"]),
            "metrics": {name: m["value"] for name, m in doc["metrics"].items()}}


def summarize(metrics, parent: list, change: list) -> dict:
    """Per metric: both medians, the parent's quartiles and IQR, and the pairs the
    change won, over the pairs where both runs report it; then the runs not correct."""
    rows = {}
    for name, better in metrics:
        pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in zip(parent, change)
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        before, after = zip(*pairs)
        q1, _, q3 = (statistics.quantiles(before, n=4, method="inclusive") if len(before) > 1
                     else (before[0],) * 3)
        wins = sum(a < b if better == "lower" else a > b for b, a in pairs)
        rows[name] = {"parent_median": statistics.median(before), "change_median": statistics.median(after),
                      "parent_q1": q1, "parent_q3": q3, "parent_iqr": q3 - q1,
                      "change_wins": wins, "pairs": len(pairs)}
    not_correct = [{"side": side, **run} for side, runs in (("parent", parent), ("change", change))
                   for run in runs if not run["correct"]]
    return {"metrics": rows, "not_correct": not_correct}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(getattr(args, side).resolve(), args.workload, i, args.seconds)
            runs[side].append(run)
            print(f"pair {i} {side}: " + " ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items())
                  + ("" if run["correct"] else " NOT CORRECT"), flush=True)
    summary = summarize(end_to_end_metrics(), runs["parent"], runs["change"])
    for name, row in summary["metrics"].items():
        print(f"{name}: parent {row['parent_median']:.6g} (IQR {row['parent_iqr']:.3g}), "
              f"change {row['change_median']:.6g}; change won {row['change_wins']}/{row['pairs']} pairs")
    for run in summary["not_correct"]:
        print(f"not correct: {run['side']} seed {run['seed']} {run.get('error', '')}".rstrip())
    print(json.dumps({"workload": args.workload, "seconds": args.seconds, **summary, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
