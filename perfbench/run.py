"""lindsim benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is taken from the
checkout's ``src/``.  Every CLI run is a fresh ``python -m lindsim.cli``
process with a generated config, and its outputs are checked (checks.py).
The child environment has the BLAS and sweep-pool thread variables removed,
so the thread budget is the program's own decision.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s``: median wall time of the CLI processes, spawn to exit.  CLI
  runs repeat while the run, set-up probes included, stays within
  ``--seconds``; there is at least one.
* ``setup_s``: median over three fresh interpreters of the time to import
  lindsim, build the workload's generators and run ``generator_stats`` and
  ``exact_channel`` on them.
* ``peak_rss_mb``: median of the CLI processes' own max RSS.

``--trace 1`` runs the workload once untraced, once traced (spans.py) and
once single-threaded, and prints the per-layer metrics.  The single-threaded
wall time is printed as information only.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import Outcome, check_sweep, check_validate
from spans import dominant_layer, layer_metrics
from workloads import WORKLOADS, Sweep, input_set

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
REFERENCE = BENCH_DIR / "reference.json"

SCRUBBED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "LINDBLAD_RAND_THREADS")
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "LINDBLAD_RAND_THREADS": "1"}
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: str


def child_env(single_thread: bool = False) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    if single_thread:
        env.update(SINGLE_THREAD_ENV)
    return env


def metric_unit(name: str) -> str:
    if name.endswith((".self_s", ".s")) or name in ("wall_s", "setup_s"):
        return "s"
    if name.endswith(".ms_p50"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith((".calls", ".iterations", ".spans", ".missing_layers")):
        return "count"
    return "ratio"


class Runner:
    """Spawns the child processes of one benchmark run inside a deadline."""

    def __init__(self, workload, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.index = input_set(seed)
        self.deadline = deadline
        self.dir = WORK_DIR / f"{workload.name}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0
        self.spans_path = WORK_DIR / f"{workload.name}.spans.json"
        self.reference = None
        if isinstance(workload, Sweep):
            with open(REFERENCE, encoding="utf-8") as fh:
                entry = json.load(fh)[workload.name][str(self.index)]
            if entry["model"] != workload.model(self.index):
                raise BenchmarkError(f"reference.json holds {entry['model']!r}, "
                                     f"the workload runs {workload.model(self.index)!r}")
            self.reference = entry["eps"]

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def spawn(self, argv, env) -> Child:
        """Run one child to completion, or kill it at the deadline."""
        self.count += 1
        out_path = self.dir / f"stdout-{self.count}.txt"
        limit = max(1.0, self.deadline - time.monotonic())
        with open(out_path, "w", encoding="utf-8") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout)

    def probe(self, models):
        """One set-up probe in a fresh interpreter: its record, or its output on failure."""
        child = self.spawn([sys.executable, str(BENCH_DIR / "setup_probe.py"), json.dumps(models)],
                           child_env())
        try:
            record = json.loads(child.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            record = None
        if child.returncode != 0 or not isinstance(record, dict):
            return None, f"set-up probe failed (exit {child.returncode}): {child.stdout.strip()}"
        return record, None

    def environment(self) -> dict:
        """Probe with no models: checks that lindsim imports from this checkout."""
        record, problem = self.probe([])
        if problem:
            raise BenchmarkError(problem)
        expected = str(ROOT / "src" / "lindsim")
        if os.path.realpath(record["lindsim"]) != os.path.realpath(expected):
            raise BenchmarkError(f"imported lindsim from {record['lindsim']}, not {expected}")
        return record

    def cli(self, single_thread: bool = False, traced: bool = False):
        """One CLI run of the workload; returns the child and the checked outcome."""
        run_dir = self.dir / f"run-{self.count + 1}"
        run_dir.mkdir()
        w = self.workload
        if isinstance(w, Sweep):
            config = run_dir / "experiment.ini"
            config.write_text(w.config(self.index, str(run_dir / "out")), encoding="utf-8")
            args = ["sweep", str(config)]
        else:
            args = w.cli_args(self.index)
        if traced:
            self.spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH_DIR / "spans.py"), "--out", str(self.spans_path),
                    "--run-id", f"{w.name}-seed{self.seed}", "--", *args]
        else:
            argv = [sys.executable, "-m", "lindsim.cli", *args]
        child = self.spawn(argv, child_env(single_thread))
        if isinstance(w, Sweep):
            outcome = check_sweep(w.points(), child.returncode, str(run_dir / "out" / "sweep.csv"),
                                  self.reference, w.sampled)
        else:
            outcome = check_validate(w.checks, child.returncode, child.stdout)
        shutil.rmtree(run_dir, ignore_errors=True)
        return child, outcome


def timed_run(runner: Runner, seconds: float, outcome: Outcome, log) -> dict:
    """End-to-end metrics: set-up probes interleaved with CLI runs.

    Another CLI run starts while the run so far plus one more CLI run of
    mean length fits in ``seconds``; the set-up probes are counted in.
    """
    models = runner.workload.setup_models(runner.index)
    setups, runs = [], []
    probes = 0
    start = time.monotonic()
    while True:
        if probes < SETUP_PROBES:
            probes += 1
            outcome.attempted += 1
            record, problem = runner.probe(models)
            if problem:
                outcome.failed += 1
                outcome.problems.append(problem)
            else:
                setups.append(record["setup_s"])
        now = time.monotonic()
        more = not runs or now - start + statistics.mean(c.wall_s for c in runs) <= seconds
        if more and now < runner.deadline:
            child, checked = runner.cli()
            runs.append(child)
            outcome.add(checked)
        elif probes >= SETUP_PROBES:
            break
    if not setups:
        raise BenchmarkError("every set-up probe failed:\n" + "\n".join(outcome.problems))
    log(f"setup probes (s): {' '.join(f'{s:.4f}' for s in setups)}")
    log(f"CLI runs (s): {' '.join(f'{c.wall_s:.4f}' for c in runs)}")
    return {
        "wall_s": statistics.median(c.wall_s for c in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(c.rss_mb for c in runs),
    }


def traced_run(runner: Runner, outcome: Outcome, log) -> dict:
    """Per-layer metrics from one traced run, with its untraced and single-threaded twins."""
    untraced, checked = runner.cli()
    outcome.add(checked)
    traced, checked = runner.cli(traced=True)
    outcome.add(checked)
    single, checked = runner.cli(single_thread=True)
    outcome.add(checked)
    try:
        with open(runner.spans_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"no span dump from the traced run: {exc}\n{traced.stdout}") from None
    metrics = layer_metrics(doc)
    metrics["trace.overhead_frac"] = traced.wall_s / untraced.wall_s - 1.0
    for name in doc["missing"]:
        log(f"missing layer function: {name}")
    log(f"untraced wall_s {untraced.wall_s:.4f} s, traced {traced.wall_s:.4f} s")
    log(f"single-threaded wall_s {single.wall_s:.4f} s "
        f"({' '.join(f'{k}={v}' for k, v in SINGLE_THREAD_ENV.items())}; information only)")
    log(f"dominant layer by self time: {dominant_layer(metrics)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def log(line):
        print(line, flush=True)

    start = time.monotonic()
    workload = WORKLOADS[args.workload]
    outcome = Outcome()
    runner = None
    try:
        runner = Runner(workload, args.seed, start + RUN_LIMIT_S)
        env = runner.environment()
        log(f"workload {workload.name}, seed {args.seed} (input set {runner.index})")
        log(f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
            f"cpu_count {env['cpu_count']}, openblas_threads {env['openblas_threads']}")
        if args.trace:
            metrics = traced_run(runner, outcome, log)
        else:
            metrics = timed_run(runner, args.seconds, outcome, log)
    except (BenchmarkError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    finally:
        if runner is not None:
            runner.close()

    for problem in outcome.problems:
        log(f"check failed: {problem}")
    log(f"failed_frac {outcome.failed}/{outcome.attempted}")
    for name, value in metrics.items():
        log(f"{name} = {value:.6g} {metric_unit(name)}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": metric_unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
