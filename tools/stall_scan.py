"""Scan the diamond-norm solver for maps it fails to certify.

For each dimension d and each seed below its count, the scan builds the
random Hermiticity-preserving maps ``_random_hp_map(d, k, default_rng(seed))``
of ``tests/test_norms.py`` for every k in ``--terms``, and certifies all maps
of one d in one ``lindsim.norms.diamond_norm_solutions`` call, as a sweep
certifies its points.  Per d it prints the map count, every map that failed
(its seed, k and solver state), the iteration total over the certified maps
and the solve time; the last line is the same summary as one JSON object.
The exit code is 1 if any map failed to certify.

    python3 tools/stall_scan.py 2:4500 3:900
    python3 tools/stall_scan.py 2:1500 3:300 --terms 1 2 3 4

Each argument is ``d:seeds``; the seeds are 0 .. seeds - 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import lindsim  # noqa: E402,F401  (sets the one-thread BLAS default before numpy loads)
import numpy as np  # noqa: E402
from lindsim.norms import diamond_norm_solutions  # noqa: E402
from test_norms import _random_hp_map  # noqa: E402


def scan(d: int, seeds: int, terms) -> dict:
    """Certify every map of one d in one call; its failures, iterations and time."""
    labels = [(seed, k) for seed in range(seeds) for k in terms]
    maps = [_random_hp_map(d, k, np.random.default_rng(seed)) for seed, k in labels]
    start = time.perf_counter()
    solved = diamond_norm_solutions(maps)
    seconds = time.perf_counter() - start
    return {
        "d": d, "seeds": seeds, "terms": list(terms), "maps": len(maps),
        "failures": [f"seed={seed} k={k}: {sol}" for (seed, k), sol in zip(labels, solved)
                     if isinstance(sol, Exception)],
        "iterations": sum(sol.iterations for sol in solved if not isinstance(sol, Exception)),
        "solve_s": round(seconds, 3),
    }


def _dimension(arg: str):
    d, sep, seeds = arg.partition(":")
    if not sep or not d.isdigit() or not seeds.isdigit() or int(d) < 2 or int(seeds) < 1:
        raise argparse.ArgumentTypeError(f"expected d:seeds with d >= 2 and seeds >= 1, not {arg!r}")
    return int(d), int(seeds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("scans", nargs="+", type=_dimension, metavar="d:seeds")
    parser.add_argument("--terms", nargs="+", type=int, default=[1, 2, 3, 4],
                        help="the k of each seed's maps (default 1 2 3 4)")
    args = parser.parse_args(argv)
    results = []
    for d, seeds in args.scans:
        out = scan(d, seeds, args.terms)
        results.append(out)
        print(f"d={d}: {out['maps']} maps, {len(out['failures'])} failed, "
              f"{out['iterations']} iterations, {out['solve_s']:.2f} s")
        for line in out["failures"]:
            print(f"  FAIL {line}")
    print(json.dumps(results))
    return 1 if any(out["failures"] for out in results) else 0


if __name__ == "__main__":
    sys.exit(main())
