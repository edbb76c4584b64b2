"""Soak the batched diamond-norm solver against the HKM reference and the bracket.

For every d and seed it builds a random generator and certifies three kinds
of Hermiticity-preserving maps: every term superoperator with its rate,
every term without it, and differences between the exact channel and the
forward first-order product formula at two step lengths.  All maps of one d
go through ``lindsim.norms.diamond_norm_solutions`` in one call (lockstep
batches of ``lindsim.sdp.batch_size(d)``); each map is then solved alone by
the generic HKM solver kept in ``tests/sdp_reference.py``, and each
certified value is checked against ``lindsim.norms.diamond_bracket``.  The
results (failures, bracket violations, largest value difference, largest
gap, iteration totals, per-solve times, and the worst (value - lower) / value
and upper / value of the brackets) are printed and, with ``--bench``, stored
per d under the key ``soak`` of that JSON file.  The exit code is 1 if any
map failed to certify or lay outside its bracket.

    python3 tools/diamond_soak.py --dims 2 3 4 5 --seeds 0 1 2 \
        --bench BENCH_diamond_batch.json

Reference solves at d = 5 take about a minute each; pass fewer ``--seeds``
or a smaller ``--terms`` for a shorter d = 5 soak.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import lindsim  # noqa: E402  (sets the one-thread BLAS default before numpy loads)
from lindsim.formulas import Direction, s1_dir  # noqa: E402
from lindsim.lindblad import exact_channel, term_superop  # noqa: E402
from lindsim.models import builtin_model  # noqa: E402
from lindsim.norms import diamond_bracket, diamond_norm_solutions  # noqa: E402
from lindsim.sdp import SdpConvergenceError, batch_size  # noqa: E402
from lindsim.tolerances import TOL  # noqa: E402
from sdp_reference import reference_diamond_norm  # noqa: E402


def soak_maps(d: int, seed: int, terms: int) -> list:
    """(label, superoperator) pairs for one random generator."""
    gen = builtin_model("random", dict(d=d, m=terms, seed=seed))
    maps = []
    for k in range(1, gen.m_total + 1):
        maps.append((f"d={d} seed={seed} term {k} with rate", term_superop(gen, k, with_rate=True)))
        maps.append((f"d={d} seed={seed} term {k} bare", term_superop(gen, k, with_rate=False)))
    for t in (0.1, 1.0):
        maps.append((f"d={d} seed={seed} exact - s1_dir at t={t}",
                     exact_channel(gen, t) - s1_dir(gen, t, Direction.FORWARD)))
    return maps


def bracket_check(maps, solved) -> dict:
    """Each certified map of (label, superoperator) ``maps`` against its
    ``diamond_bracket``: the maps outside it (lower > value + gap or
    value - gap > upper, beyond 1e-9), the worst (value - lower) / value, the
    worst upper / value, and the median time of one bracket."""
    violations, shortfalls, ratios, times = [], [], [], []
    for (label, s), sol in zip(maps, solved):
        if isinstance(sol, Exception):
            continue
        start = time.perf_counter()
        lower, upper = diamond_bracket(s)
        times.append(1000 * (time.perf_counter() - start))
        if lower > sol.value + sol.gap + 1e-9 or sol.value - sol.gap > upper + 1e-9:
            violations.append(f"{label}: lower={lower!r} value={sol.value!r} gap={sol.gap!r} "
                              f"upper={upper!r}")
        if sol.value > 0:
            shortfalls.append((sol.value - lower) / sol.value)
            ratios.append(upper / sol.value)
    return {"bracket_violations": violations,
            "bracket_worst_lower_shortfall": max(shortfalls, default=None),
            "bracket_worst_upper_ratio": max(ratios, default=None),
            "bracket_ms_per_map_median": round(statistics.median(times), 2) if times else None}


def soak_dimension(d: int, seeds, terms: int) -> dict:
    maps = [m for seed in seeds for m in soak_maps(d, seed, terms)]
    start = time.perf_counter()
    solved = diamond_norm_solutions([s for _, s in maps])
    batched_s = time.perf_counter() - start
    out = {
        "maps": len(maps),
        "batch_size": batch_size(d),
        "batched_solve_s": round(batched_s, 4),
        "batched_ms_per_map": round(1000 * batched_s / len(maps), 2),
        "failures": [f"{label}: {sol}" for (label, _), sol in zip(maps, solved)
                     if isinstance(sol, Exception)],
    }
    ok = [(label, s, sol) for (label, s), sol in zip(maps, solved) if not isinstance(sol, Exception)]
    out["max_gap"] = max((sol.gap for _, _, sol in ok), default=None)
    out["gap_within_tol"] = all(sol.gap <= TOL.sdp_gap_tol for _, _, sol in ok)
    out["iterations"] = sum(sol.iterations for _, _, sol in ok)
    out.update(bracket_check(maps, solved))
    diffs, ref_ms, ref_iters, ref_failures = [], [], 0, []
    for label, s, sol in ok:
        start = time.perf_counter()
        try:
            ref = reference_diamond_norm(s)
        except SdpConvergenceError as exc:
            ref_failures.append(f"{label}: {exc}")
            continue
        ref_ms.append(1000 * (time.perf_counter() - start))
        ref_iters += ref.iterations
        diffs.append(abs(sol.value - ref.value))
    out["reference_failures"] = ref_failures
    out["reference_iterations"] = ref_iters
    out["reference_ms_per_map_median"] = round(statistics.median(ref_ms), 2) if ref_ms else None
    out["max_abs_diff_vs_reference"] = max(diffs, default=None)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4, 5])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--terms", type=int, default=3, help="random model m (terms incl. H)")
    parser.add_argument("--bench", default=None, help="JSON file to store the results in")
    args = parser.parse_args(argv)

    command = "python3 tools/diamond_soak.py " + " ".join(
        sys.argv[1:] if argv is None else argv)
    results = {}
    for d in args.dims:
        res = soak_dimension(d, args.seeds, args.terms)
        print(json.dumps({f"d={d}": res}), flush=True)
        results[f"d={d}"] = {"command": command, "seeds": args.seeds, "terms": args.terms,
                             **res}
    if args.bench:
        path = Path(args.bench)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc.setdefault("soak", {}).update(results)
        path.write_text(json.dumps(doc, indent=1) + "\n")
    failed = sum(len(r["failures"]) + len(r["bracket_violations"]) for r in results.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
