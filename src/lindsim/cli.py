"""Command-line interface.

Subcommands: simulate, sweep, validate, table1, gatecount.  Exit codes:
0 success, 1 a validation check failed or the diamond-norm solver did not
converge, 2 bad input.  A sweep or simulate that records failed points
exits 1 if the solver failed on one of them, else 2: the others could not be
built from the input.  Either prints one error line that names a failed
point; simulate then prints nothing else.

Each handler imports the modules its subcommand uses, so a sweep does not
load the validation suites or the forking layer.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .formulas import Implementation, Method, gate_count
from .sdp import SdpConvergenceError

_SOLVER_ERRORS = (SdpConvergenceError,)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindsim",
        description="Simulate Markovian open-system dynamics with deterministic and "
                    "randomised product formulas and certify the errors in diamond norm.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="single run: final state and distances per method")
    p.add_argument("config", help="experiment config file")

    p = sub.add_parser("sweep", help="run the N/epsilon sweep and write CSV + plot data")
    p.add_argument("config", help="experiment config file")

    p = sub.add_parser("validate", help="run the property suite")
    p.add_argument("suite", nargs="?", default="all",
                   help="all, norms, cptp, identities, bounds, forking or sampling")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None, help="also write the report as CSV")

    p = sub.add_parser("table1", help="gate-complexity comparison for given bound scalars")
    p.add_argument("--m", type=int, required=True, help="number of generator terms")
    p.add_argument("--t", type=float, required=True, help="simulation time")
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="max diamond norm of rate-scaled terms")
    p.add_argument("--gamma", type=float, required=True, help="total decay rate")
    p.add_argument("--omega", type=float, required=True,
                   help="max diamond norm of rate-free terms")
    p.add_argument("--eps", type=float, required=True, help="target precision")
    p.add_argument("--conservative-bounds", action="store_true",
                   help="use the larger second-order randomised constant")

    p = sub.add_parser("gatecount", help="simple-channel count of one schedule")
    p.add_argument("--method", required=True, choices=[m.value for m in Method])
    p.add_argument("--impl", required=True, choices=[i.value for i in Implementation])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    return parser


def _fmt_state(rho: np.ndarray) -> str:
    rows = []
    for row in rho:
        rows.append("  [" + "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row) + "]")
    return "\n".join(rows)


def _exit_status(records) -> int:
    """0 if every point is ok.  Else one error line that names a failed point
    (one the solver failed on, if any) and counts them, then 1 if the solver
    failed on a point, else 2."""
    failures = [r for r in records if r.status != "ok"]
    if not failures:
        return 0
    unsolved = [r for r in failures if isinstance(r.error, _SOLVER_ERRORS)]
    first = (unsolved or failures)[0].status.removeprefix("error: ")
    print(f"error: {'solver failed: ' if unsolved else ''}{first} "
          f"({len(failures)} of {len(records)} points failed)", file=sys.stderr)
    return 1 if unsolved else 2


def _cmd_simulate(args) -> int:
    from .harness import initial_state, load_experiment, resolve_model, run_sweep
    from .lindblad import exact_channel
    from .linalg import devectorize, vectorize

    spec = load_experiment(args.config)
    # the sweep's points at the first grid value, printed once all certify
    records = run_sweep(dataclasses.replace(spec, n_grid=spec.n_grid[:1],
                                            epsilon_grid=spec.epsilon_grid[:1]))
    if all(r.status == "ok" for r in records):
        gen = resolve_model(spec)
        rho0 = initial_state(spec, gen.dim).matrix
        lines = [f"model: {spec.model}   t={spec.t}   M={gen.m_total}", "exact state rho(t):",
                 _fmt_state(devectorize(exact_channel(gen, spec.t) @ vectorize(rho0)))]
        for r in records:
            sampled = ("" if r.stat_err is None
                       else f" sampled R={spec.trajectories} stat_err={r.stat_err:.3e}")
            lines.append(f"{r.method.value:<8} N={r.n:<6} trace_dist={r.trace_dist:.3e} "
                         f"bound/2={r.epsilon_bound / 2:.3e}{sampled} "
                         f"[{'cptp' if r.cptp else 'NOT CPTP'}]")
        print("\n".join(lines))
    return _exit_status(records)


def _cmd_sweep(args) -> int:
    from .harness import fit_order, load_experiment, run_sweep, write_sweep

    spec = load_experiment(args.config)
    records = run_sweep(spec)
    write_sweep(spec, records)
    for r in records:
        extra = f" stat_err={r.stat_err:.3e}" if r.stat_err is not None else ""
        print(f"{r.method.value:<8} N={r.n:<6} eps={r.epsilon_empirical:.3e} "
              f"bound={r.epsilon_bound:.3e} gates_cs={r.gates_cs}{extra} [{r.status}]")
    for method, slope in fit_order(records).items():
        print(f"order {method.value}: slope {slope:+.3f}")
    print(f"wrote {spec.outputs}/sweep.csv")
    return _exit_status(records)


def _cmd_validate(args) -> int:
    from .validation import validate_all

    report = validate_all(seed=args.seed, suite=args.suite)
    print(report.table())
    if args.csv:
        report.write_csv(args.csv)
        print(f"wrote {args.csv}")
    return 0 if report.passed else 1


def _cmd_table1(args) -> int:
    from .harness import table1_report

    print(table1_report(m=args.m, t=args.t, lam=args.lam, gamma=args.gamma,
                        omega=args.omega, eps=args.eps,
                        conservative=args.conservative_bounds))
    return 0


def _cmd_gatecount(args) -> int:
    count = gate_count(Method(args.method), args.m, args.n, Implementation(args.impl))
    print(count)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
    "table1": _cmd_table1,
    "gatecount": _cmd_gatecount,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _SOLVER_ERRORS as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # ConfigError and GeneratorFormatError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # a bound formula overflowed on the numbers given
        print(f"error: input out of range ({exc.args[-1]})", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy refused an allocation the model needs
        print(f"error: input too large ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
