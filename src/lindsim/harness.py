"""Experiment harness: configs, sweeps and report generation.

The harness consumes experiment configs (INI-style, one ``[experiment]``
section), runs method-by-method N sweeps against the exact evolution, checks
every error bound, fits convergence orders and writes CSV / gnuplot-ready
output.  The property suite behind ``lindsim validate`` is in ``validation``.
"""

from __future__ import annotations

import configparser
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .formulas import GATE_COMPLEXITY, METHODS, Implementation, Method, error_bound, gate_count, step_count
from .lindblad import GkslGenerator, exact_channel, is_cptp, load_generator
from .linalg import DensityMatrix, devectorize, trace_distance, vectorize
from .models import builtin_model
from .norms import GeneratorStats, diamond_norm_solutions, generator_stats, term_maps, term_stats
from .sampling import trajectory_sum
from .tolerances import TOL

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "SweepRecord",
    "batch_standard_error",
    "fit_order",
    "initial_state",
    "load_experiment",
    "log_slope",
    "point_steps",
    "resolve_model",
    "run_sweep",
    "sweep_point_channel",
    "table1_report",
    "trajectory_batches",
    "write_sweep",
]

CSV_COLUMNS = [
    "method", "n", "epsilon_bound", "epsilon_empirical", "trace_dist",
    "gates_cs", "gates_qf", "status", "wall_time_ms",
]

STAT_BATCHES = 8  # contiguous trajectory batches behind a sampled point's stat_err


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass(frozen=True)
class ExperimentSpec:
    model: str
    methods: tuple
    t: float
    n_grid: tuple = ()
    epsilon_grid: tuple = ()
    trajectories: int = 1024
    seed: int = 0
    outputs: str = "./out"
    initial_state: str = "ground"
    sampled: bool = False
    conservative: bool = False

    @property
    def grid(self) -> tuple:
        return self.n_grid or self.epsilon_grid

    def __post_init__(self):
        if bool(self.n_grid) == bool(self.epsilon_grid):
            raise ConfigError("exactly one of n_grid / epsilon_grid must be given")
        grid, key = self.grid, ("n_grid" if self.n_grid else "epsilon_grid")
        if not all(0 < g < math.inf for g in grid):  # NaN fails both comparisons
            raise ConfigError(f"{key} values must be positive and finite")
        increasing = all(a < b for a, b in zip(grid, grid[1:]))
        decreasing = all(a > b for a, b in zip(grid, grid[1:]))
        if not (increasing or decreasing):
            raise ConfigError("grid values must be strictly monotone")
        if min(self.epsilon_grid, default=1.0) < np.finfo(float).eps:
            raise ConfigError(f"epsilon_grid values below machine epsilon are out of reach: {min(grid):.3e}")
        if not 0 < self.t < math.inf:
            raise ConfigError("t must be positive and finite")
        if self.trajectories < 1:
            raise ConfigError("trajectories must be positive")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), not {self.seed}")
        if self.initial_state not in ("ground", "mixed"):
            raise ConfigError(f"unknown initial_state '{self.initial_state}'")
        if not self.methods:
            raise ConfigError("at least one method is required")


@dataclass
class SweepRecord:
    method: Method
    n: int
    epsilon_bound: float
    epsilon_empirical: float
    trace_dist: float
    gates_cs: int
    gates_qf: int | None
    status: str
    wall_time_ms: int
    stat_err: float | None = None
    cptp: bool | None = None  # whether the total channel is CPTP; not written to the CSV
    error: Exception | None = None  # why a point failed; not written to the CSV


def _parse_model_field(value: str):
    tokens = value.split()
    if not tokens:
        raise ConfigError("model field is empty")
    if tokens[0] == "file":
        if len(tokens) != 2:
            raise ConfigError("model file form is: model = file <path>")
        return ("file", tokens[1], {})
    params = {}
    for tok in tokens[1:]:
        key, sep, raw = tok.partition("=")
        if not sep:
            raise ConfigError(f"model parameter '{tok}' is not key=value")
        try:
            params[key] = int(raw)
        except ValueError:
            try:
                params[key] = float(raw)
            except ValueError:
                raise ConfigError(f"model parameter '{tok}' is not numeric") from None
    return ("builtin", tokens[0], params)


def resolve_model(spec: ExperimentSpec) -> GkslGenerator:
    kind, name, params = _parse_model_field(spec.model)
    if kind == "file":
        return load_generator(name)
    return builtin_model(name, params)


def load_experiment(path) -> ExperimentSpec:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "experiment" not in parser:
        raise ConfigError("config must contain an [experiment] section")
    sec = parser["experiment"]

    def req(key):
        if key not in sec:
            raise ConfigError(f"missing mandatory key '{key}'")
        return sec[key]

    methods = []
    for name in req("methods").split():
        try:
            methods.append(Method(name))
        except ValueError:
            known = ", ".join(m.value for m in Method)
            raise ConfigError(f"unknown method '{name}' (known: {known})") from None

    def grid(key, conv):
        if key not in sec:
            return ()
        return tuple(conv(x) for x in sec[key].split())

    try:
        return ExperimentSpec(
            model=req("model"),
            methods=tuple(methods),
            t=float(req("t")),
            n_grid=grid("n_grid", int),
            epsilon_grid=grid("epsilon_grid", float),
            trajectories=sec.getint("trajectories", fallback=1024),
            seed=int(req("seed")),
            outputs=sec.get("outputs", fallback="./out"),
            initial_state=sec.get("initial_state", fallback="ground"),
            sampled=sec.getboolean("sampled", fallback=False),
            conservative=sec.getboolean("conservative_bounds", fallback=False),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def initial_state(spec: ExperimentSpec, dim: int) -> DensityMatrix:
    if spec.initial_state == "ground":
        return DensityMatrix.ground(dim)
    return DensityMatrix.maximally_mixed(dim)


def point_steps(spec: ExperimentSpec, stats: GeneratorStats, method: Method, value) -> int:
    """N of a method's sweep point at one grid value: the value itself on an
    n grid, the step count for that precision on an epsilon grid.

    An epsilon below N * 2**-53 is refused: rounding in N steps alone is
    about N unit roundoffs, so no N-step product can reach it.
    """
    if spec.n_grid:
        return int(value)
    n = step_count(method, stats, spec.t, value, conservative=spec.conservative).n_steps
    if n * 2.0**-53 > value:
        raise ConfigError(f"{method.value}: epsilon {value:.3e} needs N={n} steps, whose rounding "
                          f"alone is about N * 2**-53 = {n * 2.0**-53:.3e}")
    return n


def trajectory_batches(count: int) -> list:
    """Split trajectories 0..count-1 into contiguous batches whose sizes differ by at most 1."""
    q, rem = divmod(count, STAT_BATCHES)
    bounds = [b * q + min(b, rem) for b in range(STAT_BATCHES + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def batch_standard_error(eps_batches) -> float:
    """A sampled point's stat_err: the standard error of its batch means' errors."""
    if len(eps_batches) < 2:
        return 0.0
    return float(np.std(eps_batches, ddof=1) / math.sqrt(len(eps_batches)))


def sweep_point_channel(spec: ExperimentSpec, gen: GkslGenerator, method: Method, n: int,
                        t_exact: np.ndarray):
    """Total channel of one sweep point, and its batch-mean error maps (None
    unless sampled).

    In sampled mode the channel is the mean over ``spec.trajectories``
    schedules, and the maps are ``t_exact`` minus the mean of each contiguous
    trajectory batch; the caller certifies them and passes their diamond
    norms to ``batch_standard_error``.  Otherwise the channel is the exact
    mixture power.
    """
    if spec.sampled and METHODS[method].randomised:
        batches = trajectory_batches(spec.trajectories)
        sums = [trajectory_sum(method, gen, spec.t, n, spec.seed, b) for b in batches]
        return sum(sums) / spec.trajectories, [t_exact - s / len(b) for s, b in zip(sums, batches)]
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.linalg.matrix_power(METHODS[method].step_channel(gen, spec.t, n), n)
    if not np.isfinite(total).all():
        raise OverflowError(f"the channel of {n} steps is not finite")
    return total, None


def _error_record(method: Method, n: int, exc: Exception) -> SweepRecord:
    return SweepRecord(method=method, n=n, epsilon_bound=float("nan"),
                       epsilon_empirical=float("nan"), trace_dist=float("nan"), gates_cs=0,
                       gates_qf=None, status=f"error: {method.value} N={n}: {exc}", wall_time_ms=0,
                       error=exc)


def run_sweep(spec: ExperimentSpec) -> list:
    """Run every method over the grid and return its records; ``write_sweep``
    writes them out.

    The channels of all points come first; then the errors of all points,
    and of every sampled point's batch means, are certified in one call,
    behind the generator's ``term_maps`` on an n grid: the bounds read the
    statistics of that call.  An epsilon grid takes its step counts from the
    bounds, so its statistics are certified first, by ``generator_stats``.
    A term that does not certify raises; a point whose maps do not all
    certify, or whose bound overflows, becomes an error record.  A point's
    ``wall_time_ms`` is its own channel time plus its maps' share of that
    call's solve time.
    """
    gen = resolve_model(spec)
    stats = generator_stats(gen) if spec.epsilon_grid else None
    t_exact = exact_channel(gen, spec.t)
    rho0 = initial_state(spec, gen.dim)
    rho_t = devectorize(t_exact @ vectorize(rho0.matrix))
    points = [(method, point_steps(spec, stats, method, value))
              for method in spec.methods for value in spec.grid]

    records, seconds, point_maps = [], [], []  # point_maps: (record index, maps)
    for method, n in points:
        start = time.perf_counter()
        try:
            total, batch_errors = sweep_point_channel(spec, gen, method, n, t_exact)
            rho_approx = devectorize(total @ vectorize(rho0.matrix))
            record = SweepRecord(
                method=method, n=n, epsilon_bound=float("nan"), epsilon_empirical=float("nan"),
                trace_dist=trace_distance(rho_t, rho_approx),
                gates_cs=gate_count(method, gen.m_total, n, Implementation.CS),
                gates_qf=(gate_count(method, gen.m_total, n, Implementation.QF)
                          if METHODS[method].gates_qf else None),
                status="ok", wall_time_ms=0, cptp=bool(is_cptp(total)))
            point_maps.append((len(records), [t_exact - total, *(batch_errors or ())]))
        except Exception as exc:  # recorded, run continues
            record = _error_record(method, n, exc)
        records.append(record)
        seconds.append(time.perf_counter() - start)

    maps = ([] if stats else term_maps(gen)) + [m for _, point in point_maps for m in point]
    start = time.perf_counter()
    solved = iter(diamond_norm_solutions(maps))
    stats = stats or term_stats(gen, solved)
    share = (time.perf_counter() - start) / max(1, len(maps))
    for i, point in point_maps:
        sols = [next(solved) for _ in point]
        seconds[i] += share * len(point)
        failed = [sol for sol in sols if isinstance(sol, Exception)]
        try:
            records[i].epsilon_bound = error_bound(records[i].method, stats, spec.t, records[i].n,
                                                   conservative=spec.conservative)
        except OverflowError as exc:  # bad input, named before any solver failure
            failed.insert(0, exc)
        if failed:
            records[i] = _error_record(records[i].method, records[i].n, failed[0])
        else:
            records[i].epsilon_empirical = sols[0].value
            if len(sols) > 1:  # a sampled point's batch means follow its own error
                records[i].stat_err = batch_standard_error([sol.value for sol in sols[1:]])
    for record, sec in zip(records, seconds):
        record.wall_time_ms = int(round(1000 * sec))
    return records


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return "nan" if math.isnan(x) else f"{x:.12g}"
    return str(x)


def write_sweep(spec: ExperimentSpec, records) -> None:
    """Write a sweep's records into ``spec.outputs``: ``sweep.csv`` (with a
    ``stat_err`` column in sampled mode), one gnuplot data file
    ``sweep_<method>.dat`` per method with ok points, and ``sweep.gp``."""
    outdir = spec.outputs
    os.makedirs(outdir, exist_ok=True)
    columns = CSV_COLUMNS + (["stat_err"] if spec.sampled else [])
    with open(os.path.join(outdir, "sweep.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for r in records:
            row = [r.method.value, str(r.n), _fmt(r.epsilon_bound),
                   _fmt(r.epsilon_empirical), _fmt(r.trace_dist), _fmt(r.gates_cs),
                   _fmt(r.gates_qf), r.status.replace(",", ";"), str(r.wall_time_ms)]
            if spec.sampled:
                row.append(_fmt(r.stat_err))
            fh.write(",".join(row) + "\n")
    plotted = []
    for method in Method:
        rows = [r for r in records if r.method == method and r.status == "ok"]
        if not rows:
            continue
        name = f"sweep_{method.value}.dat"
        with open(os.path.join(outdir, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("# n  epsilon_bound  epsilon_empirical\n")
            for r in sorted(rows, key=lambda r: r.n):
                fh.write(f"{r.n} {_fmt(r.epsilon_bound)} {_fmt(r.epsilon_empirical)}\n")
        plotted.append((method.value, name))
    with open(os.path.join(outdir, "sweep.gp"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("set logscale xy\nset xlabel 'steps N'\nset ylabel 'diamond-norm error'\n")
        parts = [f"'{name}' using 1:3 with linespoints title '{label}'"
                 for label, name in plotted]
        parts += [f"'{name}' using 1:2 with lines dashtype 2 notitle"
                  for _, name in plotted]
        fh.write("plot " + ", \\\n     ".join(parts) + "\n")


def log_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    # closed form: numpy's least-squares fit (LAPACK gelsd), on its first call
    # in a process, added 0.5 MB to a sweep's peak RSS, after its solves
    x, y = np.log(xs), np.log(ys)
    x = x - x.mean()
    return float(x @ (y - y.mean()) / (x @ x))


def fit_order(records) -> dict:
    """Slope of log(error) against log(N) for each method with at least three
    ok points whose error is above ``TOL.sdp_gap_tol``, keyed in the order the
    methods first appear; every other method is left out.

    An error at or below ``TOL.sdp_gap_tol``, the largest gap an accepted
    certificate may have, is rounding, not convergence.
    """
    points = {r.method: [] for r in records}
    for r in records:
        if r.status == "ok" and r.epsilon_empirical > TOL.sdp_gap_tol:
            points[r.method].append((r.n, r.epsilon_empirical))
    return {method: log_slope(*zip(*sorted(pts))) for method, pts in points.items() if len(pts) >= 3}


# ---------------------------------------------------------------------------
# Gate-complexity report
# ---------------------------------------------------------------------------

def table1_report(m: int, t: float, lam: float, gamma: float, omega: float,
                  eps: float, conservative: bool = False) -> str:
    """Gate-complexity comparison for user-supplied bound scalars: every
    method by classical sampling, then the randomised ones by forking."""
    stats = GeneratorStats(max_scaled_norm=lam, max_bare_norm=omega,
                           total_rate=gamma, term_count=m)
    header = f"{'method':<30} {'complexity':<28} {'N':>8} {'gates':>10}"
    lines = [header, "-" * len(header)]
    rows = [(r.label + (" (CS)" if r.randomised else ""), k, Implementation.CS)
            for k, r in METHODS.items()]
    rows += [(f"{r.label} (QF)", k, Implementation.QF) for k, r in METHODS.items() if r.randomised]
    for label, method, impl in rows:
        if (method, impl) not in GATE_COMPLEXITY:
            lines.append(f"{label:<30} {'infeasible (M!)':<28} {'-':>8} {'-':>10}")
            continue
        complexity = GATE_COMPLEXITY[(method, impl)]
        n = step_count(method, stats, t, eps, conservative=conservative).n_steps
        gates = gate_count(method, m, n, impl)
        lines.append(f"{label:<30} {complexity:<28} {n:>8} {gates:>10}")
    return "\n".join(lines)
