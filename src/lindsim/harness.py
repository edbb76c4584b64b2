"""Experiment harness: sweeps, validation suites and report generation.

The harness consumes experiment configs (INI-style, one ``[experiment]``
section), runs method-by-method N sweeps against the exact evolution, checks
every error bound, fits convergence orders and writes CSV / gnuplot-ready
output.  ``validate_all`` bundles the whole property suite behind one call so
a fresh checkout can certify itself from the command line.
"""

from __future__ import annotations

import configparser
import itertools
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import forking
from .formulas import (
    METHODS,
    Direction,
    Implementation,
    Method,
    GATE_COMPLEXITY,
    error_bound,
    gate_count,
    qdrift_exact,
    s1_ran_exact,
    step_count,
)
from .lindblad import (
    GkslGenerator,
    constituent_channel,
    exact_channel,
    full_liouvillian,
    is_cptp,
    load_generator,
    term_superop,
)
from .linalg import DensityMatrix, dagger, devectorize, trace_distance, vectorize
from .models import builtin_model
from .norms import (
    GeneratorStats,
    diamond_norm_certificates,
    diamond_norm_solutions,
    generator_stats,
    power_contraction_check,
    sampled_diamond_lower_bound,
)
from .sampling import draw_gateset, mixture_estimate, trajectory_channels
from .tolerances import TOL

__all__ = [
    "CheckResult",
    "ConfigError",
    "ExperimentSpec",
    "SweepRecord",
    "ValidationReport",
    "batch_standard_error",
    "fit_order",
    "initial_state",
    "load_experiment",
    "point_steps",
    "resolve_model",
    "run_sweep",
    "sweep_point_channel",
    "table1_report",
    "trajectory_batches",
    "validate_all",
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
        grid = self.grid
        if any(g <= 0 for g in grid):
            raise ConfigError("grid values must be positive")
        increasing = all(a < b for a, b in zip(grid, grid[1:]))
        decreasing = all(a > b for a, b in zip(grid, grid[1:]))
        if not (increasing or decreasing):
            raise ConfigError("grid values must be strictly monotone")
        if self.t <= 0:
            raise ConfigError("t must be positive")
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
    n grid, the step count for that precision on an epsilon grid."""
    if spec.n_grid:
        return int(value)
    return step_count(method, stats, spec.t, value, conservative=spec.conservative).n_steps


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
    if spec.sampled and METHODS[method].sampler is not None:
        batches = trajectory_batches(spec.trajectories)
        sums = [trajectory_channels(method, gen, spec.t, n, spec.seed, b).sum(axis=0)
                for b in batches]
        return sum(sums) / spec.trajectories, [t_exact - s / len(b) for s, b in zip(sums, batches)]
    return np.linalg.matrix_power(METHODS[method].step_channel(gen, spec.t, n), n), None


def _error_record(method: Method, n: int, exc: Exception) -> SweepRecord:
    return SweepRecord(method=method, n=n, epsilon_bound=float("nan"),
                       epsilon_empirical=float("nan"), trace_dist=float("nan"), gates_cs=0,
                       gates_qf=None, status=f"error: {method.value} N={n}: {exc}", wall_time_ms=0)


def run_sweep(spec: ExperimentSpec, write_files: bool = True):
    """Run every method over the grid; returns records and writes the CSV.

    The channels of all points come first; then the errors of all points,
    and of every sampled point's batch means, are certified in one batch.  A
    point whose maps do not all certify becomes an error record.  A point's
    ``wall_time_ms`` is its own channel time plus its maps' share of that
    batch's solve time.
    """
    gen = resolve_model(spec)
    stats = generator_stats(gen)
    t_exact = exact_channel(gen, spec.t)
    rho0 = initial_state(spec, gen.dim)
    rho_t = devectorize(t_exact @ vectorize(rho0.matrix))
    points = [(method, point_steps(spec, stats, method, value))
              for method in spec.methods for value in spec.grid]

    records, seconds, point_maps = [], [], []  # point_maps: (record index, maps, sampled)
    for method, n in points:
        start = time.perf_counter()
        try:
            bound = error_bound(method, stats, spec.t, n, conservative=spec.conservative)
            total, batch_errors = sweep_point_channel(spec, gen, method, n, t_exact)
            rho_approx = devectorize(total @ vectorize(rho0.matrix))
            record = SweepRecord(
                method=method,
                n=n,
                epsilon_bound=bound,
                epsilon_empirical=float("nan"),
                trace_dist=trace_distance(rho_t, rho_approx),
                gates_cs=gate_count(method, stats.term_count, n, Implementation.CS),
                gates_qf=(gate_count(method, stats.term_count, n, Implementation.QF)
                          if METHODS[method].gates_qf else None),
                status="ok",
                wall_time_ms=0,
            )
            point_maps.append((len(records), [t_exact - total, *(batch_errors or ())],
                               batch_errors is not None))
        except Exception as exc:  # recorded, run continues
            record = _error_record(method, n, exc)
        records.append(record)
        seconds.append(time.perf_counter() - start)

    maps = [m for _, point, _ in point_maps for m in point]
    start = time.perf_counter()
    solved = iter(diamond_norm_solutions(maps))
    share = (time.perf_counter() - start) / max(1, len(maps))
    for i, point, sampled in point_maps:
        sols = [next(solved) for _ in point]
        seconds[i] += share * len(point)
        failed = [sol for sol in sols if isinstance(sol, Exception)]
        if failed:
            records[i] = _error_record(records[i].method, records[i].n, failed[0])
        else:
            records[i].epsilon_empirical = sols[0].value
            if sampled:
                records[i].stat_err = batch_standard_error([sol.value for sol in sols[1:]])
    for record, sec in zip(records, seconds):
        record.wall_time_ms = int(round(1000 * sec))

    if write_files:
        os.makedirs(spec.outputs, exist_ok=True)
        write_sweep_csv(records, os.path.join(spec.outputs, "sweep.csv"),
                        sampled=spec.sampled)
        _write_gnuplot_files(records, spec.outputs)
    return records


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return "nan" if math.isnan(x) else f"{x:.12g}"
    return str(x)


def write_sweep_csv(records, path, sampled: bool = False):
    columns = CSV_COLUMNS + (["stat_err"] if sampled else [])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for r in records:
            row = [r.method.value, str(r.n), _fmt(r.epsilon_bound),
                   _fmt(r.epsilon_empirical), _fmt(r.trace_dist), _fmt(r.gates_cs),
                   _fmt(r.gates_qf), r.status.replace(",", ";"), str(r.wall_time_ms)]
            if sampled:
                row.append(_fmt(r.stat_err))
            fh.write(",".join(row) + "\n")
    return path


def _write_gnuplot_files(records, outdir):
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


def fit_order(records) -> dict:
    """Least-squares slope of log(error) vs log(N), one entry per method."""
    slopes = {}
    for method in {r.method for r in records}:
        pts = [(r.n, r.epsilon_empirical) for r in records
               if r.method == method and r.status == "ok" and r.epsilon_empirical > 0]
        if len(pts) < 3:
            raise ValueError(f"need at least 3 points to fit an order for {method.value}")
        ns, eps = zip(*sorted(pts))
        slopes[method] = float(np.polyfit(np.log(ns), np.log(eps), 1)[0])
    return slopes


# ---------------------------------------------------------------------------
# Validation suites
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


@dataclass
class ValidationReport:
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def table(self) -> str:
        width = max(len(f"{r.suite}/{r.name}") for r in self.results)
        lines = []
        for r in self.results:
            flag = "PASS" if r.passed else "FAIL"
            lines.append(f"{flag}  {r.suite + '/' + r.name:<{width}}  {r.detail}")
        lines.append(f"{'OK' if self.passed else 'FAILED'}: "
                     f"{sum(r.passed for r in self.results)}/{len(self.results)} checks passed")
        return "\n".join(lines)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("suite,check,passed,detail\n")
            for r in self.results:
                fh.write(f"{r.suite},{r.name},{int(r.passed)},{r.detail.replace(',', ';')}\n")
        return path


def _model_library():
    return [
        ("amp_damp", builtin_model("amp_damp")),
        ("qubit3", builtin_model("qubit3")),
        ("two_qubit_xy", builtin_model("two_qubit_xy")),
        ("random_2_3", builtin_model("random", dict(d=2, m=3, seed=7))),
    ]


def _random_channel(rng, d=2) -> np.ndarray:
    gen = builtin_model("random", dict(d=d, m=3, seed=int(rng.integers(0, 2**31))))
    return exact_channel(gen, float(rng.uniform(0.2, 0.8)))


def _restricted_sum_enumeration(m: int, p: int, x: float) -> float:
    total = 0.0
    for js in itertools.product(range(p + 1), repeat=m):
        if sum(js) == p:
            total += x**p / np.prod([math.factorial(j) for j in js])
    return total


def _checks_norms(seed: int):
    rng = np.random.default_rng(seed)
    u = np.diag([1.0, np.exp(1j * np.pi / 2)])
    hp, other = (term_superop(builtin_model("qubit3"), k, with_rate=True) for k in (2, 3))
    diff = _random_channel(rng) - np.eye(4)
    library = _model_library()
    solved = diamond_norm_certificates(
        [exact_channel(builtin_model("amp_damp"), 0.7), np.zeros((4, 4)),
         np.eye(4) - np.kron(u.conj(), u), hp, 2.0 * hp, other, hp + other, diff]
        + [full_liouvillian(gen) for _, gen in library])
    sol = solved[0]
    zero, pair, base, double, other_norm, both, val, *lnorms = [s.value for s in solved[1:]]
    homog = abs(double - 2.0 * base) <= 1e-6
    subadd = both <= base + other_norm + 1e-6
    lower = sampled_diamond_lower_bound(diff, n_samples=50, seed=int(rng.integers(0, 2**31)))
    bounds = [(name, lnorm, generator_stats(gen)) for (name, gen), lnorm in zip(library, lnorms)]
    return [
        CheckResult("norms", "cptp_channel_norm_one", abs(sol.value - 1.0) <= TOL.diamond_abs_tol,
                    f"value={sol.value:.9f} gap={sol.gap:.2e}"),
        CheckResult("norms", "zero_map", zero <= TOL.diamond_abs_tol, f"value={zero:.2e}"),
        CheckResult("norms", "unitary_pair_sqrt2", abs(pair - math.sqrt(2)) <= TOL.diamond_abs_tol,
                    f"value={pair:.9f}"),
        CheckResult("norms", "homogeneity_subadditivity", homog and subadd,
                    f"homogeneous={homog} subadditive={subadd}"),
        CheckResult("norms", "dominates_sampled_inputs", val >= lower - 1e-6,
                    f"sdp={val:.6f} best_sample={lower:.6f}"),
        CheckResult("norms", "generator_norm_bound",
                    all(lnorm <= st.term_count * st.max_scaled_norm + 1e-6 for _, lnorm, st in bounds),
                    " ".join(f"{name}:{lnorm:.3f}<={st.term_count * st.max_scaled_norm:.3f}"
                             for name, lnorm, st in bounds)),
    ]


def _checks_cptp(seed: int):
    out = []
    rng = np.random.default_rng(seed)
    models = _model_library() + [
        (f"random_d{d}_m{m}", builtin_model("random", dict(d=d, m=m, seed=int(rng.integers(2**31)))))
        for d, m in ((2, 2), (3, 3), (4, 4))
    ]
    worst = 0.0
    ok = True
    for name, gen in models:
        for t in (0.1, 1.0):
            check = is_cptp(exact_channel(gen, t))
            ok = ok and bool(check)
            worst = min(worst, check.min_choi_eig)
            for k in range(1, gen.m_total + 1):
                check = is_cptp(constituent_channel(gen, k, t))
                ok = ok and bool(check)
                worst = min(worst, check.min_choi_eig)
    out.append(CheckResult("cptp", "channels_cptp", ok, f"min Choi eigenvalue {worst:.2e}"))

    ok = True
    worst = 0.0
    for name, gen in _model_library():
        liou = full_liouvillian(gen)
        for _ in range(5):
            g = rng.normal(size=(gen.dim, gen.dim)) + 1j * rng.normal(size=(gen.dim, gen.dim))
            rho = (g + dagger(g)) / 2
            image = devectorize(liou @ vectorize(rho))
            dev = max(abs(np.trace(image)), float(np.max(np.abs(image - dagger(image)))))
            worst = max(worst, dev)
            ok = ok and dev <= 1e-12 * max(1.0, float(np.max(np.abs(rho))))
    out.append(CheckResult("cptp", "liouvillian_traceless_hermitian", ok, f"max deviation {worst:.2e}"))

    gen = builtin_model("qubit3")
    worst = 0.0
    for _ in range(20):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = (g + dagger(g)) / 2
        h = gen.hamiltonian
        direct = -1j * (h @ rho - rho @ h)
        worst = max(worst, float(np.max(np.abs(
            devectorize(term_superop(gen, 1) @ vectorize(rho)) - direct))))
        for k in range(2, gen.m_total + 1):
            op, rate = gen.terms[k - 2]
            ldl = dagger(op) @ op
            direct = rate * (op @ rho @ dagger(op) - 0.5 * (ldl @ rho + rho @ ldl))
            worst = max(worst, float(np.max(np.abs(
                devectorize(term_superop(gen, k) @ vectorize(rho)) - direct))))
    out.append(CheckResult("cptp", "term_action_matches_direct", worst <= 1e-12,
                           f"max deviation {worst:.2e}"))
    return out


def _checks_identities(seed: int):
    out = []
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(20):
        t_chan = _random_channel(rng)
        v_chan = _random_channel(rng)
        ok = ok and all(power_contraction_check(t_chan, v_chan, (2, 4, 8)))
    out.append(CheckResult("identities", "power_difference_contraction", ok, "20 channel pairs, N in {2,4,8}"))

    ok = True
    details = []
    for m, p, x in ((2, 3, 1.0), (3, 4, 0.5), (4, 2, 0.3)):
        brute = _restricted_sum_enumeration(m, p, x)
        closed = m**p * x**p / math.factorial(p)
        ok = ok and abs(brute - closed) <= 1e-12
        details.append(f"({m},{p},{x}):{brute:.7f}")
    out.append(CheckResult("identities", "restricted_sum_identity", ok, " ".join(details)))
    return out


def _checks_bounds(seed: int):
    out = []
    t = 1.0
    grid = (4, 8, 16, 32, 64)
    violations = []
    slopes_detail = []
    slopes_ok = True
    for name, model in (("amp_damp", "amp_damp"), ("qubit3", "qubit3"),
                        ("random", "random d=2 m=3 seed=7")):
        spec = ExperimentSpec(model=model, methods=tuple(Method), t=t, n_grid=grid, seed=seed)
        records = run_sweep(spec, write_files=False)
        violations += [f"{name}/{r.method.value}/N={r.n}" for r in records
                       if r.status == "ok" and r.epsilon_empirical > r.epsilon_bound]
    # orders are fitted on the last, noncommuting model
    for method, slope in sorted(fit_order(records).items(), key=lambda kv: kv[0].value):
        good = abs(slope + METHODS[method].order) <= 0.15
        slopes_ok = slopes_ok and good
        slopes_detail.append(f"{method.value}:{slope:+.2f}")
    out.append(CheckResult("bounds", "error_bounds_hold", not violations,
                           "no violations" if not violations else " ".join(violations)))
    out.append(CheckResult("bounds", "convergence_orders", slopes_ok, " ".join(slopes_detail)))

    # leading-order cancellation of the mixture channel against the exact step
    gen = builtin_model("random", dict(d=2, m=3, seed=7))
    dts = np.array([0.2, 0.1, 0.05, 0.025])
    qdrift = METHODS[Method.QDRIFT]
    errs = [np.max(np.abs(qdrift.step_channel(gen, dt, 1) - exact_channel(gen, dt))) for dt in dts]
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    out.append(CheckResult("bounds", "qdrift_first_order_cancellation",
                           abs(slope - 2.0) <= 0.2, f"slope {slope:+.2f}"))
    return out


def _checks_forking(seed: int):
    out = []
    rho0 = DensityMatrix.ground(2)
    phis = [DensityMatrix.maximally_mixed(2), DensityMatrix.ground(2),
            DensityMatrix(np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex))]
    worst_equiv = 0.0
    worst_phi = 0.0
    bounds_ok = True
    for name, gen in _model_library():
        if gen.dim > 2 or gen.m_total > 3:
            continue
        for dt in (0.05, 0.2):
            for mixture, fork_step in ((s1_ran_exact, forking.fork_s1_step),
                                       (qdrift_exact, forking.fork_qdrift_step)):
                mix = devectorize(mixture(gen, dt) @ vectorize(rho0.matrix))
                forked = [fork_step(gen, dt, rho0, phi) for phi in phis]
                worst_equiv = max(worst_equiv, trace_distance(forked[0].matrix, mix))
                worst_phi = max(worst_phi, *(trace_distance(forked[0], f) for f in forked[1:]))
        stats = generator_stats(gen)
        for n in (1, 4, 8):
            t = 1.0
            exact_state = devectorize(exact_channel(gen, t) @ vectorize(rho0.matrix))
            for method, fork_run in ((Method.S1_RAN, forking.fork_s1_run),
                                     (Method.QDRIFT, forking.fork_qdrift_run)):
                run = fork_run(gen, t, n, rho0, phis[0])
                bound = error_bound(method, stats, t, n) / 2  # trace distance <= diamond / 2
                bounds_ok = bounds_ok and trace_distance(run.matrix, exact_state) <= bound
    out.append(CheckResult("forking", "matches_exact_mixture", worst_equiv <= 1e-10,
                           f"max trace distance {worst_equiv:.2e}"))
    out.append(CheckResult("forking", "work_state_independence", worst_phi <= 1e-10,
                           f"max trace distance {worst_phi:.2e}"))
    out.append(CheckResult("forking", "trace_distance_bounds", bounds_ok,
                           "first-order and rate-weighted bounds hold"))
    return out


def _checks_sampling(seed: int):
    out = []
    gen = builtin_model("random", dict(d=2, m=3, seed=7))
    a = draw_gateset(Method.S2_RAN, gen, 1.0, 64, seed)
    b = draw_gateset(Method.S2_RAN, gen, 1.0, 64, seed)
    out.append(CheckResult("sampling", "deterministic_gatesets", a == b, "byte-identical draws"))

    coin = draw_gateset(Method.S1_RAN, gen, 1.0, 10_000, 42)
    frac = sum(1 for s in coin.steps if s.direction == Direction.FORWARD) / 10_000
    out.append(CheckResult("sampling", "coin_frequency", 0.48 <= frac <= 0.52, f"forward {frac:.4f}"))

    amp3 = builtin_model("amp_damp", dict(gamma=3.0))
    qd = draw_gateset(Method.QDRIFT, amp3, 1.0, 10_000, 42)
    frac2 = sum(1 for s in qd.steps if s.k == 2) / 10_000
    out.append(CheckResult("sampling", "rate_weighted_frequency", 0.73 <= frac2 <= 0.77,
                           f"term-2 {frac2:.4f}"))

    amp = builtin_model("amp_damp")
    target = np.linalg.matrix_power(METHODS[Method.QDRIFT].step_channel(amp, 1.0, 16), 16)
    dist_small, dist_large = (sol.value for sol in diamond_norm_certificates(
        [mixture_estimate(Method.QDRIFT, amp, 1.0, 16, r, 42) - target for r in (250, 4000)]))
    out.append(CheckResult("sampling", "mixture_estimate_converges",
                           dist_large <= 0.05 and dist_large <= dist_small,
                           f"r=250: {dist_small:.4f}, r=4000: {dist_large:.4f}"))
    return out


_SUITES = {
    "norms": _checks_norms,
    "cptp": _checks_cptp,
    "identities": _checks_identities,
    "bounds": _checks_bounds,
    "forking": _checks_forking,
    "sampling": _checks_sampling,
}


def validate_all(seed: int = 0, suite: str = "all") -> ValidationReport:
    """Run the property suite (or one named sub-suite)."""
    if suite == "all":
        names = list(_SUITES)
    elif suite in _SUITES:
        names = [suite]
    else:
        raise ConfigError(f"unknown suite '{suite}' (known: all, {', '.join(_SUITES)})")
    results = []
    for name in names:
        results.extend(_SUITES[name](seed))
    return ValidationReport(results=results)


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
    rows = [(r.label + (" (CS)" if r.sampler else ""), k, Implementation.CS)
            for k, r in METHODS.items()]
    rows += [(f"{r.label} (QF)", k, Implementation.QF) for k, r in METHODS.items() if r.sampler]
    for label, method, impl in rows:
        if (method, impl) not in GATE_COMPLEXITY:
            lines.append(f"{label:<30} {'infeasible (M!)':<28} {'-':>8} {'-':>10}")
            continue
        complexity = GATE_COMPLEXITY[(method, impl)]
        n = step_count(method, stats, t, eps, conservative=conservative).n_steps
        gates = gate_count(method, m, n, impl)
        lines.append(f"{label:<30} {complexity:<28} {n:>8} {gates:>10}")
    return "\n".join(lines)
