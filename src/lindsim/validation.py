"""The property suite behind ``lindsim validate``.

Each suite returns the maps it needs certified and a judge that turns their
diamond-norm solutions, in order, into ``CheckResult``s.  ``validate_all``
certifies the maps of every selected suite in one ``diamond_norm_solutions``
call, then runs the judges in suite order.  The bounds suite certifies
through ``run_sweep`` instead, because it validates the sweep path itself.

``harness`` and ``sampling`` are imported by the suites that use them, so a
run of another suite does not load them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import forking
from .formulas import METHODS, Direction, Method, error_bound, qdrift_exact, s1_ran_exact
from .lindblad import constituent_channel, exact_channel, full_liouvillian, is_cptp, term_superop
from .linalg import DensityMatrix, dagger, devectorize, trace_distance, vectorize
from .models import builtin_model
from .norms import (certified, diamond_bracket, diamond_norm_solutions, power_contraction_maps,
                    term_maps, term_stats)
from .tolerances import TOL

__all__ = ["CheckResult", "ValidationReport", "validate_all"]


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


def _random_channel(rng) -> np.ndarray:
    gen = builtin_model("random", dict(d=2, m=3, seed=int(rng.integers(0, 2**31))))
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
    lower, upper = diamond_bracket(diff)
    library = _model_library()
    maps = ([exact_channel(builtin_model("amp_damp"), 0.7), np.zeros((4, 4)),
             np.eye(4) - np.kron(u.conj(), u), hp, 2.0 * hp, other, hp + other, diff]
            + [full_liouvillian(gen) for _, gen in library])

    def judge(solved):
        sol, *rest = certified(solved[:len(maps)])
        zero, pair, base, double, other_norm, both, val, *lnorms = [s.value for s in rest]
        homog = abs(double - 2.0 * base) <= TOL.diamond_abs_tol
        subadd = both <= base + other_norm + TOL.diamond_abs_tol
        terms = iter(solved[len(maps):])
        bounds = [(name, lnorm, term_stats(gen, terms)) for (name, gen), lnorm in zip(library, lnorms)]
        return [
            CheckResult("norms", "cptp_channel_norm_one", abs(sol.value - 1.0) <= TOL.diamond_abs_tol,
                        f"value={sol.value:.9f} gap={sol.gap:.2e}"),
            CheckResult("norms", "zero_map", zero <= TOL.diamond_abs_tol, f"value={zero:.2e}"),
            CheckResult("norms", "unitary_pair_sqrt2", abs(pair - math.sqrt(2)) <= TOL.diamond_abs_tol,
                        f"value={pair:.9f}"),
            CheckResult("norms", "homogeneity_subadditivity", homog and subadd,
                        f"homogeneous={homog} subadditive={subadd}"),
            CheckResult("norms", "inside_bracket",
                        lower - TOL.diamond_abs_tol <= val <= upper + TOL.diamond_abs_tol,
                        f"lower={lower:.6f} sdp={val:.6f} upper={upper:.6f}"),
            CheckResult("norms", "generator_norm_bound",
                        all(lnorm <= st.term_count * st.max_scaled_norm + TOL.diamond_abs_tol
                            for _, lnorm, st in bounds),
                        " ".join(f"{name}:{lnorm:.3f}<={st.term_count * st.max_scaled_norm:.3f}"
                                 for name, lnorm, st in bounds)),
        ]

    return maps + [m for _, gen in library for m in term_maps(gen)], judge


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
    return [], lambda solved: out


def _checks_identities(seed: int):
    rng = np.random.default_rng(seed)
    ns = (2, 4, 8)
    pairs = [(_random_channel(rng), _random_channel(rng)) for _ in range(20)]
    ok = True
    details = []
    for m, p, x in ((2, 3, 1.0), (3, 4, 0.5), (4, 2, 0.3)):
        brute = _restricted_sum_enumeration(m, p, x)
        closed = m**p * x**p / math.factorial(p)
        ok = ok and abs(brute - closed) <= 1e-12
        details.append(f"({m},{p},{x}):{brute:.7f}")
    restricted_sum = CheckResult("identities", "restricted_sum_identity", ok, " ".join(details))

    def judge(solved):
        # one row per channel pair: ||T - V||, then ||T^N - V^N|| for each N
        values = np.reshape([sol.value for sol in certified(solved)], (len(pairs), 1 + len(ns)))
        holds = bool(np.all(values[:, 1:] <= np.array(ns) * values[:, :1] + TOL.diamond_abs_tol))
        return [CheckResult("identities", "power_difference_contraction", holds,
                            "20 channel pairs, N in {2,4,8}"), restricted_sum]

    return [m for t_chan, v_chan in pairs for m in power_contraction_maps(t_chan, v_chan, ns)], judge


def _checks_bounds(seed: int):
    from .harness import ExperimentSpec, fit_order, log_slope, run_sweep

    out = []
    t = 1.0
    grid = (4, 8, 16, 32, 64)
    violations = []
    slopes_detail = []
    slopes_ok = True
    for name, model in (("amp_damp", "amp_damp"), ("qubit3", "qubit3"),
                        ("random", "random d=2 m=3 seed=7")):
        spec = ExperimentSpec(model=model, methods=tuple(Method), t=t, n_grid=grid, seed=seed)
        records = run_sweep(spec)
        violations += [f"{name}/{r.method.value}/N={r.n}" for r in records
                       if r.status == "ok" and r.epsilon_empirical > r.epsilon_bound]
    # orders are fitted on the last, noncommuting model; a method without a fit fails
    slopes = fit_order(records)
    for method in sorted(spec.methods, key=lambda m: m.value):
        slope = slopes.get(method)
        slopes_ok = slopes_ok and slope is not None and abs(slope + METHODS[method].order) <= 0.15
        slopes_detail.append(f"{method.value}:" + ("no fit" if slope is None else f"{slope:+.2f}"))
    out.append(CheckResult("bounds", "error_bounds_hold", not violations,
                           "no violations" if not violations else " ".join(violations)))
    out.append(CheckResult("bounds", "convergence_orders", slopes_ok, " ".join(slopes_detail)))

    # leading-order cancellation of the mixture channel against the exact step
    gen = builtin_model("random", dict(d=2, m=3, seed=7))
    dts = np.array([0.2, 0.1, 0.05, 0.025])
    qdrift = METHODS[Method.QDRIFT]
    errs = [np.max(np.abs(qdrift.step_channel(gen, dt, 1) - exact_channel(gen, dt))) for dt in dts]
    slope = log_slope(dts, errs)
    out.append(CheckResult("bounds", "qdrift_first_order_cancellation",
                           abs(slope - 2.0) <= 0.2, f"slope {slope:+.2f}"))
    return [], lambda solved: out


def _checks_forking(seed: int):
    models = [gen for _, gen in _model_library() if gen.dim <= 2 and gen.m_total <= 3]

    def judge(solved):
        solved = iter(solved)
        rho0 = DensityMatrix.ground(2)
        phis = [DensityMatrix.maximally_mixed(2), DensityMatrix.ground(2),
                DensityMatrix(np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex))]
        worst_equiv = 0.0
        worst_phi = 0.0
        bounds_ok = True
        for gen in models:
            for dt in (0.05, 0.2):
                for mixture, fork_step in ((s1_ran_exact, forking.fork_s1_step),
                                           (qdrift_exact, forking.fork_qdrift_step)):
                    mix = devectorize(mixture(gen, dt) @ vectorize(rho0.matrix))
                    forked = [fork_step(gen, dt, rho0, phi) for phi in phis]
                    worst_equiv = max(worst_equiv, trace_distance(forked[0].matrix, mix))
                    worst_phi = max(worst_phi, *(trace_distance(forked[0], f) for f in forked[1:]))
            stats = term_stats(gen, solved)
            for n in (1, 4, 8):
                t = 1.0
                exact_state = devectorize(exact_channel(gen, t) @ vectorize(rho0.matrix))
                for method, fork_run in ((Method.S1_RAN, forking.fork_s1_run),
                                         (Method.QDRIFT, forking.fork_qdrift_run)):
                    run = fork_run(gen, t, n, rho0, phis[0])
                    bound = error_bound(method, stats, t, n) / 2  # trace distance <= diamond / 2
                    bounds_ok = bounds_ok and trace_distance(run.matrix, exact_state) <= bound
        return [CheckResult("forking", "matches_exact_mixture", worst_equiv <= 1e-10,
                            f"max trace distance {worst_equiv:.2e}"),
                CheckResult("forking", "work_state_independence", worst_phi <= 1e-10,
                            f"max trace distance {worst_phi:.2e}"),
                CheckResult("forking", "trace_distance_bounds", bounds_ok,
                            "first-order and rate-weighted bounds hold")]

    return [m for gen in models for m in term_maps(gen)], judge


def _checks_sampling(seed: int):
    from .sampling import _draw, mixture_estimate

    out = []
    gen = builtin_model("random", dict(d=2, m=3, seed=7))
    # one trajectory each: the step table, then its row of indices into it
    _, steps_a, index_a = _draw(Method.S2_RAN, gen, 1.0, 64, seed, range(1))
    _, steps_b, index_b = _draw(Method.S2_RAN, gen, 1.0, 64, seed, range(1))
    same = steps_a == steps_b and np.array_equal(index_a, index_b)
    out.append(CheckResult("sampling", "deterministic_gatesets", same, "byte-identical draws"))

    _, steps, index = _draw(Method.S1_RAN, gen, 1.0, 10_000, 42, range(1))
    frac = sum(1 for i in index[0] if steps[i].direction == Direction.FORWARD) / 10_000
    out.append(CheckResult("sampling", "coin_frequency", 0.48 <= frac <= 0.52, f"forward {frac:.4f}"))

    amp3 = builtin_model("amp_damp", dict(gamma=3.0))
    _, steps, index = _draw(Method.QDRIFT, amp3, 1.0, 10_000, 42, range(1))
    frac2 = sum(1 for i in index[0] if steps[i].k == 2) / 10_000
    out.append(CheckResult("sampling", "rate_weighted_frequency", 0.73 <= frac2 <= 0.77,
                           f"term-2 {frac2:.4f}"))

    amp = builtin_model("amp_damp")
    target = np.linalg.matrix_power(METHODS[Method.QDRIFT].step_channel(amp, 1.0, 16), 16)

    def judge(solved):
        dist_small, dist_large = (sol.value for sol in certified(solved))
        return out + [CheckResult("sampling", "mixture_estimate_converges",
                                  dist_large <= 0.05 and dist_large <= dist_small,
                                  f"r=250: {dist_small:.4f}, r=4000: {dist_large:.4f}")]

    return [mixture_estimate(Method.QDRIFT, amp, 1.0, 16, r, 42) - target for r in (250, 4000)], judge


_SUITES = {
    "norms": _checks_norms,
    "cptp": _checks_cptp,
    "identities": _checks_identities,
    "bounds": _checks_bounds,
    "forking": _checks_forking,
    "sampling": _checks_sampling,
}


def validate_all(seed: int = 0, suite: str = "all") -> ValidationReport:
    """Run the property suite (or one named sub-suite), certifying the maps
    of every suite in one batch."""
    if suite == "all":
        names = list(_SUITES)
    elif suite in _SUITES:
        names = [suite]
    else:
        from .harness import ConfigError

        raise ConfigError(f"unknown suite '{suite}' (known: all, {', '.join(_SUITES)})")
    plans = [_SUITES[name](seed) for name in names]
    solved = iter(diamond_norm_solutions([m for maps, _ in plans for m in maps]))
    results = []
    for maps, judge in plans:
        results.extend(judge([next(solved) for _ in maps]))
    return ValidationReport(results=results)
