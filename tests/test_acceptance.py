"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import itertools
import math

import numpy as np
import pytest

from lindsim.forking import fork_qdrift_run, fork_s1_run
from lindsim.formulas import (
    Direction,
    Implementation,
    Method,
    GATE_COMPLEXITY,
    error_bound,
    gate_count,
    qdrift_exact,
    s1_dir,
    s1_ran_exact,
    s2_det,
    s2_ran_exact,
    step_count,
)
from lindsim.harness import table1_report
from lindsim.lindblad import exact_channel, is_cptp
from lindsim.linalg import DensityMatrix, devectorize, kron, trace_distance, vectorize
from lindsim.models import builtin_model
from lindsim.norms import GeneratorStats, diamond_norm, diamond_norm_solution, generator_stats
from lindsim.sampling import _draw, mixture_estimate, trajectory_channels

T = 1.0
GRID = (4, 8, 16, 32, 64)
MODEL_NAMES = ("amp_damp", "qubit3", "random")


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion} [{'PASS' if ok else 'FAIL'}] {detail}")
    return ok


def _model(name):
    if name == "random":
        return builtin_model("random", dict(d=2, m=3, seed=7))
    return builtin_model(name)


def _step_channel(method, gen, n, total_rate):
    if method == Method.S1_DET:
        return s1_dir(gen, T / n, Direction.FORWARD)
    if method == Method.S2_DET:
        return s2_det(gen, T / n)
    if method == Method.S1_RAN:
        return s1_ran_exact(gen, T / n)
    if method == Method.S2_RAN:
        return s2_ran_exact(gen, T / n)
    return qdrift_exact(gen, T * total_rate / n)


@pytest.fixture(scope="module")
def sweep():
    """Exact-mixture sweep shared by criteria 1-3."""
    data = {}
    for name in MODEL_NAMES:
        gen = _model(name)
        stats = generator_stats(gen)
        t_exact = exact_channel(gen, T)
        points = {}
        for method in Method:
            for n in GRID:
                step = _step_channel(method, gen, n, stats.total_rate)
                total = np.linalg.matrix_power(step, n)
                points[(method, n)] = {
                    "step": step,
                    "total": total,
                    "eps": diamond_norm(t_exact - total),
                    "bound": error_bound(method, stats, T, n),
                }
        data[name] = {"gen": gen, "stats": stats, "points": points}
    return data


def test_criterion_1_bound_satisfaction(sweep):
    violations = []
    for name, entry in sweep.items():
        for (method, n), point in entry["points"].items():
            if point["eps"] > point["bound"]:
                violations.append(f"{name}/{method.value}/N={n}")
    ok = _report(1, not violations,
                 f"error bounds on {len(MODEL_NAMES)} models x {len(GRID)} step counts x "
                 f"{len(list(Method))} methods: "
                 + ("zero violations" if not violations else " ".join(violations)))
    assert ok


def test_criterion_2_convergence_orders(sweep):
    targets = {Method.S1_DET: -1.0, Method.S2_DET: -2.0, Method.S1_RAN: -2.0,
               Method.S2_RAN: -2.0, Method.QDRIFT: -1.0}
    points = sweep["random"]["points"]
    details = []
    ok = True
    for method, target in targets.items():
        eps = [points[(method, n)]["eps"] for n in GRID]
        slope = float(np.polyfit(np.log(GRID), np.log(eps), 1)[0])
        good = abs(slope - target) <= 0.15
        ok = ok and good
        details.append(f"{method.value}:{slope:+.3f} (target {target:+.0f})")
    assert _report(2, ok, "log-log slopes on random(d=2,M=3,seed=7): " + " ".join(details))


def test_criterion_3_cptp_physicality(sweep):
    failures = []
    for name, entry in sweep.items():
        for (method, n), point in entry["points"].items():
            if not is_cptp(point["step"]):
                failures.append(f"{name}/{method.value}/step/N={n}")
            if not is_cptp(point["total"]):
                failures.append(f"{name}/{method.value}/power/N={n}")
        gen = entry["gen"]
        for method in (Method.S1_RAN, Method.S2_RAN, Method.QDRIFT):
            for seed in (0, 42):
                channel = trajectory_channels(method, gen, T, 16, seed, range(1))[0]
                if not is_cptp(channel):
                    failures.append(f"{name}/{method.value}/schedule/seed={seed}")
    ok = _report(3, not failures,
                 "all approximation channels and sampled schedules CPTP at 1e-9"
                 if not failures else "violations: " + " ".join(failures))
    assert ok


def test_criterion_4_forking_equivalence(sweep):
    rho0 = DensityMatrix.ground(2)
    phi = DensityMatrix.maximally_mixed(2)
    worst = 0.0
    bound_ok = True
    for name in MODEL_NAMES:
        entry = sweep[name]
        gen, stats = entry["gen"], entry["stats"]
        exact_state = devectorize(exact_channel(gen, T) @ vectorize(rho0.matrix))
        for n in (1, 4, 8):
            forked = fork_s1_run(gen, T, n, rho0, phi)
            mixture = np.linalg.matrix_power(s1_ran_exact(gen, T / n), n)
            worst = max(worst, trace_distance(
                forked.matrix, devectorize(mixture @ vectorize(rho0.matrix))))
            run_bound = (stats.term_count * T * stats.max_scaled_norm) ** 3 / (6 * n**2)
            bound_ok = bound_ok and trace_distance(forked.matrix, exact_state) <= run_bound

            forked_qd = fork_qdrift_run(gen, T, n, rho0, phi)
            mixture_qd = np.linalg.matrix_power(
                qdrift_exact(gen, T * stats.total_rate / n), n)
            worst = max(worst, trace_distance(
                forked_qd.matrix, devectorize(mixture_qd @ vectorize(rho0.matrix))))
            run_bound_qd = (T * stats.total_rate * stats.max_bare_norm) ** 2 / (2 * n)
            bound_ok = bound_ok and trace_distance(forked_qd.matrix, exact_state) <= run_bound_qd
    ok = worst <= 1e-10 and bound_ok
    assert _report(4, ok, f"fork vs exact mixture max trace distance {worst:.2e} "
                          f"(tol 1e-10); trace-distance run bounds hold: {bound_ok}")


def test_criterion_5_diamond_solver():
    gaps = []
    checks = []
    for name in MODEL_NAMES:
        sol = diamond_norm_solution(exact_channel(_model(name), 0.8))
        gaps.append(sol.gap)
        checks.append(abs(sol.value - 1.0) <= 1e-6)
    zero = diamond_norm(np.zeros((4, 4)))
    checks.append(zero <= 1e-6)
    u = np.diag([1.0, np.exp(1j * np.pi / 2)])
    sol = diamond_norm_solution(np.eye(4) - kron(u.conj(), u))
    gaps.append(sol.gap)
    checks.append(abs(sol.value - math.sqrt(2)) <= 1e-6)
    ok = all(checks) and all(g <= 1e-7 for g in gaps)
    assert _report(5, ok, f"cptp->1, zero->{zero:.1e}, unitary pair->sqrt(2); "
                          f"max duality gap {max(gaps):.2e} (tol 1e-7)")


def test_criterion_6_power_contraction():
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(20):
        t_chan = exact_channel(builtin_model(
            "random", dict(d=2, m=3, seed=int(rng.integers(2**31)))), float(rng.uniform(0.2, 0.8)))
        v_chan = exact_channel(builtin_model(
            "random", dict(d=2, m=3, seed=int(rng.integers(2**31)))), float(rng.uniform(0.2, 0.8)))
        base = diamond_norm(t_chan - v_chan)
        for n in (2, 4, 8):
            lhs = diamond_norm(np.linalg.matrix_power(t_chan, n)
                               - np.linalg.matrix_power(v_chan, n))
            if lhs > n * base + 1e-6:
                violations += 1
    assert _report(6, violations == 0,
                   f"power-difference contraction, 20 channel pairs x N in (2,4,8): "
                   f"{violations} violations")


def test_criterion_7_restricted_sum():
    ok = True
    details = []
    for m, p, x in ((2, 3, 1.0), (3, 4, 0.5), (4, 2, 0.3)):
        brute = sum(
            x**p / np.prod([math.factorial(j) for j in js])
            for js in itertools.product(range(p + 1), repeat=m)
            if sum(js) == p
        )
        closed = m**p * x**p / math.factorial(p)
        ok = ok and abs(brute - closed) <= 1e-12
        details.append(f"({m},{p},{x})={brute:.7f}")
    ok = ok and abs(3**4 * 0.5**4 / math.factorial(4) - 0.2109375) <= 1e-12
    assert _report(7, ok, "enumeration equals closed form at 1e-12: " + " ".join(details))


def test_criterion_8_sampled_trajectories():
    amp = builtin_model("amp_damp")
    n = 16
    omega = T * float(np.sum(amp.rates)) / n
    est = mixture_estimate(Method.QDRIFT, amp, T, n, r_samples=4096, seed=42)
    target = np.linalg.matrix_power(qdrift_exact(amp, omega), n)
    dist = diamond_norm(est - target)

    gen = _model("random")
    _, steps, index = _draw(Method.S1_RAN, gen, T, 10_000, 42, range(1))
    frac = sum(1 for i in index[0] if steps[i].direction == Direction.FORWARD) / 10_000
    ok = dist <= 0.05 and 0.48 <= frac <= 0.52
    assert _report(8, ok, f"qdrift mixture estimate r=4096: diamond distance {dist:.4f} "
                          f"(tol 0.05); coin frequency {frac:.4f} in [0.48, 0.52]")


def test_criterion_9_gate_counting():
    counts_ok = True
    for m in (2, 3, 5):
        for n in (1, 10, 47):
            counts_ok = counts_ok and gate_count(Method.S1_RAN, m, n, Implementation.QF) == (2 * m + 2) * n
            counts_ok = counts_ok and gate_count(Method.QDRIFT, m, n, Implementation.QF) == (3 * m - 2) * n

    report = table1_report(m=2, t=1.0, lam=1.0, gamma=2.0, omega=1.0, eps=0.1)
    strings_ok = all(s in report for s in GATE_COMPLEXITY.values()) and "infeasible (M!)" in report

    s = GeneratorStats(max_scaled_norm=1.0, max_bare_norm=1.0, total_rate=1.0, term_count=2)
    n40 = step_count(Method.S1_DET, s, t=1.0, epsilon=0.1).n_steps
    s = GeneratorStats(max_scaled_norm=1.0, max_bare_norm=1.0, total_rate=1.0, term_count=4)
    n47 = step_count(Method.S1_RAN, s, t=1.0, epsilon=0.01).n_steps
    ok = counts_ok and strings_ok and n40 == 40 and n47 == 47
    assert _report(9, ok, f"forking counts exact; complexity strings echoed; "
                          f"worked step counts N={n40} and N={n47}")
