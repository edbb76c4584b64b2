import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindsim.lindblad import GkslGenerator, choi, exact_channel, full_liouvillian, term_superop
from lindsim.linalg import kron
from lindsim.models import builtin_model
from lindsim.norms import (
    GeneratorStats,
    certified,
    diamond_bracket,
    diamond_norm,
    diamond_norm_solution,
    diamond_norm_solutions,
    generator_stats,
    power_contraction_check,
    term_maps,
    term_stats,
)
from lindsim.sdp import SdpConvergenceError
from lindsim.tolerances import TOL
from sdp_reference import SdpProblem, herm_basis, reference_diamond_norm, solve_sdp

SM = np.array([[0, 1], [0, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def unitary_conjugation(u):
    return kron(np.asarray(u).conj(), np.asarray(u))


def test_zero_map():
    assert diamond_norm(np.zeros((4, 4))) == pytest.approx(0.0, abs=1e-6)


def test_cptp_channels_have_unit_norm():
    for gen, t in ((builtin_model("amp_damp"), 0.6), (builtin_model("qubit3"), 1.2)):
        sol = diamond_norm_solution(exact_channel(gen, t))
        assert sol.value == pytest.approx(1.0, abs=1e-6)
        assert sol.gap <= 1e-7


def test_cptp_unit_norm_beyond_qubits():
    gen = builtin_model("random", dict(d=3, m=3, seed=4))
    sol = diamond_norm_solution(exact_channel(gen, 0.6))
    assert sol.value == pytest.approx(1.0, abs=1e-6)
    assert sol.gap <= 1e-7


def test_depolarizing_distance_to_identity():
    # (1-p) id + p * maximally-mixing has diamond distance 2p(1 - 1/d^2) to id
    d, p = 2, 0.3
    mix_to_identity = np.zeros((d * d, d * d), dtype=complex)
    eye_vec = np.eye(d).T.reshape(-1)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            mix_to_identity[:, j * d + i] = np.trace(e) / d * eye_vec
    depol = (1 - p) * np.eye(d * d) + p * mix_to_identity
    expected = 2 * p * (1 - 1 / d**2)
    assert diamond_norm(np.eye(d * d) - depol) == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("theta", [np.pi / 2, np.pi / 3, 0.4])
def test_unitary_pair_analytic_value(theta):
    # distance between conjugations by I and diag(1, e^{i theta}) is 2 sin(theta/2)
    diff = np.eye(4) - unitary_conjugation(np.diag([1.0, np.exp(1j * theta)]))
    assert diamond_norm(diff) == pytest.approx(2 * np.sin(theta / 2), abs=1e-6)


def test_unitary_pair_sqrt2_with_bracket_cross_check():
    diff = np.eye(4) - unitary_conjugation(np.diag([1.0, 1j]))
    value = diamond_norm(diff)
    assert value == pytest.approx(np.sqrt(2), abs=1e-6)
    lower, upper = diamond_bracket(diff)
    assert lower <= value + 1e-6
    assert value - lower <= TOL.diamond_abs_tol  # the seesaw's first input is already optimal
    assert upper >= value - 1e-6


def test_random_channel_difference_inside_bracket():
    gen = builtin_model("random", dict(d=2, m=3, seed=1))
    diff = exact_channel(gen, 0.5) - exact_channel(gen, 0.5) @ exact_channel(gen, 0.25)
    sol = diamond_norm_solution(diff)
    lower, upper = diamond_bracket(diff)
    assert lower <= sol.value + sol.gap + 1e-9
    assert sol.value - sol.gap <= upper + 1e-9


def test_bracket_closed_forms():
    for chan in (exact_channel(builtin_model("amp_damp"), 0.6),
                 exact_channel(builtin_model("random", dict(d=3, m=3, seed=4)), 0.6)):
        assert diamond_bracket(chan) == pytest.approx((1.0, 1.0), abs=1e-12)
    assert diamond_bracket(np.zeros((9, 9))) == (0.0, 0.0)
    lower, upper = diamond_bracket(np.eye(4) - unitary_conjugation(np.diag([1.0, 1j])))
    assert abs(lower - np.sqrt(2)) <= 1e-9
    assert upper >= np.sqrt(2) - 1e-12  # rounding only


def test_bracket_rejects_what_the_solver_rejects():
    for bad, message in ((1j * np.eye(4), "Hermiticity"), (np.zeros((3, 3)), "square of squares")):
        with pytest.raises(ValueError, match=message) as from_bracket:
            diamond_bracket(bad)
        with pytest.raises(ValueError) as from_solver:
            diamond_norm(bad)
        assert str(from_bracket.value) == str(from_solver.value)


@settings(max_examples=25, deadline=None)
@given(d=st.sampled_from([2, 3]), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_bracket_contains_the_certified_value(d, k, seed):
    s = _random_hp_map(d, k, np.random.default_rng(seed))
    sol = diamond_norm_solution(s)
    lower, upper = diamond_bracket(s)
    assert lower <= sol.value + sol.gap + 1e-9
    assert sol.value - sol.gap <= upper + 1e-9


@pytest.mark.parametrize("seed", [827, 2087])
def test_ill_conditioned_map_meets_the_feasibility_tolerance(seed):
    # near the optimum of these maps the Schur complement's condition number
    # passes 1e16; without iterative refinement of the Newton step the primal
    # residual stalls at 1.5-1.8e-9, above the 1e-9 feasibility tolerance
    s = _random_hp_map(2, 3, np.random.default_rng(seed))
    sol = diamond_norm_solution(s)
    assert sol.primal_residual <= 1e-9 and sol.gap <= 1e-9
    lower, upper = diamond_bracket(s)
    assert lower - 1e-9 <= sol.value <= upper + 1e-9


def _diamond_soak():
    path = Path(__file__).resolve().parent.parent / "tools" / "diamond_soak.py"
    spec = importlib.util.spec_from_file_location("diamond_soak", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_soak_maps_lie_inside_their_brackets():
    # the maps of `tools/diamond_soak.py --dims 2 3 4 --seeds 0 1 2`
    soak = _diamond_soak()
    maps = [m for d in (2, 3, 4) for seed in (0, 1, 2) for m in soak.soak_maps(d, seed, 3)]
    solved = certified(diamond_norm_solutions([s for _, s in maps]))
    check = soak.bracket_check(maps, solved)
    assert check["bracket_violations"] == []
    # every seesaw ends within 6.6e-6 relative of the value; a seesaw that
    # conjugates its eigenvector stalls 5-33% low
    assert check["bracket_worst_lower_shortfall"] <= 1e-4


def test_homogeneity_and_subadditivity():
    gen = builtin_model("qubit3")
    a = term_superop(gen, 2)
    b = term_superop(gen, 3)
    base = diamond_norm(a)
    for c in (0.5, 2.0):
        assert diamond_norm(c * a) == pytest.approx(c * base, abs=1e-6)
    assert diamond_norm(a + b) <= diamond_norm(a) + diamond_norm(b) + 1e-6


def test_rejects_non_hermiticity_preserving_input():
    # X -> iX has an anti-Hermitian Choi matrix
    with pytest.raises(ValueError, match="Hermiticity"):
        diamond_norm(1j * np.eye(4))


def test_generator_stats_zero_generator():
    gen = GkslGenerator(dim=2, hamiltonian=np.zeros((2, 2)), terms=())
    stats = generator_stats(gen)
    assert stats.max_scaled_norm == pytest.approx(0.0, abs=1e-6)
    assert stats.max_bare_norm == pytest.approx(0.0, abs=1e-6)
    assert stats.term_count == 1 and stats.total_rate == 1.0


def test_generator_stats_total_rate():
    gen = builtin_model("amp_damp", dict(gamma=3.0))  # rates (1, 3)
    stats = generator_stats(gen)
    assert stats.total_rate == pytest.approx(4.0)


def test_generator_stats_rate_homogeneity():
    for c in (0.5, 2.0):
        base = generator_stats(GkslGenerator(dim=2, hamiltonian=np.zeros((2, 2)),
                                             terms=((SM, 1.0),)))
        scaled = generator_stats(GkslGenerator(dim=2, hamiltonian=np.zeros((2, 2)),
                                               terms=((SM, c),)))
        assert scaled.max_scaled_norm == pytest.approx(c * base.max_scaled_norm, abs=1e-6)
        assert scaled.max_bare_norm == pytest.approx(base.max_bare_norm, abs=1e-6)


@pytest.mark.parametrize("name,params", [
    ("amp_damp", {}),
    ("qubit3", {}),
    ("random", dict(d=2, m=3, seed=7)),
    ("random", dict(d=3, m=4, seed=11)),
])
def test_generator_stats_one_solve_per_term(monkeypatch, name, params):
    gen = builtin_model(name, params)
    scaled = max(diamond_norm(term_superop(gen, k, with_rate=True))
                 for k in range(1, gen.m_total + 1))
    bare = max(diamond_norm(term_superop(gen, k, with_rate=False))
               for k in range(1, gen.m_total + 1))
    calls = []

    def counting(superops):
        calls.append(len(superops))
        return diamond_norm_solutions(superops)

    monkeypatch.setattr("lindsim.norms.diamond_norm_solutions", counting)
    stats = generator_stats(gen)
    assert calls == [gen.m_total]  # one batch, one solve per term
    assert stats.max_scaled_norm == pytest.approx(scaled, abs=TOL.diamond_abs_tol)
    assert stats.max_bare_norm == pytest.approx(bare, abs=TOL.diamond_abs_tol)


def test_generator_norm_dominated_by_term_count():
    for name in ("amp_damp", "qubit3"):
        gen = builtin_model(name)
        stats = generator_stats(gen)
        assert diamond_norm(full_liouvillian(gen)) <= stats.term_count * stats.max_scaled_norm + 1e-6


def test_lemma1_trivial_cases():
    chan = exact_channel(builtin_model("amp_damp"), 0.4)
    assert power_contraction_check(chan, chan, 3)
    other = exact_channel(builtin_model("qubit3"), 0.4)
    assert power_contraction_check(chan, other, 1)


def test_lemma1_random_pair():
    t_chan = exact_channel(builtin_model("random", dict(d=2, m=3, seed=10)), 0.5)
    v_chan = exact_channel(builtin_model("random", dict(d=2, m=3, seed=11)), 0.5)
    assert power_contraction_check(t_chan, v_chan, 4)


def test_lemma1_rejects_nonchannel():
    with pytest.raises(ValueError, match="not CPTP"):
        power_contraction_check(2 * np.eye(4), np.eye(4), 2)


def test_solver_soak_varied_inputs():
    # mixed bag of Hermiticity-preserving maps, including large-rate terms;
    # every accepted solve keeps its gap certificate and lies inside its bracket
    rng = np.random.default_rng(17)
    gaps = []
    for trial in range(10):
        if trial % 2 == 0:
            g1 = builtin_model("random", dict(d=2, m=3, seed=int(rng.integers(2**31))))
            g2 = builtin_model("random", dict(d=2, m=3, seed=int(rng.integers(2**31))))
            s = np.linalg.matrix_power(exact_channel(g1, 0.4), 3) - exact_channel(g2, 1.1)
        else:
            gen = GkslGenerator(dim=2, hamiltonian=np.zeros((2, 2)),
                                terms=((SM, float(rng.uniform(10, 60))),))
            s = term_superop(gen, 2, with_rate=True)
        sol = diamond_norm_solution(s)
        gaps.append(sol.gap)
        lower, upper = diamond_bracket(s)
        assert lower - 1e-6 <= sol.value <= upper + 1e-6
    assert max(gaps) <= 1e-7


def test_stats_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        GeneratorStats(max_scaled_norm=-1.0, max_bare_norm=0.0, total_rate=1.0, term_count=1)
    with pytest.raises(ValueError, match="positive"):
        GeneratorStats(max_scaled_norm=1.0, max_bare_norm=1.0, total_rate=1.0, term_count=0)


# ---------------------------------------------------------------------------
# independent oracles for the Hermiticity-preserving program
# ---------------------------------------------------------------------------

def _general_diamond_problem(j, d):
    """The general-form program, kept as an oracle:

        minimize    (||Tr_out Z0||_inf + ||Tr_out Z1||_inf) / 2
        subject to  [[Z0, -J], [-J^dag, Z1]] >= 0,   Z0, Z1 >= 0,

    with blocks [2d^2, d, d, 1, 1] and 2d^4 + 2d^2 constraints.
    """
    n = d * d
    big = 2 * n
    basis = herm_basis(d)
    m = 2 * n * n + 2 * d * d
    a_big = np.zeros((m, big, big), dtype=complex)
    a_h0 = np.zeros((m, d, d), dtype=complex)
    a_h1 = np.zeros((m, d, d), dtype=complex)
    a_m0 = np.zeros((m, 1, 1), dtype=complex)
    a_m1 = np.zeros((m, 1, 1), dtype=complex)
    rhs = np.zeros(m)
    i = 0
    for p in range(n):  # pin the off-diagonal block to -J
        for q in range(n):
            a_big[i, p, n + q] = a_big[i, n + q, p] = 0.5
            rhs[i] = -j[p, q].real
            a_big[i + 1, p, n + q] = 0.5j
            a_big[i + 1, n + q, p] = -0.5j
            rhs[i + 1] = -j[p, q].imag
            i += 2
    for b_r in basis:  # slacks H_x = mu_x I - Tr_out Z_x
        lifted = kron(b_r, np.eye(d))
        a_big[i, :n, :n] = lifted
        a_h0[i] = b_r
        a_m0[i, 0, 0] = -np.trace(b_r)
        a_big[i + 1, n:, n:] = lifted
        a_h1[i + 1] = b_r
        a_m1[i + 1, 0, 0] = -np.trace(b_r)
        i += 2
    objective = [np.zeros((big, big)), np.zeros((d, d)), np.zeros((d, d)),
                 np.array([[0.5]]), np.array([[0.5]])]
    return SdpProblem(block_sizes=[big, d, d, 1, 1],
                      constraints=[a_big, a_h0, a_h1, a_m0, a_m1],
                      objective=objective, rhs=rhs)


def _general_diamond_norm(superop):
    d = int(round(np.sqrt(superop.shape[0])))
    j = choi(superop, d)
    scale = max(1.0, float(np.linalg.norm(j)))
    sol = solve_sdp(_general_diamond_problem(j / scale, d),
                    gap_tol=min(1e-9, TOL.sdp_gap_tol / (10.0 * scale)),
                    feas_tol=1e-9, max_iters=TOL.sdp_max_iters)
    return sol.value * scale


def _random_hp_map(d, k, rng):
    """X -> sum_k c_k A_k X A_k^dag with real c_k of both signs."""
    s = np.zeros((d * d, d * d), dtype=complex)
    for _ in range(k):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        s += rng.normal() * kron(a.conj(), a)
    return s / np.linalg.norm(s)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_commutator_closed_form(d):
    # ||-i[H, .]||_diamond = lambda_max(H) - lambda_min(H)
    for seed in range(2):
        gen = builtin_model("random", dict(d=d, m=1, seed=seed))
        sol = diamond_norm_solution(term_superop(gen, 1))
        eigs = np.linalg.eigvalsh(gen.hamiltonian)
        assert sol.gap <= TOL.sdp_gap_tol
        assert sol.value == pytest.approx(eigs[-1] - eigs[0], abs=TOL.diamond_abs_tol)


@pytest.mark.parametrize("d", [2, 3])
def test_agrees_with_general_form_program(d):
    rng = np.random.default_rng(100 + d)
    gen = builtin_model("random", dict(d=d, m=3, seed=d))
    maps = [_random_hp_map(d, k, rng) for k in (1, 2, 4)]
    half = exact_channel(gen, 0.15)
    maps += [term_superop(gen, 2), exact_channel(gen, 0.3) - half @ half]
    for s in maps:
        sol = diamond_norm_solution(s)
        assert sol.gap <= TOL.sdp_gap_tol
        assert abs(sol.value - _general_diamond_norm(s)) <= 1e-8


def test_qudit_terms_solve_or_raise_typed_error():
    # random d=4 terms: a certified value or SdpConvergenceError, never a raw LinAlgError
    for seed in range(4):
        gen = builtin_model("random", dict(d=4, m=3, seed=seed))
        for k in (2, 3):
            for with_rate in (True, False):
                try:
                    sol = diamond_norm_solution(term_superop(gen, k, with_rate=with_rate))
                except SdpConvergenceError as exc:
                    assert exc.gap >= 0.0
                    continue
                assert sol.gap <= TOL.sdp_gap_tol
                assert sol.value > 0.0


def test_qudit_dissipator_converges_in_few_iterations():
    # near the optimum the Schur complement is indefinite only by rounding; a
    # jitter far above that level stalls the primal residual, and this solve
    # then ran into a collapsed step instead of converging
    gen = builtin_model("random", dict(d=4, m=3, seed=0))
    sol = diamond_norm_solution(term_superop(gen, 2, with_rate=True))
    assert sol.gap <= TOL.sdp_gap_tol
    assert sol.iterations <= 50


def test_qudit_term_with_stalling_residual_ends_early():
    # this solve once ran into the 500-iteration cap with a converged gap and
    # a primal residual stuck between 1e-9 and 5e-8
    gen = builtin_model("random", dict(d=4, m=4, seed=3))
    try:
        sol = diamond_norm_solution(term_superop(gen, 4, with_rate=True))
    except SdpConvergenceError as exc:
        assert exc.iterations <= 60
        return
    assert sol.gap <= TOL.sdp_gap_tol
    assert sol.iterations <= 60


def test_term_stats_read_a_shared_iterator_in_turn():
    gens = [builtin_model("amp_damp"), builtin_model("qubit3"), builtin_model("two_qubit_xy")]
    solved = iter(diamond_norm_solutions([m for gen in gens for m in term_maps(gen)]))
    for gen in gens:
        stats, alone = term_stats(gen, solved), generator_stats(gen)
        assert stats.term_count == alone.term_count and stats.total_rate == alone.total_rate
        assert stats.max_scaled_norm == pytest.approx(alone.max_scaled_norm, abs=TOL.diamond_abs_tol)
        assert stats.max_bare_norm == pytest.approx(alone.max_bare_norm, abs=TOL.diamond_abs_tol)
    assert next(solved, None) is None


def test_generator_stats_failure_names_term_and_dimension(monkeypatch):
    gen = builtin_model("random", dict(d=3, m=3, seed=2))

    def failing_on_term_2(superops):
        return [SdpConvergenceError("interior-point step collapsed", 2e-5, 37, 4e-8)
                if np.allclose(superop, term_superop(gen, 2, with_rate=False))
                else SimpleNamespace(value=1.0) for superop in superops]

    monkeypatch.setattr("lindsim.norms.diamond_norm_solutions", failing_on_term_2)
    with pytest.raises(SdpConvergenceError) as err:
        generator_stats(gen)
    message = str(err.value)
    assert "term 2" in message and "d=3" in message and "step collapsed" in message
    assert "37 iterations" in message and "primal residual 4.000e-08" in message
    assert (err.value.gap, err.value.iterations, err.value.primal_residual) == (2e-5, 37, 4e-8)


def test_term_stats_re_raises_a_failure_that_is_not_the_solver_s():
    gen = builtin_model("amp_damp")
    failure = np.linalg.LinAlgError("Choi matrix is not finite")
    with pytest.raises(np.linalg.LinAlgError) as err:
        term_stats(gen, [SimpleNamespace(value=1.0), failure])
    assert err.value is failure


# ---------------------------------------------------------------------------
# batched certification against the HKM reference
# ---------------------------------------------------------------------------

def _assert_matches_reference(solutions, maps):
    # two certified values differ by at most half their summed gaps; each
    # gap is at most 1e-9 per unit of the Choi matrix's Frobenius norm
    for sol, s in zip(solutions, maps):
        ref = reference_diamond_norm(s)
        assert sol.gap <= TOL.sdp_gap_tol
        assert abs(sol.value - ref.value) <= max(1e-9, (sol.gap + ref.gap) / 2)


def test_batched_closed_forms_match_reference():
    u = np.diag([1.0, 1j])
    maps = [np.zeros((4, 4)), np.eye(4) - unitary_conjugation(u),
            exact_channel(builtin_model("amp_damp"), 0.6), exact_channel(builtin_model("qubit3"), 1.2)]
    solutions = diamond_norm_solutions(maps)
    expected = [0.0, np.sqrt(2), 1.0, 1.0]
    assert [sol.value for sol in solutions] == pytest.approx(expected, abs=TOL.diamond_abs_tol)
    _assert_matches_reference(solutions, maps)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_batched_commutators_and_random_maps_match_reference(d):
    rng = np.random.default_rng(200 + d)
    gens = [builtin_model("random", dict(d=d, m=1, seed=seed)) for seed in range(2)]
    maps = [term_superop(gen, 1) for gen in gens]
    maps += [_random_hp_map(d, k, rng) for k in (1, 3)]
    gen = builtin_model("random", dict(d=d, m=3, seed=d))
    maps += [term_superop(gen, 2), exact_channel(gen, 0.3) - np.eye(d * d)]
    solutions = diamond_norm_solutions(maps)
    for gen, sol in zip(gens, solutions):
        eigs = np.linalg.eigvalsh(gen.hamiltonian)
        assert sol.value == pytest.approx(eigs[-1] - eigs[0], abs=TOL.diamond_abs_tol)
    _assert_matches_reference(solutions, maps)


def test_solutions_keep_order_across_dimensions_and_bad_inputs():
    maps = [np.eye(9) - unitary_conjugation(np.diag([1.0, 1.0, 1j])),
            1j * np.eye(4),  # not Hermiticity-preserving
            np.eye(4) - unitary_conjugation(np.diag([1.0, 1j])),
            np.zeros((3, 3))]  # not a square of squares
    solutions = diamond_norm_solutions(maps)
    assert solutions[0].value == pytest.approx(np.sqrt(2), abs=TOL.diamond_abs_tol)
    assert solutions[2].value == pytest.approx(np.sqrt(2), abs=TOL.diamond_abs_tol)
    assert isinstance(solutions[1], ValueError) and "Hermiticity" in str(solutions[1])
    assert isinstance(solutions[3], ValueError) and "square of squares" in str(solutions[3])


def test_power_contraction_several_n_match_single_calls(monkeypatch):
    t_chan = exact_channel(builtin_model("random", dict(d=2, m=3, seed=10)), 0.5)
    v_chan = exact_channel(builtin_model("random", dict(d=2, m=3, seed=11)), 0.5)
    singles = [power_contraction_check(t_chan, v_chan, n) for n in (2, 4, 8)]
    batches = []

    def counting(superops):
        batches.append(len(superops))
        return diamond_norm_solutions(superops)

    monkeypatch.setattr("lindsim.norms.diamond_norm_solutions", counting)
    assert power_contraction_check(t_chan, v_chan, (2, 4, 8)) == singles == [True] * 3
    assert batches == [4]  # ||T - V|| once, with every ||T^N - V^N||
    loose = power_contraction_check(t_chan, v_chan, [1, 3], slack=-1.0)
    assert loose == [power_contraction_check(t_chan, v_chan, 1, slack=-1.0),
                     power_contraction_check(t_chan, v_chan, 3, slack=-1.0)]
    with pytest.raises(ValueError, match="positive"):
        power_contraction_check(t_chan, v_chan, [2, 0])


def count_plan_calls(monkeypatch, *modules):
    """Record the map count of every diamond_norm_solutions call made through these modules."""
    calls = []

    def counting(superops):
        calls.append(len(superops))
        return diamond_norm_solutions(superops)

    for module in modules:
        monkeypatch.setattr(f"lindsim.{module}.diamond_norm_solutions", counting)
    return calls


def test_identities_suite_makes_80_solves(monkeypatch):
    from lindsim.validation import validate_all

    solves = count_plan_calls(monkeypatch, "validation")
    report = validate_all(seed=0, suite="identities")
    assert report.passed
    assert solves == [80]


def test_sampling_suite_certifies_its_maps_in_one_call(monkeypatch):
    from lindsim.validation import validate_all

    solves = count_plan_calls(monkeypatch, "validation")
    report = validate_all(seed=0, suite="sampling")
    assert report.passed
    assert solves == [2]


def test_validate_certifies_its_plan_in_one_call(monkeypatch):
    from lindsim.validation import validate_all

    calls = count_plan_calls(monkeypatch, "validation", "harness", "norms")
    report = validate_all(seed=0, suite="all")
    assert report.passed
    # the one call of each of the 3 bounds sweeps, its term maps and then its 5 x 5
    # points, then the plan: 23 norms maps, 80 identities maps, 8 forking term maps
    # and 2 sampling maps
    assert calls == [2 + 25, 3 + 25, 3 + 25, 23 + 80 + 8 + 2]
    calls.clear()
    assert validate_all(seed=0, suite="forking").passed
    assert calls == [2 + 3 + 3]  # the term maps of amp_damp, qubit3 and random d=2 m=3


@pytest.mark.parametrize("frobenius", [0.5, 65.0])
def test_certificate_is_at_the_maps_scale(frobenius):
    # the primal blocks certify the map itself, not its unit-scaled copy:
    # P - Q = J, the mu block is the primal objective, and the gap is |primal - dual|
    gen = builtin_model("random", dict(d=2, m=3, seed=7))
    step = exact_channel(gen, 1.0) - np.eye(4)
    superop = frobenius / np.linalg.norm(choi(step, 2)) * step
    j = choi(superop, 2)
    sol = diamond_norm_solution(superop)
    p, q, h, mu = sol.primal_blocks
    assert np.max(np.abs(p - q - j)) <= 1e-6
    assert mu[0, 0] == sol.primal_objective
    assert abs(sol.primal_objective - sol.dual_objective) == pytest.approx(sol.gap, rel=1e-9)
    assert sol.value == pytest.approx(sol.primal_objective, abs=TOL.sdp_gap_tol)
    assert np.min(np.linalg.eigvalsh(h)) >= -1e-6 * frobenius
