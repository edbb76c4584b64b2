import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindsim.formulas import (
    METHODS,
    Direction,
    EveryOrder,
    Implementation,
    Method,
    GATE_COMPLEXITY,
    error_bound,
    gate_count,
    qdrift_exact,
    qdrift_probs,
    s1_dir,
    s1_ran_exact,
    s2_det,
    s2_ran_exact,
    s2_sigma,
    step_count,
    Support,
    TermExp,
)
from lindsim.lindblad import (GkslGenerator, constituent_channel, exact_channel, full_liouvillian, is_cptp,
                              term_superop)
from lindsim.models import builtin_model
from lindsim.norms import GeneratorStats, diamond_norm, generator_stats

SZ = np.diag([1.0, -1.0]).astype(complex)
SM = np.array([[0, 1], [0, 0]], dtype=complex)


@pytest.fixture(scope="module")
def noncommuting():
    return builtin_model("random", dict(d=2, m=3, seed=7))


@pytest.fixture(scope="module")
def noncommuting_stats(noncommuting):
    return generator_stats(noncommuting)


def stats_for(**kwargs):
    return GeneratorStats(**kwargs)


def one_step_slope(build, dts):
    errs = [np.max(np.abs(build(dt))) for dt in dts]
    return float(np.polyfit(np.log(dts), np.log(errs), 1)[0])


DTS = np.array([0.2, 0.1, 0.05, 0.025])


def test_s1_single_term_both_directions():
    gen = GkslGenerator(dim=2, hamiltonian=SZ, terms=())
    expected = constituent_channel(gen, 1, 0.3)
    for direction in Direction:
        assert np.allclose(s1_dir(gen, 0.3, direction), expected)


def test_s1_commuting_terms_exact():
    # all terms diagonal in the same basis: sweeps in any order are exact
    gen = GkslGenerator(dim=2, hamiltonian=SZ, terms=((SZ, 0.7),))
    for direction in Direction:
        assert np.max(np.abs(s1_dir(gen, 0.4, direction) - exact_channel(gen, 0.4))) < 1e-10


def test_s1_order_convention_entrywise():
    gen = builtin_model("amp_damp")
    e1 = constituent_channel(gen, 1, 0.2)
    e2 = constituent_channel(gen, 2, 0.2)
    assert np.allclose(s1_dir(gen, 0.2, Direction.FORWARD), e2 @ e1)
    assert np.allclose(s1_dir(gen, 0.2, Direction.REVERSED), e1 @ e2)


def test_s1_one_step_bound(noncommuting, noncommuting_stats):
    # per-step distance is dominated by (dt M L)^2 exp(dt M L)
    dt = 0.1
    scale = dt * noncommuting_stats.term_count * noncommuting_stats.max_scaled_norm
    err = diamond_norm(exact_channel(noncommuting, dt) - s1_dir(noncommuting, dt, Direction.FORWARD))
    assert err <= scale**2 * math.exp(scale)


def test_s2_single_term_exact():
    gen = GkslGenerator(dim=2, hamiltonian=np.zeros((2, 2)), terms=((SM, 1.3),))
    assert np.max(np.abs(s2_det(gen, 0.5) - constituent_channel(gen, 2, 0.5))) < 1e-13


def test_s2_is_half_sweeps_composed(noncommuting):
    dt = 0.3
    expected = s1_dir(noncommuting, dt / 2, Direction.REVERSED) @ s1_dir(
        noncommuting, dt / 2, Direction.FORWARD)
    assert np.max(np.abs(s2_det(noncommuting, dt) - expected)) < 1e-14


def test_s2_one_step_third_order(noncommuting):
    slope = one_step_slope(
        lambda dt: exact_channel(noncommuting, dt) - s2_det(noncommuting, dt), DTS)
    assert slope == pytest.approx(3.0, abs=0.2)


def test_s2_half_step_tampering_breaks_order(noncommuting):
    # wrong half-step coefficient reduces the one-step order to one
    def tampered(dt):
        bad = s1_dir(noncommuting, dt / 3, Direction.REVERSED) @ s1_dir(
            noncommuting, dt / 3, Direction.FORWARD)
        return exact_channel(noncommuting, dt) - bad

    assert one_step_slope(tampered, DTS) < 2.0


def test_s1_ran_single_term():
    gen = GkslGenerator(dim=2, hamiltonian=np.zeros((2, 2)), terms=((SM, 1.0),))
    assert np.allclose(s1_ran_exact(gen, 0.4), constituent_channel(gen, 2, 0.4))


def test_s1_ran_is_cptp(noncommuting):
    assert is_cptp(s1_ran_exact(noncommuting, 0.3))


def test_s1_ran_upgrades_one_step_order(noncommuting):
    slope_det = one_step_slope(
        lambda dt: exact_channel(noncommuting, dt) - s1_dir(noncommuting, dt, Direction.FORWARD), DTS)
    slope_ran = one_step_slope(
        lambda dt: exact_channel(noncommuting, dt) - s1_ran_exact(noncommuting, dt), DTS)
    assert slope_det == pytest.approx(2.0, abs=0.2)
    assert slope_ran == pytest.approx(3.0, abs=0.2)


def test_s2_sigma_identity_is_s2det(noncommuting):
    sigma = tuple(range(1, noncommuting.m_total + 1))
    assert np.allclose(s2_sigma(noncommuting, 0.25, sigma), s2_det(noncommuting, 0.25))


def test_s2_sigma_rejects_non_permutation(noncommuting):
    with pytest.raises(ValueError, match="permutation"):
        s2_sigma(noncommuting, 0.1, (1, 1, 2))


def test_s2_ran_two_terms_entrywise():
    gen = builtin_model("amp_damp")
    mixed = 0.5 * (s2_sigma(gen, 0.3, (1, 2)) + s2_sigma(gen, 0.3, (2, 1)))
    assert np.allclose(s2_ran_exact(gen, 0.3), mixed)


def test_s2_ran_degenerate_terms_collapse():
    gen = GkslGenerator(dim=2, hamiltonian=np.zeros((2, 2)), terms=((SM, 1.0), (SM, 1.0)))
    assert np.max(np.abs(s2_ran_exact(gen, 0.2) - s2_det(gen, 0.2))) < 1e-13


def test_s2_ran_cptp_and_cap(noncommuting):
    # no cap on M: the exact mixture over 8! orders is a channel too
    assert is_cptp(s2_ran_exact(noncommuting, 0.2))
    big = GkslGenerator(dim=2, hamiltonian=SZ, terms=tuple((SM, 1.0) for _ in range(7)))
    assert is_cptp(s2_ran_exact(big, 0.1))


def test_qdrift_probs_examples():
    assert np.allclose(qdrift_probs(builtin_model("amp_damp", dict(gamma=3.0))), [0.25, 0.75])
    single = GkslGenerator(dim=2, hamiltonian=SZ, terms=())
    assert np.allclose(qdrift_probs(single), [1.0])
    uniform = GkslGenerator(dim=2, hamiltonian=SZ,
                            terms=((SM, 1.0), (SZ, 1.0), (SM, 1.0)))
    assert np.allclose(qdrift_probs(uniform), [0.25, 0.25, 0.25, 0.25])


def test_qdrift_single_term():
    gen = GkslGenerator(dim=2, hamiltonian=SZ, terms=())
    assert np.allclose(qdrift_exact(gen, 0.3), constituent_channel(gen, 1, 0.3))


def test_qdrift_cptp(noncommuting):
    assert is_cptp(qdrift_exact(noncommuting, 0.4))


def test_qdrift_first_moment(noncommuting):
    # one-sided O(h^2) stencil of d/dw at w=0 matches Liouvillian / total rate
    total_rate = float(np.sum(noncommuting.rates))
    h = 1e-4
    deriv = (4 * qdrift_exact(noncommuting, h) - qdrift_exact(noncommuting, 2 * h)
             - 3 * np.eye(4)) / (2 * h)
    target = full_liouvillian(noncommuting) / total_rate
    assert np.max(np.abs(deriv - target)) < 1e-6


def test_qdrift_step_matches_exact_to_second_order(noncommuting):
    total_rate = float(np.sum(noncommuting.rates))
    slope = one_step_slope(
        lambda dt: qdrift_exact(noncommuting, dt * total_rate) - exact_channel(noncommuting, dt),
        DTS)
    assert slope == pytest.approx(2.0, abs=0.2)


def test_step_count_worked_examples():
    s = stats_for(max_scaled_norm=1.0, max_bare_norm=1.0, total_rate=1.0, term_count=2)
    assert step_count(Method.S1_DET, s, t=1.0, epsilon=0.1).n_steps == 40
    s = stats_for(max_scaled_norm=1.0, max_bare_norm=1.0, total_rate=1.0, term_count=4)
    assert step_count(Method.S1_RAN, s, t=1.0, epsilon=0.01).n_steps == 47
    s = stats_for(max_scaled_norm=1.0, max_bare_norm=1.0, total_rate=2.0, term_count=1)
    assert step_count(Method.QDRIFT, s, t=1.0, epsilon=0.1).n_steps == 40


def test_step_count_is_exact_ceiling():
    s = stats_for(max_scaled_norm=1.0, max_bare_norm=1.0, total_rate=1.0, term_count=2)
    # t^2 M^2 / eps = 4 / 0.25 = 16 exactly: no off-by-one
    assert step_count(Method.S1_DET, s, t=1.0, epsilon=0.25).n_steps == 16
    assert step_count(Method.S1_DET, s, t=1.0, epsilon=0.2501).n_steps == 16
    assert step_count(Method.S1_DET, s, t=1.0, epsilon=0.2499).n_steps == 17


def test_step_count_at_an_exact_boundary():
    # (M t lam)^3 / (3 N^2) = 216 / 432 = 0.5 exactly at N = 12
    s = stats_for(max_scaled_norm=2.0, max_bare_norm=1.0, total_rate=1.0, term_count=6)
    for method in (Method.S2_DET, Method.S1_RAN):
        assert error_bound(method, s, 0.5, 12) == 0.5
        assert step_count(method, s, t=0.5, epsilon=0.5).n_steps == 12


# small binary fractions and integers put the bound exactly on epsilon
FRIENDLY = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0])


@settings(max_examples=400, deadline=None)
@given(method=st.sampled_from(list(Method)), conservative=st.booleans(), m=st.integers(1, 8),
       t=st.one_of(FRIENDLY, st.floats(0.01, 5.0)), lam=st.one_of(FRIENDLY, st.floats(0.01, 5.0)),
       gamma=st.one_of(FRIENDLY, st.floats(0.01, 5.0)), omega=st.one_of(FRIENDLY, st.floats(0.01, 5.0)),
       eps=st.one_of(st.sampled_from([2.0, 1.0, 0.5, 0.25, 0.125, 0.1, 0.01]), st.floats(1e-4, 10.0)))
def test_step_count_is_the_smallest_n_within_epsilon(method, conservative, m, t, lam, gamma, omega,
                                                      eps):
    s = stats_for(max_scaled_norm=lam, max_bare_norm=omega, total_rate=gamma, term_count=m)
    found = step_count(method, s, t, eps, conservative=conservative)
    n = found.n_steps
    assert found.epsilon_bound == error_bound(method, s, t, n, conservative=conservative) <= eps
    assert n == 1 or error_bound(method, s, t, n - 1, conservative=conservative) > eps


def test_every_method_has_a_record():
    assert list(METHODS) == list(Method)
    assert [METHODS[k].order for k in Method] == [1, 2, 2, 2, 1]
    assert [METHODS[k].gates_cs(5) for k in Method] == [5, 10, 5, 10, 1]
    assert [METHODS[k].gates_qf and METHODS[k].gates_qf(5) for k in Method] == [None, None, 12, None, 13]
    assert [k for k in Method if METHODS[k].randomised] == [Method.S1_RAN, Method.S2_RAN, Method.QDRIFT]


def test_step_length_is_t_over_n_or_rate_weighted(noncommuting):
    total_rate = float(np.sum(noncommuting.rates))
    for method in Method:
        expected = 1.5 * (total_rate if method == Method.QDRIFT else 1.0) / 6
        assert METHODS[method].step_length(noncommuting, 1.5, 6) == pytest.approx(expected, rel=1e-15)


def test_step_count_rejects_bad_epsilon():
    s = stats_for(max_scaled_norm=1.0, max_bare_norm=1.0, total_rate=1.0, term_count=2)
    with pytest.raises(ValueError, match="precision"):
        step_count(Method.S1_DET, s, t=1.0, epsilon=0.0)


def test_error_bound_worked_examples():
    s = stats_for(max_scaled_norm=1.0, max_bare_norm=1.0, total_rate=1.0, term_count=2)
    assert error_bound(Method.S2_DET, s, t=1.0, n=10) == pytest.approx(8 / 300)
    s = stats_for(max_scaled_norm=1.0, max_bare_norm=1.0, total_rate=2.0, term_count=1)
    assert error_bound(Method.QDRIFT, s, t=1.0, n=40) == pytest.approx(0.1)


def test_error_bound_scalings():
    s = stats_for(max_scaled_norm=1.5, max_bare_norm=1.0, total_rate=2.0, term_count=3)
    assert error_bound(Method.S1_DET, s, 1.0, 20) == pytest.approx(
        error_bound(Method.S1_DET, s, 1.0, 10) / 2)
    assert error_bound(Method.S1_RAN, s, 1.0, 20) == pytest.approx(
        error_bound(Method.S1_RAN, s, 1.0, 10) / 4)


def test_error_bound_variants():
    s = stats_for(max_scaled_norm=1.0, max_bare_norm=1.0, total_rate=1.0, term_count=2)
    plain = error_bound(Method.S2_RAN, s, 1.0, 10)
    assert error_bound(Method.S2_RAN, s, 1.0, 10, conservative=True) == pytest.approx(8 * plain)
    with_exp = error_bound(Method.S2_RAN, s, 1.0, 10, with_exp_factor=True)
    assert with_exp == pytest.approx(plain * math.exp(2 / 10))
    # the rate-weighted mixture's growth factor is exp(t * total_rate * bare_norm / n)
    s = stats_for(max_scaled_norm=1.0, max_bare_norm=1.5, total_rate=2.0, term_count=3)
    qd_plain = error_bound(Method.QDRIFT, s, 1.0, 10)
    qd_exp = error_bound(Method.QDRIFT, s, 1.0, 10, with_exp_factor=True)
    assert qd_exp == pytest.approx(qd_plain * math.exp(3.0 / 10))


def test_conservative_step_count_is_larger():
    s = stats_for(max_scaled_norm=1.0, max_bare_norm=1.0, total_rate=1.0, term_count=3)
    default = step_count(Method.S2_RAN, s, t=1.0, epsilon=0.01).n_steps
    conservative = step_count(Method.S2_RAN, s, t=1.0, epsilon=0.01, conservative=True).n_steps
    assert conservative > default
    # only the permuted-mixture method is affected by the flag
    for method in (Method.S1_DET, Method.S2_DET, Method.S1_RAN, Method.QDRIFT):
        assert (step_count(method, s, 1.0, 0.01, conservative=True).n_steps
                == step_count(method, s, 1.0, 0.01).n_steps)


def test_gate_count_formulas():
    assert gate_count(Method.S1_DET, 3, 10, Implementation.CS) == 30
    assert gate_count(Method.S2_DET, 3, 10, Implementation.CS) == 60
    assert gate_count(Method.S1_RAN, 3, 10, Implementation.CS) == 30
    assert gate_count(Method.S2_RAN, 3, 10, Implementation.CS) == 60
    assert gate_count(Method.QDRIFT, 5, 7, Implementation.CS) == 7
    assert gate_count(Method.S1_RAN, 2, 10, Implementation.QF) == 60
    assert gate_count(Method.QDRIFT, 3, 5, Implementation.QF) == 35


def test_gate_count_forking_restrictions():
    with pytest.raises(ValueError, match="M!"):
        gate_count(Method.S2_RAN, 3, 10, Implementation.QF)
    with pytest.raises(ValueError, match="only for s1_ran and qdrift"):
        gate_count(Method.S1_DET, 3, 10, Implementation.QF)


def test_restricted_sum_identity():
    for m, p, x in ((2, 3, 1.0), (3, 4, 0.5), (4, 2, 0.3)):
        brute = sum(
            x**p / np.prod([math.factorial(j) for j in js])
            for js in itertools.product(range(p + 1), repeat=m)
            if sum(js) == p
        )
        assert brute == pytest.approx(m**p * x**p / math.factorial(p), abs=1e-12)
    # the (3, 4, 0.5) case has a terminating decimal on both routes
    assert 3**4 * 0.5**4 / math.factorial(4) == pytest.approx(0.2109375, abs=1e-15)


def test_table1_strings_are_pinned():
    assert GATE_COMPLEXITY[(Method.S1_DET, Implementation.CS)] == "O((tΛ)²M³/ε)"
    assert GATE_COMPLEXITY[(Method.S2_DET, Implementation.CS)] == "O((tΛ)^(3/2)M^(5/2)/√(3ε))"
    assert GATE_COMPLEXITY[(Method.S1_RAN, Implementation.CS)] == "O((tΛ)^(3/2)M^(5/2)/√(3ε))"
    assert GATE_COMPLEXITY[(Method.S2_RAN, Implementation.CS)] == "O((tΛ)^(3/2)M²/√ε)"
    assert GATE_COMPLEXITY[(Method.QDRIFT, Implementation.CS)] == "O((tΓΩ)²/ε)"
    assert GATE_COMPLEXITY[(Method.S1_RAN, Implementation.QF)] == "O((tΛ)^(3/2)M^(5/2)/√(3ε))"
    assert GATE_COMPLEXITY[(Method.QDRIFT, Implementation.QF)] == "O((tΓΩ)²M/ε)"
    assert (Method.S2_RAN, Implementation.QF) not in GATE_COMPLEXITY


def every_order_mean(gen, dt):
    """The M! enumeration: the mean of the permuted second-order blocks."""
    orders = list(itertools.permutations(range(1, gen.m_total + 1)))
    return sum(s2_sigma(gen, dt, sigma) for sigma in orders) / len(orders)


def test_s2_ran_exact_reuses_term_exponentials(monkeypatch):
    import lindsim.lindblad as lindblad
    from lindsim.linalg import mat_exp

    gen = builtin_model("random", dict(d=2, m=6, seed=3))
    dt = 0.2
    # the uncached recursion: G(S) = sum over k in S of E_k G(S - {k}) E_k, G({}) = I,
    # every half-step exponential recomputed in place
    table = [np.eye(4, dtype=complex)]
    for s in range(1, 2**6):
        table.append(sum(mat_exp(dt / 2 * term_superop(gen, j + 1)) @ table[s ^ 1 << j]
                         @ mat_exp(dt / 2 * term_superop(gen, j + 1))
                         for j in range(6) if s >> j & 1))
    expected = table[-1] / 720.0

    calls = []
    monkeypatch.setattr(lindblad, "mat_exp", lambda a: calls.append(1) or mat_exp(a))
    got = s2_ran_exact(gen, dt)
    assert len(calls) <= 2 * gen.m_total
    assert np.array_equal(got, expected)
    # the sum runs in another order than the enumeration's, so it agrees by rounding only
    assert np.max(np.abs(got - every_order_mean(gen, dt))) <= 1e-13


def test_s2_ran_exact_at_seven_terms_matches_every_order():
    gen = builtin_model("random", dict(d=2, m=7, seed=1))
    assert np.max(np.abs(s2_ran_exact(gen, 0.5) - every_order_mean(gen, 0.5))) <= 1e-13


STEP_MODELS = [("amp_damp", {}), ("qubit3", {}), ("random", dict(d=3, m=4, seed=11))]


@pytest.mark.parametrize("model, params", STEP_MODELS)
def test_step_channel_is_the_methods_formula(model, params):
    # a record's step is the weighted mean over its support; for the
    # deterministic methods that is one sweep or one symmetric block, bit for bit
    gen = builtin_model(model, params)
    t, n = 1.0, 4
    dt = t / n
    formulas = {
        Method.S1_DET: s1_dir(gen, dt, Direction.FORWARD),
        Method.S2_DET: s1_dir(gen, dt / 2, Direction.REVERSED) @ s1_dir(gen, dt / 2, Direction.FORWARD),
        Method.S1_RAN: s1_ran_exact(gen, dt),
        Method.S2_RAN: s2_ran_exact(gen, dt),
        Method.QDRIFT: qdrift_exact(gen, t * float(np.sum(gen.rates)) / n),
    }
    for method, expected in formulas.items():
        assert np.array_equal(METHODS[method].step_channel(gen, t, n), expected), method
    assert np.array_equal(s2_det(gen, dt), formulas[Method.S2_DET])


@pytest.mark.parametrize("call, fragment", [
    (lambda gen: s1_dir(gen, 0.0, Direction.FORWARD), "step length must be positive"),
    (lambda gen: s2_sigma(gen, -0.1, (1, 2)), "step length must be positive"),
    (lambda gen: Support((1.0,), [TermExp(1)]).mixture(gen, 0.0), "step length must be positive"),
    (lambda gen: EveryOrder(2).mixture(gen, -1.0), "step length must be positive"),
    (lambda gen: error_bound(Method.S1_DET, GeneratorStats(1.0, 1.0, 2.0, 2), 1.0, 0),
     "step count must be a positive integer"),
], ids=["s1_dir", "s2_sigma", "Support.mixture", "EveryOrder.mixture", "error_bound"])
def test_input_refusals(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call(builtin_model("amp_damp"))
