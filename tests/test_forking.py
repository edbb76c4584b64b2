import numpy as np
import pytest

from lindsim.forking import (
    ForkLayout,
    _cswap_perm,
    fork_qdrift_run,
    fork_qdrift_step,
    fork_s1_run,
    fork_s1_step,
)
from lindsim.formulas import Direction, qdrift_exact, qdrift_probs, s1_dir, s1_ran_exact
from lindsim.lindblad import GkslGenerator, constituent_channel, exact_channel
from lindsim.linalg import DensityMatrix, devectorize, kron, partial_trace, trace_distance, vectorize
from lindsim.models import builtin_model
from lindsim.norms import generator_stats
from lindsim.tolerances import TOL

SZ = np.diag([1.0, -1.0]).astype(complex)
SM = np.array([[0, 1], [0, 0]], dtype=complex)

RHO0 = DensityMatrix.pure([1, 0])
PHIS = [
    DensityMatrix.maximally_mixed(2),
    DensityMatrix.pure([0, 1]),
    DensityMatrix(np.array([[0.7, 0.21 - 0.1j], [0.21 + 0.1j, 0.3]], dtype=complex)),
]


ORACLE_MODELS = [("amp_damp", {}), ("qubit3", {}), ("random", dict(d=2, m=3, seed=7))]


def mixture_state(channel, rho):
    return devectorize(channel @ vectorize(rho.matrix))


def states(d):
    """Ground, maximally mixed and a full-rank state with coherences, all d x d."""
    g = np.arange(1.0, d * d + 1).reshape(d, d) * (1 + 0.5j)
    mixed = g @ g.conj().T + np.eye(d)
    return [DensityMatrix.ground(d), DensityMatrix.maximally_mixed(d),
            DensityMatrix(mixed / np.trace(mixed).real)]


# --- reference: the fork blocks as dense composite superoperators -----------
#
# The circuit written out gate by gate on the D^2-sided superoperator space:
# controlled-SWAP unitaries built basis state by basis state, branch channels
# as exponentials of the generator embedded into the composite space.


def cswap_channel(layout, control_value, target_a, target_b):
    """Superoperator of the controlled-SWAP unitary, from the blocks' index permutation."""
    u = np.eye(layout.total_dim)[_cswap_perm(layout, control_value, target_a, target_b)]
    return kron(u.conj(), u)


def loop_cswap_channel(layout, control_value, target_a, target_b):
    dims = layout.dims
    total = layout.total_dim
    u = np.zeros((total, total))
    for idx in range(total):
        digits = list(np.unravel_index(idx, dims))
        if digits[0] == control_value:
            digits[target_a], digits[target_b] = digits[target_b], digits[target_a]
        u[np.ravel_multi_index(tuple(digits), dims), idx] = 1.0
    return kron(u.conj(), u)


def embed_generator(gen, layout, register):
    def embed(op):
        out = np.ones((1, 1), dtype=complex)
        for pos, d in enumerate(layout.dims):
            out = kron(out, op if pos == register else np.eye(d))
        return out

    return GkslGenerator(dim=layout.total_dim, hamiltonian=embed(gen.hamiltonian),
                         terms=tuple((embed(op), rate) for op, rate in gen.terms))


def dense_block_output(dense_block, rho_sys, rho_phi):
    block, layout, prep = dense_block
    total = prep
    for slot in range(1 + layout.n_ancillas):
        total = kron(total, rho_sys.matrix if slot == 0 else rho_phi.matrix)
    out = devectorize(block @ vectorize(total))
    return partial_trace(out, list(layout.dims), keep=[1])


def dense_s1_block(gen, dt):
    layout = ForkLayout(control_dim=2, system_dim=gen.dim)
    swap = loop_cswap_channel(layout, 1, 1, 2)
    forward = s1_dir(embed_generator(gen, layout, 1), dt, Direction.FORWARD)
    backward = s1_dir(embed_generator(gen, layout, 2), dt, Direction.REVERSED)
    return swap @ backward @ forward @ swap, layout, np.eye(2, dtype=complex) / 2


def dense_qdrift_block(gen, omega):
    m = gen.m_total
    layout = ForkLayout(control_dim=m, system_dim=gen.dim)
    d2 = layout.total_dim**2
    route = np.eye(d2, dtype=complex)
    for k in range(2, m + 1):
        route = loop_cswap_channel(layout, k - 1, 1, k) @ route
    branch = np.eye(d2, dtype=complex)
    for k in range(1, m + 1):
        branch = constituent_channel(embed_generator(gen, layout, k), k, omega,
                                     with_rate=False) @ branch
    return route @ branch @ route, layout, np.diag(qdrift_probs(gen)).astype(complex)


def test_layout_arithmetic():
    layout = ForkLayout(control_dim=3, system_dim=2)
    assert layout.total_dim == 3 * 2**3
    assert layout.dims == (3, 2, 2, 2)


def test_layout_cap():
    with pytest.raises(ValueError, match="cap"):
        ForkLayout(control_dim=4, system_dim=3)


def test_layout_rejects_an_empty_register():
    with pytest.raises(ValueError, match="register dimensions must be positive"):
        ForkLayout(control_dim=0, system_dim=2)


def test_forks_reject_a_state_of_the_wrong_shape():
    gen = builtin_model("amp_damp")
    with pytest.raises(ValueError, match=r"system state has shape \(3, 3\), expected \(2, 2\)"):
        fork_s1_step(gen, 0.1, np.eye(3) / 3, PHIS[0])
    with pytest.raises(ValueError, match=r"work state has shape \(1, 1\)"):
        fork_qdrift_step(gen, 0.1, RHO0, np.eye(1))


@pytest.mark.parametrize("fork_run", [fork_s1_run, fork_qdrift_run])
def test_fork_runs_reject_zero_steps(fork_run):
    with pytest.raises(ValueError, match="step count must be a positive integer"):
        fork_run(builtin_model("amp_damp"), 1.0, 0, RHO0, PHIS[0])


def test_cswap_control_off_does_nothing():
    layout = ForkLayout(control_dim=2, system_dim=2)
    chan = cswap_channel(layout, control_value=1, target_a=1, target_b=2)
    rho = kron(np.diag([1.0, 0.0]), kron(RHO0.matrix, PHIS[1].matrix))
    out = devectorize(chan @ vectorize(rho))
    assert np.max(np.abs(out - rho)) < 1e-13


def test_cswap_control_on_swaps_targets():
    layout = ForkLayout(control_dim=2, system_dim=2)
    chan = cswap_channel(layout, control_value=1, target_a=1, target_b=2)
    a, b = RHO0.matrix, PHIS[1].matrix
    rho = kron(np.diag([0.0, 1.0]), kron(a, b))
    out = devectorize(chan @ vectorize(rho))
    assert np.max(np.abs(out - kron(np.diag([0.0, 1.0]), kron(b, a)))) < 1e-13


def test_cswap_is_involution():
    layout = ForkLayout(control_dim=2, system_dim=2)
    chan = cswap_channel(layout, control_value=1, target_a=1, target_b=2)
    assert np.max(np.abs(chan @ chan - np.eye(64))) < 1e-13


@pytest.mark.parametrize("layout", [ForkLayout(2, 2), ForkLayout(3, 2), ForkLayout(2, 3)])
def test_cswap_matches_basis_loop(layout):
    n_regs = len(layout.dims)
    for c in range(layout.control_dim):
        for a in range(1, n_regs):
            for b in range(1, n_regs):
                assert np.array_equal(cswap_channel(layout, c, a, b), loop_cswap_channel(layout, c, a, b))


def test_cswap_rejects_control_register_as_target():
    layout = ForkLayout(control_dim=2, system_dim=2)
    with pytest.raises(ValueError, match="non-control"):
        cswap_channel(layout, control_value=1, target_a=0, target_b=1)


def test_fork_s1_single_term():
    gen = GkslGenerator(dim=2, hamiltonian=np.zeros((2, 2)), terms=((SM, 1.0),))
    out = fork_s1_step(gen, 0.4, RHO0, PHIS[0])
    expected = mixture_state(constituent_channel(gen, 2, 0.4), RHO0)
    assert trace_distance(out.matrix, expected) < 1e-12


@pytest.mark.parametrize("model", ["amp_damp", "qubit3"])
@pytest.mark.parametrize("dt", [0.05, 0.2])
def test_fork_s1_matches_mixture(model, dt):
    gen = builtin_model(model)
    out = fork_s1_step(gen, dt, RHO0, PHIS[0])
    expected = mixture_state(s1_ran_exact(gen, dt), RHO0)
    assert trace_distance(out.matrix, expected) <= 1e-10


def test_fork_s1_work_state_independence():
    gen = builtin_model("qubit3")
    outs = [fork_s1_step(gen, 0.2, RHO0, phi) for phi in PHIS]
    assert trace_distance(outs[0], outs[1]) <= 1e-10
    assert trace_distance(outs[0], outs[2]) <= 1e-10


def test_fork_s1_run_single_block_reduction():
    gen = builtin_model("qubit3")
    a = fork_s1_run(gen, 0.3, 1, RHO0, PHIS[0])
    b = fork_s1_step(gen, 0.3, RHO0, PHIS[0])
    assert trace_distance(a, b) < 1e-13


def test_fork_s1_run_matches_mixture_power():
    gen = builtin_model("random", dict(d=2, m=3, seed=7))
    t, n = 1.0, 8
    out = fork_s1_run(gen, t, n, RHO0, PHIS[0])
    expected = mixture_state(np.linalg.matrix_power(s1_ran_exact(gen, t / n), n), RHO0)
    assert trace_distance(out.matrix, expected) <= 1e-10


def test_fork_s1_commuting_generator_is_exact():
    gen = GkslGenerator(dim=2, hamiltonian=SZ, terms=((SZ, 0.5),))
    t = 0.8
    for n in (1, 3):
        out = fork_s1_run(gen, t, n, RHO0, PHIS[0])
        assert trace_distance(out.matrix, mixture_state(exact_channel(gen, t), RHO0)) < 1e-9


def test_fork_s1_trace_distance_bound():
    gen = builtin_model("amp_damp")
    stats = generator_stats(gen)
    t = 1.0
    exact_state = mixture_state(exact_channel(gen, t), RHO0)
    for n in (1, 4, 8):
        out = fork_s1_run(gen, t, n, RHO0, PHIS[0])
        bound = (stats.term_count * t * stats.max_scaled_norm) ** 3 / (6 * n**2)
        assert trace_distance(out.matrix, exact_state) <= bound


def test_fork_qdrift_single_term():
    gen = GkslGenerator(dim=2, hamiltonian=SZ, terms=())
    out = fork_qdrift_step(gen, 0.3, RHO0, PHIS[0])
    expected = mixture_state(constituent_channel(gen, 1, 0.3, with_rate=False), RHO0)
    assert trace_distance(out.matrix, expected) < 1e-12


def test_fork_qdrift_two_equal_rates_entrywise():
    gen = GkslGenerator(dim=2, hamiltonian=np.zeros((2, 2)), terms=((SM, 1.0),))
    omega = 0.35  # p = (1/2, 1/2)
    out = fork_qdrift_step(gen, omega, RHO0, PHIS[0])
    expected = 0.5 * (
        mixture_state(constituent_channel(gen, 1, omega, with_rate=False), RHO0)
        + mixture_state(constituent_channel(gen, 2, omega, with_rate=False), RHO0)
    )
    assert np.max(np.abs(out.matrix - expected)) <= 1e-11


def test_fork_qdrift_matches_mixture_and_ignores_work_state():
    gen = builtin_model("qubit3")  # M = 3, d = 2: total dim 24 within cap
    omega = 0.2
    outs = [fork_qdrift_step(gen, omega, RHO0, phi) for phi in PHIS]
    expected = mixture_state(qdrift_exact(gen, omega), RHO0)
    assert trace_distance(outs[0].matrix, expected) <= 1e-10
    assert trace_distance(outs[0], outs[1]) <= 1e-10
    assert trace_distance(outs[0], outs[2]) <= 1e-10


def test_fork_qdrift_run_single_block_reduction():
    gen = builtin_model("amp_damp")
    omega = 0.5 * float(np.sum(gen.rates))  # t=0.5, n=1
    a = fork_qdrift_run(gen, 0.5, 1, RHO0, PHIS[0])
    b = fork_qdrift_step(gen, omega, RHO0, PHIS[0])
    assert trace_distance(a, b) < 1e-13


def test_fork_qdrift_run_bound():
    gen = builtin_model("amp_damp", dict(gamma=3.0))  # rates (1, 3)
    stats = generator_stats(gen)
    t, n = 0.5, 10
    out = fork_qdrift_run(gen, t, n, RHO0, PHIS[0])
    exact_state = mixture_state(exact_channel(gen, t), RHO0)
    bound = (t * stats.total_rate * stats.max_bare_norm) ** 2 / (2 * n)
    assert trace_distance(out.matrix, exact_state) <= bound


def test_fork_outputs_are_valid_states():
    gen = builtin_model("random", dict(d=2, m=3, seed=7))
    out = fork_s1_run(gen, 1.0, 4, RHO0, PHIS[2])
    assert isinstance(out, DensityMatrix)
    outq = fork_qdrift_run(gen, 1.0, 4, RHO0, PHIS[2])
    assert isinstance(outq, DensityMatrix)


def test_fork_qdrift_respects_dimension_cap():
    gen = builtin_model("random", dict(d=3, m=4, seed=1))  # 4 * 3^4 = 324 > 64
    with pytest.raises(ValueError, match="classical-sampling"):
        fork_qdrift_step(gen, 0.1, DensityMatrix.maximally_mixed(3),
                         DensityMatrix.maximally_mixed(3))


@pytest.mark.parametrize("name,params", ORACLE_MODELS)
def test_fork_steps_match_dense_superoperator_reference(name, params):
    gen = builtin_model(name, params)
    dt = 0.2
    s1_block, qdrift_block = dense_s1_block(gen, dt), dense_qdrift_block(gen, dt)
    for phi in PHIS:
        out = fork_s1_step(gen, dt, RHO0, phi)
        assert np.max(np.abs(out.matrix - dense_block_output(s1_block, RHO0, phi))) <= 1e-12
        outq = fork_qdrift_step(gen, dt, RHO0, phi)
        assert np.max(np.abs(outq.matrix - dense_block_output(qdrift_block, RHO0, phi))) <= 1e-12


def test_fork_s1_qutrit():
    gen = builtin_model("random", dict(d=3, m=3, seed=2))  # 2 * 3^2 = 18
    dt = 0.2
    rho0, *phis = states(3)
    outs = [fork_s1_step(gen, dt, rho0, phi) for phi in phis]
    assert trace_distance(outs[0].matrix, mixture_state(s1_ran_exact(gen, dt), rho0)) <= 1e-10
    assert trace_distance(outs[0], outs[1]) <= 1e-10


def test_fork_qdrift_qutrit():
    gen = builtin_model("random", dict(d=3, m=2, seed=2))  # 2 * 3^2 = 18
    omega = 0.2
    rho0, *phis = states(3)
    outs = [fork_qdrift_step(gen, omega, rho0, phi) for phi in phis]
    assert trace_distance(outs[0].matrix, mixture_state(qdrift_exact(gen, omega), rho0)) <= 1e-10
    assert trace_distance(outs[0], outs[1]) <= 1e-10


def test_fork_qdrift_at_dimension_cap():
    gen = builtin_model("random", dict(d=2, m=4, seed=1))  # 4 * 2^4 = 64, the cap
    assert ForkLayout(4, 2).total_dim == TOL.fork_dim_cap
    omega = 0.2
    outs = [fork_qdrift_step(gen, omega, RHO0, phi) for phi in PHIS]
    assert trace_distance(outs[0].matrix, mixture_state(qdrift_exact(gen, omega), RHO0)) <= 1e-10
    assert trace_distance(outs[0], outs[1]) <= 1e-10
    assert trace_distance(outs[0], outs[2]) <= 1e-10
    t, n = 1.0, 4
    chan = qdrift_exact(gen, t * float(np.sum(gen.rates)) / n)
    runs = [fork_qdrift_run(gen, t, n, RHO0, phi) for phi in PHIS]
    assert trace_distance(runs[0].matrix, mixture_state(np.linalg.matrix_power(chan, n), RHO0)) <= 1e-10
    assert trace_distance(runs[0], runs[1]) <= 1e-10
    assert trace_distance(runs[0], runs[2]) <= 1e-10


@pytest.mark.parametrize("fork, args", [
    (fork_s1_step, ()), (fork_s1_run, (2,)), (fork_qdrift_step, ()), (fork_qdrift_run, (2,))])
@pytest.mark.parametrize("length", [0.0, -1.0])
def test_forks_reject_nonpositive_step_lengths(fork, args, length):
    # every fork refuses what qdrift_exact refuses, for t and dt alike
    gen = builtin_model("amp_damp")
    with pytest.raises(ValueError, match="^step length must be positive$"):
        fork(gen, length, *args, RHO0, PHIS[0])


@pytest.mark.parametrize("control_value", [-1, 2])
def test_input_refusals(control_value):
    with pytest.raises(ValueError, match=rf"control value {control_value} outside 0..1"):
        _cswap_perm(ForkLayout(2, 2), control_value, 1, 2)
