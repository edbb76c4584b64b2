import warnings

import numpy as np
import pytest

from lindsim.lindblad import (
    GeneratorFormatError,
    GkslGenerator,
    choi,
    constituent_channel,
    exact_channel,
    full_liouvillian,
    is_cptp,
    parse_generator,
    term_superop,
)
from lindsim.linalg import dagger, devectorize, kron, mat_exp, vectorize
from lindsim.models import builtin_model

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SM = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|


@pytest.fixture
def amp_damp():
    return GkslGenerator(dim=2, hamiltonian=np.zeros((2, 2)), terms=((SM, 1.0),))


def test_generator_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        GkslGenerator(dim=2, hamiltonian=np.array([[0, 1], [0, 0]]), terms=())
    with pytest.raises(ValueError, match="negative rate"):
        GkslGenerator(dim=2, hamiltonian=np.zeros((2, 2)), terms=((SM, -0.5),))
    gen = GkslGenerator(dim=2, hamiltonian=SZ, terms=((SM, 2.0),))
    assert gen.m_total == 2
    assert gen.rate(1) == 1.0 and gen.rate(2) == 2.0


@pytest.mark.parametrize("bad, named", [
    (dict(hamiltonian=np.diag([np.inf, 0.0])), "Hamiltonian has non-finite entries"),
    (dict(terms=((SM, 1.0), (np.diag([np.nan, 0.0]), 1.0))), "jump operator 1 has non-finite entries"),
    (dict(terms=((SM, np.nan),)), "jump operator 0 has non-finite or negative rate nan"),
    (dict(terms=((SM, np.inf),)), "jump operator 0 has non-finite or negative rate inf"),
])
def test_generator_refuses_non_finite_data_and_names_it(bad, named):
    data = dict(dim=2, hamiltonian=np.zeros((2, 2)), terms=((SM, 1.0),)) | bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an infinite Hamiltonian never reaches the Hermitian check
        with pytest.raises(ValueError, match=named):
            GkslGenerator(**data)


def test_term_superops_equal_the_kron_formulas_to_the_bit():
    gen = builtin_model("random", dict(d=3, m=4, seed=11))
    eye, h = np.eye(3), gen.hamiltonian
    bare = [-1j * (kron(eye, h) - kron(h.T, eye))]
    for op, _ in gen.terms:
        ldl = dagger(op) @ op
        bare.append(kron(op.conj(), op) - 0.5 * kron(eye, ldl) - 0.5 * kron(ldl.T, eye))
    total = np.zeros((9, 9), dtype=complex)
    for k, s in enumerate(bare, start=1):
        scaled = s if k == 1 else gen.terms[k - 2][1] * s
        assert np.array_equal(term_superop(gen, k, with_rate=False), s)
        assert np.array_equal(term_superop(gen, k, with_rate=True), scaled)
        total += scaled
    assert np.array_equal(full_liouvillian(gen), total)


def test_generator_term_stack_and_rates_are_read_only():
    gen = builtin_model("random", dict(d=3, m=4, seed=11))
    assert gen.superops.shape == (4, 9, 9) and list(gen.rates) == [1.0] + [r for _, r in gen.terms]
    assert not gen.superops.flags.writeable and not gen.rates.flags.writeable
    assert not term_superop(gen, 2, with_rate=False).flags.writeable


def test_term_superop_zero_hamiltonian(amp_damp):
    assert np.allclose(term_superop(amp_damp, 1), np.zeros((4, 4)))


def test_term_superop_out_of_range(amp_damp):
    with pytest.raises(ValueError, match="out of range"):
        term_superop(amp_damp, 3)


def test_term_superop_decay_dissipator(amp_damp):
    # hand evaluation of conj(L)(x)L - (I(x)L^dag L + (L^dag L)^T(x)I)/2 for L=|0><1|
    expected = np.array(
        [
            [0, 0, 0, 1],
            [0, -0.5, 0, 0],
            [0, 0, -0.5, 0],
            [0, 0, 0, -1],
        ],
        dtype=complex,
    )
    assert np.allclose(term_superop(amp_damp, 2, with_rate=True), expected)


def test_term_superop_rate_scaling():
    gen = GkslGenerator(dim=2, hamiltonian=np.zeros((2, 2)), terms=((SM, 2.5),))
    assert np.allclose(term_superop(gen, 2, with_rate=True),
                       2.5 * term_superop(gen, 2, with_rate=False))


def test_term_superop_matches_direct_action():
    gen = builtin_model("qubit3")
    rng = np.random.default_rng(17)
    h = gen.hamiltonian
    for _ in range(20):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = (g + dagger(g)) / 2
        via_matrix = devectorize(term_superop(gen, 1) @ vectorize(rho))
        assert np.max(np.abs(via_matrix - (-1j) * (h @ rho - rho @ h))) < 1e-12
        for k in range(2, gen.m_total + 1):
            op, rate = gen.terms[k - 2]
            ldl = dagger(op) @ op
            direct = rate * (op @ rho @ dagger(op) - 0.5 * (ldl @ rho + rho @ ldl))
            via_matrix = devectorize(term_superop(gen, k) @ vectorize(rho))
            assert np.max(np.abs(via_matrix - direct)) < 1e-12


def test_full_liouvillian_zero_and_linearity():
    empty = GkslGenerator(dim=2, hamiltonian=np.zeros((2, 2)), terms=())
    assert np.allclose(full_liouvillian(empty), np.zeros((4, 4)))
    gen = builtin_model("qubit3")
    acc = sum(term_superop(gen, k) for k in range(1, gen.m_total + 1))
    assert np.max(np.abs(full_liouvillian(gen) - acc)) < 1e-14


def test_amplitude_damping_analytic_solution(amp_damp):
    # populations decay as exp(-t): at t=ln2 the excited state is half emptied
    chan = exact_channel(amp_damp, np.log(2.0))
    rho1 = np.diag([0.0, 1.0]).astype(complex)
    out = devectorize(chan @ vectorize(rho1))
    assert np.allclose(out, np.diag([0.5, 0.5]), atol=1e-12)


def test_exact_channel_semigroup():
    gen = builtin_model("random", dict(d=2, m=3, seed=3))
    lhs = exact_channel(gen, 0.4) @ exact_channel(gen, 0.9)
    assert np.max(np.abs(lhs - exact_channel(gen, 1.3))) < 1e-9


def test_exact_channel_time_zero_and_negative(amp_damp):
    assert np.allclose(exact_channel(amp_damp, 0.0), np.eye(4))
    with pytest.raises(ValueError, match="nonnegative"):
        exact_channel(amp_damp, -0.1)


def test_constituent_channel_identity_at_zero(amp_damp):
    assert np.allclose(constituent_channel(amp_damp, 2, 0.0), np.eye(4))


def test_constituent_channel_unitary_conjugation():
    gen = GkslGenerator(dim=2, hamiltonian=SZ, terms=())
    dt = 0.37
    u = mat_exp(-1j * dt * SZ)
    assert np.max(np.abs(constituent_channel(gen, 1, dt) - kron(u.conj(), u))) < 1e-12


def test_constituent_channel_cptp_random():
    gen = builtin_model("random", dict(d=2, m=4, seed=12))
    for k in range(1, gen.m_total + 1):
        assert is_cptp(constituent_channel(gen, k, 0.3))


def test_choi_identity_channel():
    d = 3
    omega = np.zeros(d * d, dtype=complex)
    for i in range(d):
        omega[i * d + i] = 1 / np.sqrt(d)
    expected = d * np.outer(omega, omega.conj())
    assert np.allclose(choi(np.eye(d * d)), expected)


def test_choi_trace_of_cptp(amp_damp):
    j = choi(exact_channel(amp_damp, 0.8))
    assert abs(np.trace(j) - 2.0) < 1e-8


def test_choi_sigma_x_conjugation():
    s = kron(SX.conj(), SX)
    j = choi(s)
    eigs = np.sort(np.linalg.eigvalsh(j))
    assert np.allclose(eigs, [0, 0, 0, 2], atol=1e-12)
    # rank one: J = 2 |psi><psi| with psi = (|01> + |10>)/sqrt(2)
    psi = np.array([0, 1, 1, 0]) / np.sqrt(2)
    assert np.allclose(j, 2 * np.outer(psi, psi.conj()), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_choi_matches_loop_reference(d):
    # the reshape form is bit-identical to summing E_ik (x) Phi(E_ik)
    rng = np.random.default_rng(d)
    s = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    expected = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for k in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, k] = 1.0
            # vec(E_ik) is the basis vector at column-stacking position k*d+i
            expected += kron(e, s[:, k * d + i].reshape(d, d).T)
    assert np.array_equal(choi(s), expected)


def test_is_cptp_accepts_physical_channels(amp_damp):
    assert is_cptp(np.eye(4))
    assert is_cptp(exact_channel(amp_damp, 1.0))
    assert is_cptp(exact_channel(builtin_model("two_qubit_xy"), 0.5))


def test_is_cptp_rejects_transpose_map():
    transpose = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2))
            e[i, j] = 1.0
            transpose[:, j * 2 + i] = vectorize(e.T).real
    check = is_cptp(transpose)
    assert not check
    assert check.min_choi_eig == pytest.approx(-1.0, abs=1e-12)


def test_is_cptp_reports_diagnostics(amp_damp):
    check = is_cptp(exact_channel(amp_damp, 0.3))
    assert check.ok and check.tp_deviation < 1e-12


def test_cptp_invariant_library_sweep():
    models = [builtin_model("amp_damp"), builtin_model("qubit3"),
              builtin_model("two_qubit_xy"),
              builtin_model("random", dict(d=3, m=4, seed=5))]
    for gen in models:
        for t in (0.1, 1.0):
            assert is_cptp(exact_channel(gen, t))
            for k in range(1, gen.m_total + 1):
                assert is_cptp(constituent_channel(gen, k, t))


def test_liouvillian_infinitesimal_trace_preservation():
    rng = np.random.default_rng(2)
    gen = builtin_model("random", dict(d=3, m=3, seed=8))
    liou = full_liouvillian(gen)
    for _ in range(5):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = (g + dagger(g)) / 2
        image = devectorize(liou @ vectorize(rho))
        assert abs(np.trace(image)) < 1e-12
        assert np.max(np.abs(image - dagger(image))) < 1e-12


GOOD_FILE = """
# damped qubit
dim 2
hamiltonian 0.5,0 0,0 0,0 -0.5,0

jump
matrix 0,0 1,0 0,0 0,0
rate 1.0
end
"""


def test_parse_generator_round_trip():
    gen = parse_generator(GOOD_FILE)
    assert gen.dim == 2 and gen.m_total == 2
    assert np.allclose(gen.hamiltonian, 0.5 * SZ)
    assert np.allclose(gen.terms[0][0], SM)
    assert gen.terms[0][1] == 1.0


@pytest.mark.parametrize(
    "text, message",
    [
        ("dim 2\nhamiltonian 1,0 0,0\n", "line 2: expected 4 entries"),
        ("dim 2\nhamiltonian 0,0 1,0 0,0 0,0\n", "line 2: hamiltonian is not Hermitian"),
        ("dim 2\nhamiltonian inf,0 0,0 0,0 0,0\n", "line 2: entry 'inf,0' is not finite"),
        ("dim 2\nhamiltonian 0,0 0,0 0,0 0,0\njump\nmatrix 0,0 nan,0 0,0 0,0\nrate 1\nend\n",
         "line 4: entry 'nan,0' is not finite"),
        ("dim 2\nhamiltonian 0,0 0,0 0,0 0,0\njump\nmatrix 0,0 1,0 0,0 0,0\nrate nan\nend\n",
         "line 5: rate 'nan' is not finite"),
        ("dim 2\nhamiltonian 0,0 0,0 0,0 0,0\njump\nmatrix 0,0 1,0 0,0 0,0\nrate inf\nend\n",
         "line 5: rate 'inf' is not finite"),
        ("dim 2\nhamiltonian 0,0 0,0 0,0 0,0\njump\nmatrix 0,0 1,0 0,0 0,0\nrate -1\nend\n",
         "line 5: negative rate"),
        ("dim 2\nhamiltonian 0,0 0,0 0,0 0,0\njump\nmatrix 0,0 1,0 0,0 0,0\nend\n",
         "no rate"),
        ("dim 2\nfoo 1\n", "line 2: unknown directive 'foo'"),
        ("hamiltonian 0,0 0,0 0,0 0,0\n", "line 1: dim must come before"),
        ("dim 2\nhamiltonian 0,0 0,0 0,0 0,0\njump\nmatrix 0,0 1,0 0,0 0,0\nrate 1\n",
         "never closed"),
        ("dim 1.5\n", "line 1: dim '1.5' is not an integer"),
        ("dim 0\n", "line 1: dim must be positive"),
        ("dim 2\njump\njump\n", "line 3: nested jump block"),
        ("dim 2\nmatrix 0,0 1,0 0,0 0,0\n", "line 2: matrix outside a jump block"),
        ("dim 2\nrate 1\n", "line 2: rate outside a jump block"),
        ("dim 2\nend\n", "line 2: end outside a jump block"),
        ("dim 2\njump\nrate fast\n", "line 3: rate 'fast' is not a number"),
        ("dim 2\njump\nrate 1\nend\n", "line 4: jump block opened at line 2 has no matrix"),
        ("# no directives\n", "missing 'dim' directive"),
        ("dim 2\n", "missing 'hamiltonian' directive"),
    ],
)
def test_parse_generator_positional_errors(text, message):
    with pytest.raises(GeneratorFormatError, match=message):
        parse_generator(text)


def test_constituent_channel_cached_per_generator():
    gen = builtin_model("random", dict(d=2, m=3, seed=5))
    first = constituent_channel(gen, 2, 0.3)
    assert not first.flags.writeable
    assert constituent_channel(gen, 2, 0.3) is first
    assert np.array_equal(first, mat_exp(0.3 * term_superop(gen, 2)))
    bare = constituent_channel(gen, 2, 0.3, with_rate=False)
    assert np.array_equal(bare, mat_exp(0.3 * term_superop(gen, 2, with_rate=False)))
    assert not np.array_equal(bare, first)
    # the Hamiltonian's rate is 1, so its rate-free channel is the same map
    assert constituent_channel(gen, 1, 0.3, with_rate=False) is constituent_channel(gen, 1, 0.3)
    # another generator with equal data keeps its own cache
    twin = builtin_model("random", dict(d=2, m=3, seed=5))
    assert constituent_channel(twin, 2, 0.3) is not first


def test_generator_data_is_read_only_copy():
    h = np.diag([0.5, -0.5]).astype(complex)
    op = SM.copy()
    gen = GkslGenerator(dim=2, hamiltonian=h, terms=((op, 1.0),))
    assert not gen.hamiltonian.flags.writeable and not gen.terms[0][0].flags.writeable
    assert h.flags.writeable and op.flags.writeable
    op[0, 1] = 2.0
    assert gen.terms[0][0][0, 1] == 1.0


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: GkslGenerator(dim=2, hamiltonian=np.zeros((3, 3)), terms=()), ValueError,
     r"Hamiltonian shape \(3, 3\) != \(2, 2\)"),
    (lambda: GkslGenerator(dim=2, hamiltonian=np.zeros((2, 2)), terms=((np.zeros((2, 3)), 1.0),)),
     ValueError, r"jump operator 0 has shape \(2, 3\)"),
    (lambda: constituent_channel(builtin_model("amp_damp"), 2, -0.1), ValueError,
     "step length must be nonnegative"),
    (lambda: choi(np.eye(3)), ValueError, "is not a square of squares"),
    (lambda: parse_generator("dim 1\nhamiltonian 1\n"), GeneratorFormatError,
     "line 2: entry '1' is not a re,im pair"),
    (lambda: parse_generator("dim 1\nhamiltonian a,0\n"), GeneratorFormatError,
     "line 2: entry 'a,0' has non-numeric components"),
    (lambda: parse_generator("jump\ndim 1\n"), GeneratorFormatError,
     "line 1: dim must come before jump blocks"),
], ids=["hamiltonian_shape", "jump_shape", "negative_step", "choi_shape", "not_a_pair",
        "non_numeric", "jump_before_dim"])
def test_input_refusals(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
