import numpy as np
import pytest

from lindsim.linalg import (
    DensityMatrix,
    dagger,
    devectorize,
    kron,
    mat_exp,
    partial_trace,
    trace_distance,
    trace_norm,
    vectorize,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_hermitian(rng, d):
    a = random_matrix(rng, d)
    return (a + dagger(a)) / 2


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_diagonal():
    assert np.allclose(kron(np.diag([1, 2]), np.diag([3, 4])), np.diag([3, 4, 6, 8]))


def test_kron_pauli_blocks():
    # hand expansion of sigma_x (x) sigma_z: off-diagonal sigma_z blocks
    expected = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 0, -1],
            [1, 0, 0, 0],
            [0, -1, 0, 0],
        ],
        dtype=complex,
    )
    assert np.allclose(kron(SX, SZ), expected)


def test_kron_mixed_product_rule():
    rng = np.random.default_rng(11)
    a, b, c, d = (random_matrix(rng, 3) for _ in range(4))
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_partial_trace_product_state():
    rho_a = np.array([[0.75, 0.1j], [-0.1j, 0.25]])
    rho_b = np.array([[0.5, 0.2], [0.2, 0.5]])
    assert np.allclose(partial_trace(kron(rho_a, rho_b), [2, 2], keep=[0]), rho_a)
    assert np.allclose(partial_trace(kron(rho_a, rho_b), [2, 2], keep=[1]), rho_b)


def test_partial_trace_maximally_mixed():
    assert np.allclose(partial_trace(np.eye(4) / 4, [2, 2], keep=[1]), np.eye(2) / 2)


def test_partial_trace_bell_projector():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    projector = np.outer(bell, bell.conj())
    assert np.allclose(partial_trace(projector, [2, 2], keep=[0]), np.eye(2) / 2)


def test_partial_trace_preserves_trace_and_linearity():
    rng = np.random.default_rng(5)
    a = random_matrix(rng, 12)
    b = random_matrix(rng, 12)
    dims = [2, 3, 2]
    ta = partial_trace(a, dims, keep=[1])
    tb = partial_trace(b, dims, keep=[1])
    assert abs(np.trace(ta) - np.trace(a)) < 1e-12
    combined = partial_trace(2.0 * a - 1j * b, dims, keep=[1])
    assert np.max(np.abs(combined - (2.0 * ta - 1j * tb))) < 1e-12


def test_partial_trace_rejects_bad_layout():
    with pytest.raises(ValueError, match="layout"):
        partial_trace(np.eye(4), [2, 3], keep=[0])


def test_mat_exp_zero_and_diagonal():
    assert np.allclose(mat_exp(np.zeros((3, 3))), np.eye(3))
    assert np.allclose(mat_exp(np.diag([1.0, -2.0])), np.diag([np.e, np.exp(-2.0)]))


def test_mat_exp_nilpotent():
    n = np.array([[0, 1], [0, 0]], dtype=complex)
    assert np.allclose(mat_exp(n), np.array([[1, 1], [0, 1]]))


def test_mat_exp_inverse_pairing():
    rng = np.random.default_rng(7)
    a = random_matrix(rng, 4)
    a *= 10 / np.linalg.norm(a, 2)
    assert np.max(np.abs(mat_exp(a) @ mat_exp(-a) - np.eye(4))) < 1e-9


def test_mat_exp_accuracy_at_large_norm():
    # eigendecomposition oracle for an anti-Hermitian input of norm 100
    rng = np.random.default_rng(31)
    h = random_hermitian(rng, 5)
    h *= 100 / np.linalg.norm(h, 2)
    vals, vecs = np.linalg.eigh(h)
    oracle = (vecs * np.exp(1j * vals)) @ dagger(vecs)
    got = mat_exp(1j * h)
    assert np.max(np.abs(got - oracle)) / np.linalg.norm(oracle, 2) < 1e-12


MODEL_LIBRARY = [
    ("amp_damp", {}),
    ("qubit3", {}),
    ("two_qubit_xy", {}),
    ("random", dict(d=2, m=3, seed=0)),
    ("random", dict(d=3, m=4, seed=1)),
    ("random", dict(d=4, m=3, seed=2)),
]


def _rel_err(got, ref):
    return np.linalg.norm(got - ref, 2) / np.linalg.norm(ref, 2)


@pytest.mark.parametrize("name,params", MODEL_LIBRARY)
def test_mat_exp_matches_scipy_on_model_library(name, params):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    from lindsim.lindblad import full_liouvillian, term_superop
    from lindsim.models import builtin_model
    from lindsim.tolerances import TOL

    gen = builtin_model(name, params)
    generators = [full_liouvillian(gen)] + [term_superop(gen, k, with_rate=w)
                                            for k in range(1, gen.m_total + 1) for w in (True, False)]
    for a in generators:
        for t in (1e-3, 1 / 64, 0.25, 1.0, 4.0, 20.0):
            assert _rel_err(mat_exp(t * a), scipy_linalg.expm(t * a)) <= TOL.mat_exp_rtol


def test_mat_exp_degree_thresholds(monkeypatch):
    # just below each bound theta_m the degree-m approximant is used, just above
    # it the next degree (above theta_13: degree 13 on the halved input)
    scipy_linalg = pytest.importorskip("scipy.linalg")
    from lindsim import linalg
    from lindsim.lindblad import full_liouvillian
    from lindsim.models import builtin_model
    from lindsim.tolerances import TOL

    degrees = []
    pade = linalg._pade
    monkeypatch.setattr(linalg, "_pade", lambda a, m: degrees.append(m) or pade(a, m))
    rng = np.random.default_rng(12)
    shapes = [random_matrix(rng, 6), full_liouvillian(builtin_model("random", dict(d=2, m=3, seed=4)))]
    bounds = [*linalg._THETA, (13, linalg._THETA_13)]
    for i, (m, theta) in enumerate(bounds):
        above = bounds[i + 1][0] if m < 13 else 13
        for a in shapes:
            unit = a / np.abs(a).sum(axis=0).max()
            for factor, degree in ((1 - 1e-6, m), (1 + 1e-6, above)):
                degrees.clear()
                got = mat_exp(factor * theta * unit)
                assert degrees == [degree]
                assert _rel_err(got, scipy_linalg.expm(factor * theta * unit)) <= TOL.mat_exp_rtol


def test_mat_exp_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        mat_exp(np.ones((2, 3)))


def test_vectorize_convention():
    assert np.allclose(vectorize(np.eye(2)), [1, 0, 0, 1])
    m = np.array([[1, 2], [3, 4]])
    assert np.allclose(vectorize(m), [1, 3, 2, 4])


def test_vectorize_round_trip():
    rng = np.random.default_rng(3)
    m = random_matrix(rng, 3)
    assert np.array_equal(devectorize(vectorize(m)), m)


def test_vectorize_sandwich_identity():
    rng = np.random.default_rng(9)
    a, x, b = (random_matrix(rng, 3) for _ in range(3))
    lhs = vectorize(a @ x @ b)
    rhs = kron(b.T, a) @ vectorize(x)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_trace_norm_basics():
    assert trace_norm(np.eye(5)) == pytest.approx(5.0)
    assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)


def test_trace_norm_independent_oracle():
    # sum of sqrt eigenvalues of A A^dag, computed without the SVD path
    rng = np.random.default_rng(21)
    a = random_matrix(rng, 4)
    oracle = np.sum(np.sqrt(np.maximum(np.linalg.eigvalsh(a @ dagger(a)), 0.0)))
    assert trace_norm(a) == pytest.approx(oracle, abs=1e-10)


def test_trace_norm_triangle_and_unitary_invariance():
    rng = np.random.default_rng(13)
    a = random_matrix(rng, 4)
    b = random_matrix(rng, 4)
    assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10
    q, _ = np.linalg.qr(random_matrix(rng, 4))
    assert trace_norm(q @ a @ dagger(q)) == pytest.approx(trace_norm(a), abs=1e-10)


def test_trace_distance_examples():
    rho = DensityMatrix.pure([1, 0])
    sigma = DensityMatrix.pure([0, 1])
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance(rho, sigma) == pytest.approx(1.0)
    assert trace_distance(DensityMatrix.maximally_mixed(2), rho) == pytest.approx(0.5)


def test_trace_distance_rejects_dim_mismatch():
    with pytest.raises(ValueError, match="dimensions"):
        trace_distance(np.eye(2) / 2, np.eye(3) / 3)


def test_density_matrix_invariants_enforced():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="square"):
        DensityMatrix(np.ones((2, 3)) / 6)


@pytest.mark.parametrize("call, fragment", [
    (lambda: kron(np.ones(3), np.eye(2)), r"expected a matrix, got array of shape \(3,\)"),
    (lambda: kron(np.array([[np.nan]]), np.eye(2)), "matrix contains NaN or Inf entries"),
    (lambda: partial_trace(np.eye(4), [2, 2], keep=[2]), r"keep indices \[2\] out of range for 2 factors"),
    (lambda: vectorize(np.ones((2, 3))), "vectorize expects a square matrix"),
    (lambda: devectorize(np.ones(3)), "vector length 3 is not a perfect square"),
    (lambda: trace_norm(np.ones((2, 3))), "trace norm defined here for square matrices only"),
], ids=["not_a_matrix", "non_finite", "keep_out_of_range", "vectorize_shape", "devectorize_length",
        "trace_norm_shape"])
def test_input_refusals(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()
