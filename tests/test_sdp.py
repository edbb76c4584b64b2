import numpy as np
import pytest

from lindsim import sdp
from lindsim.sdp import SdpConvergenceError, SdpProblem, solve_sdp


def _min_eigenvalue_problem(c):
    """min <C, X> s.t. tr(X) = 1, X >= 0; optimum is the smallest eigenvalue."""
    n = c.shape[0]
    constraints = [np.eye(n, dtype=complex)[None, :, :]]
    return SdpProblem(block_sizes=[n], constraints=constraints,
                      objective=[c.astype(complex)], rhs=np.array([1.0]))


def test_minimum_eigenvalue_real_symmetric():
    c = np.diag([3.0, -1.0, 2.0])
    sol = solve_sdp(_min_eigenvalue_problem(c))
    assert sol.value == pytest.approx(-1.0, abs=1e-8)
    assert sol.gap < 1e-9


def test_minimum_eigenvalue_random_hermitian():
    rng = np.random.default_rng(4)
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    c = (g + g.conj().T) / 2
    sol = solve_sdp(_min_eigenvalue_problem(c))
    assert sol.value == pytest.approx(float(np.min(np.linalg.eigvalsh(c))), abs=1e-8)
    assert sol.primal_residual < 1e-9 and sol.dual_residual < 1e-9


def test_multi_block_decouples():
    # two independent eigenvalue problems share one solve
    c0 = np.diag([1.0, 5.0]).astype(complex)
    c1 = np.diag([-2.0, 7.0, 0.0]).astype(complex)
    constraints = [
        np.stack([np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)]),
        np.stack([np.zeros((3, 3), dtype=complex), np.eye(3, dtype=complex)]),
    ]
    problem = SdpProblem(block_sizes=[2, 3], constraints=constraints,
                         objective=[c0, c1], rhs=np.array([1.0, 1.0]))
    sol = solve_sdp(problem)
    assert sol.value == pytest.approx(1.0 + (-2.0), abs=1e-8)


def test_iteration_cap_raises_with_gap():
    c = np.diag([3.0, -1.0]).astype(complex)
    with pytest.raises(SdpConvergenceError) as err:
        solve_sdp(_min_eigenvalue_problem(c), max_iters=2)
    assert err.value.gap >= 0.0


def test_max_step_on_singular_matrix():
    # x is PSD but singular, so Cholesky fails and the clipped spectrum is used
    x = np.diag([1.0, 0.0]).astype(complex)
    assert sdp._max_step(x, np.diag([-0.5, 1.0]).astype(complex)) == pytest.approx(2.0)
    assert sdp._max_step(x, np.diag([1.0, 1.0]).astype(complex)) == np.inf


def test_linear_algebra_failure_becomes_convergence_error(monkeypatch):
    def broken(mat, rhs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(sdp, "_chol_solve", broken)
    with pytest.raises(SdpConvergenceError, match="SVD did not converge") as err:
        solve_sdp(_min_eigenvalue_problem(np.diag([3.0, -1.0]).astype(complex)))
    assert err.value.gap >= 0.0
