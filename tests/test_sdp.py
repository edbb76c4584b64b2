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
    r = sdp._whitener(np.diag([1.0, 0.0]).astype(complex))
    assert sdp._max_step(r, np.diag([-0.5, 1.0]).astype(complex)) == pytest.approx(2.0)
    assert sdp._max_step(r, np.diag([1.0, 1.0]).astype(complex)) == np.inf


def test_linear_algebra_failure_becomes_convergence_error(monkeypatch):
    def broken(mat):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(sdp, "_chol_factor", broken)
    with pytest.raises(SdpConvergenceError, match="SVD did not converge") as err:
        solve_sdp(_min_eigenvalue_problem(np.diag([3.0, -1.0]).astype(complex)))
    assert err.value.gap >= 0.0


def test_convergence_error_reports_solver_state():
    c = np.diag([3.0, -1.0]).astype(complex)
    with pytest.raises(SdpConvergenceError) as err:
        solve_sdp(_min_eigenvalue_problem(c), max_iters=2)
    assert err.value.iterations == 2
    assert err.value.primal_residual >= 0.0
    message = str(err.value)
    assert "2 iterations" in message and f"primal residual {err.value.primal_residual:.3e}" in message


def _diamond_problem(d, seed, k):
    from lindsim.lindblad import choi, term_superop
    from lindsim.models import builtin_model
    from lindsim.norms import _diamond_hp_problem

    j = choi(term_superop(builtin_model("random", dict(d=d, m=3, seed=seed)), k), d)
    return _diamond_hp_problem(j / np.linalg.norm(j), d)


def test_stalled_primal_residual_raises_early():
    # a feasibility tolerance below the rounding level is never met: once the
    # gap has converged the residual stops falling, and the solve ends there
    problem = _diamond_problem(2, 1, 2)
    assert solve_sdp(problem, gap_tol=1e-9, feas_tol=1e-9).iterations <= 15
    with pytest.raises(SdpConvergenceError, match="stalled") as err:
        solve_sdp(problem, gap_tol=1e-9, feas_tol=1e-20)
    assert err.value.iterations <= 40
    assert err.value.gap <= 1e-9 and err.value.primal_residual > 1e-20


@pytest.mark.parametrize("n", [1, 7, sdp._LEAF, sdp._LEAF + 1, 130, 272])
def test_blocked_cholesky_solve_matches_dense_solve(n):
    rng = np.random.default_rng(n)
    g = rng.normal(size=(n, n))
    mat = g @ g.T + 1e-3 * np.eye(n)
    rhs = rng.normal(size=n)
    factor = sdp._chol_factor(mat)
    low, upper_reversed = factor
    assert np.array_equal(low, np.tril(low))
    assert np.array_equal(upper_reversed, low.T[::-1, ::-1])
    assert np.max(np.abs(sdp._lower_solve(low, rhs) - np.linalg.solve(low, rhs))) <= 1e-10
    x = sdp._chol_solve(factor, mat, rhs)
    assert np.linalg.norm(mat @ x - rhs) <= 1e-12 * np.linalg.norm(mat) * np.linalg.norm(x)


def test_chol_factor_jitters_rounding_level_indefiniteness():
    v = np.random.default_rng(1).normal(size=(6, 3))
    mat = v @ v.T - 1e-15 * np.eye(6)  # rank 3, indefinite only by rounding
    low, _ = sdp._chol_factor(mat)
    assert np.max(np.abs(low @ low.T - mat)) <= 1e-12
    assert sdp._chol_factor(-np.eye(3)) is None
    x = sdp._chol_solve(None, -np.eye(3), np.ones(3))  # least-squares fallback
    assert np.allclose(x, -np.ones(3))


def test_max_step_reaches_the_boundary():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    x = g @ g.conj().T + np.eye(4)
    dx = -(g + g.conj().T)
    r = sdp._whitener(x)
    assert np.allclose(r.conj().T @ x @ r, np.eye(4))
    alpha = sdp._max_step(r, dx)
    assert np.min(np.linalg.eigvalsh(x + alpha * dx)) == pytest.approx(0.0, abs=1e-9)
