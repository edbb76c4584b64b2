import os
import pickle

import numpy as np
import pytest

import sdp_reference as sdp
from lindsim import sdp as nt
from lindsim import workers
from lindsim.formulas import s2_det
from lindsim.lindblad import choi, exact_channel, term_superop
from lindsim.models import builtin_model
from lindsim.sdp import SdpConvergenceError
from lindsim.tolerances import TOL
from sdp_reference import SdpProblem, identical, solve_sdp


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


def test_convergence_error_survives_pickling():
    for err in (SdpConvergenceError("x", 1.0, 3, 0.1), SdpConvergenceError("y", float("nan"))):
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is SdpConvergenceError and str(back) == str(err)
        assert (back.reason, back.iterations, back.primal_residual) == \
            (err.reason, err.iterations, err.primal_residual)
        assert np.array_equal(back.gap, err.gap, equal_nan=True)


def test_convergence_error_gap_is_at_the_maps_scale():
    # the same unit-scale iterates, stopped by the cap, at two scales of one map
    gen = builtin_model("random", dict(d=2, m=3, seed=7))
    j = choi(exact_channel(gen, 1.0) - np.eye(4), 2)
    small, large = nt.solve_diamond(np.array([j, 1e5 * j]), max_iters=5)
    assert small.iterations == large.iterations == 5
    assert large.gap == pytest.approx(1e5 * small.gap, rel=1e-6) and large.gap > 1e-6
    assert f"duality gap {large.gap:.3e}" in str(large)


def _diamond_problem(d, seed, k):
    j = choi(term_superop(builtin_model("random", dict(d=d, m=3, seed=seed)), k), d)
    return sdp.diamond_hp_problem(j / np.linalg.norm(j), d)


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


# ---------------------------------------------------------------------------
# the batched Nesterov-Todd solver in lindsim.sdp
# ---------------------------------------------------------------------------

def _rand_pd(rng, k, shape):
    g = rng.normal(size=shape + (k, k)) + 1j * rng.normal(size=shape + (k, k))
    return g @ g.conj().swapaxes(-1, -2) + 0.1 * np.eye(k)


def _reference_coordinates(d):
    """t with t.T mapping the NT coordinates of a constraint vector to the reference's rows."""
    n = d * d
    t = np.zeros((n * n + d * d, n * n + d * d))
    t[:n * n, :n * n] = nt._coords(sdp.herm_basis(n)).T
    t[n * n:, n * n:] = nt._coords(sdp.herm_basis(d)).T
    return t


@pytest.mark.parametrize("d", [1, 2, 3])
def test_structured_schur_complement_matches_constraint_stack(d):
    # M_ij = sum_b Re tr(A_i W_b A_j W_b) over the reference's explicit constraints
    rng = np.random.default_rng(d)
    n = d * d
    w = [_rand_pd(rng, n, (3, 2)), _rand_pd(rng, d, (3,)), _rand_pd(rng, 1, (3,))]
    schur = nt._schur(w)
    problem = sdp.diamond_hp_problem(np.zeros((n, n)), d)
    t = _reference_coordinates(d)
    for b in range(3):
        dense = 0.0
        for blk, a in zip([w[0][b, 0], w[0][b, 1], w[1][b], w[2][b]], problem.constraints):
            aw = a @ blk
            dense = dense + np.einsum("irs,jsr->ij", aw, aw).real
        assert np.max(np.abs(t.T @ schur[b] @ t - dense)) <= 1e-12 * np.max(np.abs(dense))


def _stacked(pq, h, mu):
    """The solver's stacked blocks [P, Q, H (+) mu] of separate P, Q, H and mu blocks."""
    d, n = h.shape[-1], pq.shape[-1]
    side = max(n, d + 1)
    x = np.zeros((len(h), 3, side, side), dtype=complex)
    x[:, :2, :n, :n], x[:, 2, :d, :d], x[:, 2, d, d] = pq, h, mu[:, 0, 0]
    return x


@pytest.mark.parametrize("d", [1, 2, 3])
def test_constraint_map_and_adjoint_match_constraint_stack(d):
    rng = np.random.default_rng(10 + d)
    n = d * d
    x = [_rand_pd(rng, n, (2, 2)), _rand_pd(rng, d, (2,)), _rand_pd(rng, 1, (2,))]
    y = rng.normal(size=(2, n * n + d * d))
    problem = sdp.diamond_hp_problem(np.zeros((n, n)), d)
    t = _reference_coordinates(d)
    at = nt._apply_at(y, d)
    live = nt._layout(d)[0]
    assert np.array_equal(at * live, at)  # nothing outside the blocks
    for b in range(2):
        blocks = [x[0][b, 0], x[0][b, 1], x[1][b], x[2][b]]
        dense = sum(np.einsum("irs,sr->i", a, blk).real for a, blk in zip(problem.constraints, blocks))
        assert np.allclose(t.T @ nt._apply_a(_stacked(*x), d)[b], dense, atol=1e-12)
        y_ref = t.T @ y[b]
        got = [at[b, 0, :n, :n], at[b, 1, :n, :n], at[b, 2, :d, :d], at[b, 2, d:d + 1, d:d + 1]]
        for a, block in zip(problem.constraints, got):
            assert np.allclose(block, np.tensordot(y_ref, a, axes=1), atol=1e-12)


def _unit_chois(maps):
    chois = [choi(s) for s in maps]
    return np.array([j / max(1.0, np.linalg.norm(j)) for j in chois])


def _batch_maps():
    gen = builtin_model("random", dict(d=3, m=3, seed=5))
    maps = [term_superop(gen, k) for k in range(1, gen.m_total + 1)]
    return maps + [exact_channel(gen, 0.4) - np.eye(9)]


def test_batch_independence():
    # an item's value does not depend on its batch-mates or its place in the batch
    chois = _unit_chois(_batch_maps())
    alone = [nt.solve_diamond(j[None])[0].value for j in chois]
    together = [sol.value for sol in nt.solve_diamond(chois)]
    order = [2, 0, 3, 1]
    reordered = [sol.value for sol in nt.solve_diamond(chois[order])]
    assert np.max(np.abs(np.subtract(alone, together))) <= 1e-9
    assert np.max(np.abs(np.subtract(np.array(alone)[order], reordered))) <= 1e-9


def _d2_unit_chois():
    gen = builtin_model("random", dict(d=2, m=3, seed=1))
    return _unit_chois([term_superop(gen, k) for k in range(1, gen.m_total + 1)])


def test_lockstep_stall_exit_ends_each_item():
    # a feasibility tolerance below the rounding level is never met: once an
    # item's gap has converged, its residual stops falling or its mu reaches
    # zero, and it ends there (item 0, the Hamiltonian term, reaches mu = 0;
    # stepped on from there, its iterates leave the cone and its gap grows)
    chois = _d2_unit_chois()
    assert all(sol.iterations <= 15 for sol in nt.solve_diamond(chois))
    results = nt.solve_diamond(chois, feas_tol=1e-20)
    for err in results:
        assert isinstance(err, SdpConvergenceError) and "stalled" in err.reason
        assert err.iterations <= 40
        assert err.gap <= 1e-9 and err.primal_residual > 1e-20


def test_stall_counter_restarts_while_the_residual_halves(monkeypatch):
    # the stopping rules alone, on scripted residuals: a converged item whose
    # primal residual keeps halving is not stalled, however long that takes;
    # one whose residual stops halving is, after _STALL_ITERS iterations
    calls = []

    def scripted(st):
        k = len(calls)
        calls.append(k)
        zeros = np.zeros(len(st["index"]))
        st.update(gap=zeros, mu=zeros + 1e-20, rd_norm=zeros, pobj=zeros, dobj=zeros,
                  rp_norm=np.where(st["index"] == 0, 2.0**-k, 1e-3))

    monkeypatch.setattr(nt, "_residuals", scripted)
    monkeypatch.setattr(nt, "_iterate", lambda st: (st, np.ones(len(st["index"]))))
    halving, flat = nt.solve_diamond(_d2_unit_chois()[:2], feas_tol=2.0**-30)
    assert isinstance(halving, nt.SdpSolution) and halving.iterations == 30
    assert isinstance(flat, SdpConvergenceError) and "stalled" in flat.reason
    assert flat.iterations == nt._STALL_ITERS


def test_lockstep_iteration_cap_reports_each_item():
    chois = _d2_unit_chois()
    results = nt.solve_diamond(chois, max_iters=2)
    assert len(results) == len(chois)
    for err in results:
        assert isinstance(err, SdpConvergenceError)
        assert err.reason == "no convergence within 2 iterations"
        assert err.iterations == 2 and err.gap >= 0.0 and err.primal_residual >= 0.0
        assert f"2 iterations, primal residual {err.primal_residual:.3e}" in str(err)


def test_max_steps_reach_the_boundary():
    # with d = diag(dvals), alpha is the largest step with d + alpha dX~ >= 0
    rng = np.random.default_rng(7)
    dvals = rng.uniform(0.5, 2.0, size=(2, 3, 4))
    g = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
    dx = -(g + g.conj().swapaxes(-1, -2))
    ds = np.zeros_like(dx)
    ds[1, 2] = np.diag([-0.25 * dvals[1, 2, 0], 1.0, 0.0, 0.0])  # boundary at alpha = 4
    alpha = nt._max_steps(dx, ds, dvals)
    for b in range(2):
        walls = [np.min(np.linalg.eigvalsh(np.diag(dvals[b, k]) + alpha[0, b] * dx[b, k])) for k in range(3)]
        assert min(walls) == pytest.approx(0.0, abs=1e-9)
    assert alpha[1, 0] == np.inf and alpha[1, 1] == pytest.approx(4.0)


def test_iterates_stay_inside_their_blocks(monkeypatch):
    # every entry outside [P, Q, H (+) mu] is exactly zero in every iterate
    live = nt._layout(2)[0]
    real = nt._iterate
    inside = []

    def checking(st):
        new, alpha = real(st)
        inside.append(all(np.array_equal(new[k] * live, new[k]) for k in ("x", "s")))
        return new, alpha

    monkeypatch.setattr(nt, "_iterate", checking)
    assert all(isinstance(sol, nt.SdpSolution) for sol in nt.solve_diamond(_d2_unit_chois()))
    assert inside and all(inside)


def test_lockstep_batches_follow_the_byte_budget(monkeypatch):
    # one worker, so that every batch runs in this process, where it is recorded
    assert nt.batch_size(2) >= 25 and 4 <= nt.batch_size(3) <= 8 and nt.batch_size(4) == 1
    chois = np.concatenate([_unit_chois(_batch_maps())] * 2)
    sizes = []
    real = nt._lockstep

    def recording(stack, *args):
        sizes.append(len(stack))
        return real(stack, *args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(nt, "_lockstep", recording)
    results = nt.solve_diamond(chois)
    assert sizes == [nt.batch_size(3), len(chois) - nt.batch_size(3)]
    assert all(isinstance(sol, nt.SdpSolution) and sol.gap <= 1e-9 for sol in results)


def _cpus(monkeypatch, count):
    """Let solve_diamond see ``count`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _d3_chois():
    """Nine d = 3 maps at scales from 1e-3 to 2.4: three lockstep batches."""
    chois = [choi(s, 3) for s in _batch_maps()]
    return np.array(chois + [0.01 * j for j in chois] + [1e-3 * chois[3]])


def _d4_chois():
    gen = builtin_model("random", dict(d=4, m=3, seed=2))
    return np.array([choi(term_superop(gen, k, with_rate=True), 4) for k in (1, 2, 3)])


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("chois", [_d3_chois, _d4_chois])
def test_workers_give_the_same_results_to_the_bit(monkeypatch, chois):
    chois = chois()
    batches = -(-len(chois) // nt.batch_size(int(round(np.sqrt(chois.shape[-1])))))
    assert batches == 3
    _cpus(monkeypatch, 1)
    serial = nt.solve_diamond(chois)
    assert all(isinstance(sol, nt.SdpSolution) and sol.gap <= TOL.sdp_gap_tol / 10 for sol in serial)
    for cpus in (2, 16):  # two workers; more CPUs than batches, so one worker per batch
        _cpus(monkeypatch, cpus)
        assert workers._worker_count(batches) == min(cpus, batches)
        assert all(map(identical, serial, nt.solve_diamond(chois)))
    _assert_no_child_left()


def test_failure_in_a_workers_share_stays_with_its_item(monkeypatch):
    _cpus(monkeypatch, 2)
    chois = _d3_chois()[:8]
    chois[5, 0, 0] = np.nan  # in the second share, solved by a forked child
    results = nt.solve_diamond(chois)
    assert isinstance(results[5], SdpConvergenceError)
    assert "non-finite" in results[5].reason and results[5].iterations == 0
    for i in (4, 6, 7):
        assert identical(results[i], nt.solve_diamond(chois[i:i + 1])[0])
    _assert_no_child_left()


def _in_children(monkeypatch, act):
    """Make every forked child do ``act()`` before its first lockstep batch."""
    parent, real = os.getpid(), nt._lockstep

    def lockstep(*args):
        if os.getpid() != parent:
            act()
        return real(*args)

    monkeypatch.setattr(nt, "_lockstep", lockstep)


def test_share_of_a_child_without_a_result_is_solved_here(monkeypatch):
    chois = _d3_chois()
    _cpus(monkeypatch, 1)
    serial = nt.solve_diamond(chois)
    _cpus(monkeypatch, 3)
    _in_children(monkeypatch, lambda: os._exit(1))
    assert all(map(identical, serial, nt.solve_diamond(chois)))
    _assert_no_child_left()


def test_share_that_cannot_be_forked_is_solved_here(monkeypatch):
    chois = _d3_chois()
    _cpus(monkeypatch, 1)
    serial = nt.solve_diamond(chois)
    real, forks = os.fork, []

    def fork():
        forks.append(len(forks))
        if len(forks) > 1:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real()

    _cpus(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", fork)
    assert all(map(identical, serial, nt.solve_diamond(chois)))
    assert forks == [0, 1]
    _assert_no_child_left()


def test_exception_in_a_child_reaches_the_caller(monkeypatch):
    def refuse():
        raise MemoryError("no room for the Schur complement")

    _cpus(monkeypatch, 2)
    _in_children(monkeypatch, refuse)
    with pytest.raises(MemoryError, match="no room"):
        nt.solve_diamond(_d3_chois())
    _assert_no_child_left()


def test_no_child_outlives_an_exception_here(monkeypatch):
    # the children are still solving (or blocked on their pipes) when this
    # process's own share raises: they are killed and reaped
    parent, real = os.getpid(), nt._lockstep

    def lockstep(*args):
        if os.getpid() == parent:
            raise RuntimeError("interrupted")
        return real(*args)

    _cpus(monkeypatch, 3)
    monkeypatch.setattr(nt, "_lockstep", lockstep)
    with pytest.raises(RuntimeError, match="interrupted"):
        nt.solve_diamond(_d3_chois())
    _assert_no_child_left()


def test_small_map_is_solved_from_a_unit_scale_start():
    # a d = 3 sweep point (s2_det, N = 64, of the benchmark's exact d = 3
    # model): ||J||_F = 2.8e-5, and its unit-scale copy converges in 8
    # iterations, where the unscaled start at X = S = I took 11
    from sdp_reference import reference_diamond_norm

    gen = builtin_model("random", dict(d=3, m=4, seed=11))
    superop = exact_channel(gen, 1.0) - np.linalg.matrix_power(s2_det(gen, 1.0 / 64), 64)
    assert np.linalg.norm(choi(superop, 3)) < 1e-4
    (sol,) = nt.solve_diamond(choi(superop, 3)[None])
    assert sol.gap <= 1e-9 and sol.iterations == 8
    assert abs(sol.value - reference_diamond_norm(superop).value) <= 1e-9


def test_zero_and_non_finite_maps_keep_unit_scale():
    zero, nan = np.zeros((4, 4)), np.full((4, 4), np.nan)
    sol, err = nt.solve_diamond(np.array([zero, nan]))
    assert abs(sol.value) <= 1e-9 and sol.gap <= 1e-9
    assert isinstance(err, SdpConvergenceError)
    assert "non-finite" in err.reason and err.iterations == 0


def test_failure_stays_with_its_item():
    # a non-finite problem fails alone; its batch-mates certify as they do alone
    chois = _unit_chois(_batch_maps())
    alone = [sol.value for sol in nt.solve_diamond(chois)]
    chois[1, 0, 0] = np.nan
    results = nt.solve_diamond(chois)
    assert isinstance(results[1], SdpConvergenceError)
    assert "non-finite" in results[1].reason and results[1].iterations == 0
    for i in (0, 2, 3):
        assert results[i].gap <= 1e-9
        assert abs(results[i].value - alone[i]) <= 1e-9


def test_linear_algebra_failure_isolated_to_its_item(monkeypatch):
    # a LinAlgError inside a batched step re-runs the step item by item; only
    # the item that raises alone gets the error
    chois = _unit_chois(_batch_maps())
    alone = [sol.value for sol in nt.solve_diamond(chois)]
    real = nt._iterate

    def breaking(st, *args):
        if 2 in st["index"]:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(st, *args)

    monkeypatch.setattr(nt, "_iterate", breaking)
    results = nt.solve_diamond(chois)
    assert isinstance(results[2], SdpConvergenceError)
    assert "SVD did not converge" in results[2].reason and results[2].iterations == 0
    for i in (0, 1, 3):
        assert abs(results[i].value - alone[i]) <= 1e-9


def test_square_root_clips_only_the_singular_item():
    rng = np.random.default_rng(3)
    x = _rand_pd(rng, 4, (3,))
    x[1] = np.diag([1.0, 1e-3, 0.0, -1e-17])  # PSD but not numerically PD
    low = nt._cholesky(x, nt._clipped_root)
    for i in (0, 2):
        assert np.array_equal(low[i], np.linalg.cholesky(x[i]))
    assert np.allclose(low[1] @ low[1].conj().T, x[1], atol=1e-12)
    assert np.all(np.isfinite(low[1]))


@pytest.mark.parametrize("n", [7, nt._LEAF + 1, 272])
def test_batched_factor_solve_matches_dense_solve(n):
    rng = np.random.default_rng(n)
    g = rng.normal(size=(3, n, n))
    mats = g @ g.swapaxes(1, 2) + 1e-3 * np.eye(n)
    v = rng.normal(size=(n, n // 2 + 1))
    mats[1] = v @ v.T - 1e-15 * np.eye(n)  # indefinite only by rounding: jittered
    rhs = rng.normal(size=(3, n))
    low = nt._cholesky(mats, nt._jittered)
    assert np.max(np.abs(low[1] @ low[1].T - mats[1])) <= 1e-12 * np.max(np.abs(mats[1]))
    x = nt._solve(low, rhs)
    for i in (0, 2):
        assert np.array_equal(low[i], np.linalg.cholesky(mats[i]))
        assert np.linalg.norm(mats[i] @ x[i] - rhs[i]) <= 1e-11 * np.linalg.norm(mats[i]) * np.linalg.norm(x[i])
    mats[2] = -np.eye(n)  # no rung of the ladder factors it
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        nt._cholesky(mats, nt._jittered)


def test_full_d3_batch_stays_within_its_workspace_budget():
    import tracemalloc

    gen = builtin_model("random", dict(d=3, m=4, seed=14))
    full = exact_channel(gen, 1.0)
    maps = [full - np.linalg.matrix_power(exact_channel(gen, 1.0 / k), k)
            for k in range(2, 2 + nt.batch_size(3))]
    chois = _unit_chois(maps)
    nt.solve_diamond(chois[:1])  # per-d plans are built lazily, outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        results = nt.solve_diamond(chois)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert all(isinstance(sol, nt.SdpSolution) and sol.gap <= 1e-9 for sol in results)
    assert peak <= 1.25 * nt._BATCH_BYTES


def test_newton_right_hand_side_matches_the_symmetrized_step():
    # the right-hand side must be the constraint image of the Hermitian part
    # that the step takes; with the upper triangle of the raw matrix instead,
    # the primal residual of these solves climbed to 1e-8 and stalled
    from lindsim.norms import diamond_norm_solution

    gen = builtin_model("random", dict(d=4, m=4, seed=5))
    for k in (2, 3):
        sol = diamond_norm_solution(term_superop(gen, k, with_rate=True))
        assert sol.gap <= TOL.sdp_gap_tol and sol.iterations <= 30
