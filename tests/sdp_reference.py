"""Reference solvers for the tests: a generic dense HKM interior-point method.

Solves block-diagonal semidefinite programs in standard form,

    (P)  minimize    sum_b <C_b, X_b>
         subject to  sum_b tr(A_{i,b} X_b) = v_i   (i = 1..m),   X_b >= 0

    (D)  maximize    v . y
         subject to  C_b - sum_i y_i A_{i,b} = S_b >= 0,

over complex Hermitian blocks, with <A, B> = tr(A B).  The implementation is
an infeasible-start path-following method with the HKM search direction and a
Mehrotra predictor-corrector step.  It shares no solver code with the structured
Nesterov-Todd solver in ``lindsim.sdp``, so the tests use it as an oracle:
``diamond_hp_problem`` writes Watrous' Hermiticity-preserving program as an
explicit constraint stack, and ``reference_diamond_norm`` solves it one map
at a time, for J / max(1, ||J||_F), to the package's gap at the map's scale.
``identical`` compares two outcomes of the package's solver to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from lindsim.lindblad import choi
from lindsim.linalg import kron
from lindsim.sdp import SdpConvergenceError, SdpSolution
from lindsim.tolerances import TOL


@dataclass
class SdpProblem:
    """Problem data.

    ``constraints[b]`` has shape (m, n_b, n_b): the b-th block of every
    constraint matrix.  ``objective[b]`` is the (n_b, n_b) block of C and
    ``rhs`` the length-m vector v.  All constraint/objective blocks must be
    Hermitian and the rhs real.
    """

    block_sizes: list
    constraints: list
    objective: list
    rhs: np.ndarray


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2


def _whitener(x: np.ndarray) -> np.ndarray:
    """r with r^H x r = I: the inverse of x's Cholesky factor, conjugate-transposed.

    When x is not numerically PD, x is whitened by its spectrum clipped away
    from zero instead.
    """
    try:
        return np.linalg.inv(np.linalg.cholesky(x)).conj().T
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(_sym(x))
        floor = np.finfo(float).eps * max(float(np.max(np.abs(w))), np.finfo(float).tiny)
        return v / np.sqrt(np.maximum(w, floor))


def _max_step(r: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha*dx >= 0, for Hermitian PD x with r = _whitener(x)."""
    lam = float(np.min(np.linalg.eigvalsh(_sym(r.conj().T @ dx @ r))))
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


# After this many iterations with the gap and mu within tolerance but the
# primal residual above feas_tol and not halving, the solve has stalled: more
# iterations only repeat the rounding error of the Newton step.
_STALL_ITERS = 10

_LEAF = 64  # triangular blocks up to this side are solved directly


def _lower_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with low @ x = b for lower-triangular low: blocked forward substitution.

    The leading block is solved first and its part of b eliminated from the
    trailing block, recursively; blocks up to _LEAF on a side go to LAPACK.
    """
    n = low.shape[0]
    if n <= _LEAF:
        return np.linalg.solve(low, b)
    h = n // 2
    head = _lower_solve(low[:h, :h], b[:h])
    tail = _lower_solve(low[h:, h:], b[h:] - low[h:, :h] @ head)
    return np.concatenate([head, tail])


def _chol_factor(mat: np.ndarray):
    """Cholesky factor of ``mat`` with a jitter ladder, or None if every rung fails.

    The factor is returned with its transpose index-reversed (lower
    triangular again), so that both substitutions of a solve run forward.
    The ladder starts at the rounding level of ``mat`` and rises tenfold: near
    the optimum the Schur complement is indefinite only by rounding, and any
    larger jitter shows up directly in the primal residual.
    """
    jitter = 0.0
    scale = max(1.0, float(np.max(np.abs(mat))))
    for _ in range(16):
        try:
            low = np.linalg.cholesky(mat + jitter * np.eye(mat.shape[0]) if jitter else mat)
            return low, np.ascontiguousarray(low.T[::-1, ::-1])
        except np.linalg.LinAlgError:
            jitter = max(jitter * 10.0, np.finfo(float).eps * scale)
    return None


def _chol_solve(factor, mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve mat x = rhs through ``_chol_factor(mat)``, by least squares without one."""
    if factor is None:
        return np.linalg.lstsq(mat, rhs, rcond=None)[0]
    low, upper_reversed = factor
    return _lower_solve(upper_reversed, _lower_solve(low, rhs)[::-1])[::-1]


def solve_sdp(
    problem: SdpProblem,
    *,
    gap_tol: float = 1e-10,
    feas_tol: float = 1e-9,
    max_iters: int = 500,
    step_fraction: float = 0.98,
) -> SdpSolution:
    sizes = [int(n) for n in problem.block_sizes]
    nblocks = len(sizes)
    a_stacks = [np.asarray(problem.constraints[b], dtype=complex) for b in range(nblocks)]
    c_blocks = [np.asarray(problem.objective[b], dtype=complex) for b in range(nblocks)]
    v = np.asarray(problem.rhs, dtype=float)
    m = v.size
    a_flat = [a_stacks[b].reshape(m, -1) for b in range(nblocks)]
    n_total = sum(sizes)

    def apply_a(blocks):
        out = np.zeros(m)
        for b in range(nblocks):
            out += (a_flat[b].conj() @ blocks[b].reshape(-1)).real
        return out

    def apply_at(y):
        return [(y @ a_flat[b]).reshape(sizes[b], sizes[b]) for b in range(nblocks)]

    # well-scaled infeasible start on the central ray
    xi_p = max(1.0, float(np.max(np.abs(v))) if m else 1.0)
    xi_d = max(1.0, max(float(np.max(np.abs(c))) if c.size else 0.0 for c in c_blocks))
    x = [xi_p * np.eye(n, dtype=complex) for n in sizes]
    s = [xi_d * np.eye(n, dtype=complex) for n in sizes]
    y = np.zeros(m)

    v_scale = 1.0 + float(np.linalg.norm(v))
    c_scale = 1.0 + float(np.sqrt(sum(np.linalg.norm(c) ** 2 for c in c_blocks)))

    pobj = dobj = 0.0
    gap = np.inf
    rp_norm = rd_norm = best_rp = np.inf
    iteration = stalled = 0

    def failure(reason):
        return SdpConvergenceError(reason, gap, iteration - 1, rp_norm)

    try:
        for iteration in range(1, max_iters + 1):
            rp = v - apply_a(x)
            at_y = apply_at(y)
            rd = [c_blocks[b] - s[b] - at_y[b] for b in range(nblocks)]
            mu = sum(np.vdot(x[b], s[b]).real for b in range(nblocks)) / n_total

            pobj = sum(np.vdot(c_blocks[b], x[b]).real for b in range(nblocks))
            dobj = float(v @ y)
            gap = abs(pobj - dobj)
            rp_norm = float(np.linalg.norm(rp)) / v_scale
            rd_norm = float(np.sqrt(sum(np.linalg.norm(r) ** 2 for r in rd))) / c_scale

            if gap <= gap_tol and mu * n_total <= gap_tol and rp_norm <= feas_tol and rd_norm <= feas_tol:
                return SdpSolution(
                    value=0.5 * (pobj + dobj),
                    primal_objective=pobj,
                    dual_objective=dobj,
                    gap=gap,
                    iterations=iteration - 1,
                    primal_blocks=x,
                    dual_y=y,
                    primal_residual=rp_norm,
                    dual_residual=rd_norm,
                )
            if gap <= gap_tol and mu * n_total <= gap_tol and rp_norm > feas_tol:
                if rp_norm < 0.5 * best_rp:
                    best_rp, stalled = rp_norm, 0
                else:
                    stalled += 1
                    if stalled >= _STALL_ITERS:
                        raise failure("primal residual stalled above the feasibility tolerance")

            # S^-1 and the whitening of x and S, shared by predictor and corrector
            r_x = [_whitener(x[b]) for b in range(nblocks)]
            r_s, s_inv = [], []
            for b in range(nblocks):
                try:
                    inv_l = np.linalg.inv(np.linalg.cholesky(s[b]))
                    r_s.append(inv_l.conj().T)
                    s_inv.append(_sym(inv_l.conj().T @ inv_l))
                except np.linalg.LinAlgError:
                    r_s.append(_whitener(s[b]))
                    s_inv.append(_sym(np.linalg.pinv(s[b])))

            # Schur complement M_ij = Re tr(A_i X A_j S^{-1}), factored once for both passes
            schur = np.zeros((m, m))
            for b in range(nblocks):
                t = np.matmul(np.matmul(x[b][None, :, :], a_stacks[b]), s_inv[b][None, :, :])
                schur += (a_flat[b].conj() @ t.reshape(m, -1).T).real
            schur = (schur + schur.T) / 2
            factor = _chol_factor(schur)

            def newton(sigma_mu, corr):
                g = []
                for b in range(nblocks):
                    gb = -x[b] - x[b] @ rd[b] @ s_inv[b]
                    if sigma_mu > 0.0:
                        gb = gb + sigma_mu * s_inv[b]
                    if corr is not None:
                        gb = gb - corr[b] @ s_inv[b]
                    g.append(gb)
                rhs = rp - apply_a([_sym(gb) for gb in g])
                dy = _chol_solve(factor, schur, rhs)
                at_dy = apply_at(dy)
                ds = [rd[b] - at_dy[b] for b in range(nblocks)]
                dx = [_sym(g[b] + x[b] @ at_dy[b] @ s_inv[b]) for b in range(nblocks)]
                return dx, dy, ds

            # predictor
            dx_aff, dy_aff, ds_aff = newton(0.0, None)
            ap_aff = min(1.0, min(_max_step(r_x[b], dx_aff[b]) for b in range(nblocks)))
            ad_aff = min(1.0, min(_max_step(r_s[b], ds_aff[b]) for b in range(nblocks)))
            mu_aff = sum(
                np.vdot(x[b] + ap_aff * dx_aff[b], s[b] + ad_aff * ds_aff[b]).real
                for b in range(nblocks)
            ) / n_total
            sigma = min(1.0, max(1e-12, (max(mu_aff, 0.0) / mu) ** 3))

            # corrector
            corr = [dx_aff[b] @ ds_aff[b] for b in range(nblocks)]
            dx, dy, ds = newton(sigma * mu, corr)

            alpha_p = min(1.0, step_fraction * min(_max_step(r_x[b], dx[b]) for b in range(nblocks)))
            alpha_d = min(1.0, step_fraction * min(_max_step(r_s[b], ds[b]) for b in range(nblocks)))
            if max(alpha_p, alpha_d) < 1e-12:
                raise failure("interior-point step collapsed")

            for b in range(nblocks):
                x[b] = _sym(x[b] + alpha_p * dx[b])
                s[b] = _sym(s[b] + alpha_d * ds[b])
            y = y + alpha_d * dy
    except np.linalg.LinAlgError as exc:
        raise failure(f"linear algebra failure ({exc})") from exc

    raise SdpConvergenceError(f"no convergence within {max_iters} iterations", gap, max_iters, rp_norm)


def herm_basis(d: int) -> np.ndarray:
    """Orthonormal (trace inner product) basis of d x d Hermitian matrices."""
    basis = []
    for a in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[a, a] = 1.0
        basis.append(e)
    for a in range(d):
        for b in range(a + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[a, b] = e[b, a] = 1.0 / np.sqrt(2)
            basis.append(e)
            e = np.zeros((d, d), dtype=complex)
            e[a, b] = 1j / np.sqrt(2)
            e[b, a] = -1j / np.sqrt(2)
            basis.append(e)
    return np.array(basis)


def diamond_hp_problem(j: np.ndarray, d: int) -> SdpProblem:
    """Watrous' Hermiticity-preserving program on blocks [d^2, d^2, d, 1].

    Rows 0..d^4-1 pin P - Q to J, one row per element of a Hermitian basis
    of the d^2-sided space; rows d^4.. define the slack H = mu I - Tr_out(P+Q)
    on a Hermitian basis b_r of the d-sided space, <kron(b_r, I), Z> being
    <b_r, Tr_out Z>.
    """
    n = d * d
    big_basis = herm_basis(n)
    small_basis = herm_basis(d)
    lifted = np.array([kron(b_r, np.eye(d)) for b_r in small_basis])
    m_eq, m_slack = n * n, d * d
    a_p = np.concatenate([big_basis, lifted])
    a_q = np.concatenate([-big_basis, lifted])
    a_h = np.concatenate([np.zeros((m_eq, d, d), dtype=complex), small_basis])
    a_mu = np.zeros((m_eq + m_slack, 1, 1), dtype=complex)
    a_mu[m_eq:, 0, 0] = -np.trace(small_basis, axis1=1, axis2=2)
    rhs = np.zeros(m_eq + m_slack)
    rhs[:m_eq] = (big_basis.reshape(m_eq, -1).conj() @ j.reshape(-1)).real
    objective = [np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex),
                 np.zeros((d, d), dtype=complex), np.ones((1, 1), dtype=complex)]
    return SdpProblem(block_sizes=[n, n, d, 1], constraints=[a_p, a_q, a_h, a_mu],
                      objective=objective, rhs=rhs)


def reference_diamond_norm(superop: np.ndarray) -> SdpSolution:
    """The diamond norm by the HKM solver, solved for J / max(1, ||J||_F); its value,
    objectives and gap are rescaled to the map's scale and the gap is checked."""
    s = np.asarray(superop, dtype=complex)
    d = int(round(np.sqrt(s.shape[0])))
    j = choi(s, d)
    scale = max(1.0, float(np.linalg.norm(j)))
    gap_tol = min(1e-9, TOL.sdp_gap_tol / (10.0 * scale))
    sol = solve_sdp(diamond_hp_problem(j / scale, d), gap_tol=gap_tol, feas_tol=1e-9,
                    max_iters=TOL.sdp_max_iters)
    sol = replace(sol, value=sol.value * scale, primal_objective=sol.primal_objective * scale,
                  dual_objective=sol.dual_objective * scale, gap=sol.gap * scale)
    if sol.gap > TOL.sdp_gap_tol:
        raise SdpConvergenceError("diamond-norm solve left an oversized duality gap", sol.gap,
                                  sol.iterations, sol.primal_residual)
    return sol


def identical(a, b) -> bool:
    """The same outcome to the bit: errors of one type and message, or
    ``SdpSolution``s whose every field is equal."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in fields(a) if f.name != "primal_blocks") and all(
        np.array_equal(x, y) for x, y in zip(a.primal_blocks, b.primal_blocks, strict=True))
