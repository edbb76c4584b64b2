"""Diamond norm of superoperators and the scalar statistics built from it.

Every map this package measures is Hermiticity-preserving, so the diamond
norm is computed through Watrous' program for such maps on the Choi matrix J
("Simpler semidefinite programs for completely bounded norms",
arXiv:1207.5726):

    minimize    mu
    subject to  P - Q = J,   mu * I - Tr_out(P + Q) >= 0,   P, Q >= 0,

solved with the in-repo interior-point method (no external solver).  The
program is encoded in standard form with four PSD blocks: P and Q (d^2-sided),
the d-sided slack of the epigraph and the 1x1 epigraph scalar mu.  Only the
right-hand side depends on J, so the constraint stack is built once per d.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .lindblad import GkslGenerator, choi, is_cptp, term_superop
from .linalg import dagger, devectorize, kron, trace_norm, vectorize
from .sdp import SdpConvergenceError, SdpProblem, SdpSolution, solve_sdp
from .tolerances import TOL

__all__ = [
    "GeneratorStats",
    "apply_to_doubled_space",
    "diamond_norm",
    "diamond_norm_solution",
    "generator_stats",
    "power_contraction_check",
    "sampled_diamond_lower_bound",
]


def _herm_basis(d: int) -> np.ndarray:
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


@functools.lru_cache(maxsize=None)
def _hp_constraints(d: int) -> tuple:
    """Constraint stack of the Hermiticity-preserving program, shared by every J.

    Rows 0..d^4-1 pin P - Q to J, one row per element of a Hermitian basis
    of the d^2-sided space; rows d^4.. define the slack H = mu I - Tr_out(P+Q)
    on a Hermitian basis b_r of the d-sided space, <kron(b_r, I), Z> being
    <b_r, Tr_out Z>.
    """
    n = d * d
    big_basis = _herm_basis(n)
    small_basis = _herm_basis(d)
    lifted = np.array([kron(b_r, np.eye(d)) for b_r in small_basis])
    m_eq, m_slack = n * n, d * d

    a_p = np.concatenate([big_basis, lifted])
    a_q = np.concatenate([-big_basis, lifted])
    a_h = np.concatenate([np.zeros((m_eq, d, d), dtype=complex), small_basis])
    a_mu = np.zeros((m_eq + m_slack, 1, 1), dtype=complex)
    a_mu[m_eq:, 0, 0] = -np.trace(small_basis, axis1=1, axis2=2)
    stack = (a_p, a_q, a_h, a_mu)
    for a in stack:
        a.setflags(write=False)
    return stack


def _diamond_hp_problem(j: np.ndarray, d: int) -> SdpProblem:
    a_p, a_q, a_h, a_mu = _hp_constraints(d)
    n = d * d
    m_eq = n * n
    rhs = np.zeros(a_p.shape[0])
    # <E_r, J> for the Hermitian basis E_r, read off the P block's rows
    rhs[:m_eq] = (a_p[:m_eq].reshape(m_eq, -1).conj() @ j.reshape(-1)).real
    objective = [
        np.zeros((n, n), dtype=complex),
        np.zeros((n, n), dtype=complex),
        np.zeros((d, d), dtype=complex),
        np.ones((1, 1), dtype=complex),
    ]
    return SdpProblem(
        block_sizes=[n, n, d, 1],
        constraints=[a_p, a_q, a_h, a_mu],
        objective=objective,
        rhs=rhs,
    )


def diamond_norm_solution(superop: np.ndarray) -> SdpSolution:
    """Solve the diamond-norm SDP and return the full certificate."""
    s = np.asarray(superop, dtype=complex)
    d = int(round(np.sqrt(s.shape[0])))
    if s.shape != (d * d, d * d):
        raise ValueError(f"superoperator shape {s.shape} is not a square of squares")
    j = choi(s, d)
    herm_dev = float(np.max(np.abs(j - dagger(j))))
    if herm_dev > TOL.herm_preserving_tol:
        raise ValueError(
            "superoperator is not Hermiticity-preserving "
            f"(Choi hermiticity deviation {herm_dev:.3e})"
        )

    # homogeneity: solve at unit scale, rescale value and gap afterwards;
    # the gap tolerance shrinks with the scale so the rescaled gap stays an
    # order of magnitude inside the acceptance threshold
    scale = max(1.0, float(np.linalg.norm(j)))
    gap_tol = min(1e-9, TOL.sdp_gap_tol / (10.0 * scale))
    problem = _diamond_hp_problem(j / scale, d)
    sol = solve_sdp(problem, gap_tol=gap_tol, feas_tol=1e-9, max_iters=TOL.sdp_max_iters)
    sol.value *= scale
    sol.primal_objective *= scale
    sol.dual_objective *= scale
    sol.gap *= scale
    if sol.gap > TOL.sdp_gap_tol:
        raise SdpConvergenceError("diamond-norm solve left an oversized duality gap", sol.gap,
                                  sol.iterations, sol.primal_residual)
    return sol


def diamond_norm(superop: np.ndarray) -> float:
    """||.||_diamond of a Hermiticity-preserving superoperator (abs err <= 1e-6)."""
    return float(diamond_norm_solution(superop).value)


def apply_to_doubled_space(superop: np.ndarray, operator: np.ndarray) -> np.ndarray:
    """(Phi (x) id)(A) for A on the doubled space C^d (x) C^d."""
    s = np.asarray(superop, dtype=complex)
    d = int(round(np.sqrt(s.shape[0])))
    a = np.asarray(operator, dtype=complex).reshape(d, d, d, d)
    out = np.empty_like(a)
    for r in range(d):
        for c in range(d):
            out[:, r, :, c] = devectorize(s @ vectorize(a[:, r, :, c]))
    return out.reshape(d * d, d * d)


def sampled_diamond_lower_bound(
    superop: np.ndarray, n_samples: int = 50, seed: int = 0, pure: bool = True
) -> float:
    """Best primal-feasible value over random unit-trace-norm Hermitian inputs.

    Every sample is a lower bound on the diamond norm; used as an independent
    cross-check of the SDP value.
    """
    s = np.asarray(superop, dtype=complex)
    d = int(round(np.sqrt(s.shape[0])))
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(n_samples):
        if pure:
            psi = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
            psi /= np.linalg.norm(psi)
            a = np.outer(psi, psi.conj())
        else:
            g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
            a = (g + dagger(g)) / 2
            a /= trace_norm(a)
        best = max(best, trace_norm(apply_to_doubled_space(s, a)))
    return best


@dataclass(frozen=True)
class GeneratorStats:
    """Scalars parameterizing every step/error bound.

    max_scaled_norm:   largest diamond norm among rate-scaled generator terms
    max_bare_norm:     same with the decay rates stripped
    total_rate:        sum of all decay rates (the Hamiltonian counts 1)
    term_count:        number of generator terms M
    """

    max_scaled_norm: float
    max_bare_norm: float
    total_rate: float
    term_count: int

    def __post_init__(self):
        if self.max_scaled_norm < 0 or self.max_bare_norm < 0:
            raise ValueError("norm statistics must be nonnegative")
        if self.term_count < 1:
            raise ValueError("term count must be positive")


def generator_stats(gen: GkslGenerator, gamma_includes_hamiltonian: bool = True) -> GeneratorStats:
    """Diamond-norm statistics of a generator's terms.

    One SDP per term: the diamond norm is homogeneous, so a rate-scaled
    term's norm is its rate times the bare term's norm.

    ``gamma_includes_hamiltonian`` keeps the Hamiltonian's unit rate inside
    the total decay rate (the default); disable to count dissipators only.
    """
    scaled = 0.0
    bare = 0.0
    for k in range(1, gen.m_total + 1):
        try:
            norm = diamond_norm(term_superop(gen, k, with_rate=False))
        except SdpConvergenceError as exc:
            raise SdpConvergenceError(f"diamond norm of term {k} of a d={gen.dim} generator: {exc.reason}",
                                      exc.gap, exc.iterations, exc.primal_residual) from exc
        bare = max(bare, norm)
        scaled = max(scaled, gen.rate(k) * norm)
    rates = gen.rates
    total = float(np.sum(rates)) if gamma_includes_hamiltonian else float(np.sum(rates[1:]))
    return GeneratorStats(
        max_scaled_norm=scaled,
        max_bare_norm=bare,
        total_rate=total,
        term_count=gen.m_total,
    )


def power_contraction_check(t_chan: np.ndarray, v_chan: np.ndarray, n: int, slack: float = 1e-6) -> bool:
    """Check ||T^N - V^N|| <= N ||T - V|| in diamond norm for two channels."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    for name, chan in (("first", t_chan), ("second", v_chan)):
        if not is_cptp(chan):
            raise ValueError(f"{name} input is not CPTP at tolerance {TOL.cptp_tol}")
    lhs = diamond_norm(np.linalg.matrix_power(t_chan, n) - np.linalg.matrix_power(v_chan, n))
    rhs = diamond_norm(t_chan - v_chan)
    return lhs <= n * rhs + slack
