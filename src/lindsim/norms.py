"""Diamond norm of superoperators and the scalar statistics built from it.

Every map this package measures is Hermiticity-preserving, so the diamond
norm is computed through Watrous' program for such maps on the Choi matrix J
("Simpler semidefinite programs for completely bounded norms",
arXiv:1207.5726):

    minimize    mu
    subject to  P - Q = J,   mu * I - Tr_out(P + Q) >= 0,   P, Q >= 0,

solved by the in-repo Nesterov-Todd interior-point method of ``lindsim.sdp``
(no external solver).  ``diamond_norm_solutions`` certifies many maps in one
call: maps of one dimension are solved together in lockstep batches, and
each map keeps its own certificate or error.  ``diamond_norm_certificates``
raises the first map's error instead of returning it, and ``diamond_norm``
and ``diamond_norm_solution`` are its one-map cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .lindblad import GkslGenerator, choi, is_cptp, term_superop
from .linalg import dagger, devectorize, trace_norm, vectorize
from .sdp import SdpConvergenceError, SdpSolution, solve_diamond
from .tolerances import TOL

__all__ = [
    "GeneratorStats",
    "apply_to_doubled_space",
    "certified",
    "diamond_norm",
    "diamond_norm_certificates",
    "diamond_norm_solution",
    "diamond_norm_solutions",
    "generator_stats",
    "power_contraction_check",
    "power_contraction_maps",
    "sampled_diamond_lower_bound",
    "term_maps",
    "term_stats",
]


def diamond_norm_solutions(superops) -> list:
    """Certified diamond norms of several maps, solved in lockstep batches.

    Returns, in order, each map's ``SdpSolution``, or the exception that map
    alone raised: ``ValueError`` for a map that is not a Hermiticity-preserving
    superoperator, ``SdpConvergenceError`` for a solve that did not certify.
    Each map is solved at unit scale; its value and gap are rescaled
    afterwards, with a gap tolerance that shrinks with the scale so that the
    rescaled gap stays an order of magnitude inside ``TOL.sdp_gap_tol``.
    """
    results = [None] * len(superops)
    by_dim = {}
    for i, superop in enumerate(superops):
        s = np.asarray(superop, dtype=complex)
        d = int(round(np.sqrt(s.shape[0])))
        if s.shape != (d * d, d * d):
            results[i] = ValueError(f"superoperator shape {s.shape} is not a square of squares")
            continue
        j = choi(s, d)
        herm_dev = float(np.max(np.abs(j - dagger(j))))
        if not herm_dev <= TOL.herm_preserving_tol:
            results[i] = ValueError("superoperator is not Hermiticity-preserving "
                                    f"(Choi hermiticity deviation {herm_dev:.3e})")
            continue
        by_dim.setdefault(d, []).append((i, j, max(1.0, float(np.linalg.norm(j)))))
    for items in by_dim.values():
        index, chois, scales = zip(*items)
        scales = np.array(scales)
        gap_tols = np.minimum(1e-9, TOL.sdp_gap_tol / (10.0 * scales))
        solved = solve_diamond(np.array(chois) / scales[:, None, None], gap_tols, feas_tol=1e-9,
                               max_iters=TOL.sdp_max_iters)
        for i, scale, sol in zip(index, scales, solved):
            if isinstance(sol, SdpSolution):
                sol.value *= scale
                sol.primal_objective *= scale
                sol.dual_objective *= scale
                sol.gap *= scale
                if sol.gap > TOL.sdp_gap_tol:
                    sol = SdpConvergenceError("diamond-norm solve left an oversized duality gap",
                                              sol.gap, sol.iterations, sol.primal_residual)
            results[i] = sol
    return results


def diamond_norm_certificates(superops) -> list:
    """Each map's ``SdpSolution``, solved as ``diamond_norm_solutions`` does;
    raises the first map's exception instead of returning it."""
    return certified(diamond_norm_solutions(superops))


def certified(solutions) -> list:
    """``solutions`` as given once none is an exception; else raises the first that is."""
    for sol in solutions:
        if isinstance(sol, Exception):
            raise sol
    return solutions


def diamond_norm_solution(superop: np.ndarray) -> SdpSolution:
    """Solve the diamond-norm SDP and return the full certificate."""
    return diamond_norm_certificates([superop])[0]


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


def term_maps(gen: GkslGenerator) -> list:
    """The rate-free superoperators of a generator's terms k = 1..M, whose
    diamond norms ``term_stats`` reads."""
    return [term_superop(gen, k, with_rate=False) for k in range(1, gen.m_total + 1)]


def generator_stats(gen: GkslGenerator, gamma_includes_hamiltonian: bool = True) -> GeneratorStats:
    """Diamond-norm statistics of a generator's terms: its ``term_maps``
    certified in one batch, read by ``term_stats``."""
    return term_stats(gen, diamond_norm_solutions(term_maps(gen)), gamma_includes_hamiltonian)


def term_stats(gen: GkslGenerator, solutions, gamma_includes_hamiltonian: bool = True) -> GeneratorStats:
    """A generator's statistics from the first M of ``solutions`` (an iterator
    may be shared), those of its ``term_maps``; a failed term raises, naming k
    and d.  The diamond norm is homogeneous, so a rate-scaled term's norm is
    its rate times the bare term's.  ``gamma_includes_hamiltonian`` keeps the
    Hamiltonian's unit rate inside the total decay rate (the default); disable
    to count dissipators only.
    """
    bare = scaled = 0.0
    for k, sol in zip(range(1, gen.m_total + 1), solutions):  # range first: stops at term M
        if isinstance(sol, SdpConvergenceError):
            raise SdpConvergenceError(f"diamond norm of term {k} of a d={gen.dim} generator: {sol.reason}",
                                      sol.gap, sol.iterations, sol.primal_residual) from sol
        if isinstance(sol, Exception):
            raise sol
        bare = max(bare, sol.value)
        scaled = max(scaled, gen.rate(k) * sol.value)
    total = float(np.sum(gen.rates if gamma_includes_hamiltonian else gen.rates[1:]))
    return GeneratorStats(max_scaled_norm=scaled, max_bare_norm=bare, total_rate=total,
                          term_count=gen.m_total)


def power_contraction_maps(t_chan: np.ndarray, v_chan: np.ndarray, ns) -> list:
    """T - V, then T^N - V^N for each N in ``ns``: the maps behind
    ``power_contraction_check``, for two CPTP channels."""
    if not ns or min(ns) < 1:
        raise ValueError("n must be a positive integer")
    for name, chan in (("first", t_chan), ("second", v_chan)):
        if not is_cptp(chan):
            raise ValueError(f"{name} input is not CPTP at tolerance {TOL.cptp_tol}")
    return [t_chan - v_chan] + [np.linalg.matrix_power(t_chan, k) - np.linalg.matrix_power(v_chan, k)
                                for k in ns]


def power_contraction_check(t_chan: np.ndarray, v_chan: np.ndarray, n, slack: float = 1e-6):
    """Check ||T^N - V^N|| <= N ||T - V|| in diamond norm for two channels.

    ``n`` is one step count or several.  ||T - V|| and every ||T^N - V^N||
    are certified in one batch; the result is one verdict for one N and a
    list of verdicts, in order, for several.
    """
    ns = [n] if isinstance(n, Integral) else [int(k) for k in n]
    rhs, *lhs = [sol.value for sol in diamond_norm_certificates(power_contraction_maps(t_chan, v_chan, ns))]
    holds = [bool(value <= k * rhs + slack) for value, k in zip(lhs, ns)]
    return holds[0] if isinstance(n, Integral) else holds
