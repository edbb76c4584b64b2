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
each map keeps its own certificate or error; ``certified`` of that list
raises the first map's error instead, and ``diamond_norm`` and
``diamond_norm_solution`` are its one-map cases.  ``diamond_bracket``
bounds the norm from both sides by feasible points of the program, unsolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .lindblad import GkslGenerator, choi, is_cptp
from .linalg import dagger
from .sdp import SdpConvergenceError, SdpSolution, solve_diamond
from .tolerances import TOL

_SEESAW_STEPS = 40  # rounds of diamond_bracket's lower bound

__all__ = [
    "GeneratorStats",
    "certified",
    "diamond_bracket",
    "diamond_norm",
    "diamond_norm_solution",
    "diamond_norm_solutions",
    "generator_stats",
    "power_contraction_check",
    "power_contraction_maps",
    "term_maps",
    "term_stats",
]


def _hermitian_choi(superop) -> np.ndarray:
    """J of a d^2 x d^2 Hermiticity-preserving superoperator; else ``ValueError``."""
    j = choi(superop)
    herm_dev = float(np.max(np.abs(j - dagger(j))))
    if not herm_dev <= TOL.herm_preserving_tol:
        raise ValueError("superoperator is not Hermiticity-preserving "
                         f"(Choi hermiticity deviation {herm_dev:.3e})")
    return j


def diamond_norm_solutions(superops) -> list:
    """Certified diamond norms of several maps, those of one d in one ``solve_diamond`` call.

    Returns, in order, each map's ``SdpSolution``, at the map's own scale, or
    the exception that map alone raised: ``ValueError`` for a map that is not
    a Hermiticity-preserving superoperator, ``SdpConvergenceError`` for a
    solve that did not certify.
    """
    results = [None] * len(superops)
    by_dim = {}
    for i, superop in enumerate(superops):
        try:
            j = _hermitian_choi(superop)
        except ValueError as exc:
            results[i] = exc
        else:
            by_dim.setdefault(len(j), []).append((i, j))
    for items in by_dim.values():
        index, chois = zip(*items)
        for i, sol in zip(index, solve_diamond(np.array(chois))):
            results[i] = sol
    return results


def certified(solutions) -> list:
    """``solutions`` as given once none is an exception; else raises the first that is."""
    for sol in solutions:
        if isinstance(sol, Exception):
            raise sol
    return solutions


def diamond_norm_solution(superop: np.ndarray) -> SdpSolution:
    """Solve the diamond-norm SDP and return the full certificate."""
    return certified(diamond_norm_solutions([superop]))[0]


def diamond_norm(superop: np.ndarray) -> float:
    """||.||_diamond of a Hermiticity-preserving superoperator (abs err <= ``TOL.diamond_abs_tol``)."""
    return float(diamond_norm_solution(superop).value)


def diamond_bracket(superop: np.ndarray) -> tuple:
    """(lower, upper) on ||superop||_diamond from two feasible points of Watrous'
    program, without solving it; ``ValueError`` as ``diamond_norm_solutions``.

    Lower, by seesaw: the input sum_a B|a>|a> (||B||_F = 1) has the output
    X = (B (x) I) J (B^dag (x) I).  For U = sign(X), the top eigenvector of
    K[(q,c),(p,a)] = sum_{x,y} U[(q,y),(p,x)] J[(a,x),(c,y)], read as B[p,a],
    maximises tr(U X).  The largest ||X||_1 of ``_SEESAW_STEPS`` rounds from
    B = I/sqrt(d) is kept.  Upper, by the Jordan split P = J_+, Q = J_-:
    lambda_max(Tr_out |J|).
    """
    j = _hermitian_choi(superop)
    d = int(round(np.sqrt(len(j))))
    w, v = np.linalg.eigh(j)
    abs_j = ((v * abs(w)) @ dagger(v)).reshape((d,) * 4)
    upper = float(np.linalg.eigvalsh(np.einsum("axcx->ac", abs_j))[-1])
    j_xy = j.reshape((d,) * 4).transpose(1, 3, 0, 2).reshape(d * d, d * d)  # [(x,y), (a,c)]
    b, lower = np.eye(d) / np.sqrt(d), 0.0
    for _ in range(_SEESAW_STEPS):
        b_in = np.kron(b, np.eye(d))
        w, v = np.linalg.eigh(b_in @ j @ dagger(b_in))
        lower = max(lower, float(np.sum(abs(w))))
        u = ((v * np.sign(w)) @ dagger(v)).reshape((d,) * 4).transpose(0, 2, 3, 1)  # [q, p, x, y]
        k = (u.reshape(d * d, d * d) @ j_xy).reshape((d,) * 4).transpose(0, 3, 1, 2)  # [q, c, p, a]
        b = np.linalg.eigh(k.reshape(d * d, d * d))[1][:, -1].reshape(d, d)
    return lower, upper


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
    return list(gen.superops)


def generator_stats(gen: GkslGenerator) -> GeneratorStats:
    """Diamond-norm statistics of a generator's terms: its ``term_maps``
    certified in one batch, read by ``term_stats``."""
    return term_stats(gen, diamond_norm_solutions(term_maps(gen)))


def term_stats(gen: GkslGenerator, solutions) -> GeneratorStats:
    """A generator's statistics from the first M of ``solutions`` (an iterator
    may be shared), those of its ``term_maps``; a failed term raises, naming k
    and d.  The diamond norm is homogeneous, so a rate-scaled term's norm is
    its rate times the bare term's.  The total rate counts the Hamiltonian's
    unit rate.
    """
    bare = scaled = 0.0
    for k, sol in zip(range(1, gen.m_total + 1), solutions):  # range first: stops at term M
        if isinstance(sol, SdpConvergenceError):
            raise SdpConvergenceError(f"diamond norm of term {k} of a d={gen.dim} generator: {sol.reason}",
                                      sol.gap, sol.iterations, sol.primal_residual) from sol
        if isinstance(sol, Exception):
            raise sol
        bare = max(bare, sol.value)
        with np.errstate(over="ignore"):  # an infinite scaled norm makes every bound raise
            scaled = max(scaled, gen.rate(k) * sol.value)
    total = float(np.sum(gen.rates))
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


def power_contraction_check(t_chan: np.ndarray, v_chan: np.ndarray, n):
    """Check ||T^N - V^N|| <= N ||T - V|| in diamond norm for two channels.

    ``n`` is one step count or several.  ||T - V|| and every ||T^N - V^N||
    are certified in one batch; the result is one verdict for one N and a
    list of verdicts, in order, for several.  Each allows the solver's
    accuracy, ``TOL.diamond_abs_tol``.
    """
    ns = [n] if isinstance(n, Integral) else [int(k) for k in n]
    maps = power_contraction_maps(t_chan, v_chan, ns)
    rhs, *lhs = [sol.value for sol in certified(diamond_norm_solutions(maps))]
    holds = [bool(value <= k * rhs + TOL.diamond_abs_tol) for value, k in zip(lhs, ns)]
    return holds[0] if isinstance(n, Integral) else holds
