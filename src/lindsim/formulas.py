"""Approximation channels, the method registry, step/error bounds and gate counts.

``METHODS`` holds one record per method: what the method is, everywhere in
the package, is read from it (see ``MethodRecord``).

Product-order convention (pinned by the entrywise tests): in a forward sweep
the k = 1 constituent channel is applied to the state first, so as a matrix
the sweep is E_M @ ... @ E_1; a reversed sweep applies k = M first.  The
symmetric second-order block is a forward half-step sweep followed by a
reversed half-step sweep.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lindblad import GkslGenerator, constituent_channel
from .norms import GeneratorStats
from .tolerances import TOL

__all__ = [
    "Direction",
    "Implementation",
    "METHODS",
    "Method",
    "MethodRecord",
    "S1Block",
    "S2Block",
    "Sampler",
    "StepBound",
    "TermExp",
    "GATE_COMPLEXITY",
    "error_bound",
    "gate_count",
    "qdrift_exact",
    "qdrift_probs",
    "s1_dir",
    "s1_ran_exact",
    "s2_det",
    "s2_ran_exact",
    "s2_sigma",
    "step_count",
]


class Method(str, enum.Enum):
    S1_DET = "s1_det"
    S2_DET = "s2_det"
    S1_RAN = "s1_ran"
    S2_RAN = "s2_ran"
    QDRIFT = "qdrift"


class Direction(str, enum.Enum):
    FORWARD = "forward"
    REVERSED = "reversed"


class Implementation(str, enum.Enum):
    CS = "cs"  # classical sampling
    QF = "qf"  # quantum forking


def _sweep(gen: GkslGenerator, dt: float, order) -> np.ndarray:
    """Compose constituent channels; earlier indices in ``order`` act first."""
    total = np.eye(gen.dim**2, dtype=complex)
    for k in order:
        total = constituent_channel(gen, k, dt) @ total
    return total


def s1_dir(gen: GkslGenerator, dt: float, direction: Direction) -> np.ndarray:
    """First-order product formula in one sweep direction."""
    if dt <= 0:
        raise ValueError("step length must be positive")
    ks = range(1, gen.m_total + 1)
    order = ks if direction == Direction.FORWARD else reversed(list(ks))
    return _sweep(gen, dt, order)


def s2_det(gen: GkslGenerator, dt: float) -> np.ndarray:
    """Symmetric second-order formula: half-step sweep up, half-step sweep down."""
    return s2_sigma(gen, dt, range(1, gen.m_total + 1))


def s1_ran_exact(gen: GkslGenerator, dt: float) -> np.ndarray:
    """Equal mixture of the forward and reversed first-order formulas."""
    return _mixture(METHODS[Method.S1_RAN].support, gen, dt)


def s2_sigma(gen: GkslGenerator, dt: float, sigma) -> np.ndarray:
    """Second-order formula with term indices permuted by ``sigma``.

    ``sigma`` is a tuple containing 1..M exactly once; sigma[0] is applied
    first in the forward half sweep.
    """
    if dt <= 0:
        raise ValueError("step length must be positive")
    sigma = tuple(int(k) for k in sigma)
    if sorted(sigma) != list(range(1, gen.m_total + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{gen.m_total}")
    forward = _sweep(gen, dt / 2, sigma)
    backward = _sweep(gen, dt / 2, reversed(sigma))
    return backward @ forward


def s2_ran_exact(gen: GkslGenerator, dt: float) -> np.ndarray:
    """Uniform mixture of the permuted second-order formulas over all M! orders."""
    return _mixture(METHODS[Method.S2_RAN].support, gen, dt)


def qdrift_probs(gen: GkslGenerator) -> np.ndarray:
    """Sampling weights proportional to the decay rates."""
    rates = gen.rates
    total = float(np.sum(rates))
    if total <= 0:
        raise ValueError("total decay rate is zero; nothing to simulate")
    return rates / total


def qdrift_exact(gen: GkslGenerator, omega: float) -> np.ndarray:
    """Rate-weighted mixture of single-term rate-free channels."""
    return _mixture(METHODS[Method.QDRIFT].support, gen, omega)


def _mixture(support: Callable, gen: GkslGenerator, dt: float) -> np.ndarray:
    """Sum of w * step.channel(gen, dt) / sum of w over ``support(gen)``."""
    if dt <= 0:
        raise ValueError("step length must be positive")
    weights, steps = support(gen)
    return sum(w * step.channel(gen, dt) for w, step in zip(weights, steps)) / float(np.sum(weights))


# ---------------------------------------------------------------------------
# The method registry, and the steps a sampled schedule is made of
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class S1Block:
    direction: Direction

    def channel(self, gen: GkslGenerator, dt: float) -> np.ndarray:
        return s1_dir(gen, dt, self.direction)


@dataclass(frozen=True)
class S2Block:
    perm: tuple  # permutation of 1..M, first entry applied first

    def channel(self, gen: GkslGenerator, dt: float) -> np.ndarray:
        return s2_sigma(gen, dt, self.perm)


@dataclass(frozen=True)
class TermExp:
    k: int
    with_rate: bool = True

    def channel(self, gen: GkslGenerator, dt: float) -> np.ndarray:
        return constituent_channel(gen, self.k, dt, with_rate=self.with_rate)


@dataclass(frozen=True)
class Sampler:
    """How a randomised method draws schedule steps from its record's support:
    a draw takes ``width(m)`` uniforms per step, ``codes(u, gen)`` maps them to
    integer step codes and ``step(code, m)`` is a code's step."""

    width: Callable
    codes: Callable
    step: Callable


@dataclass(frozen=True)
class MethodRecord:
    """Everything that distinguishes one method.

    ``bound(stats, t, n, conservative)`` is the large-N error bound, of order
    ``order`` in 1/n, and ``growth(stats, t, n)`` the exponent that
    ``with_exp_factor`` restores.  ``support(gen)`` is ``(weights, steps)``:
    every schedule step the method can take, with its relative weight (one
    step for a deterministic method).  The exact one-step channel at step
    length ``step_length(gen, t, n)`` is its weighted mean, and the fork
    circuit prepares its control in those weights.  Gate counts are per step
    and functions of M; ``gates_qf`` is None where forking is undefined.
    ``sampler`` draws steps from the support of a randomised method.
    """

    label: str
    order: int
    bound: Callable
    growth: Callable
    support: Callable
    step_length: Callable
    gates_cs: Callable
    gates_qf: Callable | None
    complexity_cs: str
    complexity_qf: str | None
    sampler: Sampler | None = None  # None for the deterministic methods

    def step_channel(self, gen: GkslGenerator, t: float, n: int) -> np.ndarray:
        """Exact one-step channel of an n-step schedule over time t."""
        return _mixture(self.support, gen, self.step_length(gen, t, n))


def _sweep_growth(stats: GeneratorStats, t: float, n: int) -> float:
    return stats.term_count * t * stats.max_scaled_norm / n


def _second_order_bound(stats: GeneratorStats, t: float, n: int, conservative: bool) -> float:
    return (stats.term_count * t * stats.max_scaled_norm) ** 3 / (3 * n**2)


def _permutation_codes(u: np.ndarray, gen: GkslGenerator) -> np.ndarray:
    """argsort(u) + 1 as its digits in base m; int64 holds m**m for m < 16."""
    m = gen.m_total
    digits = np.array([m**j for j in range(m - 1, -1, -1)], dtype=np.int64 if m < 16 else object)
    return np.argsort(u, axis=-1, kind="stable") @ digits


def _permutation_support(gen: GkslGenerator) -> tuple:
    """Every term order at weight 1, refused beyond ``TOL.s2_ran_max_terms`` terms."""
    m = gen.m_total
    if m > TOL.s2_ran_max_terms:
        raise ValueError(f"exact mixture over {m}! permutations refused (cap M <= "
                         f"{TOL.s2_ran_max_terms}); use mixture_estimate for a sampled surrogate")
    return (1.0,) * math.factorial(m), [S2Block(p) for p in itertools.permutations(range(1, m + 1))]


def _term_codes(u: np.ndarray, gen: GkslGenerator) -> np.ndarray:
    """Rate-weighted term draw: code k - 1 for term k, by inverse-CDF lookup."""
    cdf = np.cumsum(qdrift_probs(gen))
    return np.minimum(np.searchsorted(cdf, u[..., 0], side="right"), gen.m_total - 1)


METHODS = {
    Method.S1_DET: MethodRecord(
        label="First-order deterministic", order=1,
        bound=lambda s, t, n, c: (t * s.max_scaled_norm * s.term_count) ** 2 / n,
        growth=_sweep_growth,
        support=lambda gen: ((1.0,), [S1Block(Direction.FORWARD)]),
        step_length=lambda gen, t, n: t / n,
        gates_cs=lambda m: m, gates_qf=None,
        complexity_cs="O((tΛ)²M³/ε)", complexity_qf=None),
    Method.S2_DET: MethodRecord(
        label="Second-order deterministic", order=2,
        bound=_second_order_bound, growth=_sweep_growth,
        support=lambda gen: ((1.0,), [S2Block(tuple(range(1, gen.m_total + 1)))]),
        step_length=lambda gen, t, n: t / n,
        gates_cs=lambda m: 2 * m, gates_qf=None,
        complexity_cs="O((tΛ)^(3/2)M^(5/2)/√(3ε))", complexity_qf=None),
    Method.S1_RAN: MethodRecord(
        label="First-order randomised", order=2,
        bound=_second_order_bound, growth=_sweep_growth,
        support=lambda gen: ((1.0, 1.0), [S1Block(d) for d in Direction]),
        step_length=lambda gen, t, n: t / n,
        gates_cs=lambda m: m, gates_qf=lambda m: 2 * m + 2,
        complexity_cs="O((tΛ)^(3/2)M^(5/2)/√(3ε))",
        complexity_qf="O((tΛ)^(3/2)M^(5/2)/√(3ε))",
        sampler=Sampler(
            width=lambda m: 1,  # code 0: forward sweep, 1: reversed
            codes=lambda u, gen: (u[..., 0] >= 0.5).astype(np.int64),
            step=lambda code, m: S1Block(Direction.REVERSED if code else Direction.FORWARD))),
    Method.S2_RAN: MethodRecord(
        label="Second-order randomised", order=2,
        bound=lambda s, t, n, c: (
            ((2.0 if c else 1.0) * s.max_scaled_norm * t) ** 3 * s.term_count**2 / n**2),
        growth=_sweep_growth,
        support=_permutation_support,
        step_length=lambda gen, t, n: t / n,
        gates_cs=lambda m: 2 * m, gates_qf=None,
        complexity_cs="O((tΛ)^(3/2)M²/√ε)", complexity_qf=None,
        sampler=Sampler(
            width=lambda m: m, codes=_permutation_codes,
            step=lambda code, m: S2Block(tuple(1 + code // m**j % m for j in range(m - 1, -1, -1))))),
    Method.QDRIFT: MethodRecord(
        label="QDRIFT", order=1,
        bound=lambda s, t, n, c: (t * s.total_rate * s.max_bare_norm) ** 2 / n,
        growth=lambda s, t, n: t * s.total_rate * s.max_bare_norm / n,
        support=lambda gen: (gen.rates, [TermExp(k + 1, with_rate=False) for k in range(gen.m_total)]),
        step_length=lambda gen, t, n: t * float(np.sum(gen.rates)) / n,
        gates_cs=lambda m: 1, gates_qf=lambda m: 3 * m - 2,
        complexity_cs="O((tΓΩ)²/ε)", complexity_qf="O((tΓΩ)²M/ε)",
        sampler=Sampler(
            width=lambda m: 1, codes=_term_codes,
            step=lambda code, m: TermExp(k=code + 1, with_rate=False))),
}


# ---------------------------------------------------------------------------
# Step counts and error bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepBound:
    """Step count N for a target precision, with the bound it guarantees."""

    n_steps: int
    epsilon_bound: float


def step_count(method: Method, stats: GeneratorStats, t: float, epsilon: float,
               conservative: bool = False) -> StepBound:
    """Smallest step count N with ``error_bound(N) <= epsilon``.

    The search starts at the closed-form root (bound(1) / epsilon)**(1/p) of
    a bound of order p and steps down or up by one: the root's rounding
    alone can put its ceiling one step off.  ``conservative`` switches the
    second-order randomised formula to the larger constant (see README on
    bound variants).
    """
    if t <= 0:
        raise ValueError("simulation time must be positive")
    if epsilon <= 0:
        raise ValueError("target precision must be positive")

    bound = functools.partial(error_bound, method, stats, t, conservative=conservative)
    # in Python floats an overflow is inf, and its ceiling raises OverflowError
    n = max(1, math.ceil((float(bound(1)) / epsilon) ** (1 / METHODS[method].order)))
    if n > 1 and bound(n - 1) <= epsilon:
        n -= 1
    elif bound(n) > epsilon:
        n += 1
    return StepBound(n_steps=n, epsilon_bound=bound(n))


def error_bound(method: Method, stats: GeneratorStats, t: float, n: int,
                conservative: bool = False, with_exp_factor: bool = False) -> float:
    """Diamond-norm error bound after n steps.

    The default is the large-N simplified form; ``with_exp_factor`` restores
    the exp(t * rate_scale / n) factor dropped in that simplification, which
    matters for honest reporting at small n.  A bound beyond the float range
    raises ``OverflowError``.
    """
    if n < 1:
        raise ValueError("step count must be a positive integer")
    record = METHODS[method]
    with np.errstate(over="ignore", invalid="ignore"):
        bound = record.bound(stats, t, n, conservative)
        bound = bound * math.exp(record.growth(stats, t, n)) if with_exp_factor else bound
    if not math.isfinite(bound):
        raise OverflowError(f"{method.value} error bound at N={n} is not finite")
    return bound


# ---------------------------------------------------------------------------
# Gate counting
# ---------------------------------------------------------------------------


def gate_count(method: Method, m: int, n: int, impl: Implementation) -> int:
    """Number of simple channels used by a length-n schedule."""
    if m < 1 or n < 1:
        raise ValueError("term count and step count must be positive")
    record = METHODS[method]
    per_step = record.gates_cs if impl == Implementation.CS else record.gates_qf
    if per_step is None:
        if method == Method.S2_RAN:
            raise ValueError(
                "quantum forking of the second-order randomised formula needs "
                "2*(M!) controlled-SWAP channels and is refused as infeasible"
            )
        forkable = " and ".join(k.value for k, r in METHODS.items() if r.gates_qf)
        raise ValueError(f"quantum forking is defined only for {forkable}, not {method.value}")
    return per_step(m) * n


# Asymptotic gate-complexity summary (classical-sampling and forking routes).
GATE_COMPLEXITY = {
    **{(method, Implementation.CS): r.complexity_cs for method, r in METHODS.items()},
    **{(method, Implementation.QF): r.complexity_qf
       for method, r in METHODS.items() if r.complexity_qf},
}
