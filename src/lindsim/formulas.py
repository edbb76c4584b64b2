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
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .lindblad import GkslGenerator, constituent_channel
from .norms import GeneratorStats

__all__ = [
    "Direction",
    "EveryOrder",
    "Implementation",
    "METHODS",
    "Method",
    "MethodRecord",
    "S1Block",
    "S2Block",
    "StepBound",
    "Support",
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
    return METHODS[Method.S1_RAN].support(gen).mixture(gen, dt)


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
    return METHODS[Method.S2_RAN].support(gen).mixture(gen, dt)


def qdrift_probs(gen: GkslGenerator) -> np.ndarray:
    """Sampling weights proportional to the decay rates (the Hamiltonian's is 1)."""
    return gen.rates / float(np.sum(gen.rates))


def qdrift_exact(gen: GkslGenerator, omega: float) -> np.ndarray:
    """Rate-weighted mixture of single-term rate-free channels."""
    return METHODS[Method.QDRIFT].support(gen).mixture(gen, omega)


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
    k: int  # the rate-free term k, exp(dt * term_k)

    def channel(self, gen: GkslGenerator, dt: float) -> np.ndarray:
        return constituent_channel(gen, self.k, dt, with_rate=False)


class Support(NamedTuple):
    """Every schedule step a method can take, at its relative weight.  A drawn
    step reads one uniform against the cumulative normalised weights, and its
    code indexes ``steps``."""

    weights: tuple | np.ndarray
    steps: list

    width = 1

    def mixture(self, gen: GkslGenerator, dt: float) -> np.ndarray:
        if dt <= 0:
            raise ValueError("step length must be positive")
        total = sum(w * step.channel(gen, dt) for w, step in zip(self.weights, self.steps))
        return total / float(np.sum(self.weights))

    def codes(self, u: np.ndarray) -> np.ndarray:
        cdf = np.cumsum(np.divide(self.weights, np.sum(self.weights)))
        return np.minimum(np.searchsorted(cdf, u[..., 0], side="right"), len(self.steps) - 1)

    def step(self, code: int):
        return self.steps[code]


@dataclass(frozen=True)
class EveryOrder:
    """The symmetric block in each of the m! term orders at equal weight, never
    listed.  A drawn step reads m uniforms as the order argsort(u) + 1, coded
    by its digits in base m (int64 holds m**m for m < 16).  In half-step term
    channels E_k the block of order s is E_s1 ... E_sm E_sm ... E_s1, so the
    sum over all orders is G({1..m}), G(S) = sum over k in S of E_k G(S - {k})
    E_k, G({}) = I: 2**m * m products in place of m! * 2m."""

    m: int

    @property
    def width(self) -> int:
        return self.m

    def mixture(self, gen: GkslGenerator, dt: float) -> np.ndarray:
        if dt <= 0:
            raise ValueError("step length must be positive")
        d2 = gen.dim**2
        # G(S) at bit mask S; allocated before any product, so an m too large
        # for memory raises MemoryError at once
        table = np.empty((2**self.m, d2, d2), dtype=complex)
        table[0] = np.eye(d2)
        halves = [constituent_channel(gen, k, dt / 2) for k in range(1, self.m + 1)]
        for s in range(1, 2**self.m):
            table[s] = sum(e @ table[s ^ 1 << j] @ e for j, e in enumerate(halves) if s >> j & 1)
        return table[-1] / float(math.factorial(self.m))

    def codes(self, u: np.ndarray) -> np.ndarray:
        m = self.m
        digits = np.array([m**j for j in range(m - 1, -1, -1)], dtype=np.int64 if m < 16 else object)
        return np.argsort(u, axis=-1, kind="stable") @ digits

    def step(self, code: int) -> S2Block:
        m = self.m
        return S2Block(tuple(1 + code // m**j % m for j in range(m - 1, -1, -1)))


@dataclass(frozen=True)
class MethodRecord:
    """Everything that distinguishes one method.

    ``bound(stats, t, n, conservative)`` is the large-N error bound, of order
    ``order`` in 1/n, and ``growth(stats, t, n)`` the exponent that
    ``with_exp_factor`` restores.  ``support(gen)`` is every schedule step
    the method can take, at its relative weight: a ``Support`` (one step for
    a deterministic method), or ``EveryOrder`` for s2_ran.  Its ``mixture``
    at step length ``step_length(gen, t, n)`` is the exact one-step channel,
    its ``codes`` and ``step`` draw the schedules of a ``randomised`` method,
    and the fork circuit prepares its control in a ``Support``'s weights.
    Gate counts are per step and functions of M; ``gates_qf`` is None where
    forking is undefined.
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
    randomised: bool = False  # schedules are drawn from the support

    def step_channel(self, gen: GkslGenerator, t: float, n: int) -> np.ndarray:
        """Exact one-step channel of an n-step schedule over time t."""
        return self.support(gen).mixture(gen, self.step_length(gen, t, n))


def _sweep_growth(stats: GeneratorStats, t: float, n: int) -> float:
    return stats.term_count * t * stats.max_scaled_norm / n


def _second_order_bound(stats: GeneratorStats, t: float, n: int, conservative: bool) -> float:
    return (stats.term_count * t * stats.max_scaled_norm) ** 3 / (3 * n**2)


METHODS = {
    Method.S1_DET: MethodRecord(
        label="First-order deterministic", order=1,
        bound=lambda s, t, n, c: (t * s.max_scaled_norm * s.term_count) ** 2 / n,
        growth=_sweep_growth,
        support=lambda gen: Support((1.0,), [S1Block(Direction.FORWARD)]),
        step_length=lambda gen, t, n: t / n,
        gates_cs=lambda m: m, gates_qf=None,
        complexity_cs="O((tΛ)²M³/ε)", complexity_qf=None),
    Method.S2_DET: MethodRecord(
        label="Second-order deterministic", order=2,
        bound=_second_order_bound, growth=_sweep_growth,
        support=lambda gen: Support((1.0,), [S2Block(tuple(range(1, gen.m_total + 1)))]),
        step_length=lambda gen, t, n: t / n,
        gates_cs=lambda m: 2 * m, gates_qf=None,
        complexity_cs="O((tΛ)^(3/2)M^(5/2)/√(3ε))", complexity_qf=None),
    Method.S1_RAN: MethodRecord(
        label="First-order randomised", order=2,
        bound=_second_order_bound, growth=_sweep_growth,
        support=lambda gen: Support((1.0, 1.0), [S1Block(d) for d in Direction]),
        step_length=lambda gen, t, n: t / n,
        gates_cs=lambda m: m, gates_qf=lambda m: 2 * m + 2,
        complexity_cs="O((tΛ)^(3/2)M^(5/2)/√(3ε))",
        complexity_qf="O((tΛ)^(3/2)M^(5/2)/√(3ε))", randomised=True),
    Method.S2_RAN: MethodRecord(
        label="Second-order randomised", order=2,
        bound=lambda s, t, n, c: (
            ((2.0 if c else 1.0) * s.max_scaled_norm * t) ** 3 * s.term_count**2 / n**2),
        growth=_sweep_growth,
        support=lambda gen: EveryOrder(gen.m_total),
        step_length=lambda gen, t, n: t / n,
        gates_cs=lambda m: 2 * m, gates_qf=None,
        complexity_cs="O((tΛ)^(3/2)M²/√ε)", complexity_qf=None, randomised=True),
    Method.QDRIFT: MethodRecord(
        label="QDRIFT", order=1,
        bound=lambda s, t, n, c: (t * s.total_rate * s.max_bare_norm) ** 2 / n,
        growth=lambda s, t, n: t * s.total_rate * s.max_bare_norm / n,
        support=lambda gen: Support(gen.rates, [TermExp(k + 1) for k in range(gen.m_total)]),
        step_length=lambda gen, t, n: t * float(np.sum(gen.rates)) / n,
        gates_cs=lambda m: 1, gates_qf=lambda m: 3 * m - 2,
        complexity_cs="O((tΓΩ)²/ε)", complexity_qf="O((tΓΩ)²M/ε)", randomised=True),
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
