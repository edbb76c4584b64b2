"""Seeded gate-set sampling and trajectory averaging.

Trajectory r draws its whole schedule from one Philox stream (key: the seed,
counter: r << 128) as one (n, w) array of uniforms.  Row l is step l: the
forward sweep if u < 0.5 (s1_ran), the permutation argsort(u) + 1 (s2_ran),
term searchsorted(cdf, u) (qdrift).  Row l depends on neither n nor other
trajectories: schedules are bit-reproducible, prefix-stable in n and
order-independent.  Steps are integer codes, so a batch of trajectories is
multiplied out from a table of its distinct step channels, one stacked
matmul per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formulas import Direction, Method, qdrift_probs, s1_dir, s2_sigma, step_count
from .lindblad import GkslGenerator, constituent_channel
from .linalg import DensityMatrix, devectorize, vectorize
from .norms import GeneratorStats, generator_stats

__all__ = [
    "ChannelStep", "GateSet", "S1Block", "S2Block", "TermExp", "apply_gateset", "draw_gateset",
    "gateset_channel", "mixture_estimate", "sample_gateset", "trajectory_channels",
]

_CHUNK = 256  # trajectories multiplied out together by mixture_estimate


@dataclass(frozen=True)
class S1Block:
    direction: Direction


@dataclass(frozen=True)
class S2Block:
    perm: tuple  # permutation of 1..M, first entry applied first


@dataclass(frozen=True)
class TermExp:
    k: int
    with_rate: bool = True


ChannelStep = (S1Block, S2Block, TermExp)


@dataclass(frozen=True)
class GateSet:
    """Ordered schedule of channel steps; steps[0] acts on the state first."""

    steps: tuple
    seed: int
    method: Method
    dt: float
    n_steps: int

    def __post_init__(self):
        if len(self.steps) != self.n_steps:
            raise ValueError(f"{len(self.steps)} steps but n_steps={self.n_steps}")
        if self.dt <= 0:
            raise ValueError("step length must be positive")


def _draw(method: Method, gen: GkslGenerator, t: float, n: int, seed: int,
          trajectories: range):
    """Step length and integer step codes (one row per trajectory) of sampled schedules."""
    if n < 1:
        raise ValueError("step count must be a positive integer")
    if t <= 0:
        raise ValueError("simulation time must be positive")
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), not {seed!r}")
    if method not in (Method.S1_RAN, Method.S2_RAN, Method.QDRIFT):
        raise ValueError(f"gate sets exist only for the sampled methods, not {method.value}")
    m = gen.m_total
    width = m if method == Method.S2_RAN else 1
    u = np.array([np.random.Generator(np.random.Philox(key=int(seed), counter=r << 128))
                  .random((n, width)) for r in trajectories]).reshape(len(trajectories), n, width)
    if method == Method.S1_RAN:
        return t / n, (u[..., 0] >= 0.5).astype(np.int64)  # 0: forward, 1: reversed
    if method == Method.S2_RAN:  # permutation digits in base m; int64 holds m**m for m < 16
        digits = np.array([m**j for j in range(m - 1, -1, -1)], dtype=np.int64 if m < 16 else object)
        return t / n, np.argsort(u, axis=-1, kind="stable") @ digits
    cdf = np.cumsum(qdrift_probs(gen))
    dt = t * float(np.sum(gen.rates)) / n
    return dt, np.minimum(np.searchsorted(cdf, u[..., 0], side="right"), m - 1)


def _step(method: Method, code: int, m: int):
    """The channel step a code stands for."""
    if method == Method.S1_RAN:
        return S1Block(Direction.REVERSED if code else Direction.FORWARD)
    if method == Method.S2_RAN:
        return S2Block(tuple(1 + code // m**j % m for j in range(m - 1, -1, -1)))
    return TermExp(k=code + 1, with_rate=False)


def draw_gateset(method: Method, gen: GkslGenerator, t: float, n: int, seed: int,
                 trajectory: int = 0) -> GateSet:
    """Draw an n-step gate set for one of the sampled methods."""
    dt, codes = _draw(method, gen, t, n, seed, range(trajectory, trajectory + 1))
    codes = codes[0].tolist()
    steps = {c: _step(method, c, gen.m_total) for c in set(codes)}
    return GateSet(steps=tuple(steps[c] for c in codes), seed=seed, method=method, dt=dt,
                   n_steps=n)


def sample_gateset(method: Method, gen: GkslGenerator, t: float, epsilon: float, seed: int,
                   stats: GeneratorStats | None = None, conservative: bool = False) -> GateSet:
    """Draw a gate set sized by the method's step-count bound for ``epsilon``."""
    if stats is None:
        stats = generator_stats(gen)
    bound = step_count(method, stats, t, epsilon, conservative=conservative)
    return draw_gateset(method, gen, t, bound.n_steps, seed)


def _step_channel(step, gen: GkslGenerator, dt: float) -> np.ndarray:
    if isinstance(step, S1Block):
        return s1_dir(gen, dt, step.direction)
    if isinstance(step, S2Block):
        return s2_sigma(gen, dt, step.perm)
    if isinstance(step, TermExp):
        return constituent_channel(gen, step.k, dt, with_rate=step.with_rate)
    raise TypeError(f"unknown channel step {step!r}")


def _products(steps, index: np.ndarray, gen: GkslGenerator, dt: float) -> np.ndarray:
    """Channels of schedules given as rows of indices into ``steps``; column 0 acts first."""
    d2 = gen.dim**2
    table = np.array([_step_channel(s, gen, dt) for s in steps], dtype=complex).reshape(-1, d2, d2)
    total = np.broadcast_to(np.eye(d2, dtype=complex), (len(index), d2, d2)).copy()
    for column in index.T:
        total = table[column] @ total
    return total


def gateset_channel(gs: GateSet, gen: GkslGenerator) -> np.ndarray:
    """Superoperator of the whole schedule (steps[0] applied first)."""
    distinct = list(dict.fromkeys(gs.steps))
    position = {step: i for i, step in enumerate(distinct)}
    index = np.array([position[s] for s in gs.steps], dtype=np.intp).reshape(1, -1)
    return _products(distinct, index, gen, gs.dt)[0]


def apply_gateset(gs: GateSet, gen: GkslGenerator, rho0: DensityMatrix) -> DensityMatrix:
    """Run the schedule on an initial state."""
    rho = rho0.matrix if isinstance(rho0, DensityMatrix) else np.asarray(rho0, dtype=complex)
    if rho.shape != (gen.dim, gen.dim):
        raise ValueError(f"state shape {rho.shape} does not match dim {gen.dim}")
    out = devectorize(gateset_channel(gs, gen) @ vectorize(rho))
    return DensityMatrix(out)


def trajectory_channels(method: Method, gen: GkslGenerator, t: float, n: int, seed: int,
                        trajectories: range) -> np.ndarray:
    """Stacked schedule channels of the given trajectories, one per index."""
    dt, codes = _draw(method, gen, t, n, seed, trajectories)
    distinct, index = np.unique(codes.ravel(), return_inverse=True)
    steps = [_step(method, c, gen.m_total) for c in distinct.tolist()]
    return _products(steps, index.reshape(codes.shape), gen, dt)


def mixture_estimate(method: Method, gen: GkslGenerator, t: float, n: int,
                     r_samples: int, seed: int) -> np.ndarray:
    """Monte Carlo average of r sampled schedule channels (unbiased for the exact
    mixture channel power); r = 1 reproduces the default gate set."""
    if r_samples < 1:
        raise ValueError("need at least one trajectory")
    return sum(trajectory_channels(method, gen, t, n, seed, range(lo, min(lo + _CHUNK, r_samples)))
               .sum(axis=0) for lo in range(0, r_samples, _CHUNK)) / r_samples
