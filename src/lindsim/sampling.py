"""Seeded schedule sampling and trajectory averaging.

Trajectory r draws its whole schedule from one Philox stream (key: the seed,
counter: r << 128) as one (n, w) array of uniforms.  Row l is step l, read
by the support of the method's record in ``formulas.METHODS``: a ``Support``
reads one uniform against its cumulative weights (s1_ran: the forward sweep
if u < 0.5; qdrift: term searchsorted(cdf, u)), and s2_ran's ``EveryOrder``
reads w = M as the permutation argsort(u) + 1.  Row l depends on neither n
nor other trajectories: schedules are bit-reproducible, prefix-stable in n and
order-independent.  One Philox bit generator serves a whole batch: before
each row its state is set to that trajectory's counter.  Steps are integer
codes, so a batch of trajectories is multiplied out from a table of the
channels of every length-w run of its distinct steps, one stacked matmul per
window of w steps (``_window`` picks w).
"""

from __future__ import annotations

import numpy as np

from .formulas import METHODS, Method
from .lindblad import GkslGenerator

__all__ = ["mixture_estimate", "trajectory_channels", "trajectory_sum"]

_CHUNK = 256  # trajectory_sum multiplies out this many at once: memory does not grow with the count
_TABLE_BYTES = 1 << 22  # largest window table _products builds
_CALL_COST = 8  # one stacked matmul call costs about as much as 8 small products in it


def _uniforms(seed: int, trajectories: range, n: int, width: int) -> np.ndarray:
    """(len(trajectories), n, width) uniforms; row r is what
    ``Generator(Philox(key=seed, counter=r << 128)).random((n, width))`` reads."""
    u = np.empty((len(trajectories), n, width))
    bits = np.random.Philox(key=int(seed))
    uniforms = np.random.Generator(bits)
    state = bits.state  # a fresh stream: empty buffer, counter 0
    counter = state["state"]["counter"]
    for row, r in zip(u, trajectories):
        counter[2:] = r & (2**64 - 1), r >> 64  # counter r << 128, as four 64-bit words
        bits.state = state
        uniforms.random(out=row)
    return u


def _draw(method: Method, gen: GkslGenerator, t: float, n: int, seed: int,
          trajectories: range):
    """Step length, distinct steps and step indices (one row per trajectory) of
    sampled schedules; the method's support turns the uniforms into steps."""
    if n < 1:
        raise ValueError("step count must be a positive integer")
    if t <= 0:
        raise ValueError("simulation time must be positive")
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), not {seed!r}")
    if min(trajectories, default=0) < 0:
        raise ValueError(f"trajectory indices must be nonnegative, not {trajectories!r}")
    record = METHODS[method]
    if not record.randomised:
        raise ValueError(f"schedules are drawn only for the sampled methods, not {method.value}")
    support = record.support(gen)
    codes = support.codes(_uniforms(seed, trajectories, n, support.width))
    distinct, index = np.unique(codes.ravel(), return_inverse=True)
    steps = [support.step(c) for c in distinct.tolist()]
    return record.step_length(gen, t, n), steps, index.reshape(codes.shape)


def _window(k: int, n: int, batch: int, d2: int) -> int:
    """Window length w that multiplies out ``batch`` n-step schedules over k
    distinct steps with the fewest small products, counting _CALL_COST per call.

    The window table costs sum_{j=2..w} (k**j + _CALL_COST) and holds k**w
    channels, at most _TABLE_BYTES of them; each trajectory then takes
    n // w - 1 window products and n % w single steps.  w = 1 builds nothing,
    so the table never costs more than it saves.
    """
    limit = _TABLE_BYTES // (32 * d2 * d2)  # real form: 4 d2**2 doubles an entry
    best, best_cost = 1, (n - 1) * (batch + _CALL_COST)
    w, entries, build = 2, k * k, k * k + _CALL_COST
    while w <= n and entries <= limit and build < best_cost:  # build only grows with w
        q, r = divmod(n, w)
        cost = build + (q - 1 + r) * (batch + _CALL_COST)
        if cost < best_cost:
            best, best_cost = w, cost
        w, entries = w + 1, entries * k
        build += entries + _CALL_COST
    return best


def _products(steps, index: np.ndarray, gen: GkslGenerator, dt: float) -> np.ndarray:
    """Channels of schedules given as rows of indices into ``steps``; column 0 acts first.

    Entry s_0 + s_1 k + ... + s_{w-1} k**(w-1) of the window table is the
    channel of steps s_0, ..., s_{w-1}, s_0 first; full windows are multiplied
    out one stacked matmul each, then the last n % w steps one at a time.
    """
    d2 = gen.dim**2
    table = np.array([s.channel(gen, dt) for s in steps], dtype=complex).reshape(-1, d2, d2)
    batch, n = index.shape
    # real form [[Re, -Im], [Im, Re]]: real 2d^2-sided products are cheaper than
    # complex d^2-sided ones, and a running product needs only its first block column
    table = np.block([[table.real, -table.imag], [table.imag, table.real]])
    k = len(table)
    w = _window(k, n, batch, d2)
    windows = table
    for _ in range(w - 1):
        windows = (table[:, None] @ windows[None]).reshape(-1, 2 * d2, 2 * d2)
    full = n - n % w
    codes = index[:, :full].reshape(batch, -1, w) @ k ** np.arange(w)
    total = windows[codes[:, 0], :, :d2]
    for column in codes.T[1:]:
        total = windows[column] @ total
    for column in index.T[full:]:
        total = table[column] @ total
    return total[:, :d2] + 1j * total[:, d2:]


def trajectory_channels(method: Method, gen: GkslGenerator, t: float, n: int, seed: int,
                        trajectories: range) -> np.ndarray:
    """Stacked schedule channels of the given trajectories, one per index."""
    dt, steps, index = _draw(method, gen, t, n, seed, trajectories)
    return _products(steps, index, gen, dt)


def trajectory_sum(method: Method, gen: GkslGenerator, t: float, n: int, seed: int,
                   trajectories: range) -> np.ndarray:
    """Sum of the schedule channels of the given trajectories, _CHUNK at a time."""
    chunks = (trajectories[lo:lo + _CHUNK] for lo in range(0, len(trajectories), _CHUNK))
    return sum(trajectory_channels(method, gen, t, n, seed, c).sum(axis=0) for c in chunks)


def mixture_estimate(method: Method, gen: GkslGenerator, t: float, n: int,
                     r_samples: int, seed: int) -> np.ndarray:
    """Monte Carlo average of r sampled schedule channels (unbiased for the exact
    mixture channel power); r = 1 is trajectory 0's schedule channel."""
    if r_samples < 1:
        raise ValueError("need at least one trajectory")
    return trajectory_sum(method, gen, t, n, seed, range(r_samples)) / r_samples
