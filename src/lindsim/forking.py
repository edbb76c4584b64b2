"""Density-matrix simulation of the controlled-SWAP forking circuits.

A fork circuit realizes a convex mixture of channels without classical
sampling: a control register is prepared in the mixing distribution,
controlled-SWAP channels route the system state to the register that
receives the wanted branch channel, the branch channels act slot-wise, the
routing is undone and the control and work registers are measured and
discarded (equivalently: partially traced out).

Registers are ordered [control, slot 1, slot 2, ...]; slot 1 carries the
system state.  A block runs on the composite density matrix itself, of total
dimension at most the configured cap: each controlled-SWAP is an index
permutation of the state, and each branch channel is the bare system's
d^2 x d^2 superoperator contracted into its register.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .formulas import METHODS, Method
from .lindblad import GkslGenerator
from .linalg import DensityMatrix, kron, partial_trace
from .tolerances import TOL

__all__ = [
    "ForkLayout",
    "fork_qdrift_run",
    "fork_qdrift_step",
    "fork_s1_run",
    "fork_s1_step",
]


@dataclass(frozen=True)
class ForkLayout:
    """Register layout of a fork circuit: one work slot per control value."""

    control_dim: int
    system_dim: int

    def __post_init__(self):
        if self.control_dim < 1 or self.system_dim < 1:
            raise ValueError("register dimensions must be positive")
        if self.total_dim > TOL.fork_dim_cap:
            raise ValueError(
                f"composite dimension {self.total_dim} exceeds the cap "
                f"{TOL.fork_dim_cap}; use the classical-sampling route instead"
            )

    @property
    def n_ancillas(self) -> int:
        """Work registers beside the system's slot."""
        return self.control_dim - 1

    @property
    def dims(self) -> tuple:
        return (self.control_dim,) + (self.system_dim,) * (1 + self.n_ancillas)

    @property
    def total_dim(self) -> int:
        return self.control_dim * self.system_dim ** (1 + self.n_ancillas)


@functools.lru_cache(maxsize=None)
def _cswap_perm(layout: ForkLayout, control_value: int, target_a: int, target_b: int) -> np.ndarray:
    """Basis permutation of the controlled-SWAP: it maps |i> to |perm[i]>.

    The permutation is an involution, so conjugating a state by the
    controlled-SWAP is ``rho[np.ix_(perm, perm)]``.
    """
    dims = layout.dims
    if not 0 <= control_value < layout.control_dim:
        raise ValueError(f"control value {control_value} outside 0..{layout.control_dim - 1}")
    if min(target_a, target_b) < 1 or max(target_a, target_b) >= len(dims):
        raise ValueError("swap targets must index non-control registers")
    grid = np.arange(layout.total_dim).reshape(dims)
    perm = grid.copy()
    # grid[control_value] has lost the control axis, so register r is axis r - 1
    perm[control_value] = np.swapaxes(grid[control_value], target_a - 1, target_b - 1)
    perm = perm.reshape(-1)
    perm.setflags(write=False)
    return perm


def _on_register(rho: np.ndarray, dims: tuple, register: int, superop: np.ndarray) -> np.ndarray:
    """Apply a column-stacking d^2 x d^2 superoperator to one register of rho."""
    d = dims[register]
    pre = int(np.prod(dims[:register]))
    post = int(np.prod(dims[register + 1:]))
    # superop[b*d + a, k*d + i] maps X[i, k] into out[a, b]
    s = superop.reshape(d, d, d, d)
    t = rho.reshape(pre, d, post, pre, d, post)
    return np.einsum("baki,xiyzkw->xayzbw", s, t).reshape(rho.shape)


def _as_state(rho, dim, name) -> np.ndarray:
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if mat.shape != (dim, dim):
        raise ValueError(f"{name} has shape {mat.shape}, expected ({dim}, {dim})")
    return mat


def _fork(method: Method, gen: GkslGenerator, dt: float, n: int, rho0, rho_phi,
          name: str) -> DensityMatrix:
    """n blocks of prepare, route, branch, unroute, trace out.  The control is
    prepared in the normalised weights of ``method``'s support, and control
    value k - 1 routes the system to slot k, where support step k - 1 acts."""
    if dt <= 0:
        raise ValueError("step length must be positive")
    weights, steps = METHODS[method].support(gen)
    layout = ForkLayout(control_dim=len(steps), system_dim=gen.dim)
    route = [_cswap_perm(layout, k - 1, 1, k) for k in range(2, len(steps) + 1)]
    prep = np.diag(np.divide(weights, np.sum(weights))).astype(complex)
    channels = [step.channel(gen, dt) for step in steps]
    sys_mat = _as_state(rho0, gen.dim, name)
    phi_mat = _as_state(rho_phi, gen.dim, "work state")
    for _ in range(n):
        rho = kron(prep, sys_mat)
        for _ in range(layout.n_ancillas):
            rho = kron(rho, phi_mat)
        for perm in route:
            rho = rho[np.ix_(perm, perm)]
        for register, channel in enumerate(channels, start=1):
            rho = _on_register(rho, layout.dims, register, channel)
        for perm in route:
            rho = rho[np.ix_(perm, perm)]
        sys_mat = partial_trace(rho, list(layout.dims), keep=[1])
    return DensityMatrix(sys_mat)


def fork_s1_step(gen: GkslGenerator, dt: float, rho_sys, rho_phi) -> DensityMatrix:
    """One fork block of the first-order randomised formula: a fair-coin
    control, the forward sweep in the control-0 branch, the reversed in the other."""
    return _fork(Method.S1_RAN, gen, dt, 1, rho_sys, rho_phi, "system state")


def fork_s1_run(gen: GkslGenerator, t: float, n: int, rho0, rho_phi) -> DensityMatrix:
    """n fork blocks with control/work re-preparation between blocks."""
    if n < 1:
        raise ValueError("step count must be a positive integer")
    dt = METHODS[Method.S1_RAN].step_length(gen, t, n)
    return _fork(Method.S1_RAN, gen, dt, n, rho0, rho_phi, "initial state")


def fork_qdrift_step(gen: GkslGenerator, omega: float, rho_sys, rho_phi) -> DensityMatrix:
    """One QDRIFT fork block: rate-weighted control, per-slot term channels."""
    return _fork(Method.QDRIFT, gen, omega, 1, rho_sys, rho_phi, "system state")


def fork_qdrift_run(gen: GkslGenerator, t: float, n: int, rho0, rho_phi) -> DensityMatrix:
    """n QDRIFT fork blocks at QDRIFT's step length t * total_rate / n."""
    if n < 1:
        raise ValueError("step count must be a positive integer")
    omega = METHODS[Method.QDRIFT].step_length(gen, t, n)
    return _fork(Method.QDRIFT, gen, omega, n, rho0, rho_phi, "initial state")
