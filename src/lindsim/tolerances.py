"""Numerical tolerances used across the library, gathered in one record.

Every tolerance that a contract or an acceptance test pins lives here, so the
tests can import the same constants the library enforces.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TOL", "Tolerances"]


@dataclass(frozen=True)
class Tolerances:
    # state / generator invariants
    herm_tol: float = 1e-10          # max |A - A^dag| for Hermitian inputs
    trace_tol: float = 1e-10         # |tr(rho) - 1| for density matrices
    psd_floor: float = -1e-10        # smallest admissible eigenvalue of rho
    # channel physicality
    cptp_tol: float = 1e-9           # Choi positivity + trace-preservation
    herm_preserving_tol: float = 1e-8  # Choi hermiticity check before SDP
    # matrix exponential contract
    mat_exp_rtol: float = 1e-12      # relative accuracy for ||A|| <= 100
    # diamond-norm SDP
    diamond_abs_tol: float = 1e-6    # absolute accuracy of returned value
    sdp_gap_tol: float = 1e-7        # max duality gap of an accepted solve
    sdp_feas_tol: float = 1e-9       # max scaled residual of an accepted solve
    sdp_max_iters: int = 500
    # forking register cap (side of the composite density matrix)
    fork_dim_cap: int = 64


TOL = Tolerances()
