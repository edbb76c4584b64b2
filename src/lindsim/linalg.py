"""Dense complex linear algebra primitives.

Conventions (fixed by the tests in tests/test_linalg.py):

* Vectorization stacks columns, so ``vectorize([[a, b], [c, d]]) = (a, c, b, d)``
  and ``vectorize(A @ X @ B) = kron(B.T, A) @ vectorize(X)``.
* ``partial_trace`` keeps the listed factors in their original order.

All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tolerances import TOL

__all__ = [
    "DensityMatrix",
    "dagger",
    "devectorize",
    "is_hermitian",
    "kron",
    "mat_exp",
    "partial_trace",
    "trace_distance",
    "trace_norm",
    "vectorize",
]


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).conj().T


def is_hermitian(a: np.ndarray) -> bool:
    a = np.asarray(a)
    return a.shape[0] == a.shape[1] and np.max(np.abs(a - dagger(a))) <= TOL.herm_tol


def kron(a, b) -> np.ndarray:
    """Kronecker product; block (i, j) of the result is a[i, j] * b."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def partial_trace(m, dims, keep) -> np.ndarray:
    """Reduce a square matrix on a tensor-product space to the kept factors.

    ``dims`` lists the factor dimensions, ``keep`` the indices (into ``dims``)
    of the factors to retain, in their original order.  The trace is
    preserved: ``tr(result) == tr(m)``.
    """
    m = _as_matrix(m)
    dims = [int(d) for d in dims]
    side = int(np.prod(dims))
    if m.shape != (side, side):
        raise ValueError(
            f"matrix side {m.shape[0]} inconsistent with register layout {dims}"
        )
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} factors")

    n = len(dims)
    t = m.reshape(dims + dims)
    # contract row/column indices of every traced factor, highest index first
    # so earlier axis positions stay valid
    traced = [i for i in range(n) if i not in keep]
    for i in sorted(traced, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + (t.ndim // 2))
    kept_side = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(kept_side, kept_side)


# Pade coefficients b_0..b_m and the 1-norm bounds theta_m up to which the
# degree-m approximant is accurate to double precision (Higham 2005, Table 2.3)
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
          (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_THETA_13 = 5.371920351148152e0

# Each degree as two rows of coefficients over stacked even powers of a.
# m <= 9: U = a (b1 I + b3 a2 + ...), V = b0 I + b2 a2 + ..., powers (I, a2, a4, ...).
# m = 13: U = a (a6 (b13 a6 + b11 a4 + b9 a2) + b7 a6 + b5 a4 + b3 a2 + b1 I),
#         V = a6 (b12 a6 + b10 a4 + b8 a2) + b6 a6 + b4 a4 + b2 a2 + b0 I,
#         powers (a6, a4, a2, I) and one row per bracket.
_COEF = {m: np.array([b[1::2], b[0::2]], dtype=complex) for m, b in _PADE.items() if m < 13}
b = _PADE[13]
_COEF[13] = np.array([[b[13], b[11], b[9], 0.0], [b[12], b[10], b[8], 0.0],
                      [b[7], b[5], b[3], b[1]], [b[6], b[4], b[2], b[0]]], dtype=complex)
del b


def _pade(a: np.ndarray, m: int) -> np.ndarray:
    """Diagonal [m/m] Pade approximant of exp(a): solve (V - U) R = V + U."""
    n = a.shape[0]
    coef = _COEF[m]
    powers = np.empty((coef.shape[1], n, n), dtype=complex)
    a2 = a @ a
    if m == 13:
        powers[2] = a2
        powers[1] = a2 @ a2
        powers[0] = powers[1] @ a2
        powers[3] = np.eye(n)
        brackets = (coef @ powers.reshape(4, -1)).reshape(2, 2, n, n)
        u_inner, v = powers[0] @ brackets[0] + brackets[1]
    else:
        powers[0] = np.eye(n)
        powers[1] = a2
        for j in range(2, len(powers)):
            powers[j] = powers[j - 1] @ a2
        u_inner, v = (coef @ powers.reshape(len(powers), -1)).reshape(2, n, n)
    u = a @ u_inner
    return np.linalg.solve(v - u, v + u)


def mat_exp(a) -> np.ndarray:
    """Matrix exponential by Pade scaling and squaring (Higham 2005).

    The lowest degree m in 3, 5, 7, 9 whose bound covers the 1-norm is used
    directly; above that, a is scaled by 2^-s into the degree-13 bound and
    the approximant squared s times.  A 1-norm or a result beyond the float
    range raises ``OverflowError``.
    """
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix exponential needs a square input, got {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.abs(a).sum(axis=0).max()) if a.size else 0.0
        m = next((m for m, theta in _THETA if norm <= theta), 13)
        s = max(0, int(np.ceil(np.log2(norm / _THETA_13)))) if m == 13 else 0
        r = _pade(a / 2.0**s if s else a, m)
        for _ in range(s):
            r = r @ r
    if not np.isfinite(r).all():
        raise OverflowError(f"matrix exponential is not finite (input 1-norm {norm:.3e})")
    return r


def vectorize(a) -> np.ndarray:
    """Column-stack a square matrix into a length-d^2 vector."""
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("vectorize expects a square matrix")
    return a.T.reshape(-1)


def devectorize(v) -> np.ndarray:
    """Inverse of :func:`vectorize`; exact round trip."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"vector length {v.size} is not a perfect square")
    return v.reshape(d, d).T


def trace_norm(a) -> float:
    """Sum of singular values."""
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("trace norm defined here for square matrices only")
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


@dataclass(frozen=True)
class DensityMatrix:
    """A d x d state: Hermitian, unit trace, positive semidefinite.

    The invariants are enforced at construction time with the shared
    tolerances; use ``DensityMatrix(matrix)`` only with data that is meant to
    be a physical state.
    """

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        if not is_hermitian(m):
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(m).real - 1.0) > TOL.trace_tol or abs(np.trace(m).imag) > TOL.trace_tol:
            raise ValueError(f"density matrix trace {np.trace(m)} is not 1")
        if np.min(np.linalg.eigvalsh((m + dagger(m)) / 2)) < TOL.psd_floor:
            raise ValueError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "matrix", m.copy())
        object.__setattr__(self, "dim", m.shape[0])

    @staticmethod
    def pure(ket) -> "DensityMatrix":
        v = np.asarray(ket, dtype=complex).reshape(-1)
        v = v / np.linalg.norm(v)
        return DensityMatrix(np.outer(v, v.conj()))

    @staticmethod
    def ground(dim: int) -> "DensityMatrix":
        v = np.zeros(dim)
        v[0] = 1.0
        return DensityMatrix.pure(v)

    @staticmethod
    def maximally_mixed(dim: int) -> "DensityMatrix":
        return DensityMatrix(np.eye(dim) / dim)


def trace_distance(p, q) -> float:
    """(1/2) ||p - q||_1 between two states (or raw state matrices)."""
    pm = p.matrix if isinstance(p, DensityMatrix) else _as_matrix(p)
    qm = q.matrix if isinstance(q, DensityMatrix) else _as_matrix(q)
    if pm.shape != qm.shape:
        raise ValueError(f"state dimensions differ: {pm.shape} vs {qm.shape}")
    return 0.5 * trace_norm(pm - qm)
