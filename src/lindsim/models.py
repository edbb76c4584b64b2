"""Built-in desk-scale generator models.

These are small illustrative systems for exercising the simulation methods
and bound checks; they are stand-ins, not calibrated physical models.
"""

from __future__ import annotations

import numpy as np

from .lindblad import GkslGenerator
from .linalg import kron

__all__ = ["BUILTIN_MODELS", "builtin_model"]

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_SM = np.array([[0, 1], [0, 0]], dtype=complex)  # lowering operator |0><1|


def _amp_damp(gamma: float = 1.0) -> GkslGenerator:
    """Damped qubit: H = sz/2, one decay channel."""
    return GkslGenerator(dim=2, hamiltonian=0.5 * _SZ, terms=((_SM, float(gamma)),))


def _qubit3(gamma_minus: float = 1.0, gamma_z: float = 0.5) -> GkslGenerator:
    """Qubit with decay and dephasing (three generator terms)."""
    return GkslGenerator(
        dim=2,
        hamiltonian=0.5 * _SZ,
        terms=((_SM, float(gamma_minus)), (_SZ, float(gamma_z))),
    )


def _two_qubit_xy(coupling: float = 1.0, gamma_a: float = 0.5, gamma_b: float = 0.5) -> GkslGenerator:
    """Two qubits with an exchange interaction and local decay."""
    eye = np.eye(2)
    h = 0.5 * float(coupling) * (kron(_SX, _SX) + kron(_SY, _SY))
    return GkslGenerator(
        dim=4,
        hamiltonian=h,
        terms=((kron(_SM, eye), float(gamma_a)), (kron(eye, _SM), float(gamma_b))),
    )


def _random(d: int = 2, m: int = 3, seed: int = 0) -> GkslGenerator:
    """Seeded random generator: unit-Frobenius Hermitian H and jump operators,
    rates uniform in [0.5, 1.5).  m counts all terms including the Hamiltonian."""
    if not all(float(x).is_integer() for x in (d, m, seed)):
        raise ValueError(f"random model needs integer d, m and seed, not d={d} m={m} seed={seed}")
    d, m, seed = int(d), int(m), int(seed)
    if d < 2 or m < 1:
        raise ValueError("random model needs d >= 2 and m >= 1")
    rng = np.random.default_rng(seed)

    def unit_frobenius(a):
        return a / np.linalg.norm(a)

    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = unit_frobenius((g + g.conj().T) / 2)
    terms = []
    for _ in range(m - 1):
        j = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        terms.append((unit_frobenius(j), float(rng.uniform(0.5, 1.5))))
    return GkslGenerator(dim=d, hamiltonian=h, terms=tuple(terms))


BUILTIN_MODELS = {
    "amp_damp": _amp_damp,
    "qubit3": _qubit3,
    "two_qubit_xy": _two_qubit_xy,
    "random": _random,
}


def builtin_model(name: str, params: dict | None = None) -> GkslGenerator:
    """Construct a built-in model by name with keyword parameters."""
    if name not in BUILTIN_MODELS:
        known = ", ".join(sorted(BUILTIN_MODELS))
        raise ValueError(f"unknown model '{name}' (known: {known})")
    try:
        return BUILTIN_MODELS[name](**(params or {}))
    except TypeError as exc:
        raise ValueError(f"invalid parameters for model '{name}': {exc}") from None
