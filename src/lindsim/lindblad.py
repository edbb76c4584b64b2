"""GKSL generators and their superoperator (Liouvillian) matrices.

A generator is the Hamiltonian commutator term plus a list of dissipators

    rho -> -i[H, rho]                                (term index k = 1)
    rho -> L rho L^dag - (1/2){L^dag L, rho}         (term indices k = 2..M)

with nonnegative decay rates gamma_k; k = 1 is always the Hamiltonian term
with gamma_1 = 1 (generators with H = 0 keep a zero k = 1 term so the term
count M matches the bound formulas).

Superoperators are d^2 x d^2 matrices acting on column-stacked operators.  A
generator builds its M rate-free term superoperators once, at construction,
and every function here reads them.  The exact evolution exp(t * Liouvillian)
built here is the reference oracle for every error measurement in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import dagger, is_hermitian, kron, mat_exp, partial_trace
from .tolerances import TOL

__all__ = [
    "CptpCheck",
    "GkslGenerator",
    "choi",
    "constituent_channel",
    "exact_channel",
    "full_liouvillian",
    "is_cptp",
    "load_generator",
    "parse_generator",
    "term_superop",
]


@dataclass(frozen=True)
class GkslGenerator:
    """Hamiltonian + (jump operator, rate) list defining a GKSL generator.

    Construction refuses non-finite or ill-shaped data, naming the term, and
    builds the rate-free term superoperators once: ``superops`` is a read-only
    (M, d^2, d^2) stack, and ``rates`` the read-only array of gamma_k.
    """

    dim: int
    hamiltonian: np.ndarray
    terms: tuple  # of (jump_op: ndarray, rate: float)
    superops: np.ndarray = field(init=False, repr=False, compare=False)
    rates: np.ndarray = field(init=False, repr=False, compare=False)
    # term exponentials exp(dt * term_k) by (k, dt, with_rate), filled by
    # constituent_channel; sound because the operators above are read-only copies
    _term_exps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.dim
        h = np.array(self.hamiltonian, dtype=complex)
        if h.shape != (d, d):
            raise ValueError(f"Hamiltonian shape {h.shape} != ({d}, {d})")
        if not np.all(np.isfinite(h)):
            raise ValueError("Hamiltonian has non-finite entries")
        if not is_hermitian(h):
            raise ValueError("Hamiltonian is not Hermitian within tolerance")
        # vec(A X B) = kron(B.T, A) vec(X): -i[H, .], then each dissipator
        eye = np.eye(d)
        superops, checked = [-1j * (kron(eye, h) - kron(h.T, eye))], []
        for i, (op, rate) in enumerate(self.terms):
            op, rate = np.array(op, dtype=complex), float(rate)
            if op.shape != (d, d):
                raise ValueError(f"jump operator {i} has shape {op.shape}")
            if not np.all(np.isfinite(op)):
                raise ValueError(f"jump operator {i} has non-finite entries")
            if not 0 <= rate < np.inf:
                raise ValueError(f"jump operator {i} has non-finite or negative rate {rate}")
            ldl = dagger(op) @ op
            superops.append(kron(op.conj(), op) - 0.5 * kron(eye, ldl) - 0.5 * kron(ldl.T, eye))
            op.setflags(write=False)
            checked.append((op, rate))
        rates = np.array([1.0] + [rate for _, rate in checked])
        for name, value in (("hamiltonian", h), ("superops", np.array(superops)), ("rates", rates)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "terms", tuple(checked))

    @property
    def m_total(self) -> int:
        """Term count M: the Hamiltonian plus the dissipators."""
        return 1 + len(self.terms)

    def rate(self, k: int) -> float:
        """gamma_k; gamma_1 = 1 for the Hamiltonian term."""
        return float(self.rates[k - 1])


def term_superop(gen: GkslGenerator, k: int, with_rate: bool = True) -> np.ndarray:
    """Matrix of the k-th generator term on column-stacked operators.

    k = 1 gives -i[H, .]; k >= 2 gives the dissipator of L_k, multiplied by
    gamma_k iff ``with_rate``; the rate-free matrix is the generator's, read-only.
    """
    if not 1 <= k <= gen.m_total:
        raise ValueError(f"term index {k} out of range 1..{gen.m_total}")
    s = gen.superops[k - 1]
    return gen.rates[k - 1] * s if with_rate else s


def full_liouvillian(gen: GkslGenerator) -> np.ndarray:
    """Sum of all rate-scaled term superoperators, k = 1..M in turn."""
    return np.sum(gen.rates[:, None, None] * gen.superops, axis=0)


def exact_channel(gen: GkslGenerator, t: float) -> np.ndarray:
    """exp(t * Liouvillian); the semigroup is defined for t >= 0 only."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    with np.errstate(over="ignore", invalid="ignore"):  # mat_exp refuses a non-finite t L
        return mat_exp(t * full_liouvillian(gen))


def constituent_channel(gen: GkslGenerator, k: int, dt: float, with_rate: bool = True) -> np.ndarray:
    """Single-term channel exp(dt * term_k); CPTP for dt >= 0.

    Computed once per (k, dt, with_rate) and generator; the returned array is
    the generator's cached copy and read-only.
    """
    if dt < 0:
        raise ValueError(f"step length must be nonnegative, got {dt}")
    key = (k, float(dt), bool(with_rate) or k == 1)  # the Hamiltonian's rate is 1
    channel = gen._term_exps.get(key)
    if channel is None:
        channel = mat_exp(dt * term_superop(gen, k, with_rate=with_rate))
        channel.setflags(write=False)
        gen._term_exps[key] = channel
    return channel


def choi(superop: np.ndarray) -> np.ndarray:
    """Choi matrix J = sum_ij |i><j| (x) Phi(|i><j|), input factor first."""
    s = np.asarray(superop, dtype=complex)
    d = int(round(np.sqrt(s.shape[0])))
    if s.shape != (d * d, d * d):
        raise ValueError(f"superoperator shape {s.shape} is not a square of squares")
    # s[b*d + a, k*d + i] = <a|Phi(|i><k|)|b> under column stacking
    return s.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


@dataclass(frozen=True)
class CptpCheck:
    """Truthy CPTP verdict carrying the failing quantities."""

    ok: bool
    min_choi_eig: float
    tp_deviation: float

    def __bool__(self) -> bool:
        return self.ok


def is_cptp(superop: np.ndarray) -> CptpCheck:
    """Check complete positivity (Choi PSD) and trace preservation within ``TOL.cptp_tol``.

    Trace preservation reads off the Choi matrix: the partial trace over the
    output factor must be the identity on the input factor.
    """
    j = choi(superop)
    d = int(round(np.sqrt(len(j))))
    jh = (j + dagger(j)) / 2
    min_eig = float(np.min(np.linalg.eigvalsh(jh)))
    herm_dev = float(np.max(np.abs(j - jh)))
    tp = partial_trace(j, [d, d], keep=[0])
    tp_dev = float(np.max(np.abs(tp - np.eye(d))))
    ok = min_eig >= -TOL.cptp_tol and tp_dev <= TOL.cptp_tol and herm_dev <= TOL.cptp_tol
    return CptpCheck(ok=ok, min_choi_eig=min_eig, tp_deviation=tp_dev)


# ---------------------------------------------------------------------------
# Generator file format
# ---------------------------------------------------------------------------
#
#   dim 2
#   hamiltonian 0.5,0 0,0 0,0 -0.5,0
#   jump
#   matrix 0,0 1,0 0,0 0,0
#   rate 1.0
#   end
#
# One directive per line; matrices are row-major lists of "re,im" pairs;
# blank lines and lines starting with '#' are ignored.  See README for the
# full grammar.


class GeneratorFormatError(ValueError):
    """Raised with a 'line N: ...' message for malformed generator files."""


def _parse_complex_list(text: str, lineno: int, expected: int) -> np.ndarray:
    entries = []
    for token in text.split():
        parts = token.split(",")
        if len(parts) != 2:
            raise GeneratorFormatError(
                f"line {lineno}: entry '{token}' is not a re,im pair"
            )
        try:
            entries.append(complex(float(parts[0]), float(parts[1])))
        except ValueError:
            raise GeneratorFormatError(
                f"line {lineno}: entry '{token}' has non-numeric components"
            ) from None
        if not np.isfinite(entries[-1]):
            raise GeneratorFormatError(f"line {lineno}: entry '{token}' is not finite")
    if len(entries) != expected:
        raise GeneratorFormatError(
            f"line {lineno}: expected {expected} entries, got {len(entries)}"
        )
    return np.array(entries, dtype=complex)


def parse_generator(text: str) -> GkslGenerator:
    """Parse the generator file format; errors carry line positions."""
    dim = None
    hamiltonian = None
    ham_line = None
    jumps = []
    in_jump = False
    jump_matrix = None
    jump_rate = None
    jump_line = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()

        if key == "dim":
            try:
                dim = int(rest)
            except ValueError:
                raise GeneratorFormatError(f"line {lineno}: dim '{rest}' is not an integer") from None
            if dim <= 0:
                raise GeneratorFormatError(f"line {lineno}: dim must be positive")
        elif key == "hamiltonian":
            if dim is None:
                raise GeneratorFormatError(f"line {lineno}: dim must come before hamiltonian")
            hamiltonian = _parse_complex_list(rest, lineno, dim * dim).reshape(dim, dim)
            ham_line = lineno
        elif key == "jump":
            if in_jump:
                raise GeneratorFormatError(f"line {lineno}: nested jump block")
            if dim is None:
                raise GeneratorFormatError(f"line {lineno}: dim must come before jump blocks")
            in_jump, jump_matrix, jump_rate, jump_line = True, None, None, lineno
        elif key == "matrix":
            if not in_jump:
                raise GeneratorFormatError(f"line {lineno}: matrix outside a jump block")
            jump_matrix = _parse_complex_list(rest, lineno, dim * dim).reshape(dim, dim)
        elif key == "rate":
            if not in_jump:
                raise GeneratorFormatError(f"line {lineno}: rate outside a jump block")
            try:
                jump_rate = float(rest)
            except ValueError:
                raise GeneratorFormatError(f"line {lineno}: rate '{rest}' is not a number") from None
            if not np.isfinite(jump_rate):
                raise GeneratorFormatError(f"line {lineno}: rate '{rest}' is not finite")
            if jump_rate < 0:
                raise GeneratorFormatError(f"line {lineno}: negative rate {jump_rate}")
        elif key == "end":
            if not in_jump:
                raise GeneratorFormatError(f"line {lineno}: end outside a jump block")
            if jump_matrix is None:
                raise GeneratorFormatError(f"line {lineno}: jump block opened at line {jump_line} has no matrix")
            if jump_rate is None:
                raise GeneratorFormatError(f"line {lineno}: jump block opened at line {jump_line} has no rate")
            jumps.append((jump_matrix, jump_rate))
            in_jump = False
        else:
            raise GeneratorFormatError(f"line {lineno}: unknown directive '{key}'")

    if in_jump:
        raise GeneratorFormatError(f"line {jump_line}: jump block never closed with 'end'")
    if dim is None:
        raise GeneratorFormatError("line 1: missing 'dim' directive")
    if hamiltonian is None:
        raise GeneratorFormatError("line 1: missing 'hamiltonian' directive")
    if not is_hermitian(hamiltonian):
        raise GeneratorFormatError(f"line {ham_line}: hamiltonian is not Hermitian")
    return GkslGenerator(dim=dim, hamiltonian=hamiltonian, terms=tuple(jumps))


def load_generator(path) -> GkslGenerator:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_generator(fh.read())
