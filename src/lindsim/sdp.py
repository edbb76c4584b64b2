"""Nesterov-Todd interior-point solver for Watrous' diamond-norm program.

For the Hermitian d^2 x d^2 Choi matrix J of a Hermiticity-preserving map
(Watrous, arXiv:1207.5726; the input factor comes first in every kron):

    (P)  minimize mu   subject to  P - Q = J,  H = mu I - Tr_out(P + Q),  P, Q, H, mu >= 0
    (D)  maximize <J, Y>  subject to  -Y - Z (x) I,  Y - Z (x) I,  -Z,  1 + tr Z  >= 0.

The constraints are written in orthonormal Hermitian coordinates: d^4 rows
pin P - Q to J and d^2 rows define H, so y holds the coordinates of (Y, Z).
The method is infeasible-start path following with the Nesterov-Todd
direction (Todd, Toh and Tuetuencue, SIAM J. Optim. 8, 1998) and a Mehrotra
predictor-corrector step.  Its Schur complement M_ij = sum_b Re tr(A_i W_b
A_j W_b) is built from the program's structure: the equality rows see
W_P Z W_P + W_Q Z W_Q, whose coordinates are products W[i, k] W[l, j]
gathered over diagonal and off-diagonal index pairs, and the slack rows see
the d^2 lifted basis matrices b (x) I.  That is d^8 work per iteration.
Near a degenerate optimum the Schur complement's condition number passes
1e16, and the rounding of a Newton step lifts the primal residual above the
feasibility tolerance; a step that misses its primal equations by more than
a tenth of that tolerance gets one round of iterative refinement, kept where
the refined step misses by less.

The iterates of a problem are one array of three blocks of one side,
[P, Q, H (+) mu]: P and Q, and H and mu on the diagonal of one block, with
the unused entries held at zero (and padded for the square roots).  Every
per-block operation is thus one numpy call, whatever the block sizes.
``solve_diamond`` solves a stack of problems of one d in lockstep, so numpy's
per-call overhead is paid once per batch.  Each problem keeps its own
stopping tests and leaves the batch when it converges or fails; a failure
becomes that problem's ``SdpConvergenceError`` only.  A call whose problems
do not fit one batch's workspace budget, ``_BATCH_BYTES``, is shared out
over every CPU the process may use, in forked workers (``workers.py``), and
each worker solves its share in as few batches as the budget allows: one,
wherever it fits (up to 16 problems at d = 3).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .tolerances import TOL

__all__ = ["SdpConvergenceError", "SdpSolution", "batch_size", "solve_diamond"]


class SdpConvergenceError(RuntimeError):
    """Solver failed to converge; carries the solver state it stopped in.

    ``reason`` is the bare message, ``gap`` the last duality gap at the
    scale of the problem's J, ``iterations`` the completed iterations and
    ``primal_residual`` the last scaled primal residual; the last two are
    None where unknown.
    """

    def __init__(self, reason: str, gap: float, iterations: int | None = None,
                 primal_residual: float | None = None):
        state = f"duality gap {gap:.3e}"
        if iterations is not None:
            state += f", {iterations} iterations"
        if primal_residual is not None:
            state += f", primal residual {primal_residual:.3e}"
        super().__init__(f"{reason} ({state})")
        self.reason = reason
        self.gap = gap
        self.iterations = iterations
        self.primal_residual = primal_residual

    def __reduce__(self):
        return type(self), (self.reason, self.gap, self.iterations, self.primal_residual)


@dataclass(frozen=True)
class SdpSolution:
    """A certified solve at the scale of its J: ``primal_blocks`` are [P, Q, H, [[mu]]]
    with P - Q = J, and ``dual_y`` is y, which does not depend on the scale."""

    value: float
    primal_objective: float
    dual_objective: float
    gap: float
    iterations: int
    primal_blocks: list
    dual_y: np.ndarray
    primal_residual: float
    dual_residual: float


# Byte budget of one lockstep batch's workspace in each process (a worker
# solves its batches one at a time).  Per problem the workspace peaks either
# while the Schur complement is factored, holding it and its Cholesky factor
# (two real m x m arrays, m = d^4 + d^2) and the iterates, measured at 2.5
# m x m arrays; or in the Newton steps, holding the factor and about 22
# complex stacks of the iterates' size (3 side^2), which is the larger at
# d = 2.  The complement is dropped once it is factored, and the gathers
# that build it are held for _GATHER problems at a time, about a quarter MiB
# at d = 3 on top of the budget.  That makes a batch of 130 problems at
# d = 2, 16 at d = 3 and 1 at d >= 4, where a solve is arithmetic-bound and
# batching saves nothing.
_BATCH_BYTES = 5 << 19

# After this many iterations with the gap and mu within tolerance but the
# primal residual above feas_tol and not halving, the solve has stalled: more
# iterations only repeat the rounding error of the Newton step.  A converged
# problem whose mu has reached zero has stalled at once: its iterates have left
# the interior by rounding, and further steps drive its residual up.
_STALL_ITERS = 10

_STEP_FRACTION = 0.98  # of the way to the boundary of the cone
_LEAF = 32  # triangular blocks up to this side are solved directly
_GATHER = 4  # problems whose equality-row gathers are held at once
_SQRT2 = np.sqrt(2.0)


def batch_size(d: int) -> int:
    """Problems of dimension d whose workspace fits in ``_BATCH_BYTES``: one lockstep batch."""
    m, side = d**4 + d**2, max(d * d, d + 1)
    return max(1, _BATCH_BYTES // max(20 * m * m, 8 * m * m + 22 * 48 * side * side))


def _frozen(build):
    """Cache an array builder by its arguments; the cached arrays are read-only."""
    @functools.lru_cache(maxsize=None)
    @functools.wraps(build)
    def cached(*args):
        out = build(*args)
        for a in out if isinstance(out, tuple) else (out,):
            a.flags.writeable = False
        return out
    return cached


@_frozen
def _pairs(side: int):
    """Row and column indices of the strict upper triangle, row-major."""
    return np.triu_indices(side, 1)


@_frozen
def _flat(side: int):
    """Flat indices of the diagonal, the strict upper triangle and its mirror image."""
    iu, ju = _pairs(side)
    return np.arange(side) * (side + 1), iu * side + ju, ju * side + iu


@_frozen
def _eye(side: int) -> np.ndarray:
    return np.eye(side)


def _coords(z: np.ndarray) -> np.ndarray:
    """Orthonormal coordinates of a stack of Hermitian matrices: the diagonal,
    then sqrt(2) Re and sqrt(2) Im of the strict upper triangle."""
    dg, up, _ = _flat(z.shape[-1])
    flat = z.reshape(z.shape[:-2] + (-1,))
    u = _SQRT2 * flat[..., up]
    return np.concatenate([flat[..., dg].real, u.real, u.imag], axis=-1)


def _herm(c: np.ndarray, side: int) -> np.ndarray:
    """The Hermitian matrices with coordinates c (inverse of ``_coords``)."""
    dg, up, lo = _flat(side)
    z = np.empty(c.shape[:-1] + (side * side,), dtype=complex)
    z[..., dg] = c[..., :side]
    u = (c[..., side:side + up.size] + 1j * c[..., side + up.size:]) / _SQRT2
    z[..., up], z[..., lo] = u, u.conj()
    return z.reshape(c.shape[:-1] + (side, side))


def _dag(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + _dag(a)) / 2


def _tr_out(z: np.ndarray, d: int) -> np.ndarray:
    """Partial trace over the second factor of a stack of d^2-sided matrices."""
    return np.trace(z.reshape(z.shape[:-2] + (d, d, d, d)), axis1=-3, axis2=-1)


def _lift(z: np.ndarray, d: int) -> np.ndarray:
    """kron(z, I_d) for a stack of d-sided matrices."""
    return (z[..., :, None, :, None] * _eye(d)[:, None, :]).reshape(z.shape[:-2] + (d * d, d * d))


@_frozen
def _slack_basis(d: int):
    """A Hermitian basis b of the slack rows, (d^2, d, d), and b (x) I."""
    basis = _herm(np.eye(d * d), d)
    return basis, _lift(basis, d)


def _sides(d: int) -> int:
    """Sum of the block sides, 2 d^2 + d + 1."""
    return 2 * d * d + d + 1


@_frozen
def _layout(d: int):
    """Masks of the stacked primal and dual blocks [P, Q, H (+) mu].

    The three blocks share one side, max(d^2, d + 1); ``live`` marks their
    entries, ``pad`` the diagonal of the rest, and ``cost`` selects mu.
    """
    n = d * d
    side = max(n, d + 1)
    live = np.zeros((3, side, side), dtype=bool)
    live[:2, :n, :n] = live[2, :d, :d] = live[2, d, d] = True
    pad = np.eye(side) * ~live
    cost = np.zeros((3, side, side))
    cost[2, d, d] = 1.0
    return live, pad, cost


def _apply_a(x: np.ndarray, d: int) -> np.ndarray:
    """Constraint values of a stack of primal blocks (B, 3, side, side)."""
    n = d * d
    pq = x[:, :2, :n, :n]
    slack = _tr_out(pq[:, 0] + pq[:, 1], d) + x[:, 2, :d, :d] - x[:, 2, d, d, None, None] * _eye(d)
    return np.concatenate([_coords(pq[:, 0] - pq[:, 1]), _coords(slack)], axis=-1)


def _apply_at(y: np.ndarray, d: int) -> np.ndarray:
    """Adjoint of ``_apply_a``: the stacked blocks of sum_i y_i A_i."""
    n = d * d
    big, z = _herm(y[:, :d**4], n), _herm(y[:, d**4:], d)
    lifted = _lift(z, d)
    out = np.zeros((len(y),) + _layout(d)[0].shape, dtype=complex)
    out[:, 0, :n, :n], out[:, 1, :n, :n] = big + lifted, lifted - big
    out[:, 2, :d, :d] = z
    out[:, 2, d, d] = -np.trace(z, axis1=1, axis2=2)
    return out


def _schur(w) -> np.ndarray:
    """Schur complements M_ij = sum_b Re tr(A_i W_b A_j W_b) of a batch."""
    w_pq, w_h, w_mu = w
    d = w_h.shape[-1]
    n, m_eq = d * d, d**4
    iu, ju = _pairs(n)
    basis, lifted = _slack_basis(d)
    schur = np.empty((len(w_pq), m_eq + n, m_eq + n))

    # equality rows: coordinates of W Z W over the (diagonal, Re, Im) index sets
    dg, re, im = slice(0, n), slice(n, n + iu.size), slice(n + iu.size, m_eq)
    w_conj = w_pq.conj()
    schur[:, dg, dg] = (w_pq.real**2 + w_pq.imag**2).sum(axis=1)
    r = np.einsum("bqik,bqik->bik", w_pq[..., :, iu], w_conj[..., :, ju])
    schur[:, dg, re], schur[:, dg, im] = _SQRT2 * r.real, -_SQRT2 * r.imag
    schur[:, re, dg], schur[:, im, dg] = schur[:, dg, re].swapaxes(1, 2), schur[:, dg, im].swapaxes(1, 2)
    for lo in range(0, len(w_pq), _GATHER):  # a few problems' gathers at a time
        part = slice(lo, lo + _GATHER)
        x1 = x2 = 0.0
        for q in range(2):  # P, then Q
            wq, cq = w_pq[part, q], w_conj[part, q]
            x1 = x1 + wq[:, iu[:, None], iu] * cq[:, ju[:, None], ju]
            guv = wq[:, iu[:, None], ju]
            x2 = x2 + guv * guv.swapaxes(1, 2)
        schur[part, re, re], schur[part, re, im] = x1.real + x2.real, x2.imag - x1.imag
        schur[part, im, re], schur[part, im, im] = x1.imag + x2.imag, x1.real - x2.real
    del x1, x2, guv

    # slack rows: the lifted basis b (x) I through each block
    wlw = w_pq[:, :, None] @ lifted @ w_pq[:, :, None]
    schur[:, m_eq:, :m_eq] = _coords(wlw[:, 0] - wlw[:, 1])
    schur[:, :m_eq, m_eq:] = schur[:, m_eq:, :m_eq].swapaxes(1, 2)
    slack = _tr_out(wlw[:, 0] + wlw[:, 1], d) + w_h[:, None] @ basis @ w_h[:, None]
    slack += (w_mu**2)[:, None] * np.trace(basis, axis1=1, axis2=2)[:, None, None] * _eye(d)
    slack = _coords(slack)
    schur[:, m_eq:, m_eq:] = (slack + slack.swapaxes(1, 2)) / 2
    return schur


def _cholesky(stack: np.ndarray, fallback) -> np.ndarray:
    """Cholesky factors of a stack; an item whose factorization fails gets fallback(item)."""
    try:
        return np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        out = np.empty_like(stack)
    for idx in np.ndindex(stack.shape[:-2]):
        try:
            out[idx] = np.linalg.cholesky(stack[idx])
        except np.linalg.LinAlgError:
            out[idx] = fallback(stack[idx])
    return out


def _clipped_root(x: np.ndarray) -> np.ndarray:
    """l with l l^H = x with the spectrum of x clipped away from zero, for x not numerically PD."""
    w, v = np.linalg.eigh(_sym(x))
    return v * np.sqrt(np.maximum(w, np.finfo(float).eps * max(np.max(np.abs(w)), np.finfo(float).tiny)))


def _jittered(mat: np.ndarray) -> np.ndarray:
    """Cholesky factor of a Schur complement on a jitter ladder.

    The ladder starts at the rounding level of ``mat`` and rises tenfold:
    near the optimum the Schur complement is indefinite only by rounding, and
    any larger jitter shows up directly in the primal residual.
    """
    jitter = np.finfo(float).eps * max(1.0, float(np.max(np.abs(mat))))
    for _ in range(15):
        try:
            return np.linalg.cholesky(mat + jitter * np.eye(len(mat)))
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise np.linalg.LinAlgError("Schur complement is not positive definite")


def _nt_scaling(x: np.ndarray, s: np.ndarray, d: int):
    """G, G^-1 and d with G^-1 x G^-H = G^H s G = diag(d), so W = G G^H solves W s W = x.

    The unused diagonal entries of x and s are set to 1 for the square roots;
    the padding stays exactly decoupled from the blocks, so LAPACK treats
    each block on its own scale.
    """
    lx, ls = _cholesky(np.stack([x, s]) + _layout(d)[1], _clipped_root)
    u, sv, vh = np.linalg.svd(_dag(ls) @ lx)
    root = 1.0 / np.sqrt(sv)
    return (lx @ _dag(vh)) * root[..., None, :], root[..., :, None] * (_dag(u) @ _dag(ls)), sv


def _lower_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with low @ x = b for a stack of lower-triangular low: blocked forward
    substitution, with blocks up to _LEAF on a side solved by LAPACK."""
    n = low.shape[-1]
    if n <= _LEAF:
        return np.linalg.solve(low, b)
    h = n // 2
    head = _lower_solve(low[:, :h, :h], b[:, :h])
    return np.concatenate([head, _lower_solve(low[:, h:, h:], b[:, h:] - low[:, h:, :h] @ head)], axis=1)


def _solve(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with low low^T x = rhs; low^T index-reversed is lower triangular again."""
    half = _lower_solve(low, rhs[:, :, None])
    return _lower_solve(low.swapaxes(1, 2)[:, ::-1, ::-1], half[:, ::-1])[:, ::-1, 0]


def _max_steps(dx_scaled: np.ndarray, ds_scaled: np.ndarray, dvals: np.ndarray) -> np.ndarray:
    """Per item, the largest alpha with diag(d) + alpha * dX~ >= 0, and the same
    for dS~ (inf if none): an array (2, B)."""
    root = 1.0 / np.sqrt(dvals)
    both = np.stack([dx_scaled, ds_scaled]) * (root[..., :, None] * root[..., None, :])
    lam = np.linalg.eigvalsh(_sym(both)).reshape(2, len(dvals), -1).min(axis=2)
    with np.errstate(divide="ignore"):
        return np.where(lam >= -1e-14, np.inf, -1.0 / lam)


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per item, the sum over blocks of Re tr(a_b b_b)."""
    return (a.conj() * b).real.sum(axis=(1, 2, 3))


def _residuals(st: dict) -> None:
    """Store the residuals, mu and objectives of the current iterates in st."""
    x, s, y, v = st["x"], st["s"], st["y"], st["v"]
    d = st["d"]
    st["rd"] = rd = _layout(d)[2] - s - _apply_at(y, d)
    st["rp"] = v - _apply_a(x, d)
    st["mu"] = _inner(x, s) / _sides(d)
    st["pobj"], st["dobj"] = x[:, 2, d, d].real, np.einsum("bi,bi->b", v, y)
    st["gap"] = np.abs(st["pobj"] - st["dobj"])
    st["rp_norm"] = np.linalg.norm(st["rp"], axis=1) / (1.0 + np.linalg.norm(v, axis=1))
    st["rd_norm"] = np.sqrt(_inner(rd, rd)) / 2.0  # over 1 + |C|


def _iterate(st: dict):
    """One predictor-corrector step of every problem in the batch; returns the
    new iterates and each problem's larger step length."""
    x, s, rd, rp, mu, d = st["x"], st["s"], st["rd"], st["rp"], st["mu"], st["d"]
    live = _layout(d)[0]
    g, gi, dv = _nt_scaling(x, s, d)
    w = g @ _dag(g)
    n = d * d
    # factored once, for both Newton solves; the Schur complement is dropped
    low = _cholesky(_schur((w[:, :2, :n, :n], w[:, 2, :d, :d], w[:, 2, d:d + 1, d:d + 1])), _jittered)
    w_rd_w = w @ rd @ w

    def newton(rc):
        dy = _solve(low, rp - _apply_a(_sym(rc - w_rd_w), d))
        ds = rd - _apply_at(dy, d)
        dx = _sym(rc - w @ ds @ w) * live
        # one step of iterative refinement for the items whose step misses
        # A(dX) = rp by more than refine_tol, kept where it misses by less
        miss = rp - _apply_a(dx, d)
        size = np.linalg.norm(miss, axis=1)
        redo = np.flatnonzero(size > st["refine_tol"] * (1.0 + np.linalg.norm(st["v"], axis=1)))
        if redo.size:
            dy2 = dy[redo] + _solve(low[redo], miss[redo])
            ds2 = rd[redo] - _apply_at(dy2, d)
            dx2 = _sym(rc[redo] - w[redo] @ ds2 @ w[redo]) * live
            keep = np.linalg.norm(rp[redo] - _apply_a(dx2, d), axis=1) < size[redo]
            redo = redo[keep]
            dy[redo], ds[redo], dx[redo] = dy2[keep], ds2[keep], dx2[keep]
        return dx, dy, ds, gi @ dx @ _dag(gi), _dag(g) @ ds @ g

    dx, _, ds, dx_scaled, ds_scaled = newton(-x)  # predictor
    ap, ad = np.minimum(1.0, _max_steps(dx_scaled, ds_scaled, dv))
    mu_aff = _inner(x + ap[:, None, None, None] * dx, s + ad[:, None, None, None] * ds) / _sides(d)
    sigma_mu = np.clip((np.maximum(mu_aff, 0.0) / mu) ** 3, 1e-12, 1.0) * mu

    # corrector: G (sigma mu D^-1 - (dX~ dS~ + dS~ dX~) / (d_i + d_j)) G^H - X
    inner = -(dx_scaled @ ds_scaled + ds_scaled @ dx_scaled) / (dv[..., :, None] + dv[..., None, :])
    inner += _eye(dv.shape[-1]) * (sigma_mu[:, None, None] / dv)[..., None, :]
    dx, dy, ds, dx_scaled, ds_scaled = newton(g @ inner @ _dag(g) - x)
    alpha_p, alpha_d = np.minimum(1.0, _STEP_FRACTION * _max_steps(dx_scaled, ds_scaled, dv))
    new = dict(st, y=st["y"] + alpha_d[:, None] * dy)
    new["x"] = _sym(x + alpha_p[:, None, None, None] * dx)
    new["s"] = _sym(s + alpha_d[:, None, None, None] * ds)
    return new, np.maximum(alpha_p, alpha_d)


def _take(st: dict, keep) -> dict:
    return {k: v if k == "d" else v[keep] for k, v in st.items()}


def _join(parts: list) -> dict:
    return {k: v if k == "d" else np.concatenate([p[k] for p in parts]) for k, v in parts[0].items()}


def _lockstep(chois: np.ndarray, scales: np.ndarray, feas_tol: float, max_iters: int) -> list:
    batch, n = chois.shape[:2]
    d = int(round(np.sqrt(n)))
    v = np.concatenate([_coords(chois / scales[:, None, None]), np.zeros((batch, n))], axis=1)
    # infeasible start on the central ray, X = S = I: at |J|_F = 1 no
    # coordinate of J exceeds 1, so both of its scale factors are 1
    live = _layout(d)[0]
    eye = np.repeat(np.eye(live.shape[-1]) * live[None], batch, axis=0).astype(complex)
    st = {"d": d, "x": eye, "s": eye.copy(), "y": np.zeros_like(v), "v": v,
          "gap_tol": np.minimum(1e-9 * np.maximum(1.0, scales), TOL.sdp_gap_tol / 10) / scales,
          "refine_tol": np.full(batch, feas_tol / 10),
          "index": np.arange(batch),
          "best_rp": np.full(batch, np.inf), "stalled": np.zeros(batch, dtype=int)}
    results = [None] * batch

    def retire(st, leaving, outcome):
        if not leaving.any():
            return st
        for i in np.flatnonzero(leaving):
            results[st["index"][i]] = outcome(st, i)
        return _take(st, ~leaving)

    def failure(reason, iterations):
        return lambda st, i: SdpConvergenceError(reason, float(st["gap"][i]) * scales[st["index"][i]],
                                                 iterations, float(st["rp_norm"][i]))

    def solution(st, i):
        x, scale = st["x"][i], scales[st["index"][i]]
        return SdpSolution(
            value=0.5 * float(st["pobj"][i] + st["dobj"][i]) * scale,
            primal_objective=float(st["pobj"][i]) * scale, dual_objective=float(st["dobj"][i]) * scale,
            gap=float(st["gap"][i]) * scale, iterations=iteration - 1,
            primal_blocks=[scale * b for b in (x[0, :n, :n], x[1, :n, :n], x[2, :d, :d],
                                                x[2, d:d + 1, d:d + 1])],
            dual_y=st["y"][i], primal_residual=float(st["rp_norm"][i]),
            dual_residual=float(st["rd_norm"][i]))

    for iteration in range(1, max_iters + 1):
        _residuals(st)
        st["centred"] = (st["gap"] <= st["gap_tol"]) & (st["mu"] * _sides(d) <= st["gap_tol"])
        st = retire(st, st["centred"] & (st["rp_norm"] <= feas_tol) & (st["rd_norm"] <= feas_tol),
                    solution)
        watch = st["centred"] & (st["rp_norm"] > feas_tol)
        halved = st["rp_norm"] < 0.5 * st["best_rp"]
        st["best_rp"] = np.where(watch & halved, st["rp_norm"], st["best_rp"])
        st["stalled"] = np.where(watch, np.where(halved, 0, st["stalled"] + 1), st["stalled"])
        st = retire(st, (st["stalled"] >= _STALL_ITERS) | (st["centred"] & (st["mu"] <= 0)),
                    failure("primal residual stalled above the feasibility tolerance", iteration - 1))
        st = retire(st, ~np.isfinite(st["gap"] + st["rp_norm"] + st["rd_norm"]),
                    failure("linear algebra failure (non-finite iterate)", iteration - 1))
        if not len(st["index"]):
            return results
        try:
            st, alpha = _iterate(st)
        except np.linalg.LinAlgError:
            steps = []  # step each problem alone, so that a failure stays with its problem
            for i in range(len(st["index"])):
                try:
                    steps.append(_iterate(_take(st, [i])))
                except np.linalg.LinAlgError as exc:
                    retire(_take(st, [i]), np.array([True]),
                           failure(f"linear algebra failure ({exc})", iteration - 1))
            if not steps:
                return results
            st, alpha = _join([p for p, _ in steps]), np.concatenate([a for _, a in steps])
        st = retire(st, alpha < 1e-12, failure("interior-point step collapsed", iteration - 1))
        if not len(st["index"]):
            return results
    retire(st, np.ones(len(st["index"]), dtype=bool),
           failure(f"no convergence within {max_iters} iterations", max_iters))
    return results


def solve_diamond(chois, *, feas_tol: float = 1e-9, max_iters: int = TOL.sdp_max_iters) -> list:
    """Solve the diamond-norm program for a stack of Hermitian Choi matrices of one d.

    ``chois`` has shape (B, d^2, d^2).  The program is homogeneous in J, so
    each problem is solved at unit scale, for J / s with s = ||J||_F (s = 1
    for a zero or non-finite J), to a duality gap of min(1e-9 max(1, s),
    ``TOL.sdp_gap_tol`` / 10) / s, and its certificate is multiplied back by
    s: the accepted gap at J's scale is at most a tenth of
    ``TOL.sdp_gap_tol``, and at most 1e-9 for ||J||_F <= 1.

    The problems run in lockstep batches of at most ``batch_size(d)``;
    with more than one batch, ``workers.solve_shared`` shares them out over
    worker processes.  A worker's share runs in the fewest batches that fit,
    whose sizes differ by at most one.  A problem's result does not depend
    on its batch-mates, so it is the same to the bit for any number of
    workers.  Returns, in order, each problem's ``SdpSolution`` or
    ``SdpConvergenceError``.
    """
    chois = np.asarray(chois, dtype=complex)
    size = batch_size(int(round(np.sqrt(chois.shape[-1]))))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite iterate fails its problem
        norms = np.array([float(np.linalg.norm(j)) for j in chois])
        scales = np.where(np.isfinite(norms) & (norms > 0), norms, 1.0)

        def solve(lo, hi):  # in the fewest batches, whose sizes differ by at most one
            count = -(-(hi - lo) // size)
            ends = [lo + (hi - lo) * k // count for k in range(1, count + 1)]
            return [sol for a, b in zip([lo] + ends, ends)
                    for sol in _lockstep(chois[a:b], scales[a:b], feas_tol, max_iters)]

        if len(chois) <= size:  # one batch: nothing to share out
            return solve(0, len(chois))
        from .workers import solve_shared
        return solve_shared(solve, len(chois), size)
