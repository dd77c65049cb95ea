"""Dense linear-algebra kernel: validated matrices, a one-sided Jacobi SVD
with deterministic sign canonicalization, and tolerance-based numeric rank.

Everything here is pure and reentrant; arrays returned by :func:`svd` are
freshly allocated and never aliased to the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

EPS = float(np.finfo(np.float64).eps)

JACOBI_SWEEP_CAP = 100
JACOBI_ROTATION_TOL = 1e-12
_FILL_BLOCK = 1 << 18  # completion block size in matrix entries (2 MiB)


class SvdConvergenceError(RuntimeError):
    """Jacobi sweeps hit the cap with off-diagonal mass still above tolerance."""

    def __init__(self, sweeps: int):
        super().__init__(f"one-sided Jacobi SVD failed to converge after {sweeps} sweeps")
        self.sweeps = sweeps


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a dense row-major float64 2-D array.

    Rejects empty dimensions and non-finite entries; this is the single
    validation choke point for every matrix entering the package.
    """
    a = np.ascontiguousarray(values, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape!r}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError(f"{name} must have positive dimensions, got {a.shape!r}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD a = left @ diag(singular) @ right, r = min(rows, cols).

    `left` has orthonormal columns, `right` orthonormal rows, `singular` is
    non-negative and non-increasing.  Signs are canonical: the first nonzero
    entry of every row of `right` is non-negative.  `rank` is the number of
    computed directions, numeric_rank(singular, default_rank_tol(rows,
    cols)); the factors past it are an orthonormal completion.
    """

    left: np.ndarray
    singular: np.ndarray
    right: np.ndarray
    rank: int

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular) @ self.right


@lru_cache(maxsize=128)
def _round_robin(n: int):
    """Tournament schedule covering all column pairs in rounds of disjoint pairs.

    Circle method: player 0 keeps seat 0 while the other m - 1 seats rotate
    by one per round, and seat i plays seat m - 1 - i.  For odd n, player n
    is the bye and its pairs are dropped.  Pairs are ordered (min, max).
    """
    m = n + n % 2
    turn = np.arange(m - 1, dtype=np.intp)
    seats = np.zeros((m - 1, m), dtype=np.intp)
    seats[:, 1:] = (turn[None, :] - turn[:, None]) % (m - 1) + 1
    a, b = seats[:, :m // 2], seats[:, ::-1][:, :m // 2]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return tuple((p[h < n], h[h < n]) for p, h in zip(lo, hi))


def _orthonormal_fill(u: np.ndarray, k: int) -> None:
    """Complete columns k.. of `u` to an orthonormal basis, in place.

    The first k columns are the live left vectors.  Householder QR of them
    yields reflectors H_0..H_{k-1} whose product Q spans those columns with
    its own first k columns, so Q's columns k..n-1 (Q applied to the
    coordinate slab e_k..e_{n-1}) are an exactly orthonormal completion.
    The reflectors are applied last to first, a block of columns at a time,
    straight into u[:, k:]; with k = 0 the slab stays exact coordinate axes.
    """
    m, n = u.shape
    fill = u[:, k:]
    fill[np.arange(k, n), np.arange(n - k)] = 1.0
    if k == 0:
        return
    h, tau = np.linalg.qr(u[:, :k], mode="raw")  # reflector i is row i of h
    refl = np.tril(h.T, -1)
    refl[np.arange(k), np.arange(k)] = 1.0
    block = max(1, _FILL_BLOCK // m)
    for lo in range(0, n - k, block):
        x = fill[:, lo:lo + block]
        for i in range(k - 1, -1, -1):
            v = refl[i:, i]
            x[i:] -= np.outer(tau[i] * v, v @ x[i:])


def svd(m) -> SvdResult:
    """One-sided Jacobi SVD of a dense real matrix.

    The shorter side's columns are orthogonalized by plane rotations applied
    round by round over disjoint pairs; a sweep visits every pair once.
    Convergence requires |<u, v>| <= JACOBI_ROTATION_TOL * |u| |v| for every
    pair of columns over a full sweep.  Raises :class:`SvdConvergenceError`
    with the sweep count if JACOBI_SWEEP_CAP sweeps are exhausted first.

    Columns whose norm falls below default_rank_tol(rows, cols) relative to the
    largest are numerically null: their singular values are the computed
    residual norms but their directions are replaced by a deterministic
    orthonormal completion of the live ones, taken in one pass from the
    Householder reflectors of the live columns (O(m k n) for k live of n
    columns on the m-long side).  The factors stay exactly orthonormal while
    the reconstruction error from the replacement stays far below the 1e-8
    gate.
    """
    a = as_matrix(m)
    rows, cols = a.shape
    transposed = rows < cols
    work = np.array(a.T if transposed else a)  # tall copy, shape (big, n)
    n = work.shape[1]
    v = np.eye(n)

    if n > 1:
        # precondition with the Gram eigenbasis: an exact orthogonal change of
        # basis that leaves only eps-level off-diagonal mass for the sweeps to
        # clean up; the rotations below still decide convergence and restore
        # the small-singular-value accuracy the squared Gram cannot represent
        try:
            _, pre = np.linalg.eigh(work.T @ work)
        except np.linalg.LinAlgError:
            pre = None
        if pre is not None:
            pre = np.ascontiguousarray(pre[:, ::-1])
            work = work @ pre
            v = pre.copy()

        rounds = _round_robin(n)
        # pairs at or below half the rotation tolerance are screened out per
        # sweep via the Gram matrix; the margin absorbs dot-product rounding
        screen_tol = 0.5 * JACOBI_ROTATION_TOL
        null_cut = default_rank_tol(rows, cols)
        for sweep in range(JACOBI_SWEEP_CAP):
            gram = work.T @ work
            norms = np.sqrt(np.diag(gram))
            scale = np.outer(norms, norms)
            rel = np.divide(np.abs(gram), scale,
                            out=np.zeros_like(gram), where=scale > 0.0)
            np.fill_diagonal(rel, 0.0)
            # numerically null columns (norm below the dimension-scaled
            # epsilon cutoff) carry no signal; they are excluded from the
            # sweeps and replaced by exact orthonormal completions below
            dead = norms <= null_cut * norms.max()
            rel[dead, :] = 0.0
            rel[:, dead] = 0.0
            hotmat = rel > screen_tol
            if not hotmat.any():
                break
            for p_idx, q_idx in rounds:
                sel = hotmat[p_idx, q_idx]
                if not sel.any():
                    continue
                pj = p_idx[sel]
                qj = q_idx[sel]
                up = work[:, pj]
                uq = work[:, qj]
                alpha = np.einsum("ij,ij->j", up, up)
                beta = np.einsum("ij,ij->j", uq, uq)
                gamma = np.einsum("ij,ij->j", up, uq)
                # every screened pair gets rotated: re-gating on the exact dot
                # can stall when the two readings straddle the tolerance
                live = gamma != 0.0
                if not live.any():
                    continue
                if not live.all():
                    pj, qj = pj[live], qj[live]
                    up, uq = up[:, live], uq[:, live]
                    alpha, beta, gamma = alpha[live], beta[live], gamma[live]
                zeta = (beta - alpha) / (2.0 * gamma)
                sgn = np.where(zeta >= 0.0, 1.0, -1.0)
                t = sgn / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                work[:, pj] = c * up - s * uq
                work[:, qj] = s * up + c * uq
                vp = v[:, pj]
                vq = v[:, qj]
                v[:, pj] = c * vp - s * vq
                v[:, qj] = s * vp + c * vq
        else:
            raise SvdConvergenceError(JACOBI_SWEEP_CAP)

    sig = np.sqrt(np.einsum("ij,ij->j", work, work))
    order = np.argsort(-sig, kind="stable")
    sig = sig[order]
    work = work[:, order]
    v = v[:, order]

    # sig is non-increasing, so the live columns are a prefix
    u = np.zeros_like(work)
    k = numeric_rank(sig, default_rank_tol(rows, cols))
    u[:, :k] = work[:, :k] / sig[:k]
    if k < n:
        _orthonormal_fill(u, k)

    if transposed:
        left, right = v, np.ascontiguousarray(u.T)
    else:
        left, right = u, np.ascontiguousarray(v.T)

    # canonical signs: first nonzero entry of each right row made non-negative
    first = (right != 0.0).argmax(axis=1)
    flip = right[np.arange(right.shape[0]), first] < 0.0
    right[flip] *= -1.0
    left[:, flip] *= -1.0

    return SvdResult(left=left, singular=sig, right=right, rank=k)


def default_rank_tol(rows: int, cols: int) -> float:
    """Dimension-scaled machine epsilon, the usual numeric-rank cutoff."""
    return max(rows, cols) * EPS


def numeric_rank(singular, tol_rel: float) -> int:
    """Count singular values above tol_rel * singular[0].

    `singular` must be non-negative and non-increasing, and `tol_rel`
    positive; the usual cutoff for a d x C matrix is default_rank_tol(d, C).
    A zero leading singular value means rank 0.
    """
    s = np.asarray(singular, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("singular values must be a 1-D vector")
    if s.size == 0:
        return 0
    if (s < 0.0).any():
        raise ValueError("singular values must be non-negative")
    if (s[1:] > s[:-1]).any():
        raise ValueError("singular values must be non-increasing")
    if tol_rel <= 0.0:
        raise ValueError("tol_rel must be positive")
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol_rel * s[0]))
