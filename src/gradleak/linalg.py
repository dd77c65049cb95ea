"""Dense linear-algebra kernel: validated matrices, a one-sided Jacobi SVD
that returns the directions it computed with deterministic sign
canonicalization, and tolerance-based numeric rank.

Everything here is pure and reentrant; arrays returned by :func:`svd` are
freshly allocated and never aliased to the input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

EPS = float(np.finfo(np.float64).eps)

JACOBI_SWEEP_CAP = 100
JACOBI_ROTATION_TOL = 1e-12
# pivots per block of the rank probe.  Unblocked, a full-rank 512 x 512 Gram
# took ~10 ms, most of it re-reading every earlier factor column at each
# step; blocks of 128 took ~6 ms (one BLAS thread, 2-vCPU x86 host)
PROBE_BLOCK = 128


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
    """Thin SVD a ~ left @ diag(singular[:rank]) @ right at its own rank.

    `rank` is numeric_rank(singular, default_rank_tol(rows, cols)), the
    number of directions computed.  `left` (rows x rank) has orthonormal
    columns and `right` (rank x cols) orthonormal rows; both are C-contiguous
    and own their data.  `singular` holds all min(rows, cols) values,
    non-negative and non-increasing, the ones past `rank` being the residual
    norms of the null columns.  Signs are canonical: the first nonzero entry
    of every row of `right` is non-negative.
    """

    left: np.ndarray
    singular: np.ndarray
    right: np.ndarray
    rank: int

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular[:self.rank]) @ self.right


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


def _rank_probe(gram: np.ndarray) -> np.ndarray | None:
    """Pivots of a greedy pivoted Cholesky of the Gram matrix `gram`.

    Each step takes the largest remaining Schur-complement diagonal as the
    next pivot (the lowest id among ties); the probe stops once that
    diagonal is at or below n * EPS * max(diag(gram)) and returns the pivots
    taken, in order.  Returns None when all n pivots are taken: the Gram is
    full rank.

    The steps run in blocks of PROBE_BLOCK pivots, as LAPACK's dpstrf does.
    Within a block, each factor column is its pivot's Schur-complement row
    less the products of the block's earlier columns.  A finished block is
    folded into the Schur complement by one product, and the rows and
    columns it pivoted are dropped, so a full-rank probe reads each factor
    column only within its own block.  A probe that stops within its first
    block does the arithmetic of an unblocked one.
    """
    n = gram.shape[0]
    diag = gram.diagonal().copy()
    stop = n * EPS * diag.max()
    ids = np.arange(n)  # the Gram ids of the rows `schur` and `diag` hold
    free = np.ones(n, dtype=bool)
    schur = gram
    block = np.empty((PROBE_BLOCK, n))  # row j: the block's j-th factor column
    pivots = np.empty(n, dtype=np.intp)
    for k in range(n):
        j = k % PROBE_BLOCK
        if j == 0 and k:
            done = np.take(block, np.flatnonzero(free), axis=1)
            schur = schur[np.ix_(free, free)]
            schur -= done.T @ done
            ids, diag = ids[free], diag[free]
            free = np.ones(ids.size, dtype=bool)
            block = np.empty((PROBE_BLOCK, ids.size))
        p = int(diag.argmax())
        if diag[p] <= stop:
            return pivots[:k]
        col = block[j]
        np.dot(block[:j, p], block[:j], out=col)
        np.subtract(schur[p], col, out=col)
        col /= np.sqrt(diag[p])
        diag -= col * col
        diag[p] = 0.0
        free[p] = False
        pivots[k] = ids[p]
    return None


def _precondition(work: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """An orthogonal basis v for the columns of `work` (big x n), returned
    as (work @ v, v), or None when the Gram matrix overflows, or when
    `work` is nonzero but n * EPS * max(diag(Gram)), the rank probe's cut,
    is below the smallest normal float (the Gram has underflowed).

    v is the rank probe's low-rank basis or the full Gram eigenbasis
    (largest first), as :func:`svd` describes, or the identity if eigh
    fails.  The sweeps decide every rotation and the rank from there, so
    v only has to be orthogonal.
    """
    n = work.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        gram = work.T @ work
    # an overflowing Gram, or a nonzero matrix whose Gram rank cut is
    # subnormal (its products have underflowed), goes back to svd to rescale
    if not np.isfinite(gram).all() or (
            n * EPS * gram.diagonal().max() < np.finfo(np.float64).tiny and work.any()):
        return None
    # every rank-deficient update takes the low-rank basis, whatever its
    # rank: on 64 x 100 drop90 copies of rank 12-42 the eigenbasis left
    # pairs to rotate, and the SVD took about twice as long
    pivots = _rank_probe(gram)
    if pivots is None:
        try:
            _, pre = np.linalg.eigh(gram)
        except np.linalg.LinAlgError:
            return work, np.eye(n)
        pre = np.ascontiguousarray(pre[:, ::-1])
        return work @ pre, pre

    r = pivots.size
    # raw mode returns LAPACK's reflectors transposed: row j of `h` holds
    # reflector j past its diagonal entry, which is implicitly 1
    h, tau = np.linalg.qr(gram[:, pivots], mode="raw")
    del gram  # not held through the rows x n product below
    vt = np.triu(h, 1)
    vt[np.arange(r), np.arange(r)] = 1.0
    # T upper triangular with H_1 ... H_r = I - V T V^T (LAPACK's dlarft)
    t = np.zeros((r, r))
    cross = vt @ vt.T
    for j in range(r):
        t[:j, j] = -tau[j] * (t[:j, :j] @ cross[:j, j])
        t[j, j] = tau[j]
    tvt = t @ vt
    v = np.eye(n)
    v -= vt.T @ tvt
    # work @ Q written into the product's buffer: two rows x n arrays at
    # most, and the older one is freed, which leaves the allocator less
    # resident memory than updating `work` in place
    prod = (work @ vt.T) @ tvt
    work = np.subtract(work, prod, out=prod)
    # the live columns onto their own Gram eigenbasis, largest first
    head = work[:, :r]
    _, turn = np.linalg.eigh(head.T @ head)
    turn = turn[:, ::-1]
    work[:, :r] = head @ turn
    v[:, :r] = v[:, :r] @ turn
    return work, v


def svd(m) -> SvdResult:
    """One-sided Jacobi SVD of a dense real matrix.

    The shorter side's columns are orthogonalized by plane rotations applied
    round by round over disjoint pairs; each sweep pairs the live columns by
    a tournament of their own and visits every pair of them once.
    Convergence requires |<u, v>| <= JACOBI_ROTATION_TOL * |u| |v| for every
    pair of columns over a full sweep.  Raises :class:`SvdConvergenceError`
    with the sweep count if JACOBI_SWEEP_CAP sweeps are exhausted first.

    The sweeps start from an orthogonal basis that leaves them little to
    rotate (:func:`_precondition`).  A rank probe, greedy pivoted Cholesky
    on the n x n Gram matrix, stops once the largest remaining pivot is at
    or below n * EPS * max(diag).  If it stops at r < n pivots, the basis is
    the Householder QR basis of the Gram's r pivoted columns, applied in
    compact WY form, with its first r columns turned onto their own r x r
    Gram eigenbasis: O(rows n r) work, and its n - r tail columns hold
    rounding only.  The full Gram eigenbasis costs O(rows n^2 + n^3), and
    on a rank-deficient update the error of its eigenvectors leaves pairs
    for the sweeps to rotate, so only a full-rank update, whose probe takes
    all n pivots, gets it.  Only the sweeps below decide which columns are
    live and how each pair turns.

    Columns whose norm falls below default_rank_tol(rows, cols) relative to the
    largest are numerically null: their singular values are the computed
    residual norms, but their directions are dropped, so the factors hold
    only the `rank` live directions.  Leaving the null part out moves the
    reconstruction far less than the 1e-8 gate.  No pair holding a null
    column is rotated, so each sweep screens its pairs with the Gram matrix
    of the live columns alone (k x k for k live columns, not n x n).

    A matrix whose Gram overflows (entries above ~1e154) or underflows
    (every column norm below ~1e-146 / sqrt(n), so the rank cut is
    subnormal) is decomposed scaled by the power of two that brings its
    largest entry into [0.5, 1), and its singular values scaled back: a
    power-of-two scale is exact away from underflow, and the factors and
    the rank do not depend on it.
    """
    a = as_matrix(m)
    rows, cols = a.shape
    transposed = rows < cols
    work = np.array(a.T if transposed else a)  # tall copy, shape (big, n)

    # v comes from the preconditioner: an identity made up front would be
    # held, unused, through its peak memory
    pre = _precondition(work)
    if pre is None:
        exp = int(np.frexp(np.abs(a).max())[1])
        res = svd(np.ldexp(a, -exp))
        return replace(res, singular=np.ldexp(res.singular, exp))
    work, v = pre
    # pairs at or below half the rotation tolerance are screened out per
    # sweep via the Gram matrix; the margin absorbs dot-product rounding
    screen_tol = 0.5 * JACOBI_ROTATION_TOL
    null_cut = default_rank_tol(rows, cols)
    for sweep in range(JACOBI_SWEEP_CAP):
        # numerically null columns (norm at or below the dimension-scaled
        # epsilon cutoff) carry no signal; no pair holding one is rotated,
        # so the Gram is built, and the pairs scheduled, over the live
        # columns alone
        norms = np.sqrt(np.einsum("ij,ij->j", work, work))
        live_cols = np.flatnonzero(norms > null_cut * norms.max())
        sub = np.take(work, live_cols, axis=1)
        rel = np.abs(sub.T @ sub)
        rel /= np.outer(norms[live_cols], norms[live_cols])
        np.fill_diagonal(rel, 0.0)
        hot = rel > screen_tol
        if not hot.any():
            break
        for p_idx, q_idx in _round_robin(live_cols.size):
            sel = hot[p_idx, q_idx]
            if not sel.any():
                continue
            pj = live_cols[p_idx[sel]]
            qj = live_cols[q_idx[sel]]
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
    # sig is non-increasing, so the live columns are the first k in order
    k = numeric_rank(sig, default_rank_tol(rows, cols))
    u, v = work[:, order[:k]] / sig[:k], v[:, order[:k]]
    if transposed:
        u, v = v, u
    left, right = u.copy(), v.T.copy()  # C-contiguous, owning their data

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
    positive and finite; the usual cutoff for a d x C matrix is
    default_rank_tol(d, C).  A zero leading singular value means rank 0.
    """
    if not (np.isfinite(tol_rel) and tol_rel > 0.0):
        raise ValueError(f"tol_rel must be positive and finite, got {tol_rel}")
    s = np.asarray(singular, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("singular values must be a 1-D vector")
    if s.size == 0:
        return 0
    if (s < 0.0).any():
        raise ValueError("singular values must be non-negative")
    if (s[1:] > s[:-1]).any():
        raise ValueError("singular values must be non-increasing")
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol_rel * s[0]))
