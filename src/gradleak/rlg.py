"""Label-set recovery from a projection-layer update.

Pipeline: infer the contributing sample count S from the numeric rank of the
update, take the top-S right-singular rows Q, optionally screen the label
columns of Q with a cheap mistake-driven filter, then decide per-label
membership by linear-programming feasibility.  A label c is kept when some
vector r in the box |r_k| <= lp_box_bound satisfies

    r . q_c <= -lp_margin      and      r . q_j >= 0  for every j != c,

i.e. the column q_c can be strictly separated from all other columns by a
hyperplane through the origin.  The margin and box make the homogeneous
separation problem a bounded, decidable feasibility question: by LP duality
it holds exactly when

    lp_box_bound * min{ ||q_c - sum_j lam_j q_j||_1 : lam >= 0 } >= lp_margin,

and that inner minimization is a phase-1 simplex problem (the L1 slack pair
doubles as the artificial basis) solved here with Bland's rule, which cannot
cycle.  The optimal simplex multipliers directly yield a primal separator
witness, exposed via :func:`lp_separator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import as_matrix, default_rank_tol, numeric_rank, svd

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
SCREENED_OUT = "screened-out"

DEGENERATE_FLOOR = 1e-30
DEFAULT_MAX_PIVOTS = 5000
SCREEN_EPOCH_CAP = 200
_RCOST_TOL = 1e-12
_PIVOT_TOL = 1e-12


class DegenerateUpdateError(ValueError):
    """The update is numerically zero; no row space to attack."""


class RankAssumptionError(ValueError):
    """Inferred S >= min(d, C); the separation argument needs S < min(d, C)."""


class LpPivotLimitError(RuntimeError):
    """Simplex pivot cap exceeded before reaching optimality."""

    def __init__(self, pivots: int):
        super().__init__(f"LP feasibility solve exceeded {pivots} pivots")
        self.pivots = pivots


class LpSingularBasisError(RuntimeError):
    """The simplex basis matrix turned singular at a refactorisation.

    A numerical failure, not a pivot-cap overrun: `cap_as_infeasible` does
    not cover it, since calling the label infeasible would be a guess.
    """

    def __init__(self, pivots: int):
        super().__init__(f"LP basis matrix singular at refactorisation after {pivots} pivots")
        self.pivots = pivots


@dataclass(frozen=True)
class RlgConfig:
    """Attack knobs.

    rank_tol_rel: relative singular-value cutoff for rank inference (None
    uses the dimension-scaled machine-epsilon default).  assume_s overrides
    rank inference entirely.  screen_top_m anchors the screening filter on
    that many largest-norm columns.
    """

    rank_tol_rel: Optional[float] = None
    assume_s: Optional[int] = None
    screen_top_m: int = 500
    lp_margin: float = 1e-6
    lp_box_bound: float = 1.0

    def __post_init__(self):
        if self.rank_tol_rel is not None and self.rank_tol_rel <= 0.0:
            raise ValueError("rank_tol_rel must be positive")
        if self.screen_top_m < 1:
            raise ValueError("screen_top_m must be >= 1")
        if self.lp_margin <= 0.0:
            raise ValueError("lp_margin must be positive")
        if self.lp_box_bound <= 0.0:
            raise ValueError("lp_box_bound must be positive")


@dataclass(frozen=True)
class LabelSetPrediction:
    """Inferred sample count plus the recovered label set.

    `labels` is exactly the set of labels whose status is "feasible".
    `rank_estimate` records the numeric-rank reading even when an assumed S
    was used.
    """

    inferred_s: int
    labels: frozenset[int]
    per_label_status: dict[int, str]
    rank_estimate: Optional[int] = None

    def __post_init__(self):
        feasible = frozenset(c for c, st in self.per_label_status.items() if st == FEASIBLE)
        if feasible != self.labels:
            raise ValueError("labels must equal the feasible entries of per_label_status")


def _extract(a: np.ndarray, cfg: RlgConfig) -> tuple[int, np.ndarray, int]:
    if float(np.linalg.norm(a)) < DEGENERATE_FLOOR:
        raise DegenerateUpdateError("degenerate update: Frobenius norm below 1e-30")
    d, c = a.shape
    res = svd(a)
    tol = cfg.rank_tol_rel if cfg.rank_tol_rel is not None else default_rank_tol(d, c)
    rank = numeric_rank(res.singular, tol, max_dim=max(d, c))
    if cfg.assume_s is not None:
        if not (1 <= cfg.assume_s <= min(d, c) - 1):
            raise ValueError(f"assume_s must lie in [1, {min(d, c) - 1}], got {cfg.assume_s}")
        s = cfg.assume_s
    else:
        s = rank
        if s >= min(d, c):
            raise RankAssumptionError(
                f"assumption violated: inferred S={s} not below min(d, C)={min(d, c)}")
    return s, np.ascontiguousarray(res.right[:s]), rank


def extract_q(delta_w, cfg: RlgConfig = RlgConfig()) -> tuple[int, np.ndarray]:
    """Infer S and return the top-S right-singular rows of the update.

    Raises DegenerateUpdateError when ||delta_w||_F is below an absolute
    floor, and RankAssumptionError when the inferred S reaches min(d, C).
    """
    s, q, _ = _extract(as_matrix(delta_w, "delta_w"), cfg)
    return s, q


def _phase1_cone_distance(generators: np.ndarray, target: np.ndarray,
                          max_pivots: int,
                          stop_below: float = 0.0) -> tuple[float, np.ndarray, int]:
    """min ||target - generators @ lam||_1 over lam >= 0, by phase-1 simplex.

    Revised simplex with Bland's rule: variables are the generator weights
    (cost 0) followed by the positive and negative L1 slack pair (cost 1),
    which doubles as the starting artificial basis.  Only the s x s basis
    matrix is kept and re-solved each pivot, so pricing runs against the
    original read-only columns and nothing accumulates roundoff.

    Returns (distance, y, pivots) where y are the optimal multipliers of the
    equality rows: |y|_inf <= 1, y . g_j <= 0 for every generator column,
    and y . target equals the distance.

    The objective is non-increasing and bounded by the optimum from below,
    so once it falls under `stop_below` the caller's threshold decision is
    already settled; stopping there avoids grinding on degenerate vertices
    whose reduced costs are rounding noise (y is only meaningful when the
    run finished above the early-stop line).
    """
    s = target.shape[0]
    ng = generators.shape[1]
    # variable order: [0, ng) generators, [ng, ng+s) +slack, [ng+2s) -slack
    sign0 = np.where(target >= 0.0, 1.0, -1.0)
    basis = np.where(target >= 0.0, ng + np.arange(s), ng + s + np.arange(s))
    bmat = np.diag(sign0)
    binv = np.diag(sign0)
    cb = np.ones(s)

    block = 2048
    refactor_every = 64
    pivots = 0
    while True:
        if pivots and pivots % refactor_every == 0:
            # bmat is exact (plain column replacements); refreshing the
            # product-form inverse stops pivot-to-pivot roundoff growth
            try:
                binv = np.linalg.inv(bmat)
            except np.linalg.LinAlgError as exc:
                raise LpSingularBasisError(pivots) from exc
        xb = binv @ target
        value = float(cb @ xb)
        y = cb @ binv
        if value < stop_below:
            return max(value, 0.0), y, pivots
        # Bland's rule takes the lowest improvable variable index, so scan
        # generator reduced costs (-y . g_j) left to right in blocks with an
        # early exit, then the slack pair (1 -+ y)
        enter = -1
        for lo in range(0, ng, block):
            red = y @ generators[:, lo:lo + block]
            hits = np.flatnonzero(red > _RCOST_TOL)
            if hits.size:
                enter = lo + int(hits[0])
                acol = generators[:, enter]
                u = binv @ acol
                break
        if enter < 0:
            hits = np.flatnonzero(y > 1.0 + _RCOST_TOL)
            if hits.size:
                i = int(hits[0])
                enter = ng + i
                acol = np.zeros(s)
                acol[i] = 1.0
                u = binv[:, i].copy()
            else:
                hits = np.flatnonzero(-y > 1.0 + _RCOST_TOL)
                if hits.size:
                    i = int(hits[0])
                    enter = ng + s + i
                    acol = np.zeros(s)
                    acol[i] = -1.0
                    u = -binv[:, i]
        if enter < 0:
            return max(value, 0.0), y, pivots
        rows = np.flatnonzero(u > _PIVOT_TOL)
        if rows.size == 0:
            raise LpPivotLimitError(pivots)  # unbounded cannot occur; defensive
        ratios = xb[rows] / u[rows]
        best = ratios.min()
        tied = rows[ratios <= best + 1e-15]
        leave = int(tied[np.argmin(basis[tied])])  # Bland: lowest basis index
        basis[leave] = enter
        bmat[:, leave] = acol
        cb[leave] = 0.0 if enter < ng else 1.0
        eta = -u / u[leave]
        eta[leave] = 1.0 / u[leave] - 1.0
        binv += np.outer(eta, binv[leave])
        pivots += 1
        if pivots > max_pivots:
            raise LpPivotLimitError(pivots)


def _solve_label(q: np.ndarray, c: int, cfg: RlgConfig,
                 max_pivots: int) -> tuple[bool, np.ndarray]:
    s, n_cols = q.shape
    if not (0 <= c < n_cols):
        raise ValueError(f"label {c} out of range for {n_cols} columns")
    target = np.ascontiguousarray(q[:, c])
    generators = np.ascontiguousarray(np.delete(q, c, axis=1))
    dist, y, _ = _phase1_cone_distance(generators, target, max_pivots,
                                       stop_below=0.5 * cfg.lp_margin / cfg.lp_box_bound)
    feasible = cfg.lp_box_bound * dist >= cfg.lp_margin
    return feasible, -cfg.lp_box_bound * y


def lp_feasible(q, c: int, cfg: RlgConfig = RlgConfig(), *,
                cap_as_infeasible: bool = False,
                max_pivots: int = DEFAULT_MAX_PIVOTS) -> bool:
    """Decide whether label column c is strictly separable from the rest.

    A pivot-cap overrun raises LpPivotLimitError unless the caller opts into
    treating it as infeasible via `cap_as_infeasible`.  A singular basis at
    refactorisation raises LpSingularBasisError either way.
    """
    q = as_matrix(q, "q")
    try:
        feasible, _ = _solve_label(q, c, cfg, max_pivots)
    except LpPivotLimitError:
        if cap_as_infeasible:
            return False
        raise
    return feasible


def lp_separator(q, c: int, cfg: RlgConfig = RlgConfig(), *,
                 max_pivots: int = DEFAULT_MAX_PIVOTS) -> Optional[np.ndarray]:
    """Return an explicit separating vector r for label c, or None.

    When not None, r satisfies r . q_c <= -lp_margin, r . q_j >= 0 for all
    j != c, and |r|_inf <= lp_box_bound (up to solver tolerance).
    """
    q = as_matrix(q, "q")
    feasible, r = _solve_label(q, c, cfg, max_pivots)
    return r if feasible else None


def _cone_certificate(generators: np.ndarray, sq_norms: np.ndarray,
                      target: np.ndarray, l1_bound: float,
                      epoch_cap: int) -> bool:
    """Try to certify that `target` lies in the conic hull of `generators`.

    Mistake-driven updates with unit relaxation: each epoch adds the most
    violated generator direction to a running non-negative combination and
    shrinks the residual.  Returns True only when the residual's L1 norm
    drops below `l1_bound`, which is an explicit witness that no separator
    with the configured margin exists; hitting the cap or stalling returns
    False and leaves the decision to the exact LP.
    """
    e = target.astype(np.float64, copy=True)
    usable = sq_norms > 0.0
    if not usable.any():
        return float(np.abs(e).sum()) < l1_bound
    inv_norm = np.where(usable, 1.0 / np.sqrt(np.where(usable, sq_norms, 1.0)), 0.0)
    for _ in range(epoch_cap):
        if float(np.abs(e).sum()) < l1_bound:
            return True
        scores = (e @ generators) * inv_norm
        j = int(np.argmax(scores))
        if scores[j] <= 0.0:
            return False
        step = (e @ generators[:, j]) / sq_norms[j]
        e -= step * generators[:, j]
    return float(np.abs(e).sum()) < l1_bound


def screen(q, cfg: RlgConfig = RlgConfig()) -> set[int]:
    """Cheap sound pre-filter over label columns.

    Anchored on the `screen_top_m` largest-norm columns; a candidate is
    dropped only when an explicit conic-combination certificate proves the
    exact LP would reject it, so every LP-feasible label survives.  With C
    at or below the anchor budget no filtering is possible and all labels
    pass.
    """
    q = as_matrix(q, "q")
    _, n_cols = q.shape
    if n_cols <= cfg.screen_top_m:
        return set(range(n_cols))
    norms = np.sqrt((q * q).sum(axis=0))
    anchors = np.argsort(-norms, kind="stable")[:cfg.screen_top_m]
    anchor_pos = {int(a): i for i, a in enumerate(anchors)}
    base = np.ascontiguousarray(q[:, anchors])
    base_sq = (base * base).sum(axis=0)
    l1_bound = cfg.lp_margin / cfg.lp_box_bound

    survivors: set[int] = set()
    for c in range(n_cols):
        pos = anchor_pos.get(c)
        if pos is None:
            gens, sq = base, base_sq
        else:
            keep = np.arange(base.shape[1]) != pos
            gens = base[:, keep]
            sq = base_sq[keep]
        target = q[:, c]
        if not _cone_certificate(gens, sq, target, l1_bound, SCREEN_EPOCH_CAP):
            survivors.add(c)
    return survivors


def rlg_attack(delta_w, cfg: RlgConfig = RlgConfig(), *,
               use_screening: bool = True,
               cap_as_infeasible: bool = False,
               max_pivots: int = DEFAULT_MAX_PIVOTS) -> LabelSetPrediction:
    """Full pipeline: rank inference, right-singular extraction, screening,
    and per-label LP feasibility.

    Per-label decisions are independent, so the result does not depend on
    iteration order.
    """
    a = as_matrix(delta_w, "delta_w")
    s, q, rank_estimate = _extract(a, cfg)
    n_cols = q.shape[1]
    survivors = screen(q, cfg) if use_screening else set(range(n_cols))
    statuses: dict[int, str] = {}
    for c in range(n_cols):
        if c not in survivors:
            statuses[c] = SCREENED_OUT
            continue
        ok = lp_feasible(q, c, cfg, cap_as_infeasible=cap_as_infeasible,
                         max_pivots=max_pivots)
        statuses[c] = FEASIBLE if ok else INFEASIBLE
    labels = frozenset(c for c, st in statuses.items() if st == FEASIBLE)
    return LabelSetPrediction(inferred_s=s, labels=labels,
                              per_label_status=statuses, rank_estimate=rank_estimate)
