"""Label-set recovery from a projection-layer update.

Pipeline: infer the contributing sample count S from the numeric rank of the
update, take the top-S right-singular rows Q (never more than the rows the
SVD computed), screen the label columns of Q with the same LP restricted to
the largest-norm columns (only when C exceeds that anchor count), then
decide per-label membership by linear-programming feasibility.  The surviving labels' LPs are solved
together in lockstep; each label's decision is the one a solve of its own
would give.  A label c is kept when some vector r in the unit box
|r_k| <= 1 satisfies

    r . q_c <= -LP_MARGIN      and      r . q_j >= 0  for every j != c,

i.e. the column q_c can be strictly separated from all other columns by a
hyperplane through the origin; a true label always passes this test.  The
fixed margin LP_MARGIN and the unit box make the homogeneous separation
problem a bounded, decidable feasibility question: by LP duality it holds
exactly when

    min{ ||q_c - sum_j lam_j q_j||_1 : lam >= 0 } >= LP_MARGIN,

and that inner minimization is a phase-1 simplex problem (the L1 slack pair
doubles as the artificial basis).  It is solved here by entering the
variable with the largest reduced cost over the unit-norm generators
(Dantzig 1963); a target whose objective stalls falls back to Bland's rule
(Bland 1977), which cannot cycle in exact arithmetic, until it falls again.
The optimal simplex multipliers directly yield a primal separator witness,
exposed via :func:`lp_separator`.

Every label decision is the LP's answer or a named error: an LP that runs
past DEFAULT_MAX_PIVOTS raises LpPivotLimitError, and one whose basis turns
singular raises LpSingularBasisError; both name that label.  Neither is
read as "not a label", since the label whose LP failed may be a true one
(in floating point even Bland's rule can cycle on ties until the cap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import as_matrix, numeric_rank, svd

LP_MARGIN = 1e-6  # strict separation a kept label needs, in the unit box
DEGENERATE_FLOOR = 1e-30
DEFAULT_MAX_PIVOTS = 5000
_RCOST_TOL = 1e-12
_PIVOT_TOL = 1e-12
_REFACTOR_EVERY = 64
_STALL = 50  # rounds without a fall in the objective before Bland's rule
_BATCH_ENTRIES = 1 << 18  # pricing-array entries per chunk of labels (2 MiB)
_SCREEN_ANCHORS = 500  # largest-norm columns the screen's LPs may use
_CAP_HIT = 1
_SINGULAR = 2


class DegenerateUpdateError(ValueError):
    """The update is numerically zero; no row space to attack."""


class RankAssumptionError(ValueError):
    """Inferred S >= min(d, C); the separation argument needs S < min(d, C)."""


class LpPivotLimitError(RuntimeError):
    """Simplex pivot cap exceeded before reaching optimality on the LP of
    label `label`."""

    def __init__(self, pivots: int, label: int):
        super().__init__(f"LP feasibility solve for label {label} exceeded {pivots} pivots")
        self.pivots = pivots
        self.label = label


class LpSingularBasisError(RuntimeError):
    """The simplex basis matrix turned singular at a refactorisation.

    A numerical failure, not a pivot-cap overrun (LpPivotLimitError); like
    that one it fails the attack rather than decide the label.  `label` is
    the label whose LP failed.
    """

    def __init__(self, pivots: int, label: int):
        super().__init__(f"LP basis matrix for label {label} singular at refactorisation "
                         f"after {pivots} pivots")
        self.pivots = pivots
        self.label = label


@dataclass(frozen=True)
class RlgConfig:
    """How the attack reads S off the update; the label decision itself has
    no knobs (LP_MARGIN in the unit box, see the module docstring).

    rank_tol_rel: relative singular-value cutoff for rank inference, in
    (0, 1) (None uses `default_rank_tol`, max(d, C) * eps).  assume_s sets
    S in place of the rank; Q still stops at the rank the SVD computed (see
    `extract_q`).
    """

    rank_tol_rel: Optional[float] = None
    assume_s: Optional[int] = None

    def __post_init__(self):
        if self.rank_tol_rel is not None and not 0.0 < self.rank_tol_rel < 1.0:
            raise ValueError(f"rank_tol_rel must lie in (0, 1), got {self.rank_tol_rel}")


@dataclass(frozen=True)
class LabelSetPrediction:
    """Inferred sample count plus the recovered label set; a label outside
    `labels` was decided infeasible.

    `rank_estimate` records the numeric-rank reading even when an assumed S
    was used.
    """

    inferred_s: int
    labels: frozenset[int]
    rank_estimate: Optional[int] = None


def extract_q(delta_w, cfg: RlgConfig = RlgConfig()) -> tuple[int, np.ndarray, int]:
    """Read S off the update; returns (S, Q, rank).

    rank is the numeric rank (`svd`'s own count, or the count above
    cfg.rank_tol_rel), and S is cfg.assume_s or else the rank.  Q holds the
    top S right-singular rows, at most the `SvdResult.rank` rows the SVD
    computed: an assumed S above that rank keeps S but gets no more rows.

    Raises DegenerateUpdateError when ||delta_w||_F is below an absolute
    floor, and RankAssumptionError when the inferred S reaches min(d, C).
    """
    a = as_matrix(delta_w, "delta_w")
    if float(np.linalg.norm(a)) < DEGENERATE_FLOOR:
        raise DegenerateUpdateError("degenerate update: Frobenius norm below 1e-30")
    d, c = a.shape
    res = svd(a)
    rank = res.rank if cfg.rank_tol_rel is None else numeric_rank(res.singular, cfg.rank_tol_rel)
    if cfg.assume_s is not None:
        if not (1 <= cfg.assume_s <= min(d, c) - 1):
            raise ValueError(f"assume_s must lie in [1, {min(d, c) - 1}], got {cfg.assume_s}")
        s = cfg.assume_s
    else:
        s = rank
        if s >= min(d, c):
            raise RankAssumptionError(
                f"assumption violated: inferred S={s} not below min(d, C)={min(d, c)}")
    return s, res.right[:s], rank


def _invert(bmat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of every basis matrix in the stack, and a mask of the singular ones."""
    try:
        return np.linalg.inv(bmat), np.zeros(len(bmat), dtype=bool)
    except np.linalg.LinAlgError:
        binv = np.zeros_like(bmat)
        singular = np.zeros(len(bmat), dtype=bool)
        for i, m in enumerate(bmat):
            try:
                binv[i] = np.linalg.inv(m)
            except np.linalg.LinAlgError:
                singular[i] = True
        return binv, singular


def _cone_distances(gens: np.ndarray, targets: np.ndarray, own: np.ndarray):
    """min ||t_i - sum_{j != own_i} lam_j g_j||_1 over lam >= 0 for every row
    t_i of `targets`, by phase-1 revised simplex run in lockstep over the
    targets.  g_j are the columns of `gens`; own_i is the one column target
    i may not use (a label's own column of Q).

    Each target's variables are the columns of gens (cost 0; its own column
    is never priced) followed by the positive and negative L1 slack pair
    (cost 1, ids n_cols + i and n_cols + s + i), which doubles as the
    starting artificial basis.  The generators are divided by their norms
    once (a zero column keeps scale 1); scaling a generator by a positive
    factor changes neither the cone nor the distance, so this is the same
    LP.  The entering variable has the largest score: a generator scores its
    reduced cost y . g_j over the unit-norm generators, and slack k scores
    |y_k| - 1 (Dantzig's rule).  A target whose objective has not fallen for
    _STALL rounds enters the lowest improvable id instead (Bland's rule)
    until it falls again; the leaving variable is always the lowest basis id
    among ratio ties.
    Only each target's s x s basis matrix and its product-form inverse are
    kept; pricing runs against the read-only generators, so nothing is
    copied per target and nothing accumulates roundoff.  Every live target
    takes one pivot per round, so all of them share one pivot count.

    Returns (distance, y, pivots, failed), one entry per target.  y are the
    optimal multipliers of the equality rows: |y|_inf <= 1, y . g_j <= 0
    for every j != own_i, and y . t_i equals the distance.  failed is
    _CAP_HIT for an unbounded ratio test or a run past DEFAULT_MAX_PIVOTS
    (read at call time), _SINGULAR for a basis matrix found singular at a
    refactorisation, with `pivots` the count at the failure.

    The objective is non-increasing and bounded by the optimum from below,
    so once it falls under half of LP_MARGIN the threshold decision is
    already settled; stopping there avoids grinding on degenerate vertices
    whose reduced costs are rounding noise (y is only meaningful when the
    run finished above the early-stop line).
    """
    max_pivots, stop_below = DEFAULT_MAX_PIVOTS, 0.5 * LP_MARGIN
    s, n_cols = gens.shape
    scale = np.sqrt((gens * gens).sum(axis=0))
    scale[scale == 0.0] = 1.0
    gens = gens / scale
    n = own.size
    dist = np.zeros(n)
    y_out = np.zeros((n, s))
    pivots_out = np.zeros(n, dtype=np.intp)
    failed = np.zeros(n, dtype=np.int8)

    # per live target: output slot, own column, target, basis ids, basis
    # matrix, its inverse, the basis costs, the lowest objective so far and
    # the rounds since it last fell
    live = np.arange(n)
    lab = own
    target = np.ascontiguousarray(targets)
    diag = np.arange(s)
    positive = target >= 0.0
    basis = np.where(positive, n_cols + diag, n_cols + s + diag)
    bmat = np.zeros((n, s, s))
    bmat[:, diag, diag] = np.where(positive, 1.0, -1.0)
    binv = bmat.copy()
    cb = np.ones((n, s))
    lowest = np.full(n, np.inf)
    stalled = np.zeros(n, dtype=np.intp)

    pivots = 0
    while live.size:
        if pivots and pivots % _REFACTOR_EVERY == 0:
            # bmat is exact (plain column replacements); refreshing the
            # product-form inverse stops pivot-to-pivot roundoff growth
            binv, singular = _invert(bmat)
            if singular.any():
                failed[live[singular]] = _SINGULAR
                pivots_out[live[singular]] = pivots
                keep = ~singular
                live, lab, target, basis, bmat, binv, cb, lowest, stalled = (
                    a[keep] for a in (live, lab, target, basis, bmat, binv, cb, lowest, stalled))
                if not live.size:
                    break
        rows = np.arange(live.size)
        # stacked matmul runs one BLAS call per target, so every target's
        # arithmetic is that of a solve on its own
        xb = (binv @ target[:, :, None])[:, :, 0]
        value = (cb[:, None, :] @ xb[:, :, None])[:, 0, 0]
        y = (cb[:, None, :] @ binv)[:, 0, :]
        fell = value < lowest * (1.0 - _RCOST_TOL)  # a fall within rounding is none
        lowest = np.where(fell, value, lowest)
        stalled = np.where(fell, 0, stalled + 1)
        red = y @ gens
        red[rows, lab] = -np.inf
        enter = red.argmax(axis=1)
        score = red[rows, enter]
        k = np.abs(y).argmax(axis=1)
        yk = y[rows, k]
        slack_score = np.abs(yk) - 1.0
        enter = np.where(slack_score > score, np.where(yk > 0.0, n_cols, n_cols + s) + k, enter)
        score = np.maximum(score, slack_score)
        bland = np.flatnonzero(stalled >= _STALL)
        if bland.size:
            improving = np.concatenate([red[bland] > _RCOST_TOL, y[bland] - 1.0 > _RCOST_TOL,
                                        -y[bland] - 1.0 > _RCOST_TOL], axis=1)
            enter[bland] = improving.argmax(axis=1)  # lowest improvable id
        done = (value < stop_below) | (score <= _RCOST_TOL)

        generator = enter < n_cols
        acol = np.zeros((live.size, s))
        acol[generator] = gens[:, enter[generator]].T
        slack = np.flatnonzero(~generator)
        k = enter[slack] - n_cols
        acol[slack, k % s] = np.where(k < s, 1.0, -1.0)
        u = (binv @ acol[:, :, None])[:, :, 0]
        eligible = u > _PIVOT_TOL
        ratios = np.where(eligible, xb / np.where(eligible, u, 1.0), np.inf)
        best = ratios.min(axis=1, keepdims=True)
        tied = eligible & (ratios <= best + 1e-15)
        leave = np.where(tied, basis, n_cols + 2 * s).argmin(axis=1)  # lowest id
        unbounded = ~done & ~eligible.any(axis=1)  # cannot occur; defensive

        stop = done | unbounded
        if stop.any():
            out = live[done]
            dist[out] = np.maximum(value[done], 0.0)
            y_out[out] = y[done]
            pivots_out[out] = pivots
            failed[live[unbounded]] = _CAP_HIT
            pivots_out[live[unbounded]] = pivots
            keep = ~stop
            live, lab, target, basis, bmat, binv, cb, lowest, stalled = (
                a[keep] for a in (live, lab, target, basis, bmat, binv, cb, lowest, stalled))
            enter, generator, acol, u, leave = (
                a[keep] for a in (enter, generator, acol, u, leave))
            if not live.size:
                break
            rows = np.arange(live.size)

        basis[rows, leave] = enter
        bmat[rows, :, leave] = acol
        cb[rows, leave] = np.where(generator, 0.0, 1.0)
        u_leave = u[rows, leave]
        eta = -u / u_leave[:, None]
        eta[rows, leave] = 1.0 / u_leave - 1.0
        binv += eta[:, :, None] * binv[rows, leave][:, None, :]
        pivots += 1
        if pivots > max_pivots:
            failed[live] = _CAP_HIT
            pivots_out[live] = pivots
            break
    return dist, y_out, pivots_out, failed


def _lockstep(gens: np.ndarray, targets: np.ndarray, own: np.ndarray):
    """_cone_distances run over chunks of targets that bound the
    (targets, n_cols) pricing array and the (targets, s, s) basis stacks."""
    s, n_cols = gens.shape
    per = max(1, _BATCH_ENTRIES // max(n_cols, s * s))
    # no targets still makes one (empty) chunk, so the outputs keep their types
    parts = [_cone_distances(gens, targets[lo:lo + per], own[lo:lo + per])
             for lo in range(0, max(own.size, 1), per)]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _solve_labels(q: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decide labels (columns of q) together; returns the feasible mask and
    each label's separator candidate -y.

    The first failing label in `labels` raises its error, as a label-by-label
    loop would: LpSingularBasisError for a singular basis, LpPivotLimitError
    for a pivot-cap overrun.
    """
    dist, y, pivots, failed = _lockstep(q, q[:, labels].T, labels)
    if failed.any():
        i = failed.nonzero()[0][0]
        error = LpSingularBasisError if failed[i] == _SINGULAR else LpPivotLimitError
        raise error(int(pivots[i]), int(labels[i]))
    return dist >= LP_MARGIN, -y


def lp_separator(q, c: int) -> Optional[np.ndarray]:
    """Return an explicit separating vector r for label c, or None.

    When not None, r satisfies r . q_c <= -LP_MARGIN, r . q_j >= 0 for all
    j != c, and |r|_inf <= 1 (up to solver tolerance).  A run past
    DEFAULT_MAX_PIVOTS pivots raises LpPivotLimitError, and a singular basis
    at refactorisation raises LpSingularBasisError.
    """
    q = as_matrix(q, "q")
    if not (0 <= c < q.shape[1]):
        raise ValueError(f"label {c} out of range for {q.shape[1]} columns")
    feasible, r = _solve_labels(q, np.array([c], dtype=np.intp))
    return r[0] if feasible[0] else None


def lp_feasible(q, c: int) -> bool:
    """Decide whether label column c is strictly separable from the rest
    (`lp_separator` found a separator)."""
    return lp_separator(q, c) is not None


def screen(q) -> set[int]:
    """Sound pre-filter over label columns: the labels the full LP may keep.

    Every label's LP is first solved against only the _SCREEN_ANCHORS
    largest-norm columns other than its own.  Those are a subset of all the
    other columns, so a screen LP that finishes below the margin proves the
    full LP infeasible as well, and the label is dropped.  A screen LP that
    hits the pivot cap or a singular basis keeps its label; the screen never
    raises.  With C at or below the anchor count the screen LP would be the
    full LP, so every label passes.
    """
    q = as_matrix(q, "q")
    s, n_cols = q.shape
    if n_cols <= _SCREEN_ANCHORS:
        return set(range(n_cols))
    norms = np.sqrt((q * q).sum(axis=0))
    anchors = np.argsort(-norms, kind="stable")[:_SCREEN_ANCHORS]
    # a label that is not an anchor excludes the appended zero column, whose
    # reduced cost is exactly 0, so it never enters and excluding it is moot
    gens = np.zeros((s, _SCREEN_ANCHORS + 1))
    gens[:, :-1] = q[:, anchors]
    own = np.full(n_cols, _SCREEN_ANCHORS)
    own[anchors] = np.arange(_SCREEN_ANCHORS)
    dist, _, _, failed = _lockstep(gens, q.T, own)
    rejected = (failed == 0) & (dist < LP_MARGIN)
    return set(np.flatnonzero(~rejected).tolist())


def rlg_attack(delta_w, cfg: RlgConfig = RlgConfig()) -> LabelSetPrediction:
    """Full pipeline: rank inference, right-singular extraction, the screen,
    and per-label LP feasibility.

    The screen's survivors run their full LPs together in lockstep, and each
    decision is the one `lp_feasible` gives for that label alone, so the
    result does not depend on which labels are solved together.  A label
    the screen drops is infeasible by proof, and is not in `labels`.  A
    survivor's LP that fails is not decided: the lowest failing survivor's
    LpSingularBasisError or LpPivotLimitError is raised, as a label-by-label
    loop would.  The screen itself never raises.
    """
    s, q, rank_estimate = extract_q(delta_w, cfg)
    cols = np.array(sorted(screen(q)), dtype=np.intp)
    feasible, _ = _solve_labels(q, cols)
    return LabelSetPrediction(inferred_s=s, labels=frozenset(cols[feasible].tolist()),
                              rank_estimate=rank_estimate)
