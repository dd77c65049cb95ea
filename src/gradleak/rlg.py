"""Label-set recovery from a projection-layer update.

Pipeline: rank -> Q -> `screen` -> label LPs.  Infer the contributing sample
count S from the numeric rank of the update and take the top-S
right-singular rows Q (never more than the rows the SVD computed).  `screen`
is the one pre-filter: it rejects most non-labels with shared-basis
certificates (see `_certify`), then, only when C exceeds its 500 anchors
(_SCREEN_ANCHORS), solves each label still undecided against the
largest-norm columns alone.  The label LPs decide its survivors by
linear-programming feasibility.  The anchor LPs and the label LPs are one
call each of one simplex kernel, which solves all of that stage's LPs
together in lockstep, priced by one matrix product per chunk of labels, so a
label's pivot path can differ from a solve of its own on an exact tie, but
not its decision.  A label c is kept when some vector r in the unit box
|r_k| <= 1 satisfies

    r . q_c <= -LP_MARGIN      and      r . q_j >= 0  for every j != c,

i.e. the column q_c can be strictly separated from all other columns by a
hyperplane through the origin; a true label always passes this test.  The
fixed margin LP_MARGIN and the unit box make the homogeneous separation
problem a bounded, decidable feasibility question: by LP duality it holds
exactly when

    min{ ||q_c - sum_j lam_j q_j||_1 : lam >= 0 } >= LP_MARGIN,

and that inner minimization is a phase-1 simplex problem over the columns
of one matrix [G | I | -I] with costs [0 | 1 | 1] (G the unit-norm
generators; the L1 slack pair doubles as the artificial basis).  It is
solved here by revised simplex that enters the variable with the largest
reduced cost (Dantzig 1963); a target whose objective stalls falls back to
Bland's rule (Bland 1977), which cannot cycle in exact arithmetic, until it
falls again.  The ratio test refuses a pivot below 1e-9 of the entering
column's largest entry (a pivot-size safeguard after Harris 1973): such a
pivot blows the basis inverse up by its reciprocal, and the roundoff it
brings can read a true label as infeasible.
The optimal simplex multipliers directly yield a primal separator witness,
exposed via :func:`lp_separator`.

Any lam >= 0 bounds that minimum from above, so a certificate is one such
point: with a basis B of S columns of Q other than q_c and lam = max(B^-1 q_c,
0), a residual ||q_c - B lam||_1 below LP_MARGIN / 2, after an allowance for
its own rounding, proves label c infeasible, as the LP itself would find.

Every label decision is a certificate, the LP's answer or a named error: an
LP that runs past DEFAULT_MAX_PIVOTS raises LpPivotLimitError, and one whose
basis turns singular raises LpSingularBasisError; both name that label.
Neither is read as "not a label", since the label whose LP failed may be a
true one (in floating point even Bland's rule can cycle on ties until the
cap).  A label a certificate rejects runs no LP, so it never raises.
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
_PIVOT_REL = 1e-9  # smallest pivot the ratio test takes, relative to its column
_REFACTOR_EVERY = 64
_STALL = 50  # rounds without a fall in the objective before Bland's rule
# labels per chunk: 2^18 // max(C, s^2), so the (labels, C + 2s) pricing
# array stays near 2 MiB.  The 2s slack columns are left out on purpose:
# chunk membership sets the pricing product's rounding, so chunks stay put
_BATCH_ENTRIES = 1 << 18
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
    (0, 1) (None uses `default_rank_tol`, max(d, C) * eps).  assume_s, at
    least 1, sets S in place of the rank; Q still stops at the rank the SVD
    computed, and S must stay below min(d, C) (see `extract_q`).
    """

    rank_tol_rel: Optional[float] = None
    assume_s: Optional[int] = None

    def __post_init__(self):
        if self.rank_tol_rel is not None and not 0.0 < self.rank_tol_rel < 1.0:
            raise ValueError(f"rank_tol_rel must lie in (0, 1), got {self.rank_tol_rel}")
        if self.assume_s is not None and self.assume_s < 1:
            raise ValueError(f"assume_s must be at least 1, got {self.assume_s}")


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
    with np.errstate(over="ignore"):  # an overflowed norm is inf, far above the floor
        norm = float(np.linalg.norm(a))
    if norm < DEGENERATE_FLOOR:
        raise DegenerateUpdateError("degenerate update: Frobenius norm below 1e-30")
    d, c = a.shape
    res = svd(a)
    rank = res.rank if cfg.rank_tol_rel is None else numeric_rank(res.singular, cfg.rank_tol_rel)
    if cfg.assume_s is not None:
        if cfg.assume_s > min(d, c) - 1:
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

    Every target has the same variables, the columns of A = [G | I | -I]
    with costs [0 | 1 | 1], built once per call: G is `gens` with each
    column divided by its norm (a zero column keeps scale 1; a positive
    scale changes neither the cone nor the distance), and ids n_cols + k and
    n_cols + s + k are the L1 slack pair of row k, which doubles as the
    starting artificial basis.  A basis is its s column ids: its matrix is
    gathered from A at each refactorisation, and a product-form inverse is
    updated in between.  The entering variable has the largest reduced cost
    y . a_j - c_j over all but the own column (Dantzig's rule); a target
    whose objective has not fallen for _STALL rounds enters the lowest
    improvable id instead (Bland's rule) until it falls again.  The ratio
    test takes a row only where the entering column's entry u = B^-1 a is
    above max(_PIVOT_TOL, _PIVOT_REL * max|u|), and the leaving variable is
    always the lowest basis id among ratio ties.  Pricing runs against the
    read-only A, so nothing is copied per target and nothing accumulates
    roundoff.

    The targets run in chunks of max(1, _BATCH_ENTRIES // max(n_cols, s^2))
    rows, one after the other, which bound the (targets, n_cols) pricing
    array and the (targets, s, s) basis stacks.  Every live target of a
    chunk takes one pivot per round, so all of them share one pivot count,
    and every target that ends in a round leaves through one exit, in this
    order of precedence:

    - a basis matrix found singular at a refactorisation: failed _SINGULAR,
      pivots the count at that round;
    - decided: the objective is below the early-stop line, or no reduced
      cost is positive (optimal): failed 0, pivots the count at that round;
    - an empty ratio test (unbounded; cannot occur, defensive): failed
      _CAP_HIT, pivots the count at that round;
    - still running when the count reaches DEFAULT_MAX_PIVOTS (read at call
      time): failed _CAP_HIT, pivots that count + 1, the pivot it would
      take past the cap.

    Returns (distance, y, pivots, failed), one entry per target.  y are the
    optimal multipliers of the equality rows: |y|_inf <= 1, y . g_j <= 0
    for every j != own_i, and y . t_i equals the distance.  A failed target
    keeps distance 0 and y 0.

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
    eye = np.eye(s)
    amat = np.hstack([gens / scale, eye, -eye])
    cost = np.r_[np.zeros(n_cols), np.ones(2 * s)]
    n = own.size
    dist = np.zeros(n)
    y_out = np.zeros((n, s))
    pivots_out = np.zeros(n, dtype=np.intp)
    failed = np.zeros(n, dtype=np.int8)
    per = max(1, _BATCH_ENTRIES // max(n_cols, s * s))
    for lo in range(0, n, per):
        # per live target: output slot, own column, target, basis ids, the
        # basis inverse, the lowest objective so far and the rounds since it
        # last fell; the starting basis matrix is its own inverse
        live = np.arange(lo, min(lo + per, n))
        lab = own[lo:lo + per]
        target = np.ascontiguousarray(targets[lo:lo + per])
        basis = np.where(target >= 0.0, n_cols, n_cols + s) + np.arange(s)
        binv = amat[:, basis].transpose(1, 0, 2).copy()
        lowest = np.full(live.size, np.inf)
        stalled = np.zeros(live.size, dtype=np.intp)
        pivots = 0
        while live.size:
            rows = np.arange(live.size)
            singular = None
            if pivots and pivots % _REFACTOR_EVERY == 0:
                # the gathered basis matrix is exact; refreshing the
                # product-form inverse stops pivot-to-pivot roundoff growth
                binv, singular = _invert(amat[:, basis].transpose(1, 0, 2))
            cb = cost[basis]
            # stacked matmul runs one BLAS call per target; the pricing
            # product is one gemm per chunk, so its last-bit rounding can
            # depend on the chunk's rows and width, and an exact tie may
            # take another pivot path (to the same decision)
            xb = (binv @ target[:, :, None])[:, :, 0]
            value = (cb[:, None, :] @ xb[:, :, None])[:, 0, 0]
            y = (cb[:, None, :] @ binv)[:, 0, :]
            fell = value < lowest * (1.0 - _RCOST_TOL)  # a fall within rounding is none
            lowest = np.where(fell, value, lowest)
            stalled = np.where(fell, 0, stalled + 1)
            red = y @ amat
            red -= cost
            red[rows, lab] = -np.inf
            enter = red.argmax(axis=1)
            score = red[rows, enter]
            bland = np.flatnonzero(stalled >= _STALL)
            if bland.size:
                enter[bland] = (red[bland] > _RCOST_TOL).argmax(axis=1)  # lowest improvable id
            done = (value < stop_below) | (score <= _RCOST_TOL)

            acol = amat[:, enter].T
            u = (binv @ acol[:, :, None])[:, :, 0]
            # a pivot below _PIVOT_REL of its column's largest entry would
            # blow the basis inverse up by its reciprocal, so it is refused.
            # The largest |u| is taken over the rows of a transposed copy,
            # which numpy reduces faster than many short rows
            big = np.abs(u.T, order="C").max(axis=0)
            eligible = u > np.maximum(_PIVOT_TOL, _PIVOT_REL * big)[:, None]
            ratios = np.where(eligible, xb / np.where(eligible, u, 1.0), np.inf)
            best = ratios.min(axis=1, keepdims=True)
            tied = eligible & (ratios <= best + 1e-15)
            leave = np.where(tied, basis, n_cols + 2 * s).argmin(axis=1)  # lowest id

            stop = done | ~eligible.any(axis=1)  # or an empty ratio test
            if singular is not None:
                stop |= singular
                done &= ~singular
            if pivots >= max_pivots or stop.any():
                # the one exit.  Codes are written in reverse order of
                # precedence, so the first ending that applies wins; at the
                # cap every target ends, and one that had not stopped counts
                # the pivot it would take past it
                end = stop | (pivots >= max_pivots)
                out = live[end]
                failed[out] = _CAP_HIT
                pivots_out[out] = pivots + ~stop[end]
                out = live[done]
                failed[out] = 0
                dist[out] = np.maximum(value[done], 0.0)
                y_out[out] = y[done]
                if singular is not None:
                    failed[live[singular]] = _SINGULAR
                keep = ~end
                live, lab, target, basis, binv, lowest, stalled, enter, u, leave = (
                    a[keep] for a in
                    (live, lab, target, basis, binv, lowest, stalled, enter, u, leave))
                rows = rows[:live.size]

            basis[rows, leave] = enter
            u_leave = u[rows, leave]
            eta = -u / u_leave[:, None]
            eta[rows, leave] = 1.0 / u_leave - 1.0
            binv += eta[:, :, None] * binv[rows, leave][:, None, :]
            pivots += 1
    return dist, y_out, pivots_out, failed


def _solve_labels(q: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decide labels (columns of q) together; returns the feasible mask and
    each label's separator candidate -y.

    The first failing label in `labels` raises its error, as a label-by-label
    loop would: LpSingularBasisError for a singular basis, LpPivotLimitError
    for a pivot-cap overrun.
    """
    dist, y, pivots, failed = _cone_distances(q, q[:, labels].T, labels)
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


def _certify(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Reject labels by shared-basis certificates; returns by.

    w holds s + 1 column ids of q (s its row count; `screen` passes the
    s + 1 largest-norm columns), and basis k is w without w[k].  For every
    label c outside basis B, lam = max(B^-1 q_c, 0) is feasible for c's LP,
    so its L1 residual bounds c's cone distance from above; a residual below
    LP_MARGIN / 2, after an allowance of 2 (s + 1) eps (||q_c||_1 +
    || |B| lam ||_1) for the rounding of the residual itself, proves c
    infeasible.  lam needs no accuracy, so an ill-conditioned B can fail to
    reject, but not reject wrongly.  by[c] is the k of a basis that rejects
    c, or -1 when none does (always, when C <= s + 1).  A basis found
    singular, or with a non-finite inverse, is skipped.  The bases run in
    groups, in order of k, each over the labels no earlier group rejected; a
    group holds as many bases as keep its (bases, s, labels) arrays within
    _BATCH_ENTRIES entries, and at least one.
    """
    s, n_cols = q.shape
    by = np.full(n_cols, -1, dtype=np.intp)
    if n_cols <= s + 1:
        return by
    bases = w[np.nonzero(~np.eye(s + 1, dtype=bool))[1].reshape(s + 1, s)]  # row k: w but w[k]
    bmat = q[:, bases].transpose(1, 0, 2)
    binv, singular = _invert(bmat)
    ids = np.flatnonzero(~singular & np.isfinite(binv).all(axis=(1, 2)))
    l1 = np.abs(q).sum(axis=0)
    slack = 2 * (s + 1) * np.finfo(float).eps
    undecided = np.arange(n_cols)
    while ids.size and undecided.size:
        ks, ids = np.split(ids, [max(1, _BATCH_ENTRIES // (s * undecided.size))])
        target, lb = q[:, undecided], l1[bases[ks]]
        # any lam >= 0 is feasible, so the clip keeps the proof; a lam_j past
        # its cap would put the allowance alone over the line, and capped,
        # the products below cannot overflow
        lam = np.clip(binv[ks] @ target, 0.0, (0.5 * LP_MARGIN / slack / lb)[:, :, None])
        bound = np.abs(target - bmat[ks] @ lam).sum(axis=1)
        bound += slack * (l1[undecided] + (lb[:, None, :] @ lam)[:, 0, :])
        rejects = (bound < 0.5 * LP_MARGIN) & (bases[ks, :, None] != undecided).all(axis=1)
        hit = rejects.any(axis=0)
        by[undecided[hit]] = ks[rejects.argmax(axis=0)[hit]]
        undecided = undecided[~hit]
    return by


def screen(q) -> np.ndarray:
    """The attack's one pre-filter: the sorted ids of the labels the full LP
    may keep.

    Q's columns are ordered once by norm, largest first (ties by lower id).
    The certificates (`_certify`), with W the first s + 1 columns of that
    order, reject most non-labels.  Only when C exceeds the _SCREEN_ANCHORS
    (500) anchors, the first columns of that order, is every label still
    undecided solved against the anchors other than its own.  Those are a
    subset of all the other columns, so an anchor LP that finishes below the
    margin proves the full LP infeasible as well, and the label is dropped.
    An anchor LP that hits the pivot cap or a singular basis keeps its
    label; the screen never raises.  With C at or below the anchor count an
    anchor LP would be the full LP, so the screen returns exactly the labels
    the certificates leave.
    """
    q = as_matrix(q, "q")
    s, n_cols = q.shape
    order = np.argsort(-np.sqrt((q * q).sum(axis=0)), kind="stable")
    labels = np.flatnonzero(_certify(q, order[:s + 1]) < 0)
    if n_cols <= _SCREEN_ANCHORS:
        return labels
    anchors = order[:_SCREEN_ANCHORS]
    # a label that is not an anchor excludes the appended zero column, whose
    # reduced cost is exactly 0, so it never enters and excluding it is moot
    gens = np.zeros((s, _SCREEN_ANCHORS + 1))
    gens[:, :-1] = q[:, anchors]
    own = np.full(n_cols, _SCREEN_ANCHORS)
    own[anchors] = np.arange(_SCREEN_ANCHORS)
    dist, _, _, failed = _cone_distances(gens, q[:, labels].T, own[labels])
    return labels[~((failed == 0) & (dist < LP_MARGIN))]


def rlg_attack(delta_w, cfg: RlgConfig = RlgConfig()) -> LabelSetPrediction:
    """Full pipeline: rank -> Q (`extract_q`) -> `screen` -> label LPs.

    A label the screen rejects, by a certificate or by an anchor LP, is
    infeasible by proof, and is not in `labels`.  The survivors run their
    full LPs together in lockstep.  Their pricing product is one gemm per
    chunk, whose last-bit rounding can depend on the chunk's rows and width,
    so an exact tie may take another pivot path than `lp_feasible` on that
    label alone; the decision is the same.  A survivor's LP that fails is not
    decided: the lowest failing survivor's LpSingularBasisError or
    LpPivotLimitError is raised, as a label-by-label loop would.  A label the
    screen rejects runs no label LP and never raises, and neither does the
    screen.
    """
    s, q, rank_estimate = extract_q(delta_w, cfg)
    cols = screen(q)
    feasible, _ = _solve_labels(q, cols)
    return LabelSetPrediction(inferred_s=s, labels=frozenset(cols[feasible].tolist()),
                              rank_estimate=rank_estimate)
