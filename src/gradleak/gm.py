"""Toy-scale gradient-matching sequence reconstruction.

The decoder is the simulator's frozen projection layer
(:class:`~gradleak.simulator.ToyDecoder`), so the synthesized weight
gradient has the closed form

    D(A, P) = A^T (softmax(A W + b) - P~)

where A holds one free context vector per sequence position and P~ is the
smooth-label matrix P expanded to all C classes: P holds one column per
searched label, and P~ is zero outside those columns.  The free problem is
the restricted one over all C columns, so one forward pass serves both.
A step never builds P~: on the free problem M = softmax - P directly, and
under a restricted set M is a copy of the softmax rows with P subtracted in
the searched columns only, which gives the same bits as subtracting a
zero-filled P~.  The forward pass, E and the gradients are accumulated in
place in arrays of their own, never in the caller's A, P or decoder.
Reconstruction minimizes

    || D(A, P) - target ||_F^2  +  lam * R(P),    R(P) = sum_i | ||p_i||_1 - 1 |,

by plain gradient descent from small random starts; the squared distance is
optimized for smooth gradients while results report the plain Frobenius
distance.  Restricting P's columns to a recovered label set shrinks the
search from S*(d_A + C) to S*(d_A + |set|) variables and is the whole point.

Descent schedule: the step size starts at LR_INIT and halves every
LR_HALVE_EVERY steps down to LR_FLOOR; a run has converged once its
transcript has not changed for STABLE_STEPS steps, and stops at the
problem's max_steps either way.

Restarts advance together: one descent steps a stack of R (A, P) pairs,
one :func:`gm_gradients` call per step, and each restart still stops on its
own (stable transcript, step cap or divergence) and leaves the stack.  Every
slice of the stack computes exactly what a lone restart would, so the
result does not depend on how many restarts share the descent.  A result
records each restart's steps, distance and convergence in `runs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .linalg import as_matrix
from .metrics import wer
from .simulator import ToyDecoder, _softmax_rows, logit_grad

LR_INIT = 0.05
LR_HALVE_EVERY = 4000
LR_FLOOR = 0.005
STABLE_STEPS = 2000


def _columns(bow: Optional[Sequence[int]], classes: int) -> np.ndarray:
    """The searched label columns: the restricted set in order, or all C."""
    if bow is None:
        return np.arange(classes)
    cols = np.array([int(c) for c in bow], dtype=np.int64)
    if cols.size == 0:
        raise ValueError("restricted label set must be non-empty when present")
    if ((cols < 0) | (cols >= classes)).any():
        raise ValueError("restricted label set out of range")
    if np.unique(cols).size != cols.size:
        raise ValueError("restricted label set must not repeat labels")
    return cols


def _residual(a: np.ndarray, p: np.ndarray,
              prob: GMProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (softmax, M, E): softmax(A W + b), M = softmax - P~ with P~ zero outside
    # the searched columns, and E = A^T M - target; a and p are one (S, .)
    # pair or a stack (R, S, .) of them
    sm = _softmax_rows(prob.decoder.logits(a))
    if prob.bow is None:
        m = sm - p
    else:
        m = sm.copy()
        m[..., prob.cols] -= p
    e = a.swapaxes(-1, -2) @ m
    e -= prob.target_grad
    return sm, m, e


@dataclass(frozen=True)
class GMProblem:
    """One reconstruction instance: target gradient, frozen decoder, length,
    optional restricted label set, regularizer weight and step cap.

    `cols` holds the searched label columns (the restricted set, or all C
    classes) and is derived from `bow`.
    """

    target_grad: np.ndarray
    decoder: ToyDecoder
    s: int
    bow: Optional[tuple[int, ...]] = None
    # scaled to the desk-scale targets' gradient distance: a weight of 1
    # swamps the matching term near the optimum and keeps transcripts from
    # stabilizing
    lam: float = 0.1
    max_steps: int = 50000
    cols: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = as_matrix(self.target_grad, "target_grad")
        if t.shape != self.decoder.w.shape:
            raise ValueError(f"target gradient shape {t.shape} must match decoder {self.decoder.w.shape}")
        object.__setattr__(self, "target_grad", t)
        if self.s < 1:
            raise ValueError("sequence length must be >= 1")
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"regularization weight must be finite and >= 0, got {self.lam}")
        if self.max_steps < 1:
            raise ValueError("step cap must be >= 1")
        cols = _columns(self.bow, self.decoder.classes)
        object.__setattr__(self, "cols", cols)
        if self.bow is not None:
            object.__setattr__(self, "bow", tuple(cols.tolist()))

    @property
    def width(self) -> int:
        return self.cols.size

    @property
    def n_vars(self) -> int:
        return self.s * (self.decoder.d_a + self.width)


@dataclass(frozen=True)
class GMResult:
    """Reconstructed transcript with bookkeeping.

    final_loss is the plain (unsquared) Frobenius gradient distance of the
    kept restart, and objective is :func:`gm_objective` there; both come
    from one sum of squares.  n_vars records the optimized search-space
    size.  runs holds one (steps, distance, converged) per restart, in
    restart order; a diverged restart reads (step, inf, False).
    """

    transcript: tuple[int, ...]
    final_loss: float
    steps: int
    wer_vs_truth: Optional[float]
    exact_match: Optional[bool]
    n_vars: int
    converged: bool
    restarts: int
    objective: float
    runs: tuple[tuple[int, float, bool], ...]


def regularizer(p) -> float:
    """Sum over rows of | ||p_i||_1 - 1 |; zero exactly on unit-L1 rows."""
    p = as_matrix(p, "smooth labels")
    return float(np.abs(np.abs(p).sum(axis=1) - 1.0).sum())


def gm_objective(a, p, prob: GMProblem) -> float:
    """Squared Frobenius gradient distance plus lam * R(P).

    The ground-truth pair (context vectors, one-hot rows) that generated the
    target is a global minimizer with value 0.
    """
    return _score(as_matrix(a, "context vectors"), as_matrix(p, "smooth labels"), prob)[1]


def gm_gradients(a, p, prob: GMProblem) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of :func:`gm_objective` w.r.t. A and P.

    Derivation: with M = softmax(Z) - P~ and E = A^T M - target, the distance
    term contributes 2 (M E^T + G W^T) to dA where G applies the per-row
    softmax Jacobian to A E, and -2 A E (restricted to the searched columns)
    to dP.  The regularizer contributes its subgradient
    lam * sign(||p_i||_1 - 1) * sign(p_ij).

    `a` and `p` are one (S, d_A), (S, K) pair, or a stack (R, S, d_A),
    (R, S, K) of R pairs whose gradients come out stacked the same way; each
    slice equals its own 2-D call bit for bit.  Shapes are checked, but the
    entries are not scanned: a NaN or Inf gives non-finite gradients, which
    is how :func:`reconstruct` sees a restart diverge.
    """
    a = np.asarray(a, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if a.ndim not in (2, 3) or a.shape[-1] != prob.decoder.d_a or a.shape[-2] < 1:
        raise ValueError(f"context vectors must be (S, {prob.decoder.d_a}) or a stack "
                         f"of them, got shape {a.shape!r}")
    if p.shape != a.shape[:-1] + (prob.width,):
        raise ValueError(f"smooth labels must be shaped {a.shape[:-1] + (prob.width,)!r}, "
                         f"got {p.shape!r}")
    w = prob.decoder.w
    sm, m, e = _residual(a, p, prob)
    ae = a @ e
    jac = sm * (ae - (ae * sm).sum(axis=-1, keepdims=True))
    grad_a = m @ e.swapaxes(-1, -2)
    grad_a += jac @ w.T
    grad_a *= 2.0
    # ae is no longer needed, so the free problem scales it in place
    grad_p = ae if prob.bow is None else ae.take(prob.cols, axis=-1)
    grad_p *= -2.0
    grad_p += prob.lam * np.sign(np.abs(p).sum(axis=-1, keepdims=True) - 1.0) * np.sign(p)
    return grad_a, grad_p


def make_problem(decoder: ToyDecoder, context: np.ndarray, labels: Sequence[int],
                 **fields) -> GMProblem:
    """Build an instance whose target is generated from known ground truth:
    the summed decoder gradient of `labels` at `context`, one row per label.
    `fields` are GMProblem's optional fields (bow, lam, max_steps)."""
    h = as_matrix(context, "context vectors")
    # refused here in the caller's terms; logit_grad speaks of latents
    if np.shape(labels) != (h.shape[0],):
        raise ValueError(f"need one label per context vector, got {np.shape(labels)} "
                         f"for {h.shape[0]} context vectors")
    if h.shape[1] != decoder.d_a:
        raise ValueError(f"context vectors have dimension {h.shape[1]}, "
                         f"the decoder's d_A is {decoder.d_a}")
    return GMProblem(target_grad=h.T @ logit_grad(h, labels, decoder), decoder=decoder,
                     s=len(labels), **fields)


def _score(a: np.ndarray, p: np.ndarray, prob: GMProblem) -> tuple[float, float]:
    # plain gradient distance and objective of one (A, P), from one sum of E^2
    _, _, e = _residual(a, p, prob)
    squared = float((e * e).sum())
    return float(np.sqrt(squared)), squared + prob.lam * regularizer(p)


def _descend(prob: GMProblem, a: np.ndarray, p: np.ndarray) -> list[tuple]:
    """Run the restarts stacked in `a` (R, S, d_A) and `p` (R, S, K) to their
    ends; returns (transcript, distance, objective, steps, converged) per
    restart, in stack order.

    All live restarts take step t together with the shared step size.  After
    each step a restart that diverged, whose transcript has been stable for
    STABLE_STEPS steps, or that reached max_steps, is scored and leaves the
    stack, exactly where a lone run of it would have stopped.
    """
    outcomes: list = [None] * a.shape[0]
    live = np.arange(a.shape[0])  # restart index of each stack slice
    picks = p.argmax(axis=-1)  # each slice's transcript, as column indices
    last_change = np.zeros(live.size, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, prob.max_steps + 1):
            lr = max(LR_FLOOR, LR_INIT * 0.5 ** ((step - 1) // LR_HALVE_EVERY))
            ga, gp = gm_gradients(a, p, prob)
            a -= np.multiply(ga, lr, out=ga)
            p -= np.multiply(gp, lr, out=gp)
            finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(p).all(axis=(1, 2))
            current = p.argmax(axis=-1)
            changed = (current != picks).any(axis=1)
            if changed.any():
                changed &= finite
                picks[changed] = current[changed]
                last_change[changed] = step
            done = ~finite
            if step >= STABLE_STEPS:  # no transcript can be stable that long before
                done |= step - last_change >= STABLE_STEPS
            if step == prob.max_steps:
                done[:] = True
            elif not done.any():
                continue
            for i in done.nonzero()[0]:
                transcript = tuple(prob.cols[picks[i]].tolist())
                if finite[i]:
                    distance, objective = _score(a[i], p[i], prob)
                else:
                    # diverged run: non-converged with infinite distance, so
                    # any finite restart beats it
                    distance = objective = float("inf")
                outcomes[live[i]] = (transcript, distance, objective, step,
                                     bool(finite[i] and step - last_change[i] >= STABLE_STEPS))
            keep = ~done
            live, a, p, picks, last_change = (x[keep] for x in (live, a, p, picks, last_change))
            if not live.size:
                break
    return outcomes


def reconstruct(prob: GMProblem, seed: int = 0, *, restarts: int = 1,
                truth: Optional[Sequence[int]] = None) -> GMResult:
    """Gradient-descent reconstruction with independent restarts.

    Restart r starts from draws on the seed's Philox stream jumped r blocks,
    so restarts are reproducible and order-independent.  The restarts
    descend together (see :func:`_descend`), each stopping on its own; the
    one with the lowest final gradient distance wins, the first in restart
    order on ties.  A run that exhausts the step cap without the transcript
    stabilizing is flagged non-converged but still returned.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    a = np.empty((restarts, prob.s, prob.decoder.d_a))
    p = np.empty((restarts, prob.s, prob.width))
    for ridx in range(restarts):
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(ridx))
        a[ridx] = rng.normal(0.0, 0.01, size=a.shape[1:])
        p[ridx] = rng.normal(0.0, 0.01, size=p.shape[1:])
    outcomes = _descend(prob, a, p)
    transcript, distance, objective, steps, converged = min(outcomes, key=lambda o: o[1])
    wer_value = None
    em = None
    if truth is not None:
        truth_seq = [int(y) for y in truth]
        wer_value = wer(truth_seq, list(transcript))
        em = tuple(truth_seq) == transcript
    return GMResult(transcript=transcript, final_loss=distance, steps=steps,
                    wer_vs_truth=wer_value, exact_match=em, n_vars=prob.n_vars,
                    converged=converged, restarts=restarts, objective=objective,
                    runs=tuple((o[3], o[1], o[4]) for o in outcomes))
