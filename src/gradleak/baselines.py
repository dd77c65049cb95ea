"""Prior analytic label-recovery attacks used as comparison points:
single-sample dot-product recovery and negative-column-minimum batch
recovery."""

from __future__ import annotations

import warnings

import numpy as np

from .linalg import as_matrix, default_rank_tol, numeric_rank, svd
from .rlg import LabelSetPrediction


class NotSingleSampleError(ValueError):
    """The column dot-product signature does not match a one-sample update."""


def idlg_single(delta_w) -> int:
    """Recover the label of a one-sample update from column dot products.

    For a rank-1 update h^T g the Gram entry <dW_c, dW_j> carries the sign
    of g_c g_j, so the true-label column is the unique one whose dot product
    with every other nonzero column is negative.  All-zero columns are
    ignored; a non-rank-1 input triggers a warning, and an ambiguous
    signature raises NotSingleSampleError.
    """
    a = as_matrix(delta_w, "delta_w")
    rank = numeric_rank(svd(a).singular, default_rank_tol(*a.shape))
    if rank != 1:
        warnings.warn(f"update has numeric rank {rank}, not 1; single-sample "
                      "recovery is unreliable", RuntimeWarning, stacklevel=2)
    gram = a.T @ a
    nonzero = np.flatnonzero(np.diag(gram) > 0.0)
    candidates = []
    for c in nonzero:
        others = nonzero[nonzero != c]
        if (gram[c, others] < 0.0).all():
            candidates.append(int(c))
    if len(candidates) != 1:
        raise NotSingleSampleError(
            f"not a single-sample gradient: {len(candidates)} columns have the "
            "all-negative dot-product signature")
    return candidates[0]


def min_column_attack(delta_w) -> LabelSetPrediction:
    """Batch label recovery by column minima: keep columns with a strictly
    negative entry.

    Valid when the latents feeding the projection layer are non-negative;
    applying it anyway to signed latents is how its failure mode is
    measured.  The method carries no sample count, so inferred_s is just the
    size of the recovered set.
    """
    a = as_matrix(delta_w, "delta_w")
    labels = frozenset(np.flatnonzero(a.min(axis=0) < 0.0).tolist())
    return LabelSetPrediction(inferred_s=len(labels), labels=labels)
