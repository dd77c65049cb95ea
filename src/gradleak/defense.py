"""Gradient-compression transforms applied to a captured update before it
reaches an attacker: sign quantization and smallest-magnitude dropping."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import as_matrix

DEFENSE_KINDS = ("sign", "drop")


@dataclass(frozen=True)
class DefenseSpec:
    """A defense and its rate.  Only `drop` has a rate: an omitted one is
    0.5 for `drop` and 0.0 for `sign`, which refuses any other."""

    kind: str
    rate: Optional[float] = None

    def __post_init__(self):
        if self.kind not in DEFENSE_KINDS:
            raise ValueError(f"unknown defense {self.kind!r}, expected one of {DEFENSE_KINDS}")
        if self.rate is None:
            object.__setattr__(self, "rate", 0.5 if self.kind == "drop" else 0.0)
        if self.kind == "sign" and self.rate != 0.0:
            raise ValueError(f"sign takes no rate, got {self.rate}")
        if self.kind == "drop" and not (0.0 <= self.rate < 1.0):
            raise ValueError("drop rate must lie in [0, 1)")


def sign_sgd(delta_w) -> np.ndarray:
    """Elementwise sign; zeros stay zero, so the output range is {-1, 0, +1}."""
    return np.sign(as_matrix(delta_w))


def grad_drop(delta_w, rate: float) -> np.ndarray:
    """Zero exactly floor(rate * size) entries of smallest absolute value.

    Ties break by row-major index (stable), and surviving entries are
    bit-identical to the input.
    """
    if not (0.0 <= rate < 1.0):
        raise ValueError("drop rate must lie in [0, 1)")
    out = as_matrix(delta_w).copy()
    flat = out.reshape(-1)
    k = math.floor(rate * flat.size)
    if k:
        order = np.argsort(np.abs(flat), kind="stable")
        flat[order[:k]] = 0.0
    return out


def apply_defense(delta_w, spec: DefenseSpec) -> np.ndarray:
    if spec.kind == "sign":
        return sign_sgd(delta_w)
    return grad_drop(delta_w, spec.rate)
