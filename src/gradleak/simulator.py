"""Ground-truthed projection-layer gradient generator.

A scenario describes how a softmax/cross-entropy model's final-layer update
was produced (one sample, a mini-batch, a label sequence, or several SGD
steps aggregated with per-step learning rates).  ``simulate_case`` samples
latent inputs directly instead of running a backbone network, so the exact
contributing labels are known and every attack can be scored against them.

The layer is :class:`ToyDecoder`, logits A W + b (plus optional
per-position offsets).  It is the package's one projection-layer class:
``initial_state`` returns it, ``projection_grad`` differentiates through its
``logits``, and ``gm`` reconstructs sequences through the same forward pass.

PRNG contract: each case is a pure function of its scenario, drawn from a
Philox counter-based stream keyed by the scenario seed.  Draw order is fixed:
weights W (d x C, normal, std 0.1), bias b (C), then per step a latent block
(n x d standard normals, transformed per the latent kind) followed by that
step's labels (no draw when a fixed label list is supplied).  Same seed,
same case, bit for bit on a given platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import as_matrix

LATENT_KINDS = ("relu", "tanh", "gauss")
MODES = ("single", "batch", "sequence", "multistep")
INIT_STD = 0.1
DEFAULT_STEP_LR = 0.1


@dataclass(frozen=True)
class Scenario:
    """Configuration for one simulated gradient capture.

    `n` is the number of samples per step (or the sequence length), `k` the
    number of aggregated SGD steps (multistep only), `lrs` the per-step
    learning rates.  A fixed `labels` tuple of length n*k overrides uniform
    label sampling.
    """

    d: int
    classes: int
    mode: str = "single"
    n: int = 1
    k: int = 1
    lrs: Optional[tuple[float, ...]] = None
    latent: str = "gauss"
    labels: Optional[tuple[int, ...]] = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if self.latent not in LATENT_KINDS:
            raise ValueError(f"unknown latent kind {self.latent!r}, expected one of {LATENT_KINDS}")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.classes < 2:
            raise ValueError("classes must be >= 2")
        if self.n < 1 or self.k < 1:
            raise ValueError("n and k must be >= 1")
        if self.mode == "single" and (self.n != 1 or self.k != 1):
            raise ValueError("single mode requires n = 1 and k = 1")
        if self.mode in ("batch", "sequence") and self.k != 1:
            raise ValueError(f"{self.mode} mode requires k = 1")
        if self.lrs is not None:
            if self.mode != "multistep":
                raise ValueError("lrs only applies to multistep mode")
            object.__setattr__(self, "lrs", tuple(float(a) for a in self.lrs))
            if len(self.lrs) != self.k:
                raise ValueError(f"need {self.k} learning rates, got {len(self.lrs)}")
            if any(a <= 0.0 for a in self.lrs):
                raise ValueError("all learning rates must be positive")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(int(y) for y in self.labels))
            if len(self.labels) != self.total_labels:
                raise ValueError(
                    f"fixed label list must have length {self.total_labels}, got {len(self.labels)}")
            if any(y < 0 or y >= self.classes for y in self.labels):
                raise ValueError("fixed labels out of range")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must be an unsigned 64-bit integer")

    @property
    def total_labels(self) -> int:
        return self.n * self.k

    def step_lrs(self) -> tuple[float, ...]:
        if self.mode != "multistep":
            return ()
        return self.lrs if self.lrs is not None else (DEFAULT_STEP_LR,) * self.k


@dataclass(frozen=True)
class GradientCase:
    """A captured update with its hidden ground truth.

    `true_labels` lists one label per contributing sample or sequence
    position, in generation order (the set/multiset views derive from it).
    """

    scenario: Scenario
    delta_w: np.ndarray
    true_labels: tuple[int, ...]
    vocab: Optional[dict[int, str]] = None

    @property
    def true_s(self) -> int:
        return len(self.true_labels)

    @property
    def label_set(self) -> frozenset[int]:
        return frozenset(self.true_labels)


def softmax(z) -> np.ndarray:
    """Numerically stable softmax of a 1-D logit vector (max-subtracted)."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError("softmax expects a 1-D vector")
    if not np.isfinite(z).all():
        raise ValueError("logits contain non-finite entries")
    e = np.exp(z - z.max())
    return e / e.sum()


def ce_logit_grad(z, y: int) -> np.ndarray:
    """Gradient of cross-entropy loss w.r.t. the logits for true label y.

    Equals softmax(z) with 1 subtracted at coordinate y, so the output has a
    single negative coordinate, located at the true label.
    """
    p = softmax(z)
    if not (0 <= y < p.shape[0]):
        raise ValueError(f"label {y} out of range for {p.shape[0]} classes")
    g = p.copy()
    g[y] -= 1.0
    return g


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class ToyDecoder:
    """The frozen projection layer feeding the softmax: logits A W + b.

    The simulator draws it from a scenario's stream and computes updates at
    it; gradient matching reconstructs through it.  `pos`, when present, is
    a per-position logit offset (rows indexed by sequence position) added on
    top of the shared bias.  It stands in for the step-dependent state a
    real autoregressive decoder carries and is what makes token ORDER
    recoverable: without it the matching objective is exactly invariant
    under permuting sequence positions, so only the multiset of labels
    could ever be identified.
    """

    w: np.ndarray  # d_a x C
    b: np.ndarray  # C
    pos: Optional[np.ndarray] = None  # max_len x C

    def __post_init__(self):
        w = as_matrix(self.w, "decoder weights")
        b = np.ascontiguousarray(self.b, dtype=np.float64)
        if b.ndim != 1 or b.shape[0] != w.shape[1]:
            raise ValueError(f"decoder bias must be 1-D of length {w.shape[1]}")
        if not np.isfinite(b).all():
            raise ValueError("decoder bias contains non-finite entries")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", b)
        if self.pos is not None:
            pos = as_matrix(self.pos, "decoder positional offsets")
            if pos.shape[1] != w.shape[1]:
                raise ValueError("positional offsets must have one column per class")
            object.__setattr__(self, "pos", pos)

    @property
    def d_a(self) -> int:
        return self.w.shape[0]

    @property
    def classes(self) -> int:
        return self.w.shape[1]

    def logits(self, a: np.ndarray) -> np.ndarray:
        z = a @ self.w + self.b
        if self.pos is not None:
            if a.shape[0] > self.pos.shape[0]:
                raise ValueError(f"decoder supports sequences up to {self.pos.shape[0]}, "
                                 f"got {a.shape[0]}")
            z = z + self.pos[:a.shape[0]]
        return z


def sample_latents(rng: np.random.Generator, count: int, d: int, kind: str) -> np.ndarray:
    """Draw a (count x d) latent block: half-normal, tanh-squashed, or normal."""
    x = rng.standard_normal((count, d))
    if kind == "relu":
        return np.abs(x)
    if kind == "tanh":
        return np.tanh(x)
    if kind == "gauss":
        return x
    raise ValueError(f"unknown latent kind {kind!r}")


def projection_grad(h, labels, layer: ToyDecoder) -> tuple[np.ndarray, np.ndarray]:
    """Averaged projection-layer weight update for latent rows `h`.

    Row i of the returned G is the logit gradient of sample i at the given
    layer; delta_w = (H/n)^T G where n = number of rows.  The bias gradient
    is not produced (the attacks only consume delta_w).
    """
    h = as_matrix(h, "latents")
    y = np.asarray(labels, dtype=np.int64)
    if y.ndim != 1 or y.shape[0] != h.shape[0]:
        raise ValueError(f"need one label per latent row, got {y.shape} for {h.shape[0]} rows")
    if h.shape[1] != layer.d_a:
        raise ValueError(f"latent dimension {h.shape[1]} does not match weights {layer.w.shape}")
    if (y < 0).any() or (y >= layer.classes).any():
        raise ValueError("labels out of range")
    g = _softmax_rows(layer.logits(h))
    g[np.arange(h.shape[0]), y] -= 1.0
    delta_w = (h / h.shape[0]).T @ g
    return delta_w, g


def _check_sign_structure(g: np.ndarray, y: np.ndarray) -> None:
    # generation-time invariant: each logit-gradient row is negative exactly
    # at its true label
    neg = g < 0.0
    if not ((neg.sum(axis=1) == 1).all() and neg[np.arange(g.shape[0]), y].all()):
        raise RuntimeError("generated logit gradients violate the single-negative sign structure")


def _stream_head(sc: Scenario) -> tuple[np.random.Generator, ToyDecoder]:
    # the PRNG contract's first draws: W, then b; the stream goes on from here
    rng = np.random.Generator(np.random.Philox(key=sc.seed))
    w = rng.normal(0.0, INIT_STD, size=(sc.d, sc.classes))
    b = rng.normal(0.0, INIT_STD, size=sc.classes)
    return rng, ToyDecoder(w=w, b=b)


def initial_state(sc: Scenario) -> ToyDecoder:
    """The projection layer a scenario starts from (first draws of its stream)."""
    return _stream_head(sc)[1]


def simulate_case(sc: Scenario) -> GradientCase:
    """Generate a ground-truthed gradient capture for `sc`.

    Multistep scenarios keep a live weight matrix, applying W <- W - lr_i *
    dW_i between steps with fresh samples each step, and return the
    aggregate sum of the per-step scaled updates; the returned delta_w is
    the single product H^T G of the stacked per-step blocks.
    """
    rng, layer = _stream_head(sc)
    lrs = sc.step_lrs()

    h_blocks = []
    g_blocks = []
    labels_out: list[int] = []
    for step in range(sc.k):
        h = sample_latents(rng, sc.n, sc.d, sc.latent)
        if sc.labels is not None:
            y = np.asarray(sc.labels[step * sc.n:(step + 1) * sc.n], dtype=np.int64)
        else:
            y = rng.integers(0, sc.classes, size=sc.n)
        step_dw, g = projection_grad(h, y, layer)
        _check_sign_structure(g, y)
        hs = h / sc.n
        if sc.mode == "multistep":
            layer = ToyDecoder(w=layer.w - lrs[step] * step_dw, b=layer.b)
            hs = lrs[step] * hs
        h_blocks.append(hs)
        g_blocks.append(g)
        labels_out.extend(int(v) for v in y)

    h_all = np.vstack(h_blocks)
    g_all = np.vstack(g_blocks)
    delta_w = h_all.T @ g_all
    return GradientCase(scenario=sc, delta_w=delta_w, true_labels=tuple(labels_out))
