"""Deep linear network stacks and their layer dynamics.

A stack holds the factors (W_1, ..., W_N) of the end-to-end map
W = W_N ... W_2 W_1, with W_1 of shape k x n, interior layers k x k, and
W_N of shape n x k. The hidden width k must be at least the in/out
dimension n so that the factorization can reach every n x n matrix.
Depth 1 is allowed and simply stores an unfactored n x n state; it is how
the un-overparameterized baseline flow reuses the same tooling.

The central operation is ``layer_gradients``: the per-layer gradient of
g(W_1, ..., W_N) = f(W_N ... W_1), namely

    grad_i = (W_N ... W_{i+1})^T  grad f(W)  (W_{i-1} ... W_1)^T

with empty products read as identity.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "DegenerateWidthWarning",
    "NetShape",
    "LayerStack",
    "layer_shapes",
    "product",
    "layer_gradients",
    "balanced_init",
    "random_init",
    "rescale_pair",
    "write_stack_csv",
    "read_stack_csv",
]


class DegenerateWidthWarning(UserWarning):
    """Emitted when k = n: permitted, but the width adds no slack."""


@dataclass(frozen=True)
class NetShape:
    """Dimensions of a stack: in/out dimension n, hidden width k, depth."""

    n: int
    k: int
    depth: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.depth < 1:
            raise ValueError(f"depth must be positive, got {self.depth}")
        if self.depth == 1:
            if self.k != self.n:
                raise ValueError("a depth-1 stack is a bare n x n state; set k = n")
            return
        if self.k < self.n:
            raise ValueError(f"hidden width k={self.k} must be at least n={self.n}")
        if self.k == self.n:
            warnings.warn(
                f"hidden width k equals n={self.n}; the factorization has no width slack",
                DegenerateWidthWarning,
                stacklevel=3,
            )


def layer_shapes(shape: NetShape) -> list[tuple[int, int]]:
    """Expected (rows, cols) of each layer, first to last."""
    if shape.depth == 1:
        return [(shape.n, shape.n)]
    shapes = [(shape.k, shape.n)]
    shapes.extend((shape.k, shape.k) for _ in range(shape.depth - 2))
    shapes.append((shape.n, shape.k))
    return shapes


@dataclass(frozen=True)
class LayerStack:
    """An immutable tuple of layer matrices with a validated shape.

    Layers are defensively copied and marked read-only at construction, so a
    stack can be shared across threads without locking.
    """

    shape: NetShape
    layers: tuple[np.ndarray, ...]

    def __post_init__(self):
        expected = layer_shapes(self.shape)
        if len(self.layers) != len(expected):
            raise ValueError(
                f"expected {len(expected)} layers for depth {self.shape.depth}, got {len(self.layers)}"
            )
        frozen = []
        for idx, (layer, want) in enumerate(zip(self.layers, expected), start=1):
            arr = np.array(layer, dtype=float)
            if arr.shape != want:
                raise ValueError(f"layer {idx} has shape {arr.shape}, expected {want}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"layer {idx} contains non-finite entries")
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "layers", tuple(frozen))

    @classmethod
    def from_layers(cls, layers: Sequence[np.ndarray]) -> "LayerStack":
        """Infer the NetShape from the matrices themselves."""
        mats = [np.asarray(layer, dtype=float) for layer in layers]
        depth = len(mats)
        if depth == 0:
            raise ValueError("empty stack")
        if depth == 1:
            n = mats[0].shape[0]
            return cls(NetShape(n=n, k=n, depth=1), tuple(mats))
        k, n = mats[0].shape
        return cls(NetShape(n=n, k=k, depth=depth), tuple(mats))


def product(stack: LayerStack) -> np.ndarray:
    """End-to-end map W_N ... W_2 W_1 (an n x n matrix)."""
    out = stack.layers[-1]
    for layer in stack.layers[-2::-1]:
        out = out @ layer
    return np.array(out)


def gradients_from_layers(layers: Sequence[np.ndarray], cost) -> list[np.ndarray]:
    """layer_gradients on a bare layer sequence; the hot path for the flow.

    Each layer may also be a stack of shape (B, rows, cols), one matrix per
    flow of a batch; the gradients then come back stacked the same way.
    """
    depth = len(layers)
    if depth == 1:
        return [np.asarray(cost.gradient(layers[0]))]

    prefix = [layers[0]]  # prefix[i] = W_{i+1} ... W_1
    for layer in layers[1:-1]:
        prefix.append(layer @ prefix[-1])
    suffix = [layers[-1]]  # suffix[j] holds W_N ... W_{N-j}
    for layer in layers[-2:0:-1]:
        suffix.append(suffix[-1] @ layer)
    suffix.reverse()  # suffix[i] = W_N ... W_{i+2}

    grad_f = cost.gradient(suffix[0] @ layers[0])
    grads = [suffix[0].swapaxes(-1, -2) @ grad_f]
    for i in range(1, depth - 1):
        grads.append(suffix[i].swapaxes(-1, -2) @ grad_f @ prefix[i - 1].swapaxes(-1, -2))
    grads.append(grad_f @ prefix[depth - 2].swapaxes(-1, -2))
    return grads


def layer_gradients(stack: LayerStack, cost) -> tuple[np.ndarray, ...]:
    """Per-layer gradients of g = f(product).

    Prefix and suffix partial products are accumulated once, so the whole
    gradient costs O(N) small matrix multiplies.
    """
    return tuple(gradients_from_layers(stack.layers, cost))


def _orthonormal_columns(k: int, n: int, rng: Optional[np.random.Generator]) -> np.ndarray:
    if rng is None:
        return np.eye(k, n)
    q, r = np.linalg.qr(rng.normal(size=(k, n)))
    # fix the sign convention so the factor is reproducible across BLAS builds
    return q * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))


def balanced_init(target: np.ndarray, shape: NetShape, seed: Optional[int] = None) -> LayerStack:
    """A stack with product exactly ``target`` and all balance residuals zero.

    Built from the SVD target = U S V^T by spreading S^(1/N) across layers
    through orthonormal k x n carriers Q_i:

        W_1 = Q_1 S^(1/N) V^T,  W_i = Q_i S^(1/N) Q_{i-1}^T,  W_N = U S^(1/N) Q_{N-1}^T.

    With seed None the carriers are the first n columns of the identity;
    otherwise they are seeded random orthonormal frames.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != (shape.n, shape.n):
        raise ValueError(f"target shape {target.shape} does not match n={shape.n}")
    u, s, vt = np.linalg.svd(target)
    if s[-1] <= 1e-12 * max(1.0, float(s[0])):
        raise ValueError("target is rank deficient; balanced factorization needs full rank")

    if shape.depth == 1:
        return LayerStack(shape, (target,))

    root = np.diag(s ** (1.0 / shape.depth))
    rng = np.random.default_rng(seed) if seed is not None else None
    carriers = [_orthonormal_columns(shape.k, shape.n, rng) for _ in range(shape.depth - 1)]

    layers = [carriers[0] @ root @ vt]
    for i in range(1, shape.depth - 1):
        layers.append(carriers[i] @ root @ carriers[i - 1].T)
    layers.append(u @ root @ carriers[-1].T)
    return LayerStack(shape, tuple(layers))


def random_init(shape: NetShape, seed: int, scale: float) -> LayerStack:
    """Independent Gaussian entries, standard deviation ``scale``, per layer."""
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    rng = np.random.default_rng(seed)
    layers = tuple(rng.normal(0.0, scale, size=dims) for dims in layer_shapes(shape))
    return LayerStack(shape, layers)


def rescale_pair(stack: LayerStack, i: int, eta: float) -> LayerStack:
    """Scale layer i by eta and layer i+1 by 1/eta (i is 1-based).

    The end-to-end product is untouched while the balance between the two
    layers moves, which is the standard way to inject imbalance.
    """
    if eta == 0.0 or not np.isfinite(eta):
        raise ValueError(f"eta must be finite and nonzero, got {eta}")
    if not 1 <= i < stack.shape.depth:
        raise ValueError(f"layer index {i} out of range 1..{stack.shape.depth - 1}")
    layers = list(stack.layers)
    layers[i - 1] = layers[i - 1] * eta
    layers[i] = layers[i] / eta
    return LayerStack(stack.shape, tuple(layers))


def write_stack_csv(stack: LayerStack, path: str) -> None:
    """Serialize as layer,row,col,value rows; values keep 17 significant digits."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["layer", "row", "col", "value"])
        for idx, layer in enumerate(stack.layers, start=1):
            for r in range(layer.shape[0]):
                for c in range(layer.shape[1]):
                    writer.writerow([idx, r, c, f"{layer[r, c]:.17g}"])


def read_stack_csv(path: str) -> LayerStack:
    """Inverse of write_stack_csv."""
    cells: dict[int, dict[tuple[int, int], float]] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["layer", "row", "col", "value"]:
            raise ValueError(f"unexpected stack CSV header {header}")
        for row in reader:
            if not row:
                continue
            idx, r, c = int(row[0]), int(row[1]), int(row[2])
            cells.setdefault(idx, {})[(r, c)] = float(row[3])
    if not cells:
        raise ValueError("stack CSV holds no layers")
    layers = []
    for idx in range(1, max(cells) + 1):
        if idx not in cells:
            raise ValueError(f"stack CSV is missing layer {idx}")
        entries = cells[idx]
        rows = 1 + max(r for r, _ in entries)
        cols = 1 + max(c for _, c in entries)
        mat = np.zeros((rows, cols))
        for (r, c), value in entries.items():
            mat[r, c] = value
        layers.append(mat)
    return LayerStack.from_layers(layers)
