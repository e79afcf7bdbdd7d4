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

with empty products read as identity. It is one backward chain: the
prefixes W_i ... W_1 up to W, then, from grad f(W), each layer's gradient
and the next factor (W_N ... W_i)^T grad f(W), layer N down to layer 1, in
3N - 3 small matrix products.
"""

from __future__ import annotations

import csv
import operator
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from ovflow.csvio import write_csv

__all__ = [
    "DegenerateWidthWarning",
    "NetShape",
    "LayerStack",
    "layer_shapes",
    "product",
    "layer_gradients",
    "pack",
    "unpacker",
    "flow_field",
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

    Layers are copied and marked read-only at construction, so no later
    write to the arrays a stack was built from can change it. The one
    exception is a recording's public per-sample view
    (``flow.Trajectory.samples`` and ``final``): its layers are read-only
    views of the recording's locked states, checked once and not copied;
    the package reads a recording through ``Trajectory.layers`` instead.
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
    def _of_views(cls, shape: NetShape, layers: tuple[np.ndarray, ...]) -> "LayerStack":
        # Neither copies nor checks: the caller guarantees finite, read-only
        # layers of the shape's layer shapes.
        stack = object.__new__(cls)
        object.__setattr__(stack, "shape", shape)
        object.__setattr__(stack, "layers", layers)
        return stack

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


def product(layers: Sequence[np.ndarray]) -> np.ndarray:
    """End-to-end map W_N ... W_2 W_1 of the layers W_1, ..., W_N (an n x n
    matrix); stacked (S, rows, cols) layers give one map per sample."""
    out = layers[-1]
    for layer in layers[-2::-1]:
        out = out @ layer
    return np.array(out)


# C-level transposes: a matrix's .T, and a stack's last two axes swapped
_TRANSPOSE = operator.attrgetter("T")
_SWAP_LAST = operator.methodcaller("swapaxes", -1, -2)


def layer_gradients(layers: Sequence[np.ndarray], cost) -> list[np.ndarray]:
    """Per-layer gradients of g = f(product) at the layers W_1, ..., W_N.

    One backward chain, 3N - 3 small matrix products in all: the prefixes
    P_i = W_i ... W_1 up to P_N = W (N - 1 products), then, from
    back = grad f(W) and for i = N, ..., 2, grad_i = back P_{i-1}^T and
    back = W_i^T back; grad_1 is the last back. Each layer may also be a
    stack of shape (B, rows, cols), one matrix per flow of a batch; the
    gradients then come back stacked the same way.

    The matrices are tiny, so a product's cost is numpy's dispatch, not its
    flops: 2-D layers take ``ndarray.dot``, which has about half the
    overhead of ``matmul`` and gives the same bits (the tests check that a
    row of a batch matches its own evaluation), and ``.T``. Stacks need
    ``matmul``, because ``dot`` on 3-D arrays is not a batched product, and
    ``swapaxes``.
    """
    out = [np.empty(layer.shape) for layer in layers]
    _bind_chain(_bind_layers(layers), cost, out)()
    return out


def _bind_layers(layers: Sequence[np.ndarray]) -> tuple:
    """The part of the backward chain over ``layers`` that does not depend
    on where the gradients go: the product routine, the forward products
    into new prefix buffers P_2, ..., P_N, the transposes, and new buffers
    for the N - 2 backs before grad_1. Chains that never run at once may
    share it."""
    depth = len(layers)
    if depth == 1:
        return (layers[0],)
    if layers[0].ndim == 2:
        mul, flip = np.ndarray.dot, _TRANSPOSE
    else:
        mul, flip = np.matmul, _SWAP_LAST
    lead, n = layers[0].shape[:-2], layers[0].shape[-1]
    prefix = [layers[0], *(np.empty(lead + (layer.shape[-2], n)) for layer in layers[1:])]  # W_i ... W_1
    forward = tuple((layers[i], prefix[i - 1], prefix[i]) for i in range(1, depth))
    backs = [np.empty(lead + (layer.shape[-1], n)) for layer in layers[2:]]
    return mul, forward, prefix[-1], [flip(p) for p in prefix[:-1]], [flip(w) for w in layers], backs


def _bind_chain(bound: tuple, cost, out: Sequence[np.ndarray]) -> Callable[[], None]:
    """``layer_gradients``' chain into ``out`` over layers bound by
    ``_bind_layers``: the returned function replays its products in the
    same order into the same arrays, reading whatever the layers hold when
    it is called."""
    gradient = cost.gradient
    if len(bound) == 1:
        W, grad = bound[0], out[0]

        def run_bare() -> None:
            grad[...] = gradient(W)

        return run_bare

    mul, forward, top, prefix_t, layer_t, backs = bound
    back = [out[0], *backs]  # back[i] = W_{i+2}^T ... W_N^T grad f(W)
    backward = []
    for i in range(len(back) - 1, 0, -1):
        backward.append((back[i], prefix_t[i - 1], out[i]))
        backward.append((layer_t[i], back[i], back[i - 1]))
    head = (prefix_t[-1], out[-1], layer_t[-1], back[-1])
    return partial(_replay, mul, gradient, forward, top, head, tuple(backward))


def _replay(mul, gradient, forward, top, head, backward) -> None:
    for a, b, into in forward:
        mul(a, b, into)
    grad_f = gradient(top)
    top_t, last_grad, last_t, last_back = head
    mul(grad_f, top_t, last_grad)
    mul(last_t, grad_f, last_back)
    for a, b, into in backward:
        mul(a, b, into)


# The flat state is the layers' entries, row-major, first layer first, along
# the last axis: a (d,) vector for one stack, a (B, d) array for a batch.


def pack(layers: Sequence[np.ndarray]) -> np.ndarray:
    """The flat state of a layer sequence, or of a batch of stacked layers."""
    flat = layers[0].shape[:-2] + (-1,)
    return np.concatenate([layer.reshape(flat) for layer in layers], axis=-1)


def unpacker(shape: NetShape) -> Callable[[np.ndarray], list[np.ndarray]]:
    """The inverse of ``pack`` for stacks of the given shape."""
    offsets = []
    start = 0
    for rows, cols in layer_shapes(shape):
        offsets.append((start, start + rows * cols, (rows, cols)))
        start += rows * cols

    def unpack(y: np.ndarray) -> list[np.ndarray]:
        lead = y.shape[:-1]
        return [y[..., a:b].reshape(lead + dims) for a, b, dims in offsets]

    return unpack


def flow_field(shape: NetShape, cost) -> Callable[[np.ndarray, np.ndarray], None]:
    """The gradient flow's right-hand side -grad g on flat states, one or a
    batch: ``field(y, out)`` writes the field at y into out.

    A caller that evaluates the field on the same arrays again and again
    binds it once instead: ``field.bind(y, outs)`` unpacks y, builds the
    chain's work arrays for it, and returns one run per array in outs. A
    run writes the field at whatever y holds when it is called into its
    out; the runs share y's views and work arrays, so one runs at a time.
    The field keeps none of the arrays it is called or bound with.
    """
    unpack = unpacker(shape)

    def bind(y: np.ndarray, outs: Sequence[np.ndarray]) -> list[Callable[[], None]]:
        work = _bind_layers(unpack(y))
        return [partial(_negated, _bind_chain(work, cost, unpack(out)), out) for out in outs]

    def field(y: np.ndarray, out: np.ndarray) -> None:
        bind(y, (out,))[0]()

    field.bind = bind
    return field


def _negated(chain: Callable[[], None], out: np.ndarray) -> None:
    chain()
    np.negative(out, out=out)


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
    with np.errstate(over="ignore"):  # an overflow fails the stack's finiteness check
        layers[i - 1] = layers[i - 1] * eta
        layers[i] = layers[i] / eta
    return LayerStack(stack.shape, tuple(layers))


def write_stack_csv(stack: LayerStack, path: str) -> None:
    """Serialize as layer,row,col,value rows."""
    rows = ([i, r, c, layer[r, c]] for i, layer in enumerate(stack.layers, start=1) for r, c in np.ndindex(layer.shape))
    write_csv(path, ["layer", "row", "col", "value"], rows)


def read_stack_csv(path: str) -> LayerStack:
    """Inverse of write_stack_csv.

    Every cell of every layer must appear exactly once; a short row, a
    repeated or missing cell, or an index below 1 (layers) or 0 (rows and
    columns) raises ValueError.
    """
    cells: dict[int, dict[tuple[int, int], float]] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["layer", "row", "col", "value"]:
            raise ValueError(f"unexpected stack CSV header {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"stack CSV line {reader.line_num} has {len(row)} fields, expected 4")
            idx, r, c = int(row[0]), int(row[1]), int(row[2])
            if idx < 1 or r < 0 or c < 0:
                raise ValueError(f"stack CSV layer {idx} cell ({r}, {c}) has an index out of range")
            entries = cells.setdefault(idx, {})
            if (r, c) in entries:
                raise ValueError(f"stack CSV repeats layer {idx} cell ({r}, {c})")
            entries[(r, c)] = float(row[3])
    if not cells:
        raise ValueError("stack CSV holds no layers")
    layers = []
    for idx in range(1, max(cells) + 1):
        if idx not in cells:
            raise ValueError(f"stack CSV is missing layer {idx}")
        entries = cells[idx]
        rows = 1 + max(r for r, _ in entries)
        cols = 1 + max(c for _, c in entries)
        try:
            layers.append(np.array([[entries[r, c] for c in range(cols)] for r in range(rows)]))
        except KeyError as exc:
            raise ValueError(f"stack CSV is missing layer {idx} cell {exc.args[0]}") from None
    return LayerStack.from_layers(layers)
