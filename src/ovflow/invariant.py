"""Conserved quantities of the factored gradient flow.

Along the flow every adjacent pair of layers conserves the symmetric matrix

    C_i = W_i W_i^T - W_{i+1}^T W_{i+1},

so these act as a fingerprint of the initial condition. ``drift`` measures
how far a numerical trajectory lets that fingerprint move; the scalar
imbalance c = 2 tr(C^2) - (tr C)^2 is the single number that controls the
two-layer scalar-output case.

``invariants``, ``norm_chain_residual`` and ``imbalance_scalar`` take a
``LayerStack`` or a whole recording (a ``flow.Trajectory``, whose layers
are (S, rows, cols) stacks) and reduce over the last two axes: one number
per pair, or one (S,) series per pair, bit for bit its samples' own.
``drift`` reads a trajectory's ``drift_series``, computed once and shared
with its CSV.

Frobenius norms are taken the way numpy's own wrappers take them, without
the wrappers: ``np.add.reduce(x * x, axis=(-2, -1))`` is ``np.sum`` per
matrix, ``math.sqrt(r.dot(r))`` over a matrix's flattened entries r is
what ``np.linalg.norm`` computes for it, and ``np.sqrt(np.vecdot(d, d))``
takes that dot of every row of d at once. Every result is bit for bit the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ovflow.linnet import LayerStack

__all__ = [
    "InvariantSet", "invariants", "imbalance_scalar", "norm_chain_residual", "drift_series", "drift",
]


@dataclass(frozen=True)
class InvariantSet:
    """The N-1 balance matrices of a stack and their traces; for a
    recording, each is stacked over its samples."""

    matrices: tuple[np.ndarray, ...]
    traces: tuple[Union[float, np.ndarray], ...]


def _balance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # one pair's C = a a^T - b^T b; a and b may be (S, rows, cols) stacks
    return a @ a.swapaxes(-1, -2) - b.swapaxes(-1, -2) @ b


def invariants(stack: LayerStack) -> InvariantSet:
    """Balance matrices C_i = W_i W_i^T - W_{i+1}^T W_{i+1} for i = 1..N-1
    of a stack, or (S, rows, rows) stacks of them for a recording."""
    if stack.shape.depth < 2:
        raise ValueError("invariants need at least two layers")
    mats = tuple(_balance(a, b) for a, b in zip(stack.layers[:-1], stack.layers[1:]))
    for c in mats:
        c.flags.writeable = False
    return InvariantSet(matrices=mats, traces=tuple(np.trace(c, axis1=-2, axis2=-1) for c in mats))


def imbalance_scalar(inv: InvariantSet) -> Union[float, np.ndarray]:
    """c = 2 tr(C^2) - (tr C)^2 for the one balance matrix of a two-layer
    stack, or one value per sample of a recording's."""
    if len(inv.matrices) != 1:
        raise ValueError("scalar imbalance is defined for two-layer stacks only")
    c = inv.matrices[0]
    # per matrix, as a scalar's ** 2 is pow(), which may differ from x * x in
    # the last bit; numpy arithmetic throughout, so near-overflow states (a
    # flow stopped on non_finite) give inf here, not raise
    with np.errstate(over="ignore", invalid="ignore"):
        values = [float(2.0 * np.trace(m @ m) - np.trace(m) ** 2) for m in c.reshape(-1, *c.shape[-2:])]
    return values[0] if c.ndim == 2 else np.array(values)


def norm_chain_residual(stack: LayerStack, inv0: InvariantSet) -> list:
    """How far the stack is from ||W_i||_F^2 - ||W_{i+1}||_F^2 = tr C_i(0),
    one np.float64 per pair; for a recording, one (S,) series per pair.

    inv0 is the invariant set of the initial condition; zero residuals mean
    the Frobenius-norm chain implied by conservation still holds.
    """
    if len(inv0.traces) != stack.shape.depth - 1:
        raise ValueError("invariant set does not match the stack depth")
    norms = [np.add.reduce(layer * layer, axis=(-2, -1)) for layer in stack.layers]
    return [abs(a - b - trace) for a, b, trace in zip(norms, norms[1:], inv0.traces)]


def drift_series(layers: Sequence[np.ndarray]) -> np.ndarray:
    """Normalized invariant drift at every sample of a recording.

    layers are the (S, rows, cols) stacks of W_1, ..., W_N. The drift at
    sample t is the max over pairs i of ||C_i(t) - C_i(0)||_F / (1 + ||C_i(0)||_F),
    where sample 0 gives C_i(0); a pair whose drift is not a number is skipped.
    """
    if len(layers) < 2:
        raise ValueError("invariants need at least two layers")
    series = np.zeros(len(layers[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in zip(layers[:-1], layers[1:]):
            c = _balance(a, b)
            c0 = c[0].ravel()
            scale = 1.0 + math.sqrt(c0.dot(c0))
            d = (c - c[0]).reshape(len(c), -1)  # one flattened row per sample
            series = np.fmax(series, np.sqrt(np.vecdot(d, d)) / scale)
    return series


def drift(traj) -> float:
    """Worst normalized invariant drift along a trajectory.

    The max of the trajectory's ``drift_series`` over the samples. Zero for
    an exact flow; for a numerical one this is the conservation error of the
    integrator.
    """
    if len(traj.t) == 0:
        raise ValueError("empty trajectory")
    return float(np.max(traj.drift_series))
