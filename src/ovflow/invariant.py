"""Conserved quantities of the factored gradient flow.

Along the flow every adjacent pair of layers conserves the symmetric matrix

    C_i = W_i W_i^T - W_{i+1}^T W_{i+1},

so these act as a fingerprint of the initial condition. ``drift`` measures
how far a numerical trajectory lets that fingerprint move; the scalar
imbalance c = 2 tr(C^2) - (tr C)^2 is the single number that controls the
two-layer scalar-output case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ovflow.linnet import LayerStack

__all__ = ["InvariantSet", "invariants", "imbalance_scalar", "norm_chain_residual", "drift_series", "drift"]


@dataclass(frozen=True)
class InvariantSet:
    """The N-1 balance matrices of a stack, their traces, and, for the
    two-layer scalar-output case, the scalar imbalance c."""

    matrices: tuple[np.ndarray, ...]
    traces: tuple[float, ...]
    imbalance_c: Optional[float]


def invariants(stack: LayerStack) -> InvariantSet:
    """Balance matrices C_i = W_i W_i^T - W_{i+1}^T W_{i+1} for i = 1..N-1."""
    if stack.shape.depth < 2:
        raise ValueError("invariants need at least two layers")
    mats = []
    for a, b in zip(stack.layers[:-1], stack.layers[1:]):
        c = a @ a.T - b.T @ b
        c.flags.writeable = False
        mats.append(c)
    traces = tuple(float(np.trace(c)) for c in mats)
    imbalance = _imbalance(mats[0]) if stack.shape.depth == 2 and stack.shape.n == 1 else None
    return InvariantSet(matrices=tuple(mats), traces=traces, imbalance_c=imbalance)


def imbalance_scalar(inv: InvariantSet) -> float:
    """c = 2 tr(C^2) - (tr C)^2 for a single balance matrix."""
    if len(inv.matrices) != 1:
        raise ValueError("scalar imbalance is defined for two-layer stacks only")
    return _imbalance(inv.matrices[0])


def _imbalance(c: np.ndarray) -> float:
    # numpy arithmetic throughout: near-overflow states (a flow stopped on
    # non_finite) must give inf here, not raise
    with np.errstate(over="ignore", invalid="ignore"):
        return float(2.0 * np.trace(c @ c) - np.trace(c) ** 2)


def norm_chain_residual(stack: LayerStack, inv0: InvariantSet) -> list[float]:
    """How far the stack is from ||W_i||_F^2 - ||W_{i+1}||_F^2 = tr C_i(0).

    inv0 is the invariant set of the initial condition; zero residuals mean
    the Frobenius-norm chain implied by conservation still holds.
    """
    if len(inv0.traces) != stack.shape.depth - 1:
        raise ValueError("invariant set does not match the stack depth")
    norms = [float(np.sum(layer * layer)) for layer in stack.layers]
    return [
        abs(norms[i] - norms[i + 1] - inv0.traces[i])
        for i in range(stack.shape.depth - 1)
    ]


def drift_series(samples) -> list[tuple[float, InvariantSet]]:
    """Each sample's normalized invariant drift, with its invariant set.

    The drift at sample t is the max over pairs i of
    ||C_i(t) - C_i(0)||_F / (1 + ||C_i(0)||_F), where sample 0 gives C_i(0);
    a pair whose drift is not a number is skipped.
    """
    series = []
    with np.errstate(over="ignore", invalid="ignore"):
        sets = [invariants(sample.stack) for sample in samples]
        base = sets[0].matrices
        scales = [1.0 + float(np.linalg.norm(c)) for c in base]
        for now in sets:
            worst = 0.0
            for c0, c1, scale in zip(base, now.matrices, scales):
                err = float(np.linalg.norm(c1 - c0)) / scale
                if err > worst:
                    worst = err
            series.append((worst, now))
    return series


def drift(traj) -> float:
    """Worst normalized invariant drift along a trajectory.

    The max of ``drift_series`` over the samples. Zero for an exact flow;
    for a numerical one this is the conservation error of the integrator.
    """
    if len(traj.samples) == 0:
        raise ValueError("empty trajectory")
    return max(d for d, _ in drift_series(traj.samples))
