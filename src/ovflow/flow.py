"""Gradient flow of the factored objective and its un-factored baseline.

``integrate`` runs the coupled layer ODE

    dW_i/dt = -(W_N ... W_{i+1})^T grad f(W) (W_{i-1} ... W_1)^T,

``integrate_baseline`` runs dW/dt = -grad f(W) on the plain matrix state
(stored as a depth-1 stack so the same reporting works), and ``sweep``
classifies the limits of a batch of random initializations.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ovflow.cost import MatrixCost
from ovflow.invariant import invariants
from ovflow.linnet import LayerStack, NetShape, gradients_from_layers, layer_shapes, product, random_init
from ovflow.odeint import IntegratorConfig, solve_flow, solve_flow_batch

__all__ = [
    "FlowSample",
    "Trajectory",
    "LimitClass",
    "integrate",
    "integrate_baseline",
    "detect_convergence",
    "sweep",
    "write_trajectory_csv",
    "read_trajectory_csv",
]


@dataclass(frozen=True)
class FlowSample:
    """One recorded state: time, stack, cost value, and ||grad g||_F."""

    t: float
    stack: LayerStack
    cost: float
    grad_norm: float


@dataclass(frozen=True)
class Trajectory:
    samples: tuple[FlowSample, ...]
    stop_reason: str
    config: IntegratorConfig

    @property
    def final(self) -> FlowSample:
        return self.samples[-1]


@dataclass(frozen=True)
class LimitClass:
    """Classification of a trajectory limit.

    label is one of critical_of_f, spurious_critical_of_g, undecided.
    """

    label: str
    grad_f_norm: float
    grad_g_norm: float
    note: str = ""


# The flat state is the layers' entries, row-major, first layer first, along
# the last axis: a (d,) vector for one flow, a (B, d) array for a batch.


def _pack(layers: Sequence[np.ndarray]) -> np.ndarray:
    flat = layers[0].shape[:-2] + (-1,)
    return np.concatenate([layer.reshape(flat) for layer in layers], axis=-1)


def _unpacker(shape: NetShape):
    dims = layer_shapes(shape)
    offsets = []
    start = 0
    for rows, cols in dims:
        offsets.append((start, start + rows * cols, (rows, cols)))
        start += rows * cols
    def unpack(y: np.ndarray) -> list[np.ndarray]:
        lead = y.shape[:-1]
        return [y[..., a:b].reshape(lead + dims) for a, b, dims in offsets]
    return unpack


def _field(shape: NetShape, cost: MatrixCost):
    """The flow's right-hand side on flat states, one or a batch."""
    unpack = _unpacker(shape)

    def field(y: np.ndarray) -> np.ndarray:
        return -_pack(gradients_from_layers(unpack(y), cost))

    return field


def _as_trajectory(result, shape: NetShape, cost: MatrixCost, cfg: IntegratorConfig) -> Trajectory:
    unpack = _unpacker(shape)
    samples = []
    # near-overflow tails of diverging runs evaluate to inf, not a warning storm
    with np.errstate(over="ignore", invalid="ignore"):
        for t, y, fnorm in zip(result.t, result.y, result.field_norm):
            stack = LayerStack(shape, tuple(unpack(y)))
            samples.append(
                FlowSample(t=float(t), stack=stack, cost=cost.value(product(stack)), grad_norm=float(fnorm))
            )
    return Trajectory(samples=tuple(samples), stop_reason=result.stop_reason, config=cfg)


def integrate(
    stack0: LayerStack,
    cost: MatrixCost,
    cfg: IntegratorConfig,
    checkpoints: Optional[Sequence[float]] = None,
) -> Trajectory:
    """Run the factored gradient flow from stack0."""
    if stack0.shape.n != cost.n:
        raise ValueError(f"stack n={stack0.shape.n} does not match cost n={cost.n}")
    shape = stack0.shape
    result = solve_flow(_field(shape, cost), _pack(stack0.layers), cfg, checkpoints=checkpoints)
    return _as_trajectory(result, shape, cost, cfg)


def integrate_baseline(
    W0: np.ndarray,
    cost: MatrixCost,
    cfg: IntegratorConfig,
    checkpoints: Optional[Sequence[float]] = None,
) -> Trajectory:
    """Run dW/dt = -grad f(W); the state is kept as a depth-1 stack."""
    W0 = np.asarray(W0, dtype=float)
    n = cost.n
    if W0.shape != (n, n):
        raise ValueError(f"expected a {n} x {n} initial state, got {W0.shape}")
    stack0 = LayerStack(NetShape(n=n, k=n, depth=1), (W0,))
    return integrate(stack0, cost, cfg, checkpoints=checkpoints)


def detect_convergence(traj: Trajectory, cost: MatrixCost, tol_f: float = 1e-6) -> LimitClass:
    """Classify where a trajectory ended.

    critical_of_f: the end-to-end map is a critical point of f itself.
    spurious_critical_of_g: grad g vanished while grad f did not, so the
    factorization, not the objective, stalled the flow.
    undecided: the run stopped before either test resolves (time or step
    budget, or a non-finite abort).
    """
    final = traj.final
    # a run that stopped on non_finite may end too large to square
    with np.errstate(over="ignore", invalid="ignore"):
        grad_f_norm = float(np.linalg.norm(cost.gradient(product(final.stack))))
    grad_g_norm = final.grad_norm
    if grad_f_norm < tol_f:
        return LimitClass("critical_of_f", grad_f_norm, grad_g_norm)
    if grad_g_norm < traj.config.grad_tol:
        return LimitClass("spurious_critical_of_g", grad_f_norm, grad_g_norm)
    return LimitClass("undecided", grad_f_norm, grad_g_norm, note=f"stopped on {traj.stop_reason}")


def sweep(
    shape: NetShape,
    cost: MatrixCost,
    cfg: IntegratorConfig,
    seeds: Sequence[int],
    scale: float,
) -> list[LimitClass]:
    """Integrate one random initialization per seed and classify each limit.

    All starts are integrated together as one batch, each row stepping as
    its own ``integrate`` run would; the fixed-step rk4 method has no batch
    solver and runs the seeds one by one. Results are ordered like
    ``seeds``, so a sweep is reproducible from the seed list alone.
    """
    if shape.n != cost.n:
        raise ValueError(f"shape n={shape.n} does not match cost n={cost.n}")
    starts = [random_init(shape, seed=seed, scale=scale) for seed in seeds]
    if cfg.method == "rk45" and starts:
        Y0 = np.stack([_pack(stack0.layers) for stack0 in starts])
        results = solve_flow_batch(_field(shape, cost), Y0, cfg)
        trajs = [_as_trajectory(result, shape, cost, cfg) for result in results]
    else:
        trajs = [integrate(stack0, cost, cfg) for stack0 in starts]
    return [detect_convergence(traj, cost) for traj in trajs]


def write_trajectory_csv(traj: Trajectory, cost: MatrixCost, path: str) -> None:
    """One row per sample: t, cost, gradient norms, invariant drift, scalar
    imbalance (blank when undefined), then the product entries row-major.

    Values are written with 17 significant digits so parsing them back
    reproduces the doubles exactly.
    """
    n = traj.samples[0].stack.shape.n
    depth = traj.samples[0].stack.shape.depth
    base = invariants(traj.samples[0].stack) if depth >= 2 else None
    scales = [1.0 + float(np.linalg.norm(c)) for c in base.matrices] if base else []

    header = ["t", "cost", "grad_g_norm", "grad_f_norm", "drift", "imbalance_c"]
    header += [f"w_{r}_{c}" for r in range(n) for c in range(n)]

    # the tail of a diverging run overflows to inf in the norms, not a warning
    with open(path, "w", newline="") as handle, np.errstate(over="ignore", invalid="ignore"):
        writer = csv.writer(handle)
        writer.writerow(header)
        for sample in traj.samples:
            w = product(sample.stack)
            grad_f_norm = float(np.linalg.norm(cost.gradient(w)))
            if base is not None:
                now = invariants(sample.stack)
                d = max(
                    float(np.linalg.norm(c1 - c0)) / s
                    for c0, c1, s in zip(base.matrices, now.matrices, scales)
                )
                imb = "" if now.imbalance_c is None else f"{now.imbalance_c:.17g}"
            else:
                d = 0.0
                imb = ""
            row = [
                f"{sample.t:.17g}",
                f"{sample.cost:.17g}",
                f"{sample.grad_norm:.17g}",
                f"{grad_f_norm:.17g}",
                f"{d:.17g}",
                imb,
            ]
            row += [f"{value:.17g}" for value in w.ravel()]
            writer.writerow(row)


def read_trajectory_csv(path: str) -> dict[str, np.ndarray]:
    """Columns of a trajectory CSV keyed by header name; the blank
    imbalance column comes back as NaN."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [row for row in reader if row]
    columns: dict[str, np.ndarray] = {}
    for j, name in enumerate(header):
        columns[name] = np.array(
            [float(row[j]) if row[j] != "" else float("nan") for row in rows]
        )
    return columns
