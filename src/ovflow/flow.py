"""Gradient flow of the factored objective and its un-factored baseline.

``integrate`` runs the coupled layer ODE

    dW_i/dt = -(W_N ... W_{i+1})^T grad f(W) (W_{i-1} ... W_1)^T,

``integrate_batch`` runs many same-shape starts at once to their final
states, ``integrate_baseline`` runs dW/dt = -grad f(W) on the plain matrix
state (stored as a depth-1 stack so the same reporting works), and
``sweep`` classifies the limits of a batch of random initializations.

A recorded run is a ``Trajectory`` of the solver's sample arrays, locked
read-only; its layers are (S, rows, cols) views of them, its drift is
computed once, and the invariants and the CSV read them stacked over samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from ovflow.cost import MatrixCost
from ovflow.csvio import write_csv
from ovflow.invariant import drift_series, imbalance_scalar, invariants
from ovflow.linnet import LayerStack, NetShape, flow_field, pack, product, random_init, unpacker
from ovflow.odeint import IntegratorConfig, OdeResult, solve_flow, solve_flow_batch

__all__ = [
    "FlowSample",
    "Trajectory",
    "LimitClass",
    "integrate",
    "integrate_batch",
    "integrate_baseline",
    "detect_convergence",
    "sweep",
    "write_trajectory_csv",
]


@dataclass(frozen=True)
class FlowSample:
    """One recorded state: time, stack, cost value, and ||grad g||_F."""

    t: float
    stack: LayerStack
    cost: float
    grad_norm: float


@dataclass(frozen=True, eq=False)
class Trajectory(OdeResult):
    """A recorded flow: the solver's record (``odeint.OdeResult``: t (S,),
    flat states y (S, d), ||grad g||_F as field_norm (S,), the stop reason
    and the solver's counts, every array read-only) plus the cost at every
    sample (S,), the stack shape and the integrator config.

    ``layers`` are W_1, ..., W_N at every sample, read-only (S, rows, cols)
    views of y, so the ``invariant`` functions take a trajectory as they
    take a stack. ``samples`` and ``final`` are the public per-sample view,
    FlowSamples built when first read on views of y checked finite once.
    ``drift_series`` is computed once for ``invariant.drift`` and the CSV."""

    cost: np.ndarray
    shape: NetShape
    config: IntegratorConfig

    @cached_property
    def layers(self) -> tuple[np.ndarray, ...]:
        return tuple(unpacker(self.shape)(self.y))

    @cached_property
    def samples(self) -> tuple[FlowSample, ...]:
        return self._samples(slice(None))

    @property
    def final(self) -> FlowSample:
        return self._samples(slice(-1, None))[0]

    @cached_property
    def drift_series(self) -> np.ndarray:
        """``invariant.drift_series`` of the recording (read-only); needs
        at least two layers."""
        series = drift_series(self.layers)
        series.flags.writeable = False
        return series.view()  # a view of a read-only owner stays read-only

    def _samples(self, rows: slice) -> tuple[FlowSample, ...]:
        y = self.y[rows]
        if not np.isfinite(y).all():
            raise ValueError("recorded states contain non-finite entries")
        stacks = (LayerStack._of_views(self.shape, views) for views in zip(*unpacker(self.shape)(y)))
        t, cost, grad_norm = (arr[rows].tolist() for arr in (self.t, self.cost, self.field_norm))
        return tuple(map(FlowSample, t, stacks, cost, grad_norm))


@dataclass(frozen=True)
class LimitClass:
    """Classification of a trajectory limit.

    label is one of critical_of_f, spurious_critical_of_g, undecided.
    """

    label: str
    grad_f_norm: float
    grad_g_norm: float
    note: str = ""


def _as_trajectory(result: OdeResult, shape: NetShape, cost: MatrixCost, cfg: IntegratorConfig) -> Trajectory:
    # near-overflow tails of diverging runs evaluate to inf, not a warning storm
    with np.errstate(over="ignore", invalid="ignore"):
        values = cost.value(product(unpacker(shape)(result.y)))
    return Trajectory(**vars(result), cost=values, shape=shape, config=cfg)


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
    result = solve_flow(flow_field(shape, cost), pack(stack0.layers), cfg, checkpoints=checkpoints)
    return _as_trajectory(result, shape, cost, cfg)


def integrate_batch(stacks: Sequence[LayerStack], cost: MatrixCost, cfg: IntegratorConfig) -> list[Trajectory]:
    """Run the factored gradient flow from every stack at once.

    The stacks must share one shape. Each comes back as a one-sample
    Trajectory holding its final state; rows step as their own ``integrate``
    runs would (see ``solve_flow_batch`` for the rounding caveat). There are
    no checkpoints.
    """
    if not stacks:
        return []
    shapes = {stack.shape for stack in stacks}
    if len(shapes) > 1:
        raise ValueError(f"stacks of several shapes in one batch: {sorted(map(str, shapes))}")
    shape = stacks[0].shape
    if shape.n != cost.n:
        raise ValueError(f"stack n={shape.n} does not match cost n={cost.n}")
    starts = np.stack([pack(stack.layers) for stack in stacks])
    results = solve_flow_batch(flow_field(shape, cost), starts, cfg)
    return [_as_trajectory(result, shape, cost, cfg) for result in results]


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


def detect_convergence(traj: Trajectory, cost: MatrixCost) -> LimitClass:
    """Classify where a trajectory ended.

    critical_of_f: the end-to-end map is a critical point of f itself
    (||grad f|| below 1e-6).
    spurious_critical_of_g: grad g vanished while grad f did not, so the
    factorization, not the objective, stalled the flow.
    undecided: the run stopped before either test resolves (time or step
    budget, or a non-finite abort), or one of the above holds but the
    solver forced a step through at its minimum step size, so its error
    control does not vouch for the end point.
    """
    # a run that stopped on non_finite may end too large to square
    with np.errstate(over="ignore", invalid="ignore"):
        grad_f_norm = float(np.linalg.norm(cost.gradient(product([layer[-1] for layer in traj.layers]))))
    grad_g_norm = float(traj.field_norm[-1])
    if grad_f_norm < 1e-6:
        label = "critical_of_f"
    elif grad_g_norm < traj.config.grad_tol:
        label = "spurious_critical_of_g"
    else:
        return LimitClass("undecided", grad_f_norm, grad_g_norm, note=f"stopped on {traj.stop_reason}")
    if traj.n_forced:
        note = f"steps forced at the minimum step size: {traj.n_forced}; otherwise {label}"
        return LimitClass("undecided", grad_f_norm, grad_g_norm, note=note)
    return LimitClass(label, grad_f_norm, grad_g_norm)


def sweep(
    shape: NetShape,
    cost: MatrixCost,
    cfg: IntegratorConfig,
    seeds: Sequence[int],
    scale: float,
) -> list[LimitClass]:
    """Integrate one random initialization per seed and classify each limit.

    All starts go through one ``integrate_batch`` call, each row stepping as
    its own ``integrate`` run would. Results are ordered like ``seeds``, so
    a sweep is reproducible from the seed list alone.
    """
    if shape.n != cost.n:
        raise ValueError(f"shape n={shape.n} does not match cost n={cost.n}")
    stacks = [random_init(shape, seed=seed, scale=scale) for seed in seeds]
    return [detect_convergence(traj, cost) for traj in integrate_batch(stacks, cost, cfg)]


def write_trajectory_csv(traj: Trajectory, cost: MatrixCost, path: str) -> None:
    """One row per sample: t, cost, gradient norms, invariant drift, scalar
    imbalance (blank unless the stack is two-layer with n = 1), then the
    product entries row-major.
    """
    n, depth, count = traj.shape.n, traj.shape.depth, len(traj.t)
    scalar = depth == 2 and n == 1
    # the tail of a diverging run overflows to inf in the norms, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        w = product(traj.layers)
        # each flattened row's dot with itself, as np.linalg.norm takes a matrix's norm
        g = cost.gradient(w).reshape(count, -1)
        grad_f_norm = np.sqrt(np.vecdot(g, g))
        imbalance = [imbalance_scalar(invariants(traj))] if scalar else []
    drift = traj.drift_series if depth >= 2 else np.zeros(count)
    columns = [traj.t, traj.cost, traj.field_norm, grad_f_norm, drift, *imbalance]
    blank = () if scalar else (5,)  # the imbalance column

    header = ["t", "cost", "grad_g_norm", "grad_f_norm", "drift", "imbalance_c"]
    header += [f"w_{r}_{c}" for r in range(n) for c in range(n)]
    write_csv(path, header, np.column_stack([*columns, w.reshape(count, -1)]), blank=blank)
