"""The two-layer scalar-output case: dichotomy, reduction, acceleration.

State is a two-layer stack with n = 1: a first-layer column w1 and a
second-layer row w2, both of length k, whose product z = w2 . w1 drives a
scalar cost f(z). Writing s for the sign of f'(0), the combination
u = w1 - s w2 is what separates the two fates of the flow: d = ||u|| is
conserved-sign (u only ever shrinks or grows by the scalar factor s f'(z)),
d = 0 pins the trajectory to the anti-balanced line into the origin, and
d > 0 keeps the flow away from the origin so it must run down f itself.

Everything here reduces to one dimension: z obeys

    dz/dt = -f'(z) sqrt(c + 4 z^2)

where c is the scalar imbalance, conserved and equal to D = S^2 - 4 z^2
with S = ||w1||^2 + ||w2||^2. Larger c means a uniformly faster clock,
which is the acceleration effect; rescaling time by dtau = sqrt(c + 4 z^2) dt
collapses runs with different c onto one curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ovflow.cost import PdpliReport, ScalarCost, pdpli_check
from ovflow.flow import detect_convergence, integrate, integrate_batch
from ovflow.linnet import LayerStack, NetShape, product
from ovflow.odeint import IntegratorConfig, OdeResult, solve_flow

__all__ = [
    "anti_balanced",
    "d_metric",
    "conserved_D",
    "ReducedTrajectory",
    "reduced_flow",
    "match_reduction",
    "reparameterize_time",
    "AccelReport",
    "compare_acceleration",
    "DichotomyRun",
    "DichotomyReport",
    "dichotomy_experiment",
]

# the interval the dichotomy battery scans for gradient dominance
_SCAN_INTERVAL = (-3.0, 3.0)


def _stack(w1: np.ndarray, w2: np.ndarray) -> LayerStack:
    """The two-layer n = 1 stack with first-layer column w1 and second-layer
    row w2, both 1-D of length k."""
    k = w1.size
    return LayerStack(NetShape(n=1, k=k, depth=2), (w1.reshape(k, 1), w2.reshape(1, k)))


def _pair(stack: LayerStack) -> tuple[np.ndarray, np.ndarray]:
    """w1 and w2 of a two-layer scalar-output stack, raveled."""
    if stack.shape.depth != 2 or stack.shape.n != 1:
        raise ValueError("expected a two-layer scalar-output stack")
    return stack.layers[0].ravel(), stack.layers[1].ravel()


def anti_balanced(w2: np.ndarray, cost: ScalarCost) -> LayerStack:
    """The stack on the measure-zero line: w1 = s w2 with s = sign f'(0)."""
    s = cost.sign_at_zero()
    w2 = np.asarray(w2, dtype=float).ravel()
    return _stack(s * w2, w2)


def d_metric(stack: LayerStack, cost: ScalarCost) -> float:
    """Distance to the anti-balanced line, d = ||w1 - s w2||."""
    w1, w2 = _pair(stack)
    s = cost.sign_at_zero()
    return float(np.linalg.norm(w1 - s * w2))


def conserved_D(stack: LayerStack) -> float:
    """D = S^2 - 4 z^2; conserved, nonnegative, and equal to the scalar
    imbalance c of the stack."""
    w1, w2 = _pair(stack)
    S = float(w1 @ w1 + w2 @ w2)
    z = float(w2 @ w1)
    return S ** 2 - 4.0 * z ** 2


@dataclass(frozen=True, eq=False)
class ReducedTrajectory(OdeResult):
    """Samples of the one-dimensional reduced flow: the solver's record,
    whose states y (S, 1) hold z, plus f(z) at every sample."""

    f: np.ndarray

    @property
    def z(self) -> np.ndarray:
        return self.y[:, 0]


def reduced_flow(
    cost: ScalarCost,
    c: float,
    z0: float,
    cfg: IntegratorConfig,
    checkpoints: Optional[Sequence[float]] = None,
) -> ReducedTrajectory:
    """Integrate dz/dt = -f'(z) sqrt(c + 4 z^2)."""
    if c < -1e-12:
        raise ValueError(f"imbalance c must be nonnegative, got {c}")
    c = max(c, 0.0)

    def field(y: np.ndarray, out: np.ndarray) -> None:
        if y.ndim == 1:
            z = float(y[0])
            out[0] = -cost.deriv(z) * math.sqrt(c + 4.0 * z * z)
        else:  # a block of checkpoint samples: the same operations on its column
            z = y[:, 0]
            out[:, 0] = -cost.deriv(z) * np.sqrt(c + 4.0 * z * z)

    result = solve_flow(field, np.array([z0]), cfg, checkpoints=checkpoints)
    return ReducedTrajectory(**vars(result), f=cost.value(result.y[:, 0]))


def _checkpoint_grid(t_max: float, spacing: float) -> np.ndarray:
    """Checkpoints about spacing apart from 0 to t_max, both ends included.
    A grid of more than 1,000,001 points is refused before it is made."""
    points = max(2, int(round(t_max / spacing)) + 1)
    if points > 1_000_001:
        raise ValueError(f"t_max {t_max:g} needs {points:,} checkpoints {spacing:g} apart; at most 1,000,001 are allowed")
    return np.linspace(0.0, t_max, points)


def match_reduction(cost: ScalarCost, stack0: LayerStack, cfg: IntegratorConfig) -> float:
    """Max |z_full(t) - z_reduced(t)| over a shared time grid.

    The full flow of the two-layer n = 1 stack and the reduced flow with
    c = D(stack0) are both sampled at the same checkpoint times, each by its
    own solver's continuous extension, so the comparison needs no
    interpolation here.
    """
    w1, w2 = _pair(stack0)
    grid = _checkpoint_grid(cfg.t_max, 0.01)
    full = integrate(stack0, cost.as_matrix(), cfg, checkpoints=grid)
    reduced = reduced_flow(cost, conserved_D(stack0), float(w2 @ w1), cfg, checkpoints=grid)

    shared, i_full, i_red = np.intersect1d(full.t, reduced.t, return_indices=True)
    if not shared.size:
        raise RuntimeError("no shared sample times between full and reduced runs")
    return float(np.max(np.abs(product(full.layers)[i_full, 0, 0] - reduced.z[i_red])))


def reparameterize_time(traj: ReducedTrajectory, c: float) -> np.ndarray:
    """Map samples (t, z) to (tau, z) with dtau = sqrt(c + 4 z^2) dt.

    Trapezoidal quadrature; the sampling must be dense enough (spacing at
    most ~0.01) for the clock integral to be trustworthy.
    """
    t = np.asarray(traj.t, dtype=float)
    if t.size < 2:
        return np.column_stack([np.zeros_like(t), traj.z])
    gaps = np.diff(t)
    if gaps.max() > 0.0101:
        raise ValueError(f"sample spacing {gaps.max():.4g} too coarse for the clock integral")
    speed = np.sqrt(c + 4.0 * np.asarray(traj.z) ** 2)
    tau = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * gaps)])
    return np.column_stack([tau, traj.z])


@dataclass(frozen=True)
class AccelReport:
    """Cost-versus-time curves for a low and a high imbalance run from the
    same z0, plus the sup-norm mismatch of z(tau) after the clock change."""

    t_grid: np.ndarray
    cost_low_c: np.ndarray
    cost_high_c: np.ndarray
    tau_collapse_error: float
    tau_grid: np.ndarray
    z_low_tau: np.ndarray
    z_high_tau: np.ndarray


def compare_acceleration(
    cost: ScalarCost,
    z0: float,
    c_low: float,
    c_high: float,
    cfg: IntegratorConfig,
) -> AccelReport:
    """Race two reduced flows that differ only in imbalance.

    Preconditions: z0, c_low and c_high are finite, c_low < c_high and the
    start is not already critical (f'(z0) != 0). With c_low = 0 and z0 = 0
    the low run never moves; that degenerate race is refused, as is a race
    whose runs share no sample after t = 0 (one stopped before the first
    checkpoint).
    """
    if not all(map(math.isfinite, (z0, c_low, c_high))):
        raise ValueError(f"z0, c_low and c_high must be finite, got {z0}, {c_low} and {c_high}")
    if not c_high > c_low:
        raise ValueError(f"need c_low < c_high, got {c_low} >= {c_high}")
    if cost.deriv(z0) == 0.0:
        raise ValueError(f"z0 = {z0} is already a critical point of f")
    if c_low == 0.0 and z0 == 0.0:
        raise ValueError("c = 0 from z0 = 0 never moves")

    grid = _checkpoint_grid(cfg.t_max, 0.005)
    low = reduced_flow(cost, c_low, z0, cfg, checkpoints=grid)
    high = reduced_flow(cost, c_high, z0, cfg, checkpoints=grid)

    t_shared, i_low, i_high = np.intersect1d(low.t, high.t, return_indices=True)
    if not (t_shared > 0.0).any():
        raise ValueError(
            f"the runs share no sample after t = 0: the c = {c_low:g} run ends at t = {low.t[-1]:g}"
            f" ({low.stop_reason}) and the c = {c_high:g} run at t = {high.t[-1]:g} ({high.stop_reason})"
        )

    tau_low = reparameterize_time(low, c_low)
    tau_high = reparameterize_time(high, c_high)
    tau_end = min(tau_low[-1, 0], tau_high[-1, 0])
    tau_grid = np.linspace(0.0, tau_end, 200)
    z_low = np.interp(tau_grid, tau_low[:, 0], tau_low[:, 1])
    z_high = np.interp(tau_grid, tau_high[:, 0], tau_high[:, 1])
    err = float(np.max(np.abs(z_low - z_high))) if tau_end > 0 else 0.0

    return AccelReport(
        t_grid=t_shared,
        cost_low_c=low.f[i_low],
        cost_high_c=high.f[i_high],
        tau_collapse_error=err,
        tau_grid=tau_grid,
        z_low_tau=z_low,
        z_high_tau=z_high,
    )


@dataclass(frozen=True)
class DichotomyRun:
    kind: str  # "generic" or "anti_balanced"
    d0: float
    D0: float
    final_cost: float
    final_state_norm: float
    label: str


@dataclass(frozen=True)
class DichotomyReport:
    runs: tuple[DichotomyRun, ...]
    pdpli: PdpliReport
    generic_converged: bool
    anti_converged_to_origin: bool

    @property
    def passed(self) -> bool:
        return self.generic_converged and self.anti_converged_to_origin


def dichotomy_experiment(
    cost: ScalarCost,
    k: int,
    cfg: IntegratorConfig,
    n_generic: int = 20,
    n_anti: int = 5,
    seed: int = 0,
) -> DichotomyReport:
    """Run the two-fates battery for a gradient-dominated scalar cost.

    Generic starts (d > 0) must drive f to its infimum; anti-balanced
    starts (d = 0) must collapse to the origin, where f keeps the value
    f(0). Preconditions checked here: k >= 1, nonnegative run counts,
    f'(0) != 0, f(0) above the infimum, and the gradient-dominance scan
    passing on [-3, 3]. Only each run's final state is read, so all starts
    are integrated together through one ``integrate_batch`` call.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if n_generic < 0 or n_anti < 0:
        raise ValueError(f"run counts must be nonnegative, got {n_generic} generic and {n_anti} anti-balanced")
    runs = _dichotomy_starts(cost, k, n_generic, n_anti, seed)  # raises first when f'(0) = 0
    report = pdpli_check(cost, _SCAN_INTERVAL)
    if not report.passed:
        raise ValueError(f"cost fails the gradient-dominance scan at w = {report.witness}")
    if not cost.value(0.0) > report.fmin + 1e-9:
        raise ValueError("f(0) must sit strictly above the infimum for the dichotomy to bite")

    matrix_cost = cost.as_matrix()
    trajs = integrate_batch([stack0 for _, stack0 in runs], matrix_cost, cfg)
    results = []
    for (kind, stack0), traj in zip(runs, trajs):
        results.append(
            DichotomyRun(
                kind=kind,
                d0=d_metric(stack0, cost),
                D0=conserved_D(stack0),
                final_cost=float(traj.cost[-1]),
                final_state_norm=float(np.linalg.norm(traj.y[-1])),  # the flat state is w1 then w2
                label=detect_convergence(traj, matrix_cost).label,
            )
        )

    generic = [r.final_cost for r in results if r.kind == "generic"]
    # an undeclared infimum is the lower of the scan's grid minimum and what the runs reached
    fmin = report.fmin if cost.min_value is not None else min([report.fmin] + generic)
    generic_ok = all(abs(f - fmin) < 1e-6 for f in generic)
    f_origin = cost.value(0.0)
    anti_ok = all(
        r.final_state_norm < 1e-4 and abs(r.final_cost - f_origin) < 1e-6
        for r in results
        if r.kind == "anti_balanced"
    )
    return DichotomyReport(
        runs=tuple(results),
        pdpli=report,
        generic_converged=generic_ok,
        anti_converged_to_origin=anti_ok,
    )


def _dichotomy_starts(
    cost: ScalarCost, k: int, n_generic: int, n_anti: int, seed: int
) -> list[tuple[str, LayerStack]]:
    """The battery's (kind, start) pairs: generic starts at d >= 0.05, then
    anti-balanced starts with ||w2|| >= 0.05, all drawn from one seeded RNG."""
    s = cost.sign_at_zero()
    rng = np.random.default_rng(seed)
    runs = []

    for _ in range(n_generic):
        w1 = rng.normal(0.0, 0.5, size=k)
        w2 = rng.normal(0.0, 0.5, size=k)
        while np.linalg.norm(w1 - s * w2) < 0.05:
            w1 = rng.normal(0.0, 0.5, size=k)
            w2 = rng.normal(0.0, 0.5, size=k)
        runs.append(("generic", _stack(w1, w2)))

    for _ in range(n_anti):
        w2 = rng.normal(0.0, 0.5, size=k)
        while np.linalg.norm(w2) < 0.05:
            w2 = rng.normal(0.0, 0.5, size=k)
        runs.append(("anti_balanced", anti_balanced(w2, cost)))
    return runs
