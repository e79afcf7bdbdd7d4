"""Explicit Runge-Kutta integration of autonomous fields.

Two methods are provided: the Dormand-Prince 5(4) embedded pair with a
proportional-integral step controller (the default), and fixed-step
classical RK4. Both treat the state as a flat float vector; callers pack
and unpack their own structures. ``solve_flow_batch`` runs Dormand-Prince
on a (batch, dim) array of independent flows at once, each row stepping as
its own ``solve_flow`` run would.

The solver stops on whichever comes first: the field norm dropping below
``grad_tol`` (convergence), reaching ``t_max``, exhausting ``max_steps``,
a non-finite state (the last finite sample is kept), or a caller-supplied
predicate. ``checkpoints`` are times the solver must land on exactly;
they are always recorded, which is how trajectories from different systems
get compared on a shared time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = ["IntegratorConfig", "OdeResult", "solve_flow", "solve_flow_batch"]

_H_MIN = 1e-12
_H_MAX = 1.0

# Dormand-Prince 5(4) tableau
_A = (
    np.array([0.2]),
    np.array([3.0 / 40.0, 9.0 / 40.0]),
    np.array([44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0]),
    np.array([19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0]),
    np.array([9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0]),
    np.array([35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0]),
)
_B = np.array([35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0])
# fifth-order minus embedded fourth-order weights
_E = np.array(
    [71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0]
)

# PI controller exponents for an order-4 error estimate
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
_SAFETY = 0.9


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration settings shared by every flow in the package.

    method is "rk45" (adaptive Dormand-Prince) or "rk4" (fixed step h0).
    grad_tol is the field-norm threshold that counts as convergence.
    """

    method: str = "rk45"
    rtol: float = 1e-10
    atol: float = 1e-12
    h0: float = 1e-3
    t_max: float = 50.0
    grad_tol: float = 1e-8
    max_steps: int = 1_000_000
    record_stride: int = 1

    def __post_init__(self):
        if self.method not in ("rk45", "rk4"):
            raise ValueError(f"unknown method {self.method!r}; use 'rk45' or 'rk4'")
        for name in ("rtol", "atol", "h0", "t_max", "grad_tol"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")


@dataclass
class OdeResult:
    """Sampled solution: times, states (one row per sample), field norms at
    the samples, why integration stopped, and the accepted step count."""

    t: np.ndarray
    y: np.ndarray
    field_norm: np.ndarray
    stop_reason: str
    n_steps: int


def _finite(arr: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(arr)))


def solve_flow(
    field: Callable[[np.ndarray], np.ndarray],
    y0: np.ndarray,
    cfg: IntegratorConfig,
    checkpoints: Optional[Sequence[float]] = None,
    stop_when: Optional[Callable[[float, np.ndarray], bool]] = None,
) -> OdeResult:
    """Integrate dy/dt = field(y) from y0 under the given config."""
    y = np.array(y0, dtype=float).ravel()
    if not _finite(y):
        raise ValueError("initial state contains non-finite entries")

    cps: list[float] = []
    if checkpoints is not None:
        cps = [float(t) for t in checkpoints if 0.0 < float(t) <= cfg.t_max]
        cps.sort()

    ts: list[float] = []
    ys: list[np.ndarray] = []
    fns: list[float] = []

    def record(t: float, state: np.ndarray, fnorm: float) -> None:
        if ts and ts[-1] == t:
            return
        ts.append(t)
        ys.append(state.copy())
        fns.append(fnorm)

    def finish(reason: str, steps: int) -> OdeResult:
        return OdeResult(
            t=np.array(ts),
            y=np.array(ys),
            field_norm=np.array(fns),
            stop_reason=reason,
            n_steps=steps,
        )

    k1 = np.asarray(field(y), dtype=float).ravel()
    if not _finite(k1):
        raise ValueError("field is non-finite at the initial state")
    with np.errstate(over="ignore", invalid="ignore"):
        fnorm = float(np.linalg.norm(k1))
    record(0.0, y, fnorm)
    if fnorm < cfg.grad_tol:
        return finish("converged", 0)
    if stop_when is not None and stop_when(0.0, y):
        return finish("stopped", 0)

    if cfg.method == "rk4":
        return _run_rk4(field, y, k1, fnorm, cfg, cps, stop_when, record, finish)
    return _run_dopri(field, y, k1, fnorm, cfg, cps, stop_when, record, finish)


def _run_dopri(field, y, k1, fnorm, cfg, cps, stop_when, record, finish):
    t = 0.0
    h = min(max(cfg.h0, _H_MIN), _H_MAX)
    err_prev = 1.0
    steps = 0
    cp_idx = 0
    stages = np.empty((7, y.size))
    stages[0] = k1

    while True:
        if steps >= cfg.max_steps:
            record(t, y, fnorm)
            return finish("max_steps", steps)

        bound = cps[cp_idx] if cp_idx < len(cps) else cfg.t_max
        landing = False
        h_try = h
        if t + h_try >= bound - 1e-14 * max(1.0, bound):
            h_try = bound - t
            landing = True

        # blowups are expected to overflow here; the finiteness check below
        # turns them into a clean stop instead of a warning cascade
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(6):
                yi = y + h_try * (_A[i] @ stages[: i + 1])
                stages[i + 1] = field(yi)
            y_new = y + h_try * (_B @ stages)
            err_vec = h_try * (_E @ stages)
            scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y_new))
            err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
            fnorm_new = float(np.linalg.norm(stages[6]))  # stage 7 is the field at y_new

        if not (_finite(y_new) and _finite(err_vec)):
            record(t, y, fnorm)
            return finish("non_finite", steps)
        if math.isnan(err):
            err = math.inf

        if err <= 1.0 or h_try <= _H_MIN * 1.0000001:
            steps += 1
            t = bound if landing else t + h_try
            y = y_new
            stages[0] = stages[6]  # first-same-as-last
            fnorm = fnorm_new

            hit_cp = landing and cp_idx < len(cps) and bound == cps[cp_idx]
            if hit_cp:
                cp_idx += 1
            if hit_cp or steps % cfg.record_stride == 0:
                record(t, y, fnorm)

            if fnorm < cfg.grad_tol:
                record(t, y, fnorm)
                return finish("converged", steps)
            if t >= cfg.t_max - 1e-14 * max(1.0, cfg.t_max):
                record(t, y, fnorm)
                return finish("t_max", steps)
            if stop_when is not None and stop_when(t, y):
                record(t, y, fnorm)
                return finish("stopped", steps)

            err = max(err, 1e-10)
            factor = _SAFETY * err ** (-_PI_ALPHA) * err_prev ** _PI_BETA
            factor = min(5.0, max(0.2, factor))
            h = min(max(h * factor, _H_MIN), _H_MAX)
            err_prev = err
        else:
            factor = max(0.2, _SAFETY * err ** (-_PI_ALPHA))
            h = min(max(h_try * factor, _H_MIN), _H_MAX)


def solve_flow_batch(
    field: Callable[[np.ndarray], np.ndarray],
    Y0: np.ndarray,
    cfg: IntegratorConfig,
) -> list[OdeResult]:
    """Integrate dy/dt = field(y) from every row of Y0 at once with Dormand-Prince.

    field maps a (b, d) array of states to their (b, d) fields row by row.
    Each row keeps its own time, step size, controller state and step count,
    and measures its error over its own entries, so it makes the accept and
    reject decisions that its solve_flow run makes. A row leaves the batch
    when it stops; a row whose field is non-finite at the start stops there
    with ``non_finite``. Returns one OdeResult per row holding only its final
    sample: there are no checkpoints, no recording and no stop predicate.
    """
    if cfg.method != "rk45":
        raise ValueError(f"the batch solver is Dormand-Prince only, not {cfg.method!r}")
    Y = np.array(Y0, dtype=float)
    if not _finite(Y):
        raise ValueError("initial state contains non-finite entries")

    n_rows = len(Y)
    t = np.zeros(n_rows)
    h = np.full(n_rows, min(max(cfg.h0, _H_MIN), _H_MAX))
    err_prev = np.ones(n_rows)
    steps = np.zeros(n_rows, dtype=int)
    stages = np.empty((7,) + Y.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        stages[0] = field(Y)
        fnorm = np.linalg.norm(stages[0], axis=1)
    rows = np.arange(n_rows)
    results: list[Optional[OdeResult]] = [None] * n_rows

    def retire(done: np.ndarray, reason: str) -> None:
        for j in np.flatnonzero(done):
            results[rows[j]] = OdeResult(
                t=t[j : j + 1].copy(),
                y=Y[j : j + 1].copy(),
                field_norm=fnorm[j : j + 1].copy(),
                stop_reason=reason,
                n_steps=int(steps[j]),
            )

    t_end = cfg.t_max - 1e-14 * max(1.0, cfg.t_max)
    stopped = ~np.isfinite(stages[0]).all(axis=1)
    retire(stopped, "non_finite")
    converged = ~stopped & (fnorm < cfg.grad_tol)
    retire(converged, "converged")
    stopped |= converged

    while True:
        if stopped.any():
            keep = ~stopped
            rows, Y, t, h, err_prev, steps, fnorm = (
                a[keep] for a in (rows, Y, t, h, err_prev, steps, fnorm)
            )
            stages = np.ascontiguousarray(stages[:, keep])
        if rows.size == 0:
            return results

        landing = t + h >= t_end
        h_try = np.where(landing, cfg.t_max - t, h)
        hcol = h_try[:, None]
        flat = stages.reshape(7, -1)  # a view: stage i is row i of flat
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(6):
                stages[i + 1] = field(Y + hcol * (_A[i] @ flat[: i + 1]).reshape(Y.shape))
            Y_new = Y + hcol * (_B @ flat).reshape(Y.shape)
            err_vec = hcol * (_E @ flat).reshape(Y.shape)
            finite = np.isfinite(Y_new).all(axis=1) & np.isfinite(err_vec).all(axis=1)
            scale = cfg.atol + cfg.rtol * np.maximum(np.abs(Y), np.abs(Y_new))
            err = np.sqrt(np.mean((err_vec / scale) ** 2, axis=1))
        err[np.isnan(err)] = np.inf
        accept = finite & ((err <= 1.0) | (h_try <= _H_MIN * 1.0000001))

        steps += accept
        t = np.where(accept, np.where(landing, cfg.t_max, t + h_try), t)
        Y[accept] = Y_new[accept]
        stages[0, accept] = stages[6, accept]
        with np.errstate(over="ignore", invalid="ignore"):
            fnorm[accept] = np.linalg.norm(stages[0, accept], axis=1)
            # fmax/fmin skip NaN the way the serial loop's max/min do
            err_acc = np.maximum(err, 1e-10)
            grow = np.fmin(5.0, np.fmax(0.2, _SAFETY * err_acc ** (-_PI_ALPHA) * err_prev ** _PI_BETA))
            shrink = np.fmax(0.2, _SAFETY * err ** (-_PI_ALPHA))
        h = np.where(accept, h * grow, h_try * shrink).clip(_H_MIN, _H_MAX)
        err_prev = np.where(accept, err_acc, err_prev)

        stopped = ~finite
        retire(stopped, "non_finite")
        # the serial loop's stop tests, in its order
        for reason, hit in (
            ("converged", fnorm < cfg.grad_tol),
            ("t_max", t >= t_end),
            ("max_steps", steps >= cfg.max_steps),
        ):
            hit &= accept & ~stopped
            retire(hit, reason)
            stopped |= hit


def _run_rk4(field, y, k1, fnorm, cfg, cps, stop_when, record, finish):
    t = 0.0
    steps = 0
    cp_idx = 0

    while True:
        if steps >= cfg.max_steps:
            record(t, y, fnorm)
            return finish("max_steps", steps)

        bound = cps[cp_idx] if cp_idx < len(cps) else cfg.t_max
        landing = False
        h = cfg.h0
        if t + h >= bound - 1e-14 * max(1.0, bound):
            h = bound - t
            landing = True

        with np.errstate(over="ignore", invalid="ignore"):
            k2 = np.asarray(field(y + 0.5 * h * k1), dtype=float).ravel()
            k3 = np.asarray(field(y + 0.5 * h * k2), dtype=float).ravel()
            k4 = np.asarray(field(y + h * k3), dtype=float).ravel()
            y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        if not _finite(y_new):
            record(t, y, fnorm)
            return finish("non_finite", steps)

        steps += 1
        t = bound if landing else t + h
        y = y_new
        k1 = np.asarray(field(y), dtype=float).ravel()
        if not _finite(k1):
            record(t, y, fnorm)
            return finish("non_finite", steps)
        with np.errstate(over="ignore", invalid="ignore"):
            fnorm = float(np.linalg.norm(k1))

        hit_cp = landing and cp_idx < len(cps) and bound == cps[cp_idx]
        if hit_cp:
            cp_idx += 1
        if hit_cp or steps % cfg.record_stride == 0:
            record(t, y, fnorm)

        if fnorm < cfg.grad_tol:
            record(t, y, fnorm)
            return finish("converged", steps)
        if t >= cfg.t_max - 1e-14 * max(1.0, cfg.t_max):
            record(t, y, fnorm)
            return finish("t_max", steps)
        if stop_when is not None and stop_when(t, y):
            record(t, y, fnorm)
            return finish("stopped", steps)
