"""Explicit Runge-Kutta integration of autonomous fields.

Every method is an explicit tableau in first-same-as-last form: its last
stage row gives the new state, so the last stage is the field there and
opens the next step. Two tableaus are provided: the Dormand-Prince 5(4)
embedded pair with a proportional-integral step controller (the default),
and classical RK4, which has no error row, so every finite step is
accepted at the fixed step h0. The state is a flat float vector; callers
pack and unpack their own structures. ``solve_flow`` runs one flow with
checkpoints, recording and a stop predicate; ``solve_flow_batch`` runs a
(batch, dim) array of independent flows at once, each row stepping as its
own ``solve_flow`` run would. Both loops serve both methods.

A field is called as ``field(y, out)`` and writes the field at y into out,
an array of y's shape; its return value is ignored. Within one solve the
loops pass the same arrays again and again: one stage-input buffer and the
rows of one stage array, each made once (the batched loop makes them anew
when rows leave the batch). A field may therefore keep per-array work,
such as views of its own structures, keyed by array identity. It must not
keep the arrays' contents: the loops rewrite them between calls.

The solver stops on whichever comes first: the field norm dropping below
``grad_tol`` (convergence), reaching ``t_max``, exhausting ``max_steps``,
a step whose new state or field there is non-finite (the last finite
sample is kept; a start whose field is already non-finite stops there), or
a caller-supplied predicate. ``checkpoints`` are times the solver must
land on exactly; they are always recorded, which is how trajectories from
different systems get compared on a shared time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

__all__ = ["IntegratorConfig", "OdeResult", "solve_flow", "solve_flow_batch"]

_H_MIN = 1e-12
_H_MAX = 1.0


class _Tableau(NamedTuple):
    """Stage rows (row i builds stage i + 1 from stages 0..i; the last row
    gives the new state), solution weights, and error weights (None for a
    fixed-step method)."""

    a: tuple[np.ndarray, ...]
    b: np.ndarray
    e: Optional[np.ndarray]


_TABLEAUS = {
    "rk45": _Tableau(
        a=(
            np.array([0.2]),
            np.array([3.0 / 40.0, 9.0 / 40.0]),
            np.array([44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0]),
            np.array([19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0]),
            np.array([9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0]),
            np.array([35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0]),
        ),
        b=np.array([35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0]),
        # fifth-order minus embedded fourth-order weights
        e=np.array(
            [71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0]
        ),
    ),
    "rk4": _Tableau(
        a=(
            np.array([0.5]),
            np.array([0.0, 0.5]),
            np.array([0.0, 0.0, 1.0]),
            np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0]),
        ),
        b=np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0, 0.0]),
        e=None,
    ),
}

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
        if self.method not in _TABLEAUS:
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
    return bool(np.isfinite(arr).all())


Field = Callable[[np.ndarray, np.ndarray], None]


def solve_flow(
    field: Field,
    y0: np.ndarray,
    cfg: IntegratorConfig,
    checkpoints: Optional[Sequence[float]] = None,
    stop_when: Optional[Callable[[float, np.ndarray], bool]] = None,
) -> OdeResult:
    """Integrate dy/dt = field(y) from y0 under the given config.

    field(y, out) writes the field at the (d,) state y into the (d,) array
    out. The first call sees the initial state; every later call gets the
    solve's one stage-input buffer and one of its stage rows, the same
    array objects each time.
    """
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
        ys.append(state)  # never written to: every step makes a fresh state
        fns.append(fnorm)

    def finish(reason: str, steps: int) -> OdeResult:
        return OdeResult(
            t=np.array(ts),
            y=np.array(ys),
            field_norm=np.array(fns),
            stop_reason=reason,
            n_steps=steps,
        )

    a_rows, b, e = _TABLEAUS[cfg.method]
    stages = np.empty((len(b), y.size))
    # views made once: at these sizes numpy's dispatch is the cost; ndarray.dot
    # and math.sqrt below round exactly as matmul, np.linalg.norm and np.mean
    prior = [stages[: i + 1] for i in range(len(a_rows))]
    outs = list(stages)  # the field's output arrays, the same on every call
    first, last = outs[0], outs[-1]
    y_stage = np.empty_like(y)
    # blowups are expected to overflow in the field; the finiteness checks
    # turn them into a clean stop instead of a warning cascade
    with np.errstate(over="ignore", invalid="ignore"):
        field(y, first)
        fnorm = math.sqrt(first.dot(first))
    record(0.0, y, fnorm)
    if not _finite(first):
        return finish("non_finite", 0)
    if fnorm < cfg.grad_tol:
        return finish("converged", 0)
    if stop_when is not None and stop_when(0.0, y):
        return finish("stopped", 0)

    t = 0.0
    h = cfg.h0 if e is None else min(max(cfg.h0, _H_MIN), _H_MAX)
    err_prev = 1.0
    steps = 0
    cp_idx = 0

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

        with np.errstate(over="ignore", invalid="ignore"):
            for i, row in enumerate(a_rows):
                np.add(y, h_try * row.dot(prior[i]), out=y_stage)
                field(y_stage, outs[i + 1])
            y_new = y + h_try * b.dot(stages)
            fnorm_new = math.sqrt(last.dot(last))
            if e is None:
                err = 0.0
            else:
                scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y_new))
                scaled = h_try * e.dot(stages) / scale
                err = math.sqrt(np.add.reduce(scaled * scaled) / y.size)

        if not (_finite(y_new) and _finite(last)):
            record(t, y, fnorm)
            return finish("non_finite", steps)
        if math.isnan(err):
            err = math.inf

        if err <= 1.0 or h_try <= _H_MIN * 1.0000001:
            steps += 1
            t = bound if landing else t + h_try
            y = y_new
            first[...] = last  # first-same-as-last
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

            if e is not None:
                err = max(err, 1e-10)
                factor = _SAFETY * err ** (-_PI_ALPHA) * err_prev ** _PI_BETA
                factor = min(5.0, max(0.2, factor))
                h = min(max(h * factor, _H_MIN), _H_MAX)
                err_prev = err
        else:
            factor = max(0.2, _SAFETY * err ** (-_PI_ALPHA))
            h = min(max(h_try * factor, _H_MIN), _H_MAX)


def solve_flow_batch(
    field: Field,
    Y0: np.ndarray,
    cfg: IntegratorConfig,
) -> list[OdeResult]:
    """Integrate dy/dt = field(y) from every row of Y0 at once.

    field(Y, out) writes the fields of a (b, d) array of states into the
    (b, d) array out, row by row. Apart from the first call, which sees the
    initial states, the field gets a stage-input buffer and the rows of a
    stage array, the same array objects from call to call until a row
    leaves the batch and they are made anew at the smaller size.
    Each row keeps its own time, step size, controller state and step count,
    and measures its error over its own entries, so it makes the accept and
    reject decisions that its solve_flow run makes as long as its error
    estimate sits well above rounding. The stage sums are taken over the
    whole batch at once and can round differently from the serial sums: a
    row's state may differ from its serial run's in the last bits (more
    where the flow amplifies perturbations, as on the way into a saddle),
    and an error estimate at rounding level (a constant field, whose serial
    error is exactly 0) may get other step-size factors and so another step
    count. A row leaves the batch when it stops; a row whose field is
    non-finite at the start stops there with ``non_finite``. Returns one
    OdeResult per row holding only its final sample: there are no
    checkpoints, no recording and no stop predicate.
    """
    Y = np.array(Y0, dtype=float)
    if not _finite(Y):
        raise ValueError("initial state contains non-finite entries")

    a_rows, b, e = _TABLEAUS[cfg.method]
    n_rows = len(Y)
    t = np.zeros(n_rows)
    h = np.full(n_rows, cfg.h0 if e is None else min(max(cfg.h0, _H_MIN), _H_MAX))
    err_prev = np.ones(n_rows)
    steps = np.zeros(n_rows, dtype=int)
    stages = np.empty((len(b),) + Y.shape)
    # the field's arrays, made anew only when the batch shrinks
    outs, Y_stage = list(stages), np.empty_like(Y)
    with np.errstate(over="ignore", invalid="ignore"):
        field(Y, outs[0])
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
            outs, Y_stage = list(stages), np.empty_like(Y)
        if rows.size == 0:
            return results

        landing = t + h >= t_end
        h_try = np.where(landing, cfg.t_max - t, h)
        hcol = h_try[:, None]
        flat = stages.reshape(len(b), -1)  # a view: stage i is row i of flat
        with np.errstate(over="ignore", invalid="ignore"):
            for i, row in enumerate(a_rows):
                np.add(Y, hcol * (row @ flat[: i + 1]).reshape(Y.shape), out=Y_stage)
                field(Y_stage, outs[i + 1])
            Y_new = Y + hcol * (b @ flat).reshape(Y.shape)
            finite = np.isfinite(Y_new).all(axis=1) & np.isfinite(stages[-1]).all(axis=1)
            if e is None:
                accept = finite
            else:
                err_vec = hcol * (e @ flat).reshape(Y.shape)
                scale = cfg.atol + cfg.rtol * np.maximum(np.abs(Y), np.abs(Y_new))
                err = np.sqrt(np.mean((err_vec / scale) ** 2, axis=1))
                err[np.isnan(err)] = np.inf
                accept = finite & ((err <= 1.0) | (h_try <= _H_MIN * 1.0000001))
                # fmax/fmin skip NaN the way the serial loop's max/min do; the
                # floor also spares a zero error estimate a division by zero
                err_acc = np.maximum(err, 1e-10)
                grow = np.fmin(5.0, np.fmax(0.2, _SAFETY * err_acc ** (-_PI_ALPHA) * err_prev ** _PI_BETA))
                shrink = np.fmax(0.2, _SAFETY * err_acc ** (-_PI_ALPHA))
                h = np.where(accept, h * grow, h_try * shrink).clip(_H_MIN, _H_MAX)
                err_prev = np.where(accept, err_acc, err_prev)

        steps += accept
        t = np.where(accept, np.where(landing, cfg.t_max, t + h_try), t)
        Y[accept] = Y_new[accept]
        stages[0, accept] = stages[-1, accept]
        with np.errstate(over="ignore", invalid="ignore"):
            fnorm[accept] = np.linalg.norm(stages[0, accept], axis=1)

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
