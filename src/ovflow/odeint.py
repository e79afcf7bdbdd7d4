"""Dormand and Prince's 8(5,3) pair, DOP853, for autonomous fields.

DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.10) is the only
integrator: an explicit Runge-Kutta pair in first-same-as-last form,
stepping under its own step-size control. Its last stage row gives the new
state, so the last stage is the field there and opens the next step. The
state is a flat float vector; callers pack and unpack their own structures.
``solve_flow`` runs one flow with checkpoints, recording and a stop
predicate; ``solve_flow_batch`` runs a (batch, dim) array of independent
flows at once, each row stepping as its own ``solve_flow`` run would.

A field is called as ``field(y, out)`` and writes the field at y into out,
an array of y's shape; its return value is ignored. Within one solve the
loops pass the same arrays again and again: one stage-input buffer, the
rows of one stage array and, for checkpoints, one output buffer, each made
once (the batched loop makes them anew when rows leave the batch), and so
the same few (y, out) pairs: after the first call, the stage-input buffer
with each later stage row or the output buffer. A field may therefore keep
work keyed by array identity, per array (views of its own structures) or
per pair (a computation bound to both). It must not keep the arrays'
contents: the loops rewrite them between calls.

The solver stops on whichever comes first: the field norm dropping below
``grad_tol`` (convergence), reaching ``t_max``, exhausting ``max_steps``,
a step whose new state or field there is non-finite (the last finite
sample is kept; a start whose field is already non-finite stops there), or
a caller-supplied predicate. ``checkpoints`` are times that are always
recorded, which is how trajectories from different systems get compared
on a shared time grid. Steps are not shortened to land on them: each is
sampled from DOP853's 7th-order dense output on the step that spans it, so
a flow takes the same steps with or without checkpoints. Only ``t_max`` is
landed on.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = ["IntegratorConfig", "OdeResult", "solve_flow", "solve_flow_batch"]

_H_MIN = 1e-12
_H_MAX = 1.0


# DOP853's coefficients (Hairer's dop853.f, as scipy.integrate ships them):
# 12 stage rows, the last giving the new state, and 3 extra stages for the
# dense output. The stage times are not needed: every field is autonomous.
_DOP853_A = (
    np.array([0.05260015195876773]),
    np.array([0.0197250569845379, 0.0591751709536137]),
    np.array([0.02958758547680685, 0.0, 0.08876275643042054]),
    np.array([0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792]),
    np.array([0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242]),
    np.array([0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125]),
    np.array([
        0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
        0.008273789163814023,
    ]),
    np.array([
        0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
        20.154067550477894, -43.48988418106996,
    ]),
    np.array([
        0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
        15.279233632882423, -33.28821096898486, -0.020331201708508627,
    ]),
    np.array([
        -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
        -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196,
    ]),
    np.array([
        2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
        27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303, 0.6433927460157636,
    ]),
    np.array([
        0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
        0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
    ]),
)
_DOP853_A_EXTRA = (
    np.array([
        0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
        -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298,
    ]),
    np.array([
        0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
        -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
        -0.00034046500868740456, 0.1413124436746325,
    ]),
    np.array([
        -0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
        0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987,
    ]),
)
_DOP853_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0,
])
_DOP853_E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0,
])
_DOP853_D = np.array([
    [
        -8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
        2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
        18.148505520854727, -9.194632392478356, -4.436036387594894,
    ],
    [
        10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
        -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229, 15.697238121770845,
        -31.139403219565178, -9.35292435884448, 35.81684148639408,
    ],
    [
        19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
        -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
        -60.19669523126412, 84.32040550667716, 11.99229113618279,
    ],
    [
        -25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
        93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605, -43.53345659001114,
        96.32455395918828, -39.17726167561544, -149.72683625798564,
    ],
])

_DOP853_B = np.append(_DOP853_A[-1], 0.0)  # the new state's weights; the 13th stage has none

# DOP853's own step control: the error's power for an order-7 estimate,
# and the safety factor (Hairer, Norsett & Wanner, sec. II.4)
_ERR_EXPONENT = -1.0 / 8.0
_SAFETY = 0.9
# the dense output's weight on its row j is x or 1 - x for even or
# odd j, times its weight on row j - 1 (x: the fraction of the step)
_EVEN_ROWS = np.arange(7) % 2 == 0


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration settings shared by every flow in the package.

    rtol and atol bound each DOP853 step's error; h0 is the first trial
    step. grad_tol is the field-norm threshold that counts as convergence;
    record_stride records every that many steps.
    """

    rtol: float = 1e-10
    atol: float = 1e-12
    h0: float = 1e-3
    t_max: float = 50.0
    grad_tol: float = 1e-8
    max_steps: int = 1_000_000
    record_stride: int = 1

    def __post_init__(self):
        for name in ("rtol", "atol", "h0", "t_max", "grad_tol"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")


@dataclass(frozen=True, eq=False)
class OdeResult:
    """Sampled solution: times, states (one row per sample), field norms at
    the samples, why integration stopped, the accepted step count, the
    field evaluations, the rejected steps, and the steps accepted at the
    minimum step size although their error estimate exceeded 1.

    Every record of a flow in the package extends this one. Each ndarray
    field, a subclass's included, is stored as a read-only view of a
    read-only owner, so numpy refuses to make it writeable again; an array
    that is already read-only is stored as given."""

    t: np.ndarray
    y: np.ndarray
    field_norm: np.ndarray
    stop_reason: str
    n_steps: int
    nfev: int
    n_rejected: int
    n_forced: int

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray) and value.flags.writeable:
                value.flags.writeable = False
                object.__setattr__(self, name, value.view())


def _finite(arr: np.ndarray) -> bool:
    return bool(np.isfinite(arr).all())


def _finite_by(size: float, arr: np.ndarray) -> bool:
    """Whether arr is finite, given its norm or sum of squares: a finite one
    has only finite terms, and only an overflowing or non-finite one needs
    the entries checked."""
    return math.isfinite(size) or _finite(arr)


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
    solve's one stage-input buffer and either one of its stage rows or its
    checkpoint buffer, the same array objects each time.

    Every checkpoint in (0, t_max] that the run reaches is recorded, in time
    order with the steps, together with the field norm there. Every recorded
    sample is tested for convergence (field norm below grad_tol) and then
    asked stop_when, so nothing past the stop is recorded.
    """
    y = np.array(y0, dtype=float).ravel()
    if not _finite(y):
        raise ValueError("initial state contains non-finite entries")

    cps: list[float] = []
    if checkpoints is not None:
        cps = sorted({float(t) for t in checkpoints if 0.0 < float(t) <= cfg.t_max})

    ts: list[float] = []
    ys: list[np.ndarray] = []
    fns: list[float] = []

    def record(t: float, state: np.ndarray, fnorm: float) -> None:
        if ts and ts[-1] == t:
            return
        ts.append(t)
        ys.append(state)  # never written to: every step makes fresh states
        fns.append(fnorm)

    def finish(reason: str) -> OdeResult:
        return OdeResult(
            t=np.array(ts),
            y=np.array(ys),
            field_norm=np.array(fns),
            stop_reason=reason,
            n_steps=steps,
            nfev=nfev,
            n_rejected=rejected,
            n_forced=forced,
        )

    n_stages = len(_DOP853_B)  # the step's stages; the dense output's extra stages follow
    stages = np.empty((n_stages + len(_DOP853_A_EXTRA), y.size))
    # views made once: at these sizes numpy's dispatch is the cost; ndarray.dot
    # and math.sqrt below round exactly as matmul and np.linalg.norm
    prior = [stages[: i + 1] for i in range(len(stages) - 1)]
    step_stages = stages[:n_stages]
    outs = list(stages)  # the field's output arrays, the same on every call
    first, last = outs[0], outs[n_stages - 1]
    # each stage's input is y + h * row.dot(the stages before it); its field goes to the next row
    combos = [(row.dot, prior[i], outs[i + 1]) for i, row in enumerate(_DOP853_A)]
    dense_combos = [(row.dot, prior[i], outs[i + 1]) for i, row in enumerate(_DOP853_A_EXTRA, len(_DOP853_A))]
    y_stage, cp_out = np.empty_like(y), np.empty_like(y)
    ctrl = np.empty(1)
    # numpy scales an array by a 0-d array faster than by a float, with the same rounding
    atol, rtol = np.array(cfg.atol), np.array(cfg.rtol)
    steps = rejected = forced = 0
    nfev = 1
    # blowups are expected to overflow in the field; the finiteness checks
    # turn them into a clean stop instead of a warning cascade
    with np.errstate(over="ignore", invalid="ignore"):
        field(y, first)
        fnorm = math.sqrt(first.dot(first))
    record(0.0, y, fnorm)
    if not _finite(first):
        return finish("non_finite")
    if fnorm < cfg.grad_tol:
        return finish("converged")
    if stop_when is not None and stop_when(0.0, y):
        return finish("stopped")

    t = 0.0
    h = min(max(cfg.h0, _H_MIN), _H_MAX)
    abs_y = np.abs(y)  # carried over from each accepted step
    retry = False  # the last try was rejected
    cp_idx = 0

    while True:
        if steps >= cfg.max_steps:
            record(t, y, fnorm)
            return finish("max_steps")

        landing = t + h >= cfg.t_max - 1e-14 * max(1.0, cfg.t_max)
        h_try = cfg.t_max - t if landing else h

        h_0d = np.array(h_try)
        with np.errstate(over="ignore", invalid="ignore"):
            for dot, stages_before, out in combos:
                np.add(y, h_0d * dot(stages_before), out=y_stage)
                field(y_stage, out)
            nfev += len(combos)
            y_new = y + h_0d * _DOP853_B.dot(step_stages)
            fnorm_new = math.sqrt(last.dot(last))
            finite = _finite_by(fnorm_new, last) and _finite_by(y_new.dot(y_new), y_new)
            abs_new = np.abs(y_new)
            scale = atol + rtol * np.maximum(abs_y, abs_new)
            r5, r3 = _DOP853_E5.dot(step_stages) / scale, _DOP853_E3.dot(step_stages) / scale
            # summed as the batched loop sums a row, not by ndarray.dot
            n5 = np.add.reduce(r5 * r5)
            denom = (n5 + 0.01 * np.add.reduce(r3 * r3)) * y.size
            err = h_try * n5 / math.sqrt(denom) if denom else 0.0  # 0 only when both estimates are

        if not finite:
            record(t, y, fnorm)
            return finish("non_finite")
        if math.isnan(err):
            err = math.inf

        # np.power, not float **: it rounds as the batched loop's powers do
        ctrl[0] = max(err, 1e-10)
        p_err = np.power(ctrl, _ERR_EXPONENT, out=ctrl).item()

        if err <= 1.0 or h_try <= _H_MIN * 1.0000001:
            steps += 1
            forced += int(err > 1.0)
            t_old, t = t, cfg.t_max if landing else t + h_try
            end = bisect_left(cps, t, cp_idx)  # checkpoints inside the step
            if end > cp_idx:
                with np.errstate(over="ignore", invalid="ignore"):
                    for dot, stages_before, out in dense_combos:
                        np.add(y, h_0d * dot(stages_before), out=y_stage)
                        field(y_stage, out)
                    nfev += len(dense_combos)
                    dy = y_new - y
                    hermite = (dy, h_try * first - dy, 2.0 * dy - h_try * (last + first))
                    coef = np.vstack((*hermite, h_try * _DOP853_D.dot(stages)))
                    x = (np.array(cps[cp_idx:end]) - t_old) / h_try
                    weights = np.where(_EVEN_ROWS, x[:, None], 1.0 - x[:, None]).cumprod(axis=1)
                    dense = y + weights.dot(coef)
                    for j, (t_cp, y_cp) in enumerate(zip(cps[cp_idx:end], dense)):
                        finite = _finite_by(y_cp.dot(y_cp), y_cp)
                        if finite:
                            y_stage[...] = y_cp
                            field(y_stage, cp_out)
                            nfev += 1
                            fnorm_cp = math.sqrt(cp_out.dot(cp_out))
                            finite = _finite_by(fnorm_cp, cp_out)
                        if not finite:
                            if j == 0:  # else the last checkpoint is the last finite sample
                                record(t_old, y, fnorm)
                            return finish("non_finite")
                        record(t_cp, y_cp, fnorm_cp)
                        if fnorm_cp < cfg.grad_tol:
                            return finish("converged")
                        if stop_when is not None and stop_when(t_cp, y_cp):
                            return finish("stopped")
            y, abs_y = y_new, abs_new
            first[...] = last  # first-same-as-last
            fnorm = fnorm_new

            cp_at_end = end < len(cps) and cps[end] == t
            cp_idx = end + cp_at_end
            if cp_at_end or steps % cfg.record_stride == 0:
                record(t, y, fnorm)

            if fnorm < cfg.grad_tol:
                record(t, y, fnorm)
                return finish("converged")
            if landing:
                record(t, y, fnorm)
                return finish("t_max")
            if stop_when is not None and stop_when(t, y):
                record(t, y, fnorm)
                return finish("stopped")

            # a step right after a rejected try may not grow
            factor = min(1.0 if retry else 5.0, max(0.2, _SAFETY * p_err))
            h = min(max(h * factor, _H_MIN), _H_MAX)
            retry = False
        else:
            rejected += 1
            factor = max(0.2, _SAFETY * p_err)
            h = min(max(h_try * factor, _H_MIN), _H_MAX)
            retry = True


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
    Each row keeps its own time, step size, controller state and counts,
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

    n_stages = len(_DOP853_B)
    n_rows = len(Y)
    t = np.zeros(n_rows)
    h = np.full(n_rows, min(max(cfg.h0, _H_MIN), _H_MAX))
    retry = np.zeros(n_rows, dtype=bool)  # a row's last try was rejected
    steps, nfev, rejected, forced = (np.zeros(n_rows, dtype=int) for _ in range(4))
    nfev += 1
    # the stage array and stage-input buffer of every batch size are views of
    # one block, so a shrinking batch allocates nothing; the field's arrays
    # are made anew only when it shrinks
    block = np.empty((n_stages + 1) * Y.size)

    def buffers(n: int) -> tuple[np.ndarray, np.ndarray]:
        arrays = block[: (n_stages + 1) * n * Y.shape[1]].reshape(n_stages + 1, n, Y.shape[1])
        return arrays[:-1], arrays[-1]

    stages, Y_stage = buffers(n_rows)
    outs = list(stages)
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
                nfev=int(nfev[j]),
                n_rejected=int(rejected[j]),
                n_forced=int(forced[j]),
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
            rows, Y, t, h, retry, steps, nfev, rejected, forced, fnorm = (
                a[keep] for a in (rows, Y, t, h, retry, steps, nfev, rejected, forced, fnorm)
            )
            first = stages[0, keep]  # the next step's first stage, copied out
            stages, Y_stage = buffers(rows.size)
            stages[0] = first
            outs = list(stages)
        if rows.size == 0:
            return results

        landing = t + h >= t_end
        h_try = np.where(landing, cfg.t_max - t, h)
        hcol = h_try[:, None]
        flat = stages.reshape(n_stages, -1)  # a view: stage i is row i of flat
        with np.errstate(over="ignore", invalid="ignore"):
            for i, row in enumerate(_DOP853_A):
                np.add(Y, hcol * (row @ flat[: i + 1]).reshape(Y.shape), out=Y_stage)
                field(Y_stage, outs[i + 1])
            nfev += len(_DOP853_A)
            Y_new = Y + hcol * (_DOP853_B @ flat).reshape(Y.shape)
            finite = np.isfinite(Y_new).all(axis=1) & np.isfinite(stages[-1]).all(axis=1)
            scale = cfg.atol + cfg.rtol * np.maximum(np.abs(Y), np.abs(Y_new))
            r5 = (_DOP853_E5 @ flat).reshape(Y.shape) / scale
            r3 = (_DOP853_E3 @ flat).reshape(Y.shape) / scale
            n5 = (r5 * r5).sum(axis=1)
            denom = (n5 + 0.01 * (r3 * r3).sum(axis=1)) * Y.shape[1]
            err = np.where(denom == 0.0, 0.0, h_try * n5 / np.sqrt(denom))
            err[np.isnan(err)] = np.inf
            accept = finite & ((err <= 1.0) | (h_try <= _H_MIN * 1.0000001))
            forced += accept & (err > 1.0)
            rejected += finite & ~accept
            # fmax/fmin skip NaN the way the serial loop's max/min do; the
            # floor also spares a zero error estimate a division by zero
            factor = np.fmax(0.2, _SAFETY * np.maximum(err, 1e-10) ** _ERR_EXPONENT)
            grow = np.fmin(np.where(retry, 1.0, 5.0), factor)
            h = np.where(accept, h * grow, h_try * factor).clip(_H_MIN, _H_MAX)
            retry = ~accept

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
