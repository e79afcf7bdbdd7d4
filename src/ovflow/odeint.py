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
an array of y's shape; its return value is ignored. y is one (d,) state or
an (m, d) array of states, and every field serves both, row by row: the
batched loop passes its (batch, d) arrays, and the serial loop passes the
(m, d) block of a step's checkpoint samples in one call. The stages go to
arrays that each loop makes once: one stage-input buffer and the rows of
one stage array (the batched loop makes them anew when rows leave the
batch). Each loop binds the field to them when it makes them: a field with
a ``bind`` method gets ``field.bind(y, outs)`` and returns one run per
out, a call without arguments that writes the field at whatever y holds
into that out; any other field is bound as a plain call on the same
arrays. A field must not keep the arrays' contents: the loops rewrite them
between calls.

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

The serial loop has one sample rule: the start, each finite checkpoint
sample and each step end is tested for convergence, then asked the
predicate, and recorded if it is kept (the start, a checkpoint, a step end
on the record stride) or stops the run; any other stop appends the last
accepted state unless the record already ends there or later. Each loop
runs under one ``np.errstate(over="ignore", invalid="ignore")``, so a
blowup is a clean non-finite stop, not a warning cascade; the predicate
runs under the caller's error state, entered once per group of samples.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
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
    read-only owner, so numpy refuses to make it writeable again; a
    writeable view is copied first, as numpy would unlock it. An array
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
                owner = value if value.base is None else value.copy()
                owner.flags.writeable = False
                object.__setattr__(self, name, owner.view())


def _finite(arr: np.ndarray) -> bool:
    return bool(np.isfinite(arr).all())


def _finite_by(size: float, arr: np.ndarray) -> bool:
    """Whether arr is finite, given its norm or sum of squares: a finite one
    has only finite terms, and only an overflowing or non-finite one needs
    the entries checked."""
    return math.isfinite(size) or _finite(arr)


Field = Callable[[np.ndarray, np.ndarray], None]


def _bind(field: Field, y: np.ndarray, outs: Sequence[np.ndarray]) -> list[Callable[[], None]]:
    """One run per out of the field at whatever y holds: the field's own
    ``bind`` if it has one, else a plain call."""
    if hasattr(field, "bind"):
        return field.bind(y, outs)
    return [partial(field, y, out) for out in outs]


def solve_flow(
    field: Field,
    y0: np.ndarray,
    cfg: IntegratorConfig,
    checkpoints: Optional[Sequence[float]] = None,
    stop_when: Optional[Callable[[float, np.ndarray], bool]] = None,
) -> OdeResult:
    """Integrate dy/dt = field(y) from y0 under the given config.

    field(y, out) writes the field at the (d,) state y into the (d,) array
    out, or, for an (m, d) array of states, each row's field into that row
    of the (m, d) out. The first call sees the initial state. The stages
    are evaluated by runs bound once per solve (see the module docstring) on
    the solve's one stage-input buffer and its later stage rows. The
    checkpoints inside a step are sampled from its dense output as one
    (m, d) block, and the field is called once on that block.

    Every checkpoint in (0, t_max] that the run reaches is recorded, in time
    order with the steps, together with the field norm there. Every sample,
    recorded or not, is tested for convergence (field norm below grad_tol)
    and then asked stop_when, so nothing past the stop is recorded; a
    non-finite sample stops the run before it is recorded. stop_when runs
    under the caller's numpy error state, at checkpoints as at step ends.

    nfev counts the states the field was evaluated at: one per call on a
    single state and m per block, the rows past a stop inside the block
    included.
    """
    y = np.array(y0, dtype=float).ravel()
    if not _finite(y):
        raise ValueError("initial state contains non-finite entries")

    cps: list[float] = []
    if checkpoints is not None:
        cps_in = np.asarray(checkpoints, dtype=float).ravel()
        cps = np.unique(cps_in[(cps_in > 0.0) & (cps_in <= cfg.t_max)]).tolist()

    ts: list[float] = []
    ys: list[np.ndarray] = []
    fns: list[float] = []
    caller = np.geterr()

    def admit(times, states, norms, kept: bool) -> Optional[str]:
        """Record a group of finite samples up to the first that converges
        or, asked under the caller's error state, trips stop_when, and the
        rest only if kept. Return the stop reason, or None."""
        end = next((j for j, norm in enumerate(norms) if norm < cfg.grad_tol), len(norms))
        reason = "converged" if end < len(norms) else None
        if stop_when is not None and end:
            with np.errstate(**caller):
                hit = next((j for j in range(end) if stop_when(times[j], states[j])), None)
            if hit is not None:
                end, reason = hit, "stopped"
        if reason is None and not kept:
            return None
        # up to and with the sample that stops the run; end + 1 is past the group's end otherwise
        ts.extend(times[: end + 1])
        ys.extend(states[: end + 1])  # never written to: every step makes fresh states
        fns.extend(norms[: end + 1])
        return reason

    def finish(reason: str) -> OdeResult:
        """The record, ending at the last accepted state unless it ends there or later."""
        if not ts or ts[-1] < t:
            ts.append(t)
            ys.append(y)
            fns.append(fnorm)
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
    first, last = stages[0], stages[n_stages - 1]
    y_stage = np.empty_like(y)
    # each stage's input is y + h * row.dot(the stages before it); its field goes to the next row
    runs = _bind(field, y_stage, stages[1:])
    combos = [(row.dot, prior[i], runs[i]) for i, row in enumerate(_DOP853_A)]
    dense_combos = [(row.dot, prior[i], runs[i]) for i, row in enumerate(_DOP853_A_EXTRA, len(_DOP853_A))]
    ctrl = np.empty(1)
    # numpy scales an array by a 0-d array faster than by a float, with the same rounding
    atol, rtol = np.array(cfg.atol), np.array(cfg.rtol)
    t = 0.0
    steps = rejected = forced = 0
    nfev = 1
    with np.errstate(over="ignore", invalid="ignore"):  # see the module docstring
        field(y, first)
        fnorm = math.sqrt(first.dot(first))
        reason = admit([t], [y], [fnorm], True) if _finite(first) else "non_finite"
        if reason is not None:
            return finish(reason)

        h = min(max(cfg.h0, _H_MIN), _H_MAX)
        abs_y = np.abs(y)  # carried over from each accepted step
        retry = False  # the last try was rejected
        cp_idx = 0

        while True:
            if steps >= cfg.max_steps:
                return finish("max_steps")

            landing = t + h >= cfg.t_max - 1e-14 * max(1.0, cfg.t_max)
            h_try = cfg.t_max - t if landing else h

            h_0d = np.array(h_try)
            for dot, stages_before, run in combos:
                np.add(y, h_0d * dot(stages_before), out=y_stage)
                run()
            nfev += len(combos)
            y_new = y + h_0d * _DOP853_B.dot(step_stages)
            fnorm_new = math.sqrt(last.dot(last))
            if not (_finite_by(fnorm_new, last) and _finite_by(y_new.dot(y_new), y_new)):
                return finish("non_finite")
            abs_new = np.abs(y_new)
            scale = atol + rtol * np.maximum(abs_y, abs_new)
            r5, r3 = _DOP853_E5.dot(step_stages) / scale, _DOP853_E3.dot(step_stages) / scale
            # summed as the batched loop sums a row, not by ndarray.dot
            n5 = np.add.reduce(r5 * r5)
            denom = (n5 + 0.01 * np.add.reduce(r3 * r3)) * y.size
            err = h_try * n5 / math.sqrt(denom) if denom else 0.0  # 0 only when both estimates are
            if math.isnan(err):
                err = math.inf

            # np.power, not float **: it rounds as the batched loop's powers do
            ctrl[0] = max(err, 1e-10)
            p_err = np.power(ctrl, _ERR_EXPONENT, out=ctrl).item()

            if err <= 1.0 or h_try <= _H_MIN * 1.0000001:
                steps += 1
                forced += int(err > 1.0)
                t_new = cfg.t_max if landing else t + h_try
                end = bisect_left(cps, t_new, cp_idx)  # checkpoints inside the step
                if end > cp_idx:
                    for dot, stages_before, run in dense_combos:
                        np.add(y, h_0d * dot(stages_before), out=y_stage)
                        run()
                    dy = y_new - y
                    hermite = (dy, h_try * first - dy, 2.0 * dy - h_try * (last + first))
                    coef = np.vstack((*hermite, h_try * _DOP853_D.dot(stages)))
                    x = (np.array(cps[cp_idx:end]) - t) / h_try
                    weights = np.where(_EVEN_ROWS, x[:, None], 1.0 - x[:, None]).cumprod(axis=1)
                    block = y + weights.dot(coef)  # one row per checkpoint
                    block_field = np.empty_like(block)
                    field(block, block_field)
                    nfev += len(dense_combos) + len(block)
                    norms = np.sqrt(np.vecdot(block_field, block_field)).tolist()  # math.sqrt(r.dot(r)) per row
                    finite = np.isfinite(block).all(axis=1) & np.isfinite(block_field).all(axis=1)
                    # the samples before the first non-finite one, which ends the run unrecorded
                    ok = len(block) if finite.all() else int(np.argmin(finite))
                    reason = admit(cps[cp_idx : cp_idx + ok], block[:ok], norms[:ok], True)
                    if reason is not None or ok < len(block):
                        return finish(reason or "non_finite")
                t, y, abs_y = t_new, y_new, abs_new
                first[...] = last  # first-same-as-last
                fnorm = fnorm_new

                cp_at_end = end < len(cps) and cps[end] == t
                cp_idx = end + cp_at_end
                if landing:
                    return finish("converged" if fnorm < cfg.grad_tol else "t_max")
                reason = admit([t], [y], [fnorm], cp_at_end or steps % cfg.record_stride == 0)
                if reason is not None:
                    return finish(reason)

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
    initial states, the stages are evaluated by runs bound (see the module
    docstring) on a stage-input buffer and the later rows of a stage array,
    bound again whenever a row leaves the batch and the arrays are made
    anew at the smaller size.
    Each row keeps its own time, step size, controller state and counts,
    and measures its error over its own entries, so it makes the accept and
    reject decisions that its solve_flow run makes as long as its error
    estimate sits well above rounding. The stage sums are taken over the
    whole batch at once and can round differently from the serial sums: a
    row's state may differ from its serial run's in the last bits (more
    where the flow amplifies perturbations, as on the way into a saddle),
    and an error estimate at rounding level (a constant field, whose serial
    error is exactly 0) may get other step-size factors and so another step
    count. A row's field norm sums its squares by ``add.reduce``
    (``np.linalg.norm``), not by the serial loop's dot, so it too may differ
    in the last bit. A row leaves the batch when it stops; a row whose field
    is non-finite at the start stops there with ``non_finite``. Returns one
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
    stages, Y_stage = np.empty((n_stages, *Y.shape)), np.empty_like(Y)
    runs = _bind(field, Y_stage, stages[1:])
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
    with np.errstate(over="ignore", invalid="ignore"):
        field(Y, stages[0])
        fnorm = np.linalg.norm(stages[0], axis=1)
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
                # the next step's first stage, then fresh rows for the others
                stages = np.concatenate((stages[:1, keep], np.empty((n_stages - 1, *Y.shape))))
                Y_stage = np.empty_like(Y)
                runs = _bind(field, Y_stage, stages[1:])
            if rows.size == 0:
                return results

            landing = t + h >= t_end
            h_try = np.where(landing, cfg.t_max - t, h)
            hcol = h_try[:, None]
            flat = stages.reshape(n_stages, -1)  # a view: stage i is row i of flat
            for i, row in enumerate(_DOP853_A):
                np.add(Y, hcol * (row @ flat[: i + 1]).reshape(Y.shape), out=Y_stage)
                runs[i]()
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
