"""The three benchmark workloads.

Each workload builds a pool of pass inputs from the benchmark seed
(``build``), runs one pass of public ovflow calls on one of them (``run``;
this is what ``wall_s`` times) and checks the pass at the acceptance-gate
bounds (``check``; not timed).
Every flow or experiment verdict is one check, and an error raised by the
program fails the checks of the item that raised it.

Only names listed in a module's ``__all__`` are reachable: ``ov`` holds one
namespace per ovflow module with exactly those names.
"""

from __future__ import annotations

import io
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def add(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


def _folder_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


def _criterion_config(ov, **overrides):
    settings = dict(rtol=1e-10, atol=1e-12, t_max=50.0, grad_tol=1e-8)
    settings.update(overrides)
    return ov.odeint.IntegratorConfig(**settings)


# ---------------------------------------------------------------------------
# sweep_c04: the criterion-04 almost-everywhere-convergence battery


@dataclass
class SweepInputs:
    shape: object
    cost: object
    cfg: object
    seeds: list[int]
    scale: float = 0.5


class SweepC04:
    """100 random NetShape(2, 4, 2) starts toward eye(2) through flow.sweep."""

    name = "sweep_c04"
    runs = 100

    def build(self, ov, seed: int) -> list[SweepInputs]:
        rng = np.random.default_rng(seed)
        seeds = [int(s) for s in rng.choice(2**31, size=self.runs, replace=False)]
        return [SweepInputs(
            shape=ov.linnet.NetShape(2, 4, 2),
            cost=ov.cost.QuadraticMatrixCost(np.eye(2)),
            cfg=_criterion_config(ov, record_stride=50),
            seeds=seeds,
        )]

    def run(self, ov, inp: SweepInputs, tr, outdir: str):
        try:
            return tr.call("flow.sweep", ov.flow.sweep, inp.shape, tr.cost(inp.cost), inp.cfg,
                           seeds=inp.seeds, scale=inp.scale)
        except Exception as exc:  # a raising sweep fails every run in it
            return exc

    def check(self, inp: SweepInputs, labels, outdir: str) -> Verdict:
        verdict = Verdict()
        if isinstance(labels, Exception):
            for seed in inp.seeds:
                verdict.add(False, f"sweep raised {labels!r}")
            return verdict
        for seed, limit in zip(inp.seeds, labels):
            ok = limit.label == "critical_of_f" and limit.grad_f_norm < 1e-6
            verdict.add(ok, f"criterion 04: seed {seed} ended {limit.label}, |grad f| {limit.grad_f_norm:.2e}")
        for seed in inp.seeds[len(labels):]:
            verdict.add(False, f"criterion 04: seed {seed} has no result")
        return verdict


# ---------------------------------------------------------------------------
# deep_battery: criteria 01-03 on 20 mixed-shape flows, plus criterion 05


@dataclass
class DeepFlow:
    shape: object
    cost: object
    init_seed: int


@dataclass
class DeepInputs:
    flows: list[DeepFlow]
    cfg: object
    saddle_cost: object
    saddle_start: object
    saddle_cfg: object
    saddle_g0: float
    scale: float = 0.5


@dataclass
class FlowResult:
    traj: object
    drift: float
    residual: float
    path: str


def _orthogonal_2x2(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((2, 2)))
    return q * np.sign(np.diag(r))


class DeepBattery:
    """Batteries of 20 flows of depth 2-4, n 1-3 and k from n to n+3,
    recorded at every step, with conservation post-processing and CSV
    output, then a strict-saddle certificate.

    One battery's time depends on its shapes and random starts; across seeds
    it spread by about 20% (interquartile range over median). So the pool
    holds nine batteries whose 180 flows cover every (depth, n, k) shape
    five times, dealt out in a seeded order; the seed draws the targets and
    starts. A round times all nine.
    """

    name = "deep_battery"
    flows = 20
    batteries = 9
    shapes = [(depth, n, n + extra) for depth in (2, 3, 4) for n in (1, 2, 3) for extra in range(4)]

    def build(self, ov, seed: int) -> list[DeepInputs]:
        rng = np.random.default_rng(seed)
        design = self.shapes * (self.flows * self.batteries // len(self.shapes))
        order = rng.permutation(len(design))
        deal = [[design[j] for j in order[b * self.flows:(b + 1) * self.flows]] for b in range(self.batteries)]
        return [self._battery(ov, rng, shapes) for shapes in deal]

    def _battery(self, ov, rng, shapes) -> DeepInputs:
        flows = []
        with warnings.catch_warnings():
            # k = n is a legal shape; the warning only says the width has no slack
            warnings.simplefilter("ignore", ov.linnet.DegenerateWidthWarning)
            for depth, n, k in shapes:
                target = np.eye(n) + 0.3 * rng.standard_normal((n, n))
                flows.append(DeepFlow(
                    shape=ov.linnet.NetShape(n, k, depth),
                    cost=ov.cost.QuadraticMatrixCost(target),
                    init_seed=int(rng.integers(2**31)),
                ))
        # top singular value 1, so the zero stack's bottom Hessian eigenvalue is -1
        saddle_target = _orthogonal_2x2(rng) @ np.diag([1.0, 0.6]) @ _orthogonal_2x2(rng).T
        saddle_cost = ov.cost.QuadraticMatrixCost(saddle_target)
        return DeepInputs(
            flows=flows,
            cfg=_criterion_config(ov),
            saddle_cost=saddle_cost,
            saddle_start=ov.linnet.LayerStack.from_layers([np.zeros((3, 2)), np.zeros((2, 3))]),
            saddle_cfg=_criterion_config(ov, t_max=1.0, grad_tol=1e-14),
            saddle_g0=saddle_cost.value(np.zeros((2, 2))),
        )

    def run(self, ov, inp: DeepInputs, tr, outdir: str):
        results = []
        for i, spec in enumerate(inp.flows):
            try:
                cost = tr.cost(spec.cost)
                stack0 = tr.call("linnet.random_init", ov.linnet.random_init, spec.shape,
                                 seed=spec.init_seed, scale=inp.scale)
                traj = tr.call("flow.integrate", ov.flow.integrate, stack0, cost, inp.cfg)
                tr.call("flow.detect_convergence", ov.flow.detect_convergence, traj, cost)
                drift = tr.call("invariant.drift", ov.invariant.drift, traj)
                inv0 = tr.call("invariant.invariants", ov.invariant.invariants, traj.samples[0].stack)
                residual = max(
                    max(tr.call("invariant.norm_chain_residual", ov.invariant.norm_chain_residual, s.stack, inv0))
                    for s in traj.samples
                )
                path = os.path.join(outdir, f"flow{i:02d}.csv")
                tr.call("flow.write_trajectory_csv", ov.flow.write_trajectory_csv, traj, cost, path)
                results.append(FlowResult(traj, drift, residual, path))
            except Exception as exc:  # one broken flow must not hide the others
                results.append(exc)
        try:
            cost = tr.cost(inp.saddle_cost)
            cert = tr.call("saddle.certify_strict_saddle", ov.saddle.certify_strict_saddle,
                           inp.saddle_start, cost)
            m1, m2 = cert.direction
            nudged = tr.call("linnet.LayerStack.from_layers", ov.linnet.LayerStack.from_layers,
                             [1e-3 * m1, 1e-3 * m2])
            escape = tr.call("flow.integrate", ov.flow.integrate, nudged, cost, inp.saddle_cfg)
            saddle = (cert, escape)
        except Exception as exc:
            saddle = exc
        return results, saddle

    def check(self, inp: DeepInputs, outcome, outdir: str) -> Verdict:
        results, saddle = outcome
        verdict = Verdict()
        samples = 0
        for i, res in enumerate(results):
            if isinstance(res, Exception):
                verdict.add(False, f"deep flow {i} raised {res!r}")
                continue
            costs = np.array([s.cost for s in res.traj.samples])
            rise = float(np.max(np.diff(costs))) if costs.size > 1 else -np.inf
            samples += len(res.traj.samples)
            ok = res.drift < 1e-6 and res.residual < 1e-6 and rise <= 1e-11 and os.path.getsize(res.path) > 0
            verdict.add(ok, (
                f"criteria 01-03: deep flow {i} drift {res.drift:.2e}, "
                f"norm chain {res.residual:.2e}, cost rise {rise:.2e}"
            ))
        if isinstance(saddle, Exception):
            verdict.add(False, f"criterion 05 raised {saddle!r}")
        else:
            cert, escape = saddle
            samples += len(escape.samples)
            final_cost = escape.final.cost
            ok = (
                cert.is_strict_saddle
                and cert.curvature < 0.0
                and abs(cert.min_eig + 1.0) < 5e-4
                and final_cost < inp.saddle_g0 - 1e-6
            )
            verdict.add(ok, (
                f"criterion 05: saddle {cert.is_strict_saddle}, curvature {cert.curvature:.3f}, "
                f"min eig {cert.min_eig:.6f}, escape drop {inp.saddle_g0 - final_cost:.2e}"
            ))
        verdict.counts = {"flow.samples": samples, "flow.write_trajectory_csv.bytes": _folder_bytes(outdir)}
        return verdict


# ---------------------------------------------------------------------------
# scalar_lab: criteria 06, 09 and 11


@dataclass
class ScalarInputs:
    cost: object
    dichotomy_cfg: object
    dichotomy_seed: int
    accel_cfg: object


class ScalarLab:
    """The two-fates battery, the imbalance race and the separatrix figure."""

    name = "scalar_lab"
    expr = "(1 - w)^2"
    n_generic = 20
    n_anti = 5
    figures = ("fig2_linear.csv", "fig2_linear.svg", "fig2_sigmoid.csv", "fig2_sigmoid.svg")

    def build(self, ov, seed: int) -> list[ScalarInputs]:
        return [ScalarInputs(
            cost=ov.cost.parse_scalar_cost(self.expr, min_value=0.0),
            dichotomy_cfg=_criterion_config(ov),
            dichotomy_seed=int(np.random.default_rng(seed).integers(2**31)),
            # t_max 5 puts 1001 checkpoints on the race
            accel_cfg=_criterion_config(ov, t_max=5.0, grad_tol=1e-12),
        )]

    def run(self, ov, inp: ScalarInputs, tr, outdir: str):
        cost = tr.cost(inp.cost)
        try:
            dichotomy = tr.call("scalarcase.dichotomy_experiment", ov.scalarcase.dichotomy_experiment,
                                cost, 2, inp.dichotomy_cfg, n_generic=self.n_generic,
                                n_anti=self.n_anti, seed=inp.dichotomy_seed)
        except Exception as exc:
            dichotomy = exc
        try:
            accel = tr.call("scalarcase.compare_acceleration", ov.scalarcase.compare_acceleration,
                            cost, 0.5, 0.0, 9.0, inp.accel_cfg)
        except Exception as exc:
            accel = exc
        console = io.StringIO()
        try:
            with redirect_stdout(console), redirect_stderr(console):
                # cli.main is the public entry to the recipe-fig2 subcommand
                exit_code = tr.call("cli.recipe_fig2", ov.cli.main,
                                    ["recipe-fig2", "--outdir", outdir, "--grid", "25"])
        except Exception as exc:
            exit_code = repr(exc)
        return dichotomy, accel, (exit_code, console.getvalue())

    def check(self, inp: ScalarInputs, outcome, outdir: str) -> Verdict:
        dichotomy, accel, (exit_code, console) = outcome
        verdict = Verdict()
        if isinstance(dichotomy, Exception):
            for _ in range(self.n_generic + self.n_anti):
                verdict.add(False, f"criterion 06: dichotomy raised {dichotomy!r}")
        else:
            for run in dichotomy.runs:
                if run.kind == "generic":
                    ok = run.final_cost < 1e-6
                else:
                    ok = abs(run.final_cost - 1.0) <= 1e-6 and run.final_state_norm < 1e-6
                verdict.add(ok, (
                    f"criterion 06: {run.kind} run ended at f {run.final_cost:.3e}, "
                    f"state norm {run.final_state_norm:.2e}"
                ))
            for _ in range(len(dichotomy.runs), self.n_generic + self.n_anti):
                verdict.add(False, "criterion 06: dichotomy run missing")
        if isinstance(accel, Exception):
            verdict.add(False, f"criterion 09: compare_acceleration raised {accel!r}")
        else:
            margins = (accel.cost_low_c - accel.cost_high_c)[1:]
            ok = margins.size > 0 and bool(np.all(margins > 0.0)) and accel.tau_collapse_error < 1e-4
            verdict.add(ok, (
                f"criterion 09: min margin {margins.min(initial=np.inf):.2e} over t > 0, "
                f"tau collapse {accel.tau_collapse_error:.2e}"
            ))
        written = [name for name in self.figures if os.path.exists(os.path.join(outdir, name))]
        ok = exit_code == 0 and len(written) == len(self.figures)
        verdict.add(ok, f"criterion 11: recipe-fig2 exit {exit_code}, wrote {written}: {console.strip()}")
        verdict.counts = {"cli.recipe_fig2.bytes": _folder_bytes(outdir)}
        return verdict


WORKLOADS = {w.name: w for w in (SweepC04(), DeepBattery(), ScalarLab())}
