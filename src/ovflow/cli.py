"""Command-line front end.

Subcommands cover the package's experiments end to end: simulate a single
flow to CSV, sweep random initializations, race imbalances, run the
dichotomy battery, certify a strict saddle, check invariant drift, render
phase portraits, inspect parsed costs, and rebuild the two-panel portrait
figure. Exit codes: 0 success, 1 usage or configuration error, 2 numerical
or I/O failure, 3 an experiment ran but failed its own assertion.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from ovflow.cost import ParseError, QuadraticMatrixCost, ScalarCost, parse_scalar_cost, to_string
from ovflow.csvio import write_csv
from ovflow.flow import integrate, integrate_baseline, sweep, write_trajectory_csv
from ovflow.invariant import drift, invariants, norm_chain_residual
from ovflow.linnet import LayerStack, NetShape, balanced_init, layer_shapes, product, random_init, read_stack_csv, rescale_pair
from ovflow.odeint import IntegratorConfig
from ovflow.saddle import certify_strict_saddle, write_certificate_csv
from ovflow.scalarcase import anti_balanced, compare_acceleration, dichotomy_experiment
from ovflow.sigmoid import (
    PortraitData,
    manifold_curve,
    phase_portrait,
    separatrix_trace,
    write_overlays_csv,
    write_portrait_csv,
)

__all__ = ["main", "console_main", "UsageError", "ExperimentFailure", "NumericalFailure"]


class UsageError(Exception):
    """Bad flags, bad config file, inconsistent dimensions: exit code 1."""


class ExperimentFailure(Exception):
    """The run completed but violated its own acceptance check: exit code 3."""


class NumericalFailure(Exception):
    """Non-finite states or similar breakdowns mid-run: exit code 2."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# config files


@dataclasses.dataclass(frozen=True)
class RunConfig:
    cost: object  # QuadraticMatrixCost or ScalarMatrixCost
    net: NetShape
    init_mode: str
    seed: int
    scale: float
    eta: Optional[float]
    integrator: IntegratorConfig


def _check_keys(obj: dict, where: str, required: tuple, optional: tuple = ()) -> None:
    if not isinstance(obj, dict):
        raise UsageError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise UsageError(f"unknown keys {unknown} in {where}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise UsageError(f"missing keys {missing} in {where}")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"{where} must be an integer, got {value!r}")
    return value


def _as_real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer beyond float range
        raise UsageError(f"{where} is too large for a float") from exc


_READERS = {"int": _as_int, "float": _as_real}


def _section(raw, cls, where: str, bad: str):
    """Build the dataclass cls from the config section raw: its keys are
    cls's fields, each read by the reader its annotation names."""
    fields = dataclasses.fields(cls)
    _check_keys(raw, where, tuple(f.name for f in fields))
    values = {f.name: _READERS[f.type](raw[f.name], f"{where}.{f.name}") for f in fields}
    try:
        return cls(**values)
    except ValueError as exc:
        raise UsageError(f"{bad}: {exc}") from exc


def load_config(path: str) -> RunConfig:
    """Parse and validate a run configuration. Unknown keys are errors."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer with too many digits
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc

    _check_keys(raw, "config", ("cost", "net", "init", "integrator"))

    cost_raw = raw["cost"]
    if not isinstance(cost_raw, dict) or "kind" not in cost_raw:
        raise UsageError("config.cost needs a 'kind'")
    kind = cost_raw["kind"]
    if kind == "matrix_quadratic":
        _check_keys(cost_raw, "config.cost", ("kind", "target"))
        try:
            cost = QuadraticMatrixCost(np.array(cost_raw["target"], dtype=float))
        except (ValueError, TypeError) as exc:
            raise UsageError(f"bad quadratic target: {exc}") from exc
    elif kind == "scalar_expr":
        _check_keys(cost_raw, "config.cost", ("kind", "expr"), optional=("min_value",))
        min_value = cost_raw.get("min_value")
        if min_value is not None:
            min_value = _as_real(min_value, "config.cost.min_value")
        try:
            cost = parse_scalar_cost(cost_raw["expr"], min_value=min_value).as_matrix()
        except ParseError as exc:
            raise UsageError(f"bad cost expression: {exc}") from exc
    else:
        raise UsageError(f"unknown cost kind {kind!r}")

    net = _section(raw["net"], NetShape, "config.net", "bad net shape")
    if net.n != cost.n:
        raise UsageError(f"net n={net.n} does not match cost dimension n={cost.n}")
    if net.depth < 2:
        raise UsageError("config.net.depth must be at least 2; the baseline flag handles depth 1")

    init_raw = raw["init"]
    _check_keys(init_raw, "config.init", ("mode", "seed", "scale"), optional=("eta",))
    mode = init_raw["mode"]
    if mode not in ("balanced", "random", "pair_rescale", "anti_balanced"):
        raise UsageError(f"unknown init mode {mode!r}")
    seed = _as_int(init_raw["seed"], "config.init.seed")
    if seed < 0:
        raise UsageError(f"config.init.seed must be nonnegative, got {seed}")
    scale = _as_real(init_raw["scale"], "config.init.scale")
    eta = init_raw.get("eta")
    if eta is not None:
        eta = _as_real(eta, "config.init.eta")
    if mode == "pair_rescale" and eta is None:
        raise UsageError("init mode pair_rescale needs 'eta'")
    if mode == "anti_balanced":
        if isinstance(cost, QuadraticMatrixCost) or net.n != 1 or net.depth != 2:
            raise UsageError("init mode anti_balanced needs a scalar cost with n=1, depth=2")

    integrator = _section(raw["integrator"], IntegratorConfig, "config.integrator", "bad integrator settings")

    return RunConfig(
        cost=cost,
        net=net,
        init_mode=mode,
        seed=seed,
        scale=scale,
        eta=eta,
        integrator=integrator,
    )


def build_initial_stack(config: RunConfig) -> LayerStack:
    """Construct the initial stack the config asks for."""
    mode = config.init_mode
    if mode == "random":
        try:
            return random_init(config.net, seed=config.seed, scale=config.scale)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if mode == "anti_balanced":
        rng = np.random.default_rng(config.seed)
        w2 = rng.normal(0.0, config.scale, size=config.net.k)
        try:
            return anti_balanced(w2, config.cost.scalar)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    # balanced and pair_rescale factor a target through the stack
    if isinstance(config.cost, QuadraticMatrixCost):
        target = config.cost.target
    else:
        # scalar cost: factor the 1 x 1 matrix [[scale]]
        if config.scale == 0.0:
            raise UsageError("balanced init with a scalar cost needs a nonzero scale")
        target = np.array([[config.scale]])
    try:
        stack = balanced_init(target, config.net)
        return rescale_pair(stack, 1, config.eta) if mode == "pair_rescale" else stack
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# SVG rendering


# one path per grid point; a zero field gets a zero-length arrow at the point
_ARROW = '<path class="arrow" d="M %.2f %.2f L %.2f %.2f M %.2f %.2f L %.2f %.2f L %.2f %.2f"/>\n'
_DOT = '<path class="arrow" d="M %.2f %.2f L %.2f %.2f"/>\n'
_ARROWS_PER_WRITE = 100


def write_portrait_svg(portrait: PortraitData, path: str) -> None:
    """Render a portrait to a deterministic standalone SVG.

    One path element with class "arrow" per grid point; target-set curves
    share the stroke class "target-curve" and separatrix/manifold curves
    the class "manifold-curve". Identical portraits yield byte-identical
    files. Every coordinate of the field is computed over the whole grid
    at once, with the per-point operations in their order (the arrow
    lengths through ``math.hypot``, which numpy's hypot does not match in
    the last bit), and written in chunks of arrows, one ``%`` each.
    """
    lo1, hi1, lo2, hi2 = portrait.bounds
    size = 800.0

    def px(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (a - lo1) / (hi1 - lo1) * size, size - (b - lo2) / (hi2 - lo2) * size

    cell = size / max(portrait.grid - 1, 1)
    arrow_len = 0.42 * cell
    barb = 0.3 * arrow_len
    half = 0.5 * arrow_len

    dw1, dw2 = portrait.dw1, portrait.dw2
    norm = np.array(list(map(math.hypot, dw1.tolist(), dw2.tolist())))
    still = norm == 0.0
    # as silent as the float arithmetic it replaces on an infinite or NaN field
    with np.errstate(all="ignore"):
        cx, cy = px(portrait.w1, portrait.w2)
        unit = np.where(still, 1.0, norm)  # a still point's direction is never written
        ux = dw1 / unit
        uy = -dw2 / unit  # pixel y points down
        tip_x, tip_y = cx + half * ux, cy + half * uy
        # barbs rotated +-150 degrees from the direction
        cos_b, sin_b = -0.8660254037844387, 0.5
        coords = np.column_stack([
            cx - half * ux, cy - half * uy, tip_x, tip_y,
            tip_x + barb * (ux * cos_b - uy * sin_b), tip_y + barb * (ux * sin_b + uy * cos_b), tip_x, tip_y,
            tip_x + barb * (ux * cos_b + uy * sin_b), tip_y + barb * (-ux * sin_b + uy * cos_b),
        ])
    coords[still, :4] = np.column_stack([cx, cy, cx, cy])[still]
    written = np.ones(coords.shape, dtype=bool)
    written[still, 4:] = False

    with open(path, "w") as handle:
        handle.write(
            '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" viewBox="0 0 800 800">\n'
            f"<!-- kind={portrait.kind} grid={portrait.grid} -->\n"
            '<rect x="0" y="0" width="800" height="800" fill="#ffffff"/>\n'
            '<g class="field" stroke="#4a4a4a" stroke-width="1" fill="none">\n'
        )
        for start in range(0, len(coords), _ARROWS_PER_WRITE):
            rows = slice(start, start + _ARROWS_PER_WRITE)
            lines = "".join([_DOT if dot else _ARROW for dot in still[rows].tolist()])
            handle.write(lines % tuple(coords[rows][written[rows]].tolist()))
        handle.write("</g>\n")

        for prefix, style in (
            ("target", 'stroke="#1f6f43" stroke-width="2" fill="none"'),
            ("manifold", 'stroke="#b03a3a" stroke-width="2" fill="none" stroke-dasharray="7 5"'),
        ):
            curves = [ov for ov in portrait.overlays if ov[0].startswith(prefix)]
            if curves:
                handle.write(f"<g {style}>\n")
                for curve_id, line in curves:
                    points = np.column_stack(px(line[:, 0], line[:, 1]))
                    pts = " ".join(["%.2f,%.2f"] * len(points)) % tuple(points.ravel().tolist())
                    handle.write(f'<polyline class="{prefix}-curve" id="{curve_id}" points="{pts}"/>\n')
                handle.write("</g>\n")
        handle.write("</svg>\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    stack0 = build_initial_stack(config)
    if args.baseline:
        traj = integrate_baseline(product(stack0.layers), config.cost, config.integrator)
    else:
        traj = integrate(stack0, config.cost, config.integrator)
    write_trajectory_csv(traj, config.cost, args.out)
    print(
        f"{len(traj.t)} samples to {args.out}; stop={traj.stop_reason} "
        f"t={traj.t[-1]:.6g} cost={traj.cost[-1]:.6g} grad_g={traj.field_norm[-1]:.3g} "
        f"steps={traj.n_steps} nfev={traj.nfev} rejected={traj.n_rejected} forced={traj.n_forced}"
    )
    if traj.stop_reason == "non_finite":
        raise NumericalFailure("trajectory left the finite domain; partial CSV written")
    return 0


def _cmd_sweep(args) -> int:
    if args.runs < 0:
        raise UsageError(f"run count must be nonnegative, got {args.runs}")
    config = load_config(args.config)
    if config.init_mode != "random":
        raise UsageError("sweep draws random initializations; set init mode 'random'")
    seeds = list(range(config.seed, config.seed + args.runs))
    results = sweep(config.net, config.cost, config.integrator, seeds, config.scale)
    rows = ([seed, res.label, res.grad_f_norm, res.grad_g_norm, res.note] for seed, res in zip(seeds, results))
    write_csv(args.out, ["seed", "label", "grad_f_norm", "grad_g_norm", "note"], rows)
    counts: dict[str, int] = {}
    for res in results:
        counts[res.label] = counts.get(res.label, 0) + 1
    print(f"{len(results)} runs to {args.out}; " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return 0


def _scalar_cost(expr: str, min_value: Optional[float] = None) -> ScalarCost:
    try:
        return parse_scalar_cost(expr, min_value=min_value)
    except ParseError as exc:
        raise UsageError(f"bad expression: {exc}") from exc


def _cmd_accelerate(args) -> int:
    cost = _scalar_cost(args.expr, args.min_value)
    try:
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=args.t_max, grad_tol=1e-12)
        report = compare_acceleration(cost, args.z0, args.c_low, args.c_high, cfg)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    race = [report.t_grid, report.cost_low_c, report.cost_high_c, report.cost_low_c - report.cost_high_c]
    write_csv(args.out, ["t", "cost_low_c", "cost_high_c", "margin"], np.column_stack(race))
    if args.collapse_out:
        collapse = np.column_stack([report.tau_grid, report.z_low_tau, report.z_high_tau])
        write_csv(args.collapse_out, ["tau", "z_low_c", "z_high_c"], collapse)

    margins = report.cost_low_c[report.t_grid > 0] - report.cost_high_c[report.t_grid > 0]
    print(
        f"min margin {margins.min():.6g}, tau collapse error {report.tau_collapse_error:.3g}"
    )
    if margins.min() <= 0:
        raise ExperimentFailure("higher imbalance failed to stay strictly ahead")
    return 0


def _cmd_dichotomy(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
    cost = _scalar_cost(args.expr, args.min_value)
    try:
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=args.t_max)
        report = dichotomy_experiment(
            cost, args.k, cfg, n_generic=args.runs, n_anti=args.anti, seed=args.seed
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    rows = ([r.kind, r.d0, r.D0, r.final_cost, r.final_state_norm, r.label] for r in report.runs)
    write_csv(args.out, ["kind", "d0", "D0", "final_cost", "final_state_norm", "label"], rows)
    print(
        f"{len(report.runs)} runs to {args.out}; generic ok={report.generic_converged}, "
        f"anti-balanced ok={report.anti_converged_to_origin}"
    )
    if not report.passed:
        raise ExperimentFailure("dichotomy battery failed; see the report CSV")
    return 0


def _cmd_saddle_certify(args) -> int:
    config = load_config(args.config)
    if config.net.depth != 2:
        raise UsageError("saddle certification works on two-layer stacks")
    if args.stack:
        try:
            stack = read_stack_csv(args.stack)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load stack {args.stack}: {exc}") from exc
        if stack.shape != config.net:
            raise UsageError(f"stack {args.stack} has shape {stack.shape}, but config.net is {config.net}")
    else:
        # the canonical spurious critical point: both layers zero
        stack = LayerStack(config.net, tuple(np.zeros(s) for s in layer_shapes(config.net)))
    try:
        cert = certify_strict_saddle(stack, config.cost)
    except ValueError as exc:
        raise ExperimentFailure(str(exc)) from exc
    direction_path = write_certificate_csv(cert, args.out)
    print(
        f"curvature={cert.curvature:.6g} q_bar={cert.q_bar:.6g} min_eig={cert.min_eig:.6g} "
        f"strict_saddle={cert.is_strict_saddle}; direction in {direction_path}"
    )
    if not cert.is_strict_saddle:
        raise ExperimentFailure("the point could not be certified as a strict saddle")
    return 0


def _cmd_invariant_check(args) -> int:
    config = load_config(args.config)
    stack0 = build_initial_stack(config)
    traj = integrate(stack0, config.cost, config.integrator)
    d = drift(traj)
    residual = np.max(norm_chain_residual(traj, invariants(stack0)))
    write_csv(args.out, ["drift", "max_norm_chain_residual", "stop_reason"], [[d, residual, traj.stop_reason]])
    print(f"drift={d:.3g} max_norm_chain_residual={residual:.3g} ({traj.stop_reason})")
    if traj.stop_reason == "non_finite":
        raise NumericalFailure("trajectory left the finite domain")
    return 0


def _parse_bounds(text: str) -> tuple[float, float, float, float]:
    pieces = text.split(":")
    if len(pieces) != 4:
        raise UsageError("bounds must be 'w1min:w1max:w2min:w2max'")
    try:
        lo1, hi1, lo2, hi2 = (float(p) for p in pieces)
    except ValueError as exc:
        raise UsageError(f"bad bounds {text!r}") from exc
    if not all(map(math.isfinite, (lo1, hi1, lo2, hi2))):
        raise UsageError(f"bounds must be finite, got {text!r}")
    if not (lo1 < hi1 and lo2 < hi2):
        raise UsageError(f"degenerate bounds {text!r}")
    return lo1, hi1, lo2, hi2


def _cmd_phase_portrait(args) -> int:
    bounds = _parse_bounds(args.bounds)
    try:
        portrait = phase_portrait(
            bounds, args.grid, include_manifolds=not args.no_manifolds, kind=args.kind
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    wrote = []
    if args.out:
        write_portrait_csv(portrait, args.out)
        wrote.append(args.out)
    if args.overlays_out:
        write_overlays_csv(portrait, args.overlays_out)
        wrote.append(args.overlays_out)
    if args.svg:
        write_portrait_svg(portrait, args.svg)
        wrote.append(args.svg)
    if not wrote:
        raise UsageError("nothing to do: pass --out, --overlays-out, or --svg")
    print(f"{portrait.kind} portrait on a {args.grid}x{args.grid} grid -> " + ", ".join(wrote))
    return 0


def _cmd_parse_cost(args) -> int:
    cost = _scalar_cost(args.expr)
    print(f"f(w)   = {to_string(cost.expression)}")
    print(f"f'(w)  = {to_string(cost.derivative)}")
    print(f"f''(w) = {to_string(cost.second_derivative)}")
    if args.at is not None:
        f, d, dd = cost.value(args.at), cost.deriv(args.at), cost.second(args.at)
        print(f"at w = {args.at:g}: f = {f:.12g}, f' = {d:.12g}, f'' = {dd:.12g}")
    if cost.uses_division:
        print("note: expression uses division; properness is not checked", file=sys.stderr)
    return 0


def recipe_fig2(outdir: str, grid: int = 25) -> float:
    """Rebuild the two-panel portrait: linear next to sigmoidal, each with
    target and separatrix overlays. Returns the separatrix-vs-formula
    deviation measured at w1 in {0.25, 0.5, 1.0}."""
    bounds = (-3.0, 3.0, -3.0, 3.0)
    try:
        portraits = [phase_portrait(bounds, grid, include_manifolds=True, kind=kind) for kind in ("linear", "sigmoid")]
    except ValueError as exc:  # a grid below 2
        raise UsageError(str(exc)) from exc
    os.makedirs(outdir, exist_ok=True)
    for portrait in portraits:
        write_portrait_csv(portrait, os.path.join(outdir, f"fig2_{portrait.kind}.csv"))
        write_portrait_svg(portrait, os.path.join(outdir, f"fig2_{portrait.kind}.svg"))

    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=25.0, grad_tol=1e-12)
    trace = separatrix_trace("plus", "backward", cfg, eps=1e-6, radius=2.5)
    w1 = trace[:, 0]
    w2 = trace[:, 1]
    if not np.all(np.diff(w1) > 0):
        keep = np.concatenate([[True], np.diff(w1) > 0])
        w1, w2 = w1[keep], w2[keep]
    probes = np.array([0.25, 0.5, 1.0])
    if w1[-1] < probes[-1]:
        raise NumericalFailure("separatrix trace stopped before reaching w1 = 1")
    traced = np.interp(probes, w1, w2)
    _, minus = manifold_curve(probes)
    return float(np.max(np.abs(traced - np.asarray(minus))))


def _cmd_recipe_fig2(args) -> int:
    deviation = recipe_fig2(args.outdir, grid=args.grid)
    print(f"wrote fig2_linear and fig2_sigmoid (svg+csv) to {args.outdir}")
    print(f"separatrix vs closed form: max deviation {deviation:.3g} at w1 in {{0.25, 0.5, 1.0}}")
    if deviation >= 1e-4:
        raise ExperimentFailure(f"separatrix deviation {deviation:.3g} exceeds 1e-4")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="ovflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    p = sub.add_parser("simulate", help="integrate one flow and write a trajectory CSV")
    p.add_argument("--config", required=True, help="run configuration JSON")
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.add_argument("--baseline", action="store_true", help="run the un-factored flow from the same product")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="classify limits over random seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="summary CSV path")
    p.add_argument("--runs", type=int, default=20, help="number of seeds, starting at init.seed")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("accelerate", help="race two imbalances of the reduced scalar flow")
    p.add_argument("--expr", required=True, help="scalar cost over w, e.g. '(1-w)^2'")
    p.add_argument("--z0", type=float, required=True)
    p.add_argument("--c-low", type=float, required=True)
    p.add_argument("--c-high", type=float, required=True)
    p.add_argument("--t-max", type=float, default=1.0)
    p.add_argument("--min-value", type=float, default=None)
    p.add_argument("--out", required=True, help="cost-vs-time CSV")
    p.add_argument("--collapse-out", default=None, help="optional z-vs-tau CSV")
    p.set_defaults(func=_cmd_accelerate)

    p = sub.add_parser("dichotomy", help="two-fates battery for a scalar cost")
    p.add_argument("--expr", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--runs", type=int, default=20, help="generic (d > 0) runs")
    p.add_argument("--anti", type=int, default=5, help="anti-balanced (d = 0) runs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-max", type=float, default=50.0)
    p.add_argument("--min-value", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dichotomy)

    p = sub.add_parser("saddle-certify", help="certify a spurious critical point as a strict saddle")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="certificate CSV path")
    p.add_argument("--stack", default=None, help="stack CSV to certify (default: the origin stack)")
    p.set_defaults(func=_cmd_saddle_certify)

    p = sub.add_parser("invariant-check", help="measure conservation drift along one run")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_invariant_check)

    p = sub.add_parser("phase-portrait", help="sample a 2d flow field with overlays")
    p.add_argument("--kind", choices=("sigmoid", "linear"), default="sigmoid")
    p.add_argument("--bounds", default="-3:3:-3:3")
    p.add_argument("--grid", type=int, default=25)
    p.add_argument("--out", default=None, help="field CSV path")
    p.add_argument("--overlays-out", default=None, help="overlay curves CSV path")
    p.add_argument("--svg", default=None, help="rendered SVG path")
    p.add_argument("--no-manifolds", action="store_true")
    p.set_defaults(func=_cmd_phase_portrait)

    p = sub.add_parser("parse-cost", help="show the parsed cost and its derivatives")
    p.add_argument("--expr", required=True)
    p.add_argument("--at", type=float, default=None, help="also evaluate at this point")
    p.set_defaults(func=_cmd_parse_cost)

    p = sub.add_parser("recipe-fig2", help="rebuild the two-panel portrait figure")
    p.add_argument("--outdir", required=True)
    p.add_argument("--grid", type=int, default=25)
    p.set_defaults(func=_cmd_recipe_fig2)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ExperimentFailure as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 3
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
