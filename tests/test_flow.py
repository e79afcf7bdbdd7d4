"""End-to-end dynamics: the factored flow, its baseline, and trajectory I/O."""

import dataclasses
import gc
import math
import subprocess
import sys
import weakref

import numpy as np
import pytest

from ovflow.cost import QuadraticMatrixCost, parse_scalar_cost
from ovflow.flow import (
    Trajectory,
    detect_convergence,
    integrate,
    integrate_baseline,
    integrate_batch,
    sweep,
    write_trajectory_csv,
)
from ovflow.invariant import drift, drift_series, imbalance_scalar, invariants, norm_chain_residual
from ovflow.linnet import (
    DegenerateWidthWarning,
    NetShape,
    balanced_init,
    flow_field,
    layer_shapes,
    pack,
    product,
    random_init,
)
from ovflow import odeint
from ovflow.odeint import IntegratorConfig, solve_flow, solve_flow_batch
from ovflow.scalarcase import anti_balanced, reduced_flow
from ovflow.sigmoid import _sig_rhs, _sig_rhs_backward, origin_eigenvectors, separatrix_trace, sig_integrate

from _oracles import read_trajectory_csv

COST = QuadraticMatrixCost(np.array([[2.0, 0.3], [-0.1, 1.0]]))


def test_baseline_matches_closed_form():
    # dW/dt = -(W - T) integrates to W(t) = T + (W0 - T) e^{-t}
    W0 = np.array([[0.5, 0.0], [0.0, 0.25]])
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=5.0, grad_tol=1e-14)
    traj = integrate_baseline(W0, COST, cfg, checkpoints=[1.0, 2.5])
    times = [s.t for s in traj.samples]
    assert 1.0 in times and 2.5 in times  # checkpoints are recorded exactly
    for s in traj.samples:
        want = COST.target + (W0 - COST.target) * np.exp(-s.t)
        assert np.abs(s.stack.layers[0] - want).max() < 1e-9


def test_factored_flow_converges_and_is_monotone():
    stack0 = random_init(NetShape(2, 4, 2), seed=0, scale=0.6)
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=50.0)
    traj = integrate(stack0, COST, cfg)
    assert traj.stop_reason == "converged"
    assert traj.final.grad_norm < cfg.grad_tol
    costs = np.array([s.cost for s in traj.samples])
    assert np.all(np.diff(costs) <= 10.0 * cfg.atol)
    assert traj.final.cost < 1e-12


def test_deep_flow_reaches_the_target():
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-10, t_max=50.0)

    fast = integrate(random_init(NetShape(2, 4, 4), seed=0, scale=0.7), COST, cfg)
    assert fast.stop_reason == "converged"

    # the cost hits the floor long before the layer gradient dies out; the
    # product should be at the target either way
    slow = integrate(random_init(NetShape(2, 4, 4), seed=2, scale=0.7), COST, cfg)
    assert slow.final.cost < 1e-12
    prod = slow.final.stack.layers[0]
    for layer in slow.final.stack.layers[1:]:
        prod = layer @ prod
    assert np.abs(prod - COST.target).max() < 1e-6


def test_tighter_tolerance_means_smaller_drift():
    stack0 = random_init(NetShape(2, 3, 3), seed=4, scale=0.7)
    loose = integrate(stack0, COST, IntegratorConfig(rtol=1e-4, atol=1e-6, t_max=20.0))
    tight = integrate(stack0, COST, IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=20.0))
    assert drift(loose) < 1e-3
    assert drift(tight) < 1e-10
    assert drift(loose) > 50.0 * drift(tight)


def test_record_stride_thins_sampling():
    stack0 = random_init(NetShape(2, 3, 2), seed=2, scale=0.5)
    cfg_all = IntegratorConfig(t_max=10.0, record_stride=1)
    cfg_thin = IntegratorConfig(t_max=10.0, record_stride=50)
    dense = integrate(stack0, COST, cfg_all)
    thin = integrate(stack0, COST, cfg_thin)
    assert len(thin.samples) < len(dense.samples)
    # endpoints agree regardless of stride
    assert thin.final.t == dense.final.t
    assert thin.final.cost == pytest.approx(dense.final.cost, abs=1e-12)


def test_detect_convergence_labels():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=50.0)

    good = integrate(random_init(NetShape(2, 4, 2), seed=3, scale=0.5), COST, cfg)
    label = detect_convergence(good, COST)
    assert label.label == "critical_of_f"
    assert label.grad_f_norm < 1e-6
    # a forced step is never a verdict, not even at a critical point of f
    forced = dataclasses.replace(good, n_forced=1)
    label = detect_convergence(forced, COST)
    assert label.label == "undecided" and label.grad_f_norm < 1e-6
    assert label.note == "steps forced at the minimum step size: 1; otherwise critical_of_f"

    # anti-balanced scalar start flows into the spurious critical point at zero
    scalar = parse_scalar_cost("(1 - w)^2")
    stack0 = anti_balanced(np.array([0.4, -0.3]), scalar)
    spur = integrate(stack0, scalar.as_matrix(), cfg)
    label = detect_convergence(spur, scalar.as_matrix())
    assert label.label == "spurious_critical_of_g"
    assert label.grad_g_norm < cfg.grad_tol
    assert label.grad_f_norm > 1e-3

    hasty = integrate(random_init(NetShape(2, 4, 2), seed=3, scale=0.5), COST,
                      IntegratorConfig(t_max=1e-3))
    label = detect_convergence(hasty, COST)
    assert label.label == "undecided"
    assert "t_max" in label.note


SWEEP_CFG = IntegratorConfig(rtol=1e-8, atol=1e-10, t_max=50.0)
# a short horizon and a small step budget end the rows of one batch on
# different stop reasons, so rows leave the active set at different steps
MIXED_STOPS_CFG = IntegratorConfig(rtol=1e-8, atol=1e-10, t_max=11.0, max_steps=30)
SWEEP_CASES = {
    "depth2": (NetShape(2, 3, 2), COST, SWEEP_CFG),
    "depth3": (NetShape(2, 3, 3), COST, SWEEP_CFG),
    "depth1": (NetShape(2, 2, 1), COST, SWEEP_CFG),
    "scalar": (NetShape(1, 2, 2), parse_scalar_cost("(1 - w)^2").as_matrix(), SWEEP_CFG),
    "mixed_stops": (NetShape(2, 3, 2), COST, MIXED_STOPS_CFG),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_matches_serial_runs(case):
    shape, cost, cfg = SWEEP_CASES[case]
    seeds = list(range(12))
    labels = sweep(shape, cost, cfg, seeds, scale=0.5)
    assert len(labels) == len(seeds)
    for seed, got in zip(seeds, labels):
        want = detect_convergence(integrate(random_init(shape, seed=seed, scale=0.5), cost, cfg), cost)
        assert (got.label, got.note) == (want.label, want.note), f"seed {seed}"
        assert abs(got.grad_f_norm - want.grad_f_norm) < 1e-8
        assert abs(got.grad_g_norm - want.grad_g_norm) < 1e-8
    wanted = {"critical_of_f", "undecided"} if case == "mixed_stops" else {"critical_of_f"}
    assert {r.label for r in labels} == wanted


def test_sweep_of_no_seeds_and_of_a_mismatched_cost():
    assert sweep(NetShape(2, 3, 2), COST, SWEEP_CFG, [], scale=0.5) == []
    with pytest.raises(ValueError, match="does not match"):
        sweep(NetShape(3, 4, 2), COST, SWEEP_CFG, [0, 1], scale=0.5)


def test_integrate_batch_checks_its_stacks():
    assert integrate_batch([], COST, SWEEP_CFG) == []
    mixed = [random_init(NetShape(2, 3, 2), 0, 0.5), random_init(NetShape(2, 4, 2), 0, 0.5)]
    with pytest.raises(ValueError, match="several shapes"):
        integrate_batch(mixed, COST, SWEEP_CFG)
    with pytest.raises(ValueError, match="does not match"):
        integrate_batch([random_init(NetShape(3, 4, 2), 0, 0.5)], COST, SWEEP_CFG)


def test_sweep_labels_diverging_runs_undecided():
    # f = -w^2 sends every start off to infinity; at scale 1e100 the field
    # already overflows at the start, and at 1e160 the product does too
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-10, t_max=50.0)
    diverging = sweep(NetShape(1, 2, 2), parse_scalar_cost("-(w^2)").as_matrix(), cfg, range(4), scale=1.5)
    huge = sweep(NetShape(2, 3, 2), COST, cfg, [0, 1], scale=1e100)
    huger = sweep(NetShape(2, 3, 2), COST, cfg, [0], scale=1e160)
    labels = {(r.label, r.note) for r in diverging + huge + huger}
    assert labels == {("undecided", "stopped on non_finite")}
    start = integrate(random_init(NetShape(2, 3, 2), seed=0, scale=1e160), COST, cfg)
    assert start.stop_reason == "non_finite"
    assert [s.t for s in start.samples] == [0.0]


def test_batch_rows_step_like_serial_solves():
    cfg = MIXED_STOPS_CFG
    shape = NetShape(2, 3, 2)
    field = flow_field(shape, COST)
    Y0 = np.stack([pack(random_init(shape, seed=s, scale=0.5).layers) for s in range(12)])
    batch = solve_flow_batch(field, Y0, cfg)
    assert {r.stop_reason for r in batch} == {"converged", "t_max", "max_steps"}
    for y0, got in zip(Y0, batch):
        want = solve_flow(field, y0, cfg)
        assert (got.stop_reason, got.n_steps) == (want.stop_reason, want.n_steps)
        np.testing.assert_allclose(got.t, want.t[-1:], rtol=1e-7)
        np.testing.assert_allclose(got.y, want.y[-1:], rtol=0, atol=1e-9)

    # y' = y^2 blows up at t = 1/y0 for y0 > 0 and decays for y0 < 0
    short = IntegratorConfig(t_max=5.0)

    def square(y, out):
        np.multiply(y, y, out=out)

    batch = solve_flow_batch(square, np.array([[1.0], [0.5], [-1.0]]), short)
    assert [r.stop_reason for r in batch] == ["non_finite", "non_finite", "t_max"]
    for y0, got in zip([1.0, 0.5, -1.0], batch):
        want = solve_flow(square, np.array([y0]), short)
        assert (got.stop_reason, got.n_steps) == (want.stop_reason, want.n_steps)

    # a constant field gives error estimates of zero, up to rounding
    batch = solve_flow_batch(lambda y, out: out.fill(1.0), np.array([[0.0], [2.0]]), short)
    assert [r.stop_reason for r in batch] == ["t_max", "t_max"]


def test_trajectory_csv_round_trip(tmp_path):
    scalar = parse_scalar_cost("(1 - w)^2")
    stack0 = random_init(NetShape(1, 2, 2), seed=5, scale=0.5)
    cfg = IntegratorConfig(t_max=10.0, record_stride=10)
    traj = integrate(stack0, scalar.as_matrix(), cfg)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, scalar.as_matrix(), str(path))
    data = read_trajectory_csv(str(path))
    np.testing.assert_array_equal(data["t"], [s.t for s in traj.samples])
    np.testing.assert_array_equal(data["cost"], [s.cost for s in traj.samples])
    assert np.all(np.isfinite(data["imbalance_c"]))  # defined for two scalar layers


def _per_sample_drift_and_imbalance(traj):
    """The drift and imbalance series rebuilt one sample at a time from
    ``invariants(s.stack)``: the reference the array route must match."""
    with np.errstate(over="ignore", invalid="ignore"):
        sets = [invariants(s.stack) for s in traj.samples]
        scales = [1.0 + float(np.linalg.norm(c)) for c in sets[0].matrices]
        series = []
        for now in sets:
            worst = 0.0
            for c0, c1, scale in zip(sets[0].matrices, now.matrices, scales):
                err = float(np.linalg.norm(c1 - c0)) / scale
                if err > worst:
                    worst = err
            series.append(worst)
    scalar = traj.shape.depth == 2 and traj.shape.n == 1
    imbalance = [imbalance_scalar(inv) if scalar else np.nan for inv in sets]
    return series, imbalance


ARRAY_ROUTE_FLOWS = {
    "depth2_n1": (NetShape(1, 2, 2), parse_scalar_cost("w^4 - 3 * w^2 + w").as_matrix(), 0.7, "converged"),
    "depth3": (NetShape(2, 3, 3), COST, 0.5, "converged"),
    "depth4": (NetShape(2, 4, 4), COST, 0.5, "converged"),
    "non_finite": (NetShape(1, 2, 2), parse_scalar_cost("-(w^2)").as_matrix(), 1.5, "non_finite"),
}


@pytest.mark.parametrize("case", ARRAY_ROUTE_FLOWS)
def test_array_route_matches_the_per_sample_route(tmp_path, case):
    shape, cost, scale, stop = ARRAY_ROUTE_FLOWS[case]
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-10, t_max=50.0)
    traj = integrate(random_init(shape, seed=2, scale=scale), cost, cfg)
    assert traj.stop_reason == stop

    layers = traj.layers
    assert [layer.shape for layer in layers] == [(len(traj.t),) + dims for dims in layer_shapes(shape)]
    for i, sample in enumerate(traj.samples):
        assert (sample.t, sample.cost, sample.grad_norm) == (traj.t[i], traj.cost[i], traj.field_norm[i])
        for got, want in zip(sample.stack.layers, layers):
            np.testing.assert_array_equal(got, want[i])
    assert traj.final.t == traj.samples[-1].t
    np.testing.assert_array_equal(traj.final.stack.layers[-1], traj.samples[-1].stack.layers[-1])
    # samples are read-only views of the recording, not copies
    for sample in traj.samples + (traj.final,):
        for layer in sample.stack.layers:
            assert np.shares_memory(layer, traj.y) and not layer.flags.writeable

    series, imbalance = _per_sample_drift_and_imbalance(traj)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, cost, str(path))
    data = read_trajectory_csv(str(path))
    np.testing.assert_array_equal(data["drift"], series)
    np.testing.assert_array_equal(data["imbalance_c"], imbalance)
    assert drift(traj) == max(series)


def test_trajectory_arrays_cannot_be_made_writeable():
    cfg = IntegratorConfig(t_max=5.0)
    traj = integrate(random_init(NetShape(2, 3, 3), seed=1, scale=0.5), COST, cfg)
    reduced = reduced_flow(parse_scalar_cost("(1 - w)^2"), 1.0, 0.5, cfg, checkpoints=[0.5, 1.0])
    sig = sig_integrate(0.3, -0.2, cfg)
    # the drift series is shared by drift and the CSV
    derived = [traj.samples[1].stack.layers[1], *traj.layers, traj.drift_series, reduced.z]
    fields = [getattr(rec, f.name) for rec in (traj, reduced, sig) for f in dataclasses.fields(rec)]
    arrays = [arr for arr in fields if isinstance(arr, np.ndarray)]
    assert len(arrays) == 3 * 3 + 4  # t, y and field_norm each, then cost, f, invariant and cost
    for arr in arrays + derived:
        with pytest.raises(ValueError):
            arr.flags.writeable = True
    # an array that is already read-only is stored as given, not locked again
    assert dataclasses.replace(traj, n_forced=1).y is traj.y


def test_a_record_locks_a_copy_of_a_view_of_a_writeable_owner():
    # numpy lets a locked view of a writeable owner be unlocked again
    owner = np.arange(6.0).reshape(2, 3)
    record = odeint.OdeResult(t=owner[0], y=np.zeros((3, 1)), field_norm=np.zeros(3), stop_reason="t_max",
                              n_steps=1, nfev=13, n_rejected=0, n_forced=0)
    with pytest.raises(ValueError):
        record.t.flags.writeable = True
    owner[0, 0] = 99.0
    assert record.t[0] == 0.0


def test_samples_of_a_non_finite_recording_are_refused():
    shape = NetShape(1, 2, 2)
    y = np.ones((3, 4))
    y[1, 2] = np.nan
    traj = Trajectory(t=np.arange(3.0), y=y, field_norm=np.zeros(3), stop_reason="t_max", n_steps=2, nfev=25,
                      n_rejected=0, n_forced=0, cost=np.zeros(3), shape=shape, config=IntegratorConfig())
    with pytest.raises(ValueError, match="non-finite"):
        traj.samples
    assert traj.final.t == 2.0  # the last row is finite


def _residual_by_np_sum(stack, inv0):
    norms = [float(np.sum(layer * layer)) for layer in stack.layers]
    return [abs(norms[i] - norms[i + 1] - inv0.traces[i]) for i in range(stack.shape.depth - 1)]


def _drift_by_np_linalg_norm(layers):
    series = np.zeros(len(layers[0]))
    for a, b in zip(layers[:-1], layers[1:]):
        c = a @ a.swapaxes(-1, -2) - b.swapaxes(-1, -2) @ b
        scale = 1.0 + float(np.linalg.norm(c[0]))
        err = np.array([float(np.linalg.norm(d)) for d in c - c[0]]) / scale
        series = np.fmax(series, err)
    return series


def _norm_route_flows():
    # numpy's pairwise sums change order past 8 terms, and layers here reach 36
    rng = np.random.default_rng(4)
    shapes = [(1, n, n) for n in (1, 2, 3)]
    shapes += [(depth, n, n + extra) for depth in (2, 3, 4) for n in (1, 2, 3) for extra in range(4)]
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-10, t_max=5.0)
    with pytest.warns(DegenerateWidthWarning):
        nets = [NetShape(n, k, depth) for depth, n, k in shapes]
    for grid in (None, np.linspace(0.0, cfg.t_max, 251)):
        for shape in nets:
            cost = QuadraticMatrixCost(np.eye(shape.n) + 0.3 * rng.standard_normal((shape.n, shape.n)))
            stack0 = random_init(shape, seed=int(rng.integers(2**31)), scale=0.5)
            yield integrate(stack0, cost, cfg, checkpoints=grid), cost
        diverging = parse_scalar_cost("-(w^2)").as_matrix()
        yield integrate(random_init(NetShape(1, 2, 2), seed=2, scale=1.5), diverging, cfg, checkpoints=grid), diverging
        # the product overflows, so cost, gradient and balance norms are inf or nan
        traj = integrate(random_init(NetShape(2, 3, 2), seed=0, scale=1e160), COST, cfg, checkpoints=grid)
        assert traj.stop_reason == "non_finite" and np.isinf(traj.cost[-1])
        yield traj, COST


QUARTIC = parse_scalar_cost("(w - 1)^4 + (w - 1)^2")


def _bytes(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def test_norms_match_the_numpy_wrappers_bit_for_bit(tmp_path):
    """The stacked routes (whole recording at once) give the bytes of the
    per-sample routes and of numpy's own sum and norm wrappers."""
    path = tmp_path / "traj.csv"
    for traj, cost in _norm_route_flows():
        write_trajectory_csv(traj, cost, str(path))
        column = [line.split(",")[3] for line in path.read_text().splitlines()[1:]]
        layers = traj.layers
        # the last flow overflows everywhere; both routes must overflow alike
        with np.errstate(over="ignore", invalid="ignore"):
            w = product(layers)
            grad_f_norm = [float(np.linalg.norm(g)) for g in cost.gradient(w)]
            assert column == [f"{v:.17g}" for v in grad_f_norm]
            if isinstance(cost, QuadraticMatrixCost):
                per_matrix = [0.5 * float(np.sum((m - cost.target) * (m - cost.target))) for m in w]
            else:
                per_matrix = [cost.scalar.value(float(m[0, 0])) for m in w]
            assert _bytes(cost.value(w)) == _bytes(traj.cost) == _bytes(per_matrix)
            if traj.shape.n == 1:
                quartic = QUARTIC.as_matrix()
                assert _bytes(quartic.value(w)) == _bytes([QUARTIC.value(float(m[0, 0])) for m in w])
            if traj.shape.depth < 2:
                continue
            assert drift_series(layers).tobytes() == _drift_by_np_linalg_norm(layers).tobytes()
            inv, sets = invariants(traj), [invariants(s.stack) for s in traj.samples]
            for i, traces in enumerate(inv.traces):
                assert _bytes(traces) == _bytes([float(np.trace(s.matrices[i])) for s in sets])
            inv0 = invariants(traj.samples[0].stack)
            got = norm_chain_residual(traj, inv0)
            want = [_residual_by_np_sum(s.stack, inv0) for s in traj.samples]
            assert _bytes(np.transpose(got)) == _bytes(want)
            if traj.shape.depth == 2 and traj.shape.n == 1:
                assert _bytes(imbalance_scalar(inv)) == _bytes([imbalance_scalar(s) for s in sets])


def test_trajectory_csv_blank_imbalance_for_matrix_case(tmp_path):
    stack0 = random_init(NetShape(2, 3, 2), seed=6, scale=0.5)
    traj = integrate(stack0, COST, IntegratorConfig(t_max=5.0, record_stride=20))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, COST, str(path))
    data = read_trajectory_csv(str(path))
    assert np.all(np.isnan(data["imbalance_c"]))


# integrator-level behavior on plain vector fields


def _decay(y, out):  # y' = -y
    np.negative(y, out=out)


def test_solver_stop_reasons():
    # e^{-t} crosses grad_tol = 1e-8 around t = 18.4, inside the horizon
    decay = solve_flow(_decay, np.array([1.0]), IntegratorConfig(t_max=25.0, grad_tol=1e-8))
    assert decay.stop_reason == "converged"

    capped = solve_flow(_decay, np.array([1.0]), IntegratorConfig(t_max=10.0, max_steps=3))
    assert capped.stop_reason == "max_steps"

    grow = solve_flow(
        lambda y, out: np.copyto(out, y),
        np.array([1.0]),
        IntegratorConfig(t_max=10.0, grad_tol=1e-12),
        stop_when=lambda t, y: float(y[0]) > 2.0,
    )
    assert grow.stop_reason == "stopped"
    assert grow.y[-1, 0] > 2.0

    blow = solve_flow(
        lambda y, out: np.multiply(y * y * y, 1e4, out=out),
        np.array([1.0]),
        IntegratorConfig(t_max=10.0, rtol=1e-3, atol=1e-6, grad_tol=1e-12),
    )
    assert blow.stop_reason == "non_finite"
    assert np.all(np.isfinite(blow.y))  # the recorded tail stays finite

    slow = solve_flow(lambda y, out: np.multiply(-0.01, y, out=out), np.array([1.0]),
                      IntegratorConfig(t_max=2.0, grad_tol=1e-12))
    assert slow.stop_reason == "t_max"
    assert slow.t[-1] == 2.0


def test_field_norm_is_the_norm_of_the_field_at_every_sample():
    # each run records checkpoints from blocks, whose field is one call per
    # block; every recorded norm must be the norm of the field at that one state
    shape = NetShape(n=2, k=3, depth=3)
    field = flow_field(shape, COST)
    cfg = IntegratorConfig(h0=0.01, t_max=2.0, grad_tol=1e-12, record_stride=3)
    deep = solve_flow(field, pack(random_init(shape, seed=4, scale=0.5).layers), cfg,
                      checkpoints=[0.05, 0.3, 1.0, 1.7])
    assert len(deep.t) > 10

    well, c = parse_scalar_cost("(1 - w)^2 * (2 + w)^2"), 0.3

    def reduced_field(y, out):  # the reduced flow's field at one state
        z = float(y[0])
        out[0] = -well.deriv(z) * math.sqrt(c + 4.0 * z * z)

    reduced = reduced_flow(well, c, 0.5, IntegratorConfig(t_max=5.0, grad_tol=1e-12),
                           checkpoints=np.linspace(0.0, 5.0, 1001))
    assert len(reduced.t) > 1000

    # separatrix_trace's own solve, whose stop_when is asked at every checkpoint
    sep_cfg = IntegratorConfig(t_max=25.0, grad_tol=1e-12)
    trace = separatrix_trace("plus", "backward", sep_cfg, eps=1e-6, radius=2.5)
    y0 = 1e-6 * origin_eigenvectors()[0]
    sep = solve_flow(_sig_rhs_backward, y0, sep_cfg, checkpoints=np.arange(0.01, 25.0, 0.01),
                     stop_when=lambda t, y: bool(np.max(np.abs(y)) > 2.5))
    assert sep.stop_reason == "stopped" and sep.y.tobytes() == trace.tobytes() and len(sep.t) > 500

    for res, single in ((deep, field), (reduced, reduced_field), (sep, _sig_rhs_backward)):
        out = np.empty(res.y.shape[1])
        for y, fnorm in zip(res.y, res.field_norm):
            single(y, out)
            assert fnorm == np.linalg.norm(out)


def test_solver_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_flow(_decay, np.array([np.nan]), IntegratorConfig())
    with pytest.raises(ValueError):
        IntegratorConfig(rtol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(record_stride=0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_max=-1.0)


def test_checkpoints_are_recorded_exactly():
    cps = [0.1, 0.25, 0.5, 1.0, 1.5]
    res = solve_flow(_decay, np.array([1.0]),
                     IntegratorConfig(t_max=2.0, grad_tol=1e-14), checkpoints=cps)
    for cp in cps:
        assert cp in res.t.tolist()
    idx = res.t.tolist().index(1.0)
    assert res.y[idx, 0] == pytest.approx(np.exp(-1.0), abs=1e-10)


def test_checkpoints_do_not_change_the_steps():
    shape = NetShape(2, 3, 3)
    field = flow_field(shape, COST)
    y0 = pack(random_init(shape, seed=4, scale=0.5).layers)
    cfg = IntegratorConfig(t_max=10.0, grad_tol=1e-12)
    cps = np.linspace(0.0, cfg.t_max, 1001)
    plain = solve_flow(field, y0, cfg)
    dense = solve_flow(field, y0, cfg, checkpoints=cps)
    assert plain.stop_reason == dense.stop_reason == "t_max"
    assert dense.n_steps == plain.n_steps
    assert set(cps.tolist()) <= set(dense.t.tolist())
    at_steps = np.searchsorted(dense.t, plain.t)
    assert dense.t[at_steps].tobytes() == plain.t.tobytes()
    assert dense.y[at_steps].tobytes() == plain.y.tobytes()
    assert np.all(np.diff(dense.t) > 0)


def test_checkpoints_sample_the_continuous_extension():
    cps = np.linspace(0.0123, 5.0, 200)
    cfg = IntegratorConfig(h0=0.005, t_max=5.0, grad_tol=1e-14)
    res = solve_flow(_decay, np.array([1.0]), cfg, checkpoints=cps)
    at_cps = np.searchsorted(res.t, cps)
    assert res.t[at_cps].tobytes() == cps.tobytes()
    assert np.abs(res.y[at_cps, 0] - np.exp(-cps)).max() < 1e-9
    assert res.field_norm[at_cps].tobytes() == np.abs(res.y[at_cps, 0]).tobytes()


def test_an_overflowing_interpolant_stops_the_run():
    # the step's ends are finite, but the extension's terms overflow between them
    cfg = IntegratorConfig(h0=1.0, t_max=1.0)
    res = solve_flow(lambda y, out: out.fill(1e306), np.array([0.0]), cfg, checkpoints=[0.5])
    assert res.stop_reason == "non_finite"
    assert res.t.tolist() == [0.0] and res.y.tolist() == [[0.0]]
    plain = solve_flow(lambda y, out: out.fill(1e306), np.array([0.0]), cfg)
    assert plain.stop_reason == "t_max" and np.isfinite(plain.y).all()


@pytest.mark.parametrize("field", [
    lambda y, out: out.fill(1.0),  # the state's sum of squares overflows
    lambda y, out: np.multiply(y, 1e-3, out=out),  # the field's too
], ids=["state", "state_and_field"])
def test_finite_entries_with_an_overflowing_sum_of_squares_keep_stepping(field):
    cps = [0.5, 1.5]
    res = solve_flow(field, np.full(4, 1e160), IntegratorConfig(t_max=5.0), checkpoints=cps)
    assert res.stop_reason == "t_max" and res.t[-1] == 5.0
    assert res.n_steps > 1 and set(cps) <= set(res.t.tolist())
    assert np.isfinite(res.y).all() and np.abs(res.y).min() > 9e159


@pytest.mark.parametrize("past", [np.nan, np.inf, 1e308], ids=["nan", "inf", "overflowing_state"])
def test_a_non_finite_step_stops_at_the_last_finite_sample(past):
    # y[0] runs at unit speed; past 2 the field turns non-finite, or so large
    # that the last stage's sum of squares and the new state overflow
    def field(y, out):
        out.fill(1.0)
        if y[0] > 2.0:
            out[0] = past

    res = solve_flow(field, np.zeros(3), IntegratorConfig(t_max=10.0))
    assert res.stop_reason == "non_finite"
    assert np.isfinite(res.y).all() and np.isfinite(res.field_norm).all()
    assert 1.0 <= res.y[-1, 0] <= 2.0 and abs(res.t[-1] - res.y[-1, 1]) < 1e-12


def test_convergence_is_tested_at_every_checkpoint():
    # e^{-t} falls below 1e-4 at t = 9.2103; the steps are far longer than the grid
    cfg = IntegratorConfig(t_max=20.0, grad_tol=1e-4)
    grid = np.arange(1, 2001) * 0.01
    plain = solve_flow(_decay, np.array([1.0]), cfg)
    res = solve_flow(_decay, np.array([1.0]), cfg, checkpoints=grid)
    assert res.stop_reason == plain.stop_reason == "converged"
    first = grid[np.argmax(np.exp(-grid) < cfg.grad_tol)]
    assert res.t[-1] == first == 9.22 < plain.t[-1]
    assert res.field_norm[-1] < cfg.grad_tol <= res.field_norm[:-1].min()
    assert res.n_steps == plain.n_steps  # it stops inside the step that converges


def test_stop_when_is_asked_at_every_checkpoint():
    cps = np.linspace(0.01, 2.0, 200)
    res = solve_flow(lambda y, out: np.copyto(out, y), np.array([1.0]),
                     IntegratorConfig(t_max=2.0, grad_tol=1e-12), checkpoints=cps,
                     stop_when=lambda t, y: float(y[0]) > 2.0)
    assert res.stop_reason == "stopped"
    assert res.y[-1, 0] > 2.0 and np.all(res.y[:-1, 0] <= 2.0)
    assert res.t[-1] == cps[np.searchsorted(cps, np.log(2.0))]


def _block_spanning(t_stop, cfg, grid):
    """The checkpoints of the step that spans t_stop, and t_stop's index
    among them; the steps are those of a run without checkpoints."""
    ends = solve_flow(_decay, np.array([1.0]), dataclasses.replace(cfg, grad_tol=1e-300)).t
    t_old, t_new = ends[ends < t_stop][-1], ends[ends > t_stop][0]
    block = grid[(grid > t_old) & (grid < t_new)]
    return block, int(np.flatnonzero(block == t_stop)[0])


@pytest.mark.parametrize("stop", ["converged", "stopped"])
def test_a_block_records_its_samples_up_to_the_one_that_stops(stop):
    # e^{-t} first falls below 1e-4 on the grid at t = 9.22, inside a step
    # that spans many grid points
    grid = np.arange(1, 2001) * 0.01
    if stop == "converged":
        cfg, stop_when = IntegratorConfig(t_max=20.0, grad_tol=1e-4), None
    else:
        cfg, stop_when = IntegratorConfig(t_max=20.0, grad_tol=1e-12), lambda t, y: y[0] < 1e-4
    block, k = _block_spanning(9.22, cfg, grid)
    assert 1 <= k < len(block) - 1
    rows = []

    def field(y, out):
        rows.append(len(y) if y.ndim == 2 else 1)
        _decay(y, out)

    res = solve_flow(field, np.array([1.0]), cfg, checkpoints=grid, stop_when=stop_when)
    assert res.stop_reason == stop
    assert res.t[-(k + 1):].tobytes() == block[: k + 1].tobytes()  # samples 0..k and nothing after
    assert res.t[-(k + 2)] < block[0]
    assert rows[-1] == len(block) and res.nfev == sum(rows)  # the rows past the stop are counted


def test_a_non_finite_sample_inside_a_block_stops_at_the_one_before():
    # the field turns NaN on checkpoint samples below e^{-9.215}, never at a
    # step's own stages, so the first non-finite sample is t = 9.22, not the
    # first of its block
    cfg = IntegratorConfig(t_max=20.0, grad_tol=1e-12)
    grid = np.arange(1, 2001) * 0.01
    block, k = _block_spanning(9.22, cfg, grid)
    assert k >= 1

    def field(y, out):
        _decay(y, out)
        if y.ndim == 2:
            out[y[:, 0] < math.exp(-9.215)] = np.nan

    res = solve_flow(field, np.array([1.0]), cfg, checkpoints=grid)
    assert res.stop_reason == "non_finite"
    assert res.t[-k:].tobytes() == block[:k].tobytes()  # samples 0..k-1
    assert res.t[-(k + 1)] < block[0]
    assert np.isfinite(res.field_norm).all()


def _overflows_at(times):
    def stop_when(t, y):
        if t in times:
            return bool(np.float64(1e300) * np.float64(1e300) < 0.0)
        return False

    return stop_when


@pytest.mark.parametrize("where", ["checkpoints", "step_ends"])
def test_stop_when_runs_under_the_callers_error_state(where):
    # the solver ignores overflow in its own arithmetic, not in the caller's predicate
    cfg = IntegratorConfig(t_max=1.0)
    if where == "checkpoints":
        cps = [0.123456, 0.654321]
        kwargs = dict(checkpoints=cps, stop_when=_overflows_at(cps))
    else:
        ends = solve_flow(_decay, np.array([1.0]), cfg).t.tolist()
        kwargs = dict(stop_when=_overflows_at(ends[1:]))
    with pytest.raises(RuntimeWarning, match="overflow"):
        solve_flow(_decay, np.array([1.0]), cfg, **kwargs)
    with np.errstate(over="ignore"):
        assert solve_flow(_decay, np.array([1.0]), cfg, **kwargs).stop_reason == "t_max"


def _nan_in_blocks_below(level):
    """_decay, but NaN on the rows of a checkpoint block below level."""

    def field(y, out):
        _decay(y, out)
        if y.ndim == 2:
            out[y[:, 0] < level] = np.nan

    return field


_GRID = np.arange(1, 2001) * 0.01
_TO_1E4 = IntegratorConfig(t_max=20.0, grad_tol=1e-4)  # e^{-t} first falls below 1e-4 on the grid at 9.22
_PAST_1E4 = dataclasses.replace(_TO_1E4, grad_tol=1e-12)
_BELOW_1E4 = {"stop_when": lambda t, y: y[0] < 1e-4}
_NEVER = {"stop_when": lambda t, y: False}
# the reason, the field, the config, solve_flow's keywords and where the run must end
STOP_CASES = {
    "converged_at_a_step_end": ("converged", _decay, _TO_1E4, {}, lambda res: not np.isin(res.t[-1], _GRID)),
    "converged_in_a_block": ("converged", _decay, _TO_1E4, {"checkpoints": _GRID}, lambda res: res.t[-1] == 9.22),
    "stopped_at_a_step_end": (
        "stopped", _decay, _PAST_1E4, _BELOW_1E4, lambda res: not np.isin(res.t[-1], _GRID),
    ),
    "stopped_in_a_block": (
        "stopped", _decay, _PAST_1E4, {"checkpoints": _GRID, **_BELOW_1E4}, lambda res: res.t[-1] == 9.22,
    ),
    "non_finite_at_the_start": (
        "non_finite", lambda y, out: out.fill(np.nan), _PAST_1E4, {}, lambda res: res.t.tolist() == [0.0],
    ),
    "non_finite_in_a_block": (
        "non_finite", _nan_in_blocks_below(math.exp(-9.215)), _PAST_1E4, {"checkpoints": _GRID, **_NEVER},
        lambda res: res.t[-1] == 9.21,
    ),
    "non_finite_at_a_step": (
        # y' = 1 up to y = 2, where the field turns infinite
        "non_finite", lambda y, out: out.fill(np.inf if y[0] > 2.0 else 1.0), _PAST_1E4, _NEVER,
        lambda res: res.n_steps > 0 and res.y[-1, 0] <= 2.0 and np.isfinite(res.field_norm).all(),
    ),
    "max_steps": (
        "max_steps", _decay, IntegratorConfig(t_max=10.0, max_steps=3), {"checkpoints": _GRID, **_NEVER},
        lambda res: res.n_steps == 3 and res.t[-1] not in res.t[:-1],
    ),
    "t_max": ("t_max", _decay, _PAST_1E4, {"checkpoints": _GRID, **_NEVER}, lambda res: res.t[-1] == 20.0),
}


@pytest.mark.parametrize("state", [{"all": "raise"}, {"over": "warn", "invalid": "print", "divide": "ignore", "under": "ignore"}])
@pytest.mark.parametrize("case", STOP_CASES)
def test_every_stop_leaves_the_callers_error_state(case, state):
    # the solver ignores overflow in its own arithmetic under one error
    # state, and hands back the caller's, which stop_when sees at every call
    reason, field, cfg, kwargs, ends_where = STOP_CASES[case]
    asked = []  # the error state at each stop_when call
    given = kwargs.get("stop_when")
    if given is not None:
        kwargs = dict(kwargs, stop_when=lambda t, y: asked.append(np.geterr()) or given(t, y))
    with np.errstate(**state):
        callers = np.geterr()
        res = solve_flow(field, np.array([1.0]), cfg, **kwargs)
        assert np.geterr() == callers
    assert res.stop_reason == reason and ends_where(res)
    assert bool(asked) == (given is not None) and all(errors == callers for errors in asked)


def test_nfev_counts_every_field_evaluation():
    shape = NetShape(2, 3, 2)
    field = flow_field(shape, COST)
    evaluated = []  # rows per call

    def counting(y, out):
        evaluated.append(len(y) if y.ndim == 2 else 1)
        field(y, out)

    cfg = IntegratorConfig(h0=0.05, rtol=1e-8, atol=1e-10, t_max=8.0, grad_tol=1e-6)
    Y0 = np.stack([pack(random_init(shape, seed=s, scale=0.5).layers) for s in range(6)])
    serial = []
    for y0 in Y0:
        for cps in (None, np.linspace(0.0, cfg.t_max, 301)):
            evaluated.clear()
            res = solve_flow(counting, y0, cfg, checkpoints=cps)
            assert res.nfev == sum(evaluated)  # a block of checkpoint samples counts its rows
        serial.append(res)
    evaluated.clear()
    batch = solve_flow_batch(counting, Y0, cfg)
    assert sum(r.nfev for r in batch) == sum(evaluated)
    for got, want in zip(batch, serial):
        assert (got.n_steps, got.n_rejected) == (want.n_steps, want.n_rejected)
        assert got.nfev == 1 + len(odeint._DOP853_A) * (got.n_steps + got.n_rejected)


def test_steps_forced_at_the_minimum_step_are_counted():
    # no step meets an error bound this far below rounding, so the step size
    # falls to its floor and steps are accepted there regardless
    cfg = IntegratorConfig(rtol=1e-30, atol=1e-30, t_max=1.0, max_steps=3)
    serial = solve_flow(_decay, np.array([1.0]), cfg)
    batch = solve_flow_batch(_decay, np.array([[1.0], [0.5]]), cfg)
    for res in [serial] + batch:
        assert res.stop_reason == "max_steps"
        assert res.n_forced > 0 and res.n_rejected > 0
    calm = solve_flow(_decay, np.array([1.0]), IntegratorConfig(t_max=1.0))
    assert (calm.n_forced, calm.n_rejected) == (0, 0)


def test_a_solve_binds_each_of_its_arrays_once(monkeypatch):
    import ovflow.linnet as linnet

    bound = []  # holds every bound array, so no two can share an id
    unpacker = linnet.unpacker

    def counting_unpacker(shape):
        unpack = unpacker(shape)

        def counted(arr):
            bound.append(arr)
            return unpack(arr)

        return counted

    monkeypatch.setattr(linnet, "unpacker", counting_unpacker)
    shape = NetShape(2, 3, 2)
    Y0 = np.stack([pack(random_init(shape, seed=s, scale=0.5).layers) for s in range(12)])
    field = linnet.flow_field(shape, COST)
    solve_flow(field, Y0[0], MIXED_STOPS_CFG, checkpoints=np.linspace(0, 11, 111))
    # y0, the stage-input buffer and 16 stage rows; the (m, d) blocks of
    # checkpoint samples and their outputs are unpacked per call, never kept
    kept = [arr for arr in bound if arr.ndim == 1]
    blocks = [weakref.ref(arr) for arr in bound if arr.ndim == 2]
    assert len(kept) == len({id(arr) for arr in kept}) == 18
    assert len(blocks) == len(bound) - 18 > 0
    bound.clear()
    gc.collect()
    assert all(block() is None for block in blocks)  # the field still lives, and holds none of them
    # rows leave at different steps, and each shrink brings 13 new arrays
    solve_flow_batch(linnet.flow_field(shape, COST), Y0, MIXED_STOPS_CFG)
    assert len(bound) == len({id(arr) for arr in bound}) > 15
    assert (len(bound) - 15) % 13 == 0


def _decay_to_ten():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, h0=1e-3, t_max=10.0)
    return solve_flow(_decay, np.array([1.0, 2.0]), cfg)


def test_dop853_steps_under_its_own_step_control():
    # 0.9 err^(-1/8) aims each step at err = 0.9^8, about 0.43; a controller
    # aiming lower takes more, shorter steps (scipy's DOP853 takes 32 here)
    res = _decay_to_ten()
    assert res.stop_reason == "t_max"
    assert res.n_steps <= 34


def test_dop853_steps_like_scipys():
    scipy_integrate = pytest.importorskip("scipy.integrate")
    res = _decay_to_ten()
    ref = scipy_integrate.solve_ivp(lambda t, y: -y, (0.0, 10.0), [1.0, 2.0], method="DOP853",
                                    rtol=1e-10, atol=1e-12, first_step=1e-3)
    assert ref.success
    assert abs(res.n_steps - (len(ref.t) - 1)) <= 2


def test_trajectories_carry_the_solver_counts():
    shape = NetShape(2, 3, 2)
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-10, t_max=11.0)
    stacks = [random_init(shape, seed=s, scale=0.5) for s in range(4)]
    cps = np.linspace(0.0, cfg.t_max, 23)
    batch = integrate_batch(stacks, COST, cfg)
    for stack, row in zip(stacks, batch):
        traj = integrate(stack, COST, cfg, checkpoints=cps)
        res = solve_flow(flow_field(shape, COST), pack(stack.layers), cfg, checkpoints=cps)
        counts = (res.n_steps, res.nfev, res.n_rejected, res.n_forced)
        assert (traj.n_steps, traj.nfev, traj.n_rejected, traj.n_forced) == counts
        plain = solve_flow(flow_field(shape, COST), pack(stack.layers), cfg)  # a batch has no checkpoints
        assert (row.n_steps, row.nfev, row.n_rejected, row.n_forced) == (
            plain.n_steps, plain.nfev, plain.n_rejected, plain.n_forced)
        assert type(traj.n_forced) is type(row.n_forced) is int
    assert sum(traj.n_rejected for traj in batch) > 0

    well = parse_scalar_cost("(1 - w)^2")

    def reduced_field(y, out):  # c = 1; y is a state or a block of checkpoint samples
        z = y[..., :1]
        out[..., :1] = -well.deriv(z) * np.sqrt(1.0 + 4.0 * z * z)

    reduced = reduced_flow(well, 1.0, 0.5, cfg, checkpoints=cps)
    sig = sig_integrate(0.3, -0.2, cfg)
    for rec, res in (
        (reduced, solve_flow(reduced_field, np.array([0.5]), cfg, checkpoints=cps)),
        (sig, solve_flow(_sig_rhs, np.array([0.3, -0.2]), cfg)),
    ):
        assert (rec.n_steps, rec.nfev, rec.n_rejected, rec.n_forced) == (
            res.n_steps, res.nfev, res.n_rejected, res.n_forced)
        assert rec.n_steps > 0 and rec.t.tobytes() == res.t.tobytes() and rec.y.tobytes() == res.y.tobytes()


def test_dop853_coefficients_are_hairers():
    # scipy ships the same pair; it is read here only, never by the package
    coef = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    for i, row in enumerate(odeint._DOP853_A + odeint._DOP853_A_EXTRA, start=1):
        assert row.tobytes() == coef.A[i, :i].tobytes(), f"stage row {i}"
    assert odeint._DOP853_B.tobytes() == np.append(coef.B, 0.0).tobytes()
    for got, want in ((odeint._DOP853_E5, coef.E5), (odeint._DOP853_E3, coef.E3), (odeint._DOP853_D, coef.D)):
        assert got.tobytes() == want.tobytes()


def test_the_package_does_not_import_scipy():
    code = "import sys, ovflow.cli, ovflow.flow; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
