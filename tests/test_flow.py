"""End-to-end dynamics: the factored flow, its baseline, and trajectory I/O."""

import numpy as np
import pytest

from ovflow.cost import QuadraticMatrixCost, parse_scalar_cost
from ovflow.flow import (
    _field,
    _pack,
    detect_convergence,
    integrate,
    integrate_baseline,
    read_trajectory_csv,
    sweep,
    write_trajectory_csv,
)
from ovflow.invariant import drift
from ovflow.linnet import NetShape, balanced_init, random_init
from ovflow.odeint import IntegratorConfig, solve_flow, solve_flow_batch
from ovflow.scalarcase import anti_balanced, to_stack

COST = QuadraticMatrixCost(np.array([[2.0, 0.3], [-0.1, 1.0]]))


def test_baseline_matches_closed_form():
    # dW/dt = -(W - T) integrates to W(t) = T + (W0 - T) e^{-t}
    W0 = np.array([[0.5, 0.0], [0.0, 0.25]])
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=5.0, grad_tol=1e-14)
    traj = integrate_baseline(W0, COST, cfg, checkpoints=[1.0, 2.5])
    times = [s.t for s in traj.samples]
    assert 1.0 in times and 2.5 in times  # checkpoints land exactly
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


def test_rk4_agrees_with_adaptive_method():
    W0 = np.array([[0.5, 0.0], [0.0, 0.25]])
    adaptive = IntegratorConfig(method="rk45", rtol=1e-10, atol=1e-12, t_max=5.0, grad_tol=1e-14)
    fixed = IntegratorConfig(method="rk4", h0=1e-3, t_max=5.0, grad_tol=1e-14)
    a = integrate_baseline(W0, COST, adaptive)
    b = integrate_baseline(W0, COST, fixed)
    assert np.abs(a.final.stack.layers[0] - b.final.stack.layers[0]).max() < 1e-9


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

    # anti-balanced scalar start flows into the spurious critical point at zero
    scalar = parse_scalar_cost("(1 - w)^2")
    stack0 = to_stack(anti_balanced(np.array([0.4, -0.3]), scalar))
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
MIXED_STOPS_CFG = IntegratorConfig(rtol=1e-8, atol=1e-10, t_max=11.0, max_steps=115)
SWEEP_CASES = {
    "depth2": (NetShape(2, 3, 2), COST, SWEEP_CFG),
    "depth3": (NetShape(2, 3, 3), COST, SWEEP_CFG),
    "depth1": (NetShape(2, 2, 1), COST, SWEEP_CFG),
    "scalar": (NetShape(1, 2, 2), parse_scalar_cost("(1 - w)^2").as_matrix(), SWEEP_CFG),
    "mixed_stops": (NetShape(2, 3, 2), COST, MIXED_STOPS_CFG),
    "rk4": (NetShape(2, 3, 2), COST, IntegratorConfig(method="rk4", h0=0.05, t_max=30.0, grad_tol=1e-6)),
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


def test_sweep_labels_diverging_runs_undecided():
    # f = -w^2 sends every start off to infinity; at scale 1e100 the field
    # already overflows at the start
    diverging = sweep(NetShape(1, 2, 2), parse_scalar_cost("-(w^2)").as_matrix(), SWEEP_CFG,
                      range(4), scale=1.5)
    huge = sweep(NetShape(2, 3, 2), COST, SWEEP_CFG, [0, 1], scale=1e100)
    assert {(r.label, r.note) for r in diverging + huge} == {("undecided", "stopped on non_finite")}


def test_batch_rows_step_like_serial_solves():
    shape = NetShape(2, 3, 2)
    field = _field(shape, COST)
    Y0 = np.stack([_pack(random_init(shape, seed=s, scale=0.5).layers) for s in range(12)])
    batch = solve_flow_batch(field, Y0, MIXED_STOPS_CFG)
    assert {r.stop_reason for r in batch} == {"converged", "t_max", "max_steps"}
    for y0, got in zip(Y0, batch):
        want = solve_flow(field, y0, MIXED_STOPS_CFG)
        assert (got.stop_reason, got.n_steps) == (want.stop_reason, want.n_steps)
        np.testing.assert_allclose(got.t, want.t[-1:], rtol=1e-7)
        np.testing.assert_allclose(got.y, want.y[-1:], rtol=0, atol=1e-9)

    # y' = y^2 blows up at t = 1/y0 for y0 > 0 and decays for y0 < 0
    blowup = IntegratorConfig(t_max=5.0)
    batch = solve_flow_batch(lambda y: y * y, np.array([[1.0], [0.5], [-1.0]]), blowup)
    assert [r.stop_reason for r in batch] == ["non_finite", "non_finite", "t_max"]
    for y0, got in zip([1.0, 0.5, -1.0], batch):
        want = solve_flow(lambda y: y * y, np.array([y0]), blowup)
        assert (got.stop_reason, got.n_steps) == (want.stop_reason, want.n_steps)


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


def test_trajectory_csv_blank_imbalance_for_matrix_case(tmp_path):
    stack0 = random_init(NetShape(2, 3, 2), seed=6, scale=0.5)
    traj = integrate(stack0, COST, IntegratorConfig(t_max=5.0, record_stride=20))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, COST, str(path))
    data = read_trajectory_csv(str(path))
    assert np.all(np.isnan(data["imbalance_c"]))


# integrator-level behavior on plain vector fields


def test_solver_stop_reasons():
    # e^{-t} crosses grad_tol = 1e-8 around t = 18.4, inside the horizon
    decay = solve_flow(lambda y: -y, np.array([1.0]), IntegratorConfig(t_max=25.0, grad_tol=1e-8))
    assert decay.stop_reason == "converged"

    capped = solve_flow(lambda y: -y, np.array([1.0]), IntegratorConfig(t_max=10.0, max_steps=3))
    assert capped.stop_reason == "max_steps"

    grow = solve_flow(
        lambda y: y,
        np.array([1.0]),
        IntegratorConfig(t_max=10.0, grad_tol=1e-12),
        stop_when=lambda t, y: float(y[0]) > 2.0,
    )
    assert grow.stop_reason == "stopped"
    assert grow.y[-1, 0] > 2.0

    blow = solve_flow(
        lambda y: y * y * y * 1e4,
        np.array([1.0]),
        IntegratorConfig(t_max=10.0, rtol=1e-3, atol=1e-6, grad_tol=1e-12),
    )
    assert blow.stop_reason == "non_finite"
    assert np.all(np.isfinite(blow.y))  # the recorded tail stays finite

    slow = solve_flow(lambda y: -0.01 * y, np.array([1.0]), IntegratorConfig(t_max=2.0, grad_tol=1e-12))
    assert slow.stop_reason == "t_max"
    assert slow.t[-1] == 2.0


def test_solver_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_flow(lambda y: -y, np.array([np.nan]), IntegratorConfig())
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(rtol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(record_stride=0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_max=-1.0)


def test_checkpoints_are_recorded_exactly():
    cps = [0.1, 0.25, 0.5, 1.0, 1.5]
    res = solve_flow(lambda y: -y, np.array([1.0]),
                     IntegratorConfig(t_max=2.0, grad_tol=1e-14), checkpoints=cps)
    for cp in cps:
        assert cp in res.t.tolist()
    idx = res.t.tolist().index(1.0)
    assert res.y[idx, 0] == pytest.approx(np.exp(-1.0), abs=1e-10)
