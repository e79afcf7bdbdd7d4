"""Scalar two-layer networks: the reduced flow, time rescaling, and the
convergence dichotomy battery."""

import math

import numpy as np
import pytest

from ovflow.cost import parse_scalar_cost
from ovflow.flow import detect_convergence, integrate
from ovflow.linnet import flow_field, pack
from ovflow.odeint import IntegratorConfig, solve_flow, solve_flow_batch
from ovflow.scalarcase import (
    ReducedTrajectory,
    ScalarPairState,
    anti_balanced,
    compare_acceleration,
    conserved_D,
    d_metric,
    dichotomy_experiment,
    full_flow,
    match_reduction,
    reduced_flow,
    reparameterize_time,
    state_from_stack,
    to_stack,
    _dichotomy_starts,
)

WELL = parse_scalar_cost("(1 - w)^2", min_value=0.0)


def test_state_accessors():
    state = ScalarPairState(np.array([3.0, 0.0]), np.array([1.0, 0.0]))
    assert state.z == pytest.approx(3.0)
    assert state.S == pytest.approx(10.0)
    assert conserved_D(state) == pytest.approx(64.0)  # 100 - 36


def test_state_validation():
    with pytest.raises(ValueError):
        ScalarPairState(np.array([1.0, 2.0]), np.array([1.0]))


def test_stack_round_trip():
    state = ScalarPairState(np.array([0.3, -0.2]), np.array([0.1, 0.5]))
    back = state_from_stack(to_stack(state))
    np.testing.assert_allclose(back.w1, state.w1)
    np.testing.assert_allclose(back.w2, state.w2)


def test_anti_balanced_line():
    # f'(0) = -2 puts the line at w1 = -w2
    state = anti_balanced(np.array([0.4, -0.3]), WELL)
    np.testing.assert_allclose(state.w1, [-0.4, 0.3])
    assert d_metric(state, WELL) == 0.0
    assert state.z < 0.0
    assert conserved_D(state) == pytest.approx(0.0, abs=1e-12)


def test_d_metric_away_from_the_line():
    state = ScalarPairState(np.array([1.0]), np.array([1.0]))
    assert d_metric(state, WELL) == pytest.approx(2.0)


def test_full_flow_conserves_D():
    state0 = ScalarPairState(np.array([0.6, 0.1]), np.array([0.8, -0.2]))
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=20.0)
    traj = full_flow(state0, WELL, cfg)
    D0 = conserved_D(state0)
    for s in traj.samples:
        assert abs(conserved_D(state_from_stack(s.stack)) - D0) < 1e-9


def test_reduced_flow_logistic_oracle():
    # with c = 0 and z > 0 the reduced equation is dz/dt = 4 z (1 - z),
    # the logistic flow: z(t) = 1 / (1 + e^{-4t}) from z0 = 0.5,
    # so z(ln(3)/4) = 0.75 exactly
    t_star = 0.25 * math.log(3.0)
    cfg = IntegratorConfig(rtol=1e-12, atol=1e-14, t_max=2.0, grad_tol=1e-14)
    traj = reduced_flow(WELL, 0.0, 0.5, cfg, checkpoints=[t_star])
    idx = traj.t.tolist().index(t_star)
    assert traj.z[idx] == pytest.approx(0.75, abs=1e-9)
    assert traj.f[idx] == pytest.approx(0.0625, abs=1e-9)


def test_reduced_flow_rejects_negative_imbalance():
    with pytest.raises(ValueError):
        reduced_flow(WELL, -0.5, 0.5, IntegratorConfig())
    # tiny negative from roundoff is forgiven
    traj = reduced_flow(WELL, -1e-13, 0.5, IntegratorConfig(t_max=1.0))
    assert traj.stop_reason in ("converged", "t_max")


def test_full_flow_matches_reduction():
    state0 = ScalarPairState(np.array([0.6, 0.0]), np.array([0.8, 0.0]))
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=10.0)
    assert match_reduction(WELL, state0, cfg) < 1e-8
    with pytest.raises(ValueError, match="at most 1,000,001"):  # refused before the grid is made
        match_reduction(WELL, state0, IntegratorConfig(t_max=1e9))


def test_width_one_stack_carries_the_degenerate_warning():
    from ovflow.linnet import DegenerateWidthWarning

    with pytest.warns(DegenerateWidthWarning):
        to_stack(ScalarPairState(np.array([0.6]), np.array([0.8])))


def test_match_reduction_with_imbalance():
    # an unbalanced start exercises the c > 0 branch of the reduction
    state0 = ScalarPairState(np.array([1.2, 0.0]), np.array([0.3, 0.4]))
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=10.0)
    assert match_reduction(WELL, state0, cfg) < 1e-8


def _frozen_at_one(t):
    """A hand-built reduced record that sits at z = 1."""
    return ReducedTrajectory(t=t, y=np.ones((t.size, 1)), field_norm=np.zeros_like(t), stop_reason="t_max",
                             n_steps=t.size - 1, nfev=t.size, n_rejected=0, n_forced=0, f=np.zeros_like(t))


def test_reparameterized_clock_on_constant_z():
    # frozen z = 1, c = 0: the clock rate is sqrt(4 z^2) = 2 exactly
    t = np.linspace(0.0, 1.0, 101)
    traj = _frozen_at_one(t)
    clocked = reparameterize_time(traj, 0.0)
    np.testing.assert_allclose(clocked[:, 0], 2.0 * t, atol=1e-12)
    np.testing.assert_array_equal(clocked[:, 1], traj.z)


def test_reparameterize_time_needs_dense_samples():
    traj = _frozen_at_one(np.linspace(0.0, 1.0, 5))
    with pytest.raises(ValueError):
        reparameterize_time(traj, 0.0)


def test_imbalance_accelerates_convergence():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=1.0, grad_tol=1e-12)
    report = compare_acceleration(WELL, 0.5, 0.0, 3.0, cfg)
    assert report.cost_high_c[0] == pytest.approx(report.cost_low_c[0])
    margins = report.cost_low_c[1:] - report.cost_high_c[1:]
    assert np.all(margins > 0.0)
    # on the shared clock the two trajectories collapse onto one curve
    assert report.tau_collapse_error < 1e-3


def test_compare_acceleration_guards():
    cfg = IntegratorConfig(t_max=1.0)
    with pytest.raises(ValueError):
        compare_acceleration(WELL, 0.5, 3.0, 3.0, cfg)
    with pytest.raises(ValueError):
        compare_acceleration(WELL, 1.0, 0.0, 3.0, cfg)  # z0 already critical
    with pytest.raises(ValueError):
        compare_acceleration(WELL, 0.0, 0.0, 3.0, cfg)  # frozen start needs the flag
    with pytest.raises(ValueError, match="needs 200,000,000,001 checkpoints"):
        compare_acceleration(WELL, 0.5, 0.0, 3.0, IntegratorConfig(t_max=1e9))


def test_dichotomy_battery_passes_for_the_well():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=50.0)
    report = dichotomy_experiment(WELL, 2, cfg, n_generic=6, n_anti=3, seed=1)
    assert report.passed
    assert report.generic_converged and report.anti_converged_to_origin
    generic = [r for r in report.runs if r.kind == "generic"]
    anti = [r for r in report.runs if r.kind == "anti_balanced"]
    assert len(generic) == 6 and len(anti) == 3
    for run in generic:
        assert run.d0 >= 0.05
        assert run.label == "critical_of_f"
        assert run.final_cost < 1e-6
    for run in anti:
        assert run.d0 == 0.0
        assert run.label == "spurious_critical_of_g"
        assert run.final_state_norm < 1e-4
        assert run.final_cost == pytest.approx(1.0, abs=1e-6)  # f(0)


def test_dichotomy_preconditions():
    cfg = IntegratorConfig(t_max=5.0)
    double_well = parse_scalar_cost("(w^2 - 1)^2", min_value=0.0)
    with pytest.raises(ValueError):
        dichotomy_experiment(double_well, 2, cfg)  # fails the dominance scan
    flat_at_zero = parse_scalar_cost("w^2")
    with pytest.raises(ValueError):
        dichotomy_experiment(flat_at_zero, 2, cfg)  # f'(0) = 0: no sign


@pytest.mark.parametrize("text", ["(w - 1.0001)^2", "(w - 0.7)^2 + 0.1 * w^4"])
def test_dichotomy_without_declared_minimum(text):
    # no grid point lands on the minimizer, so a grid minimum sits above the
    # infimum the generic runs reach
    cost = parse_scalar_cost(text)
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=50.0)
    report = dichotomy_experiment(cost, 2, cfg, n_generic=6, n_anti=3, seed=0)
    generic = [r for r in report.runs if r.kind == "generic"]
    assert all(r.label == "critical_of_f" and r.final_cost < report.pdpli.fmin for r in generic)
    assert report.passed


@pytest.mark.parametrize("text", ["(1 - w)^2", "(2 - w)^2"])
def test_batched_dichotomy_matches_serial_runs(text):
    cost = parse_scalar_cost(text, min_value=0.0)
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=50.0)
    report = dichotomy_experiment(cost, 2, cfg, n_generic=6, n_anti=3, seed=4)
    starts = _dichotomy_starts(cost, 2, 6, 3, seed=4)
    assert [run.kind for run in report.runs] == [kind for kind, _ in starts]
    for run, (_, state0) in zip(report.runs, starts):
        assert run.d0 == d_metric(state0, cost) and run.D0 == conserved_D(state0)
        traj = full_flow(state0, cost, cfg)
        final = state_from_stack(traj.final.stack)
        assert run.label == detect_convergence(traj, cost.as_matrix()).label
        assert abs(run.final_cost - traj.final.cost) <= 1e-12
        assert abs(run.final_state_norm - np.linalg.norm(np.concatenate([final.w1, final.w2]))) <= 1e-12

    # the batch rows make their serial solves' step decisions
    stacks = [to_stack(state0) for _, state0 in starts]
    field = flow_field(stacks[0].shape, cost.as_matrix())
    Y0 = np.stack([pack(stack.layers) for stack in stacks])
    for y0, row in zip(Y0, solve_flow_batch(field, Y0, cfg)):
        serial = solve_flow(field, y0, cfg)
        assert (row.stop_reason, row.n_steps) == (serial.stop_reason, serial.n_steps)
