"""Acceptance gate: one test per criterion, one [PASS]/[FAIL] line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines; the whole
gate is deterministic and finishes well inside five minutes.
"""

import time
import warnings

import numpy as np
import pytest

from _oracles import fd_layer_gradients, rel_err
from ovflow.cli import main
from ovflow.cost import QuadraticMatrixCost, parse_scalar_cost
from ovflow.flow import integrate, sweep
from ovflow.invariant import drift, imbalance_scalar, invariants, norm_chain_residual
from ovflow.linnet import (
    DegenerateWidthWarning,
    LayerStack,
    NetShape,
    layer_gradients,
    random_init,
)
from ovflow.odeint import IntegratorConfig
from ovflow.saddle import certify_strict_saddle
from ovflow.scalarcase import (
    ScalarPairState,
    anti_balanced,
    compare_acceleration,
    conserved_D,
    d_metric,
    full_flow,
    match_reduction,
    reduced_flow,
    state_from_stack,
    to_stack,
)
from ovflow.sigmoid import manifold_curve, separatrix_trace, sig_integrate, sig_invariant

WELL = parse_scalar_cost("(1 - w)^2", min_value=0.0)


def report(num, ok, detail):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}", flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


# Samples the Dormand-Prince 5(4) pair recorded on each deep-battery flow, one
# per step. DOP853 takes about a quarter as many steps, so the battery adds a
# checkpoint grid that checks every flow at no fewer samples than these.
DP54_SAMPLES = (327, 350, 278, 246, 210, 310, 174, 148, 688, 178, 330, 340, 402, 172, 282, 342, 300, 412, 157, 344)


@pytest.fixture(scope="module")
def deep_battery():
    """20 seeded deep flows shared by criteria 1 through 3, each sampled at
    every step and every 0.02 time units."""
    rng = np.random.default_rng(2024)
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=50.0, grad_tol=1e-8)
    grid = np.linspace(0.0, cfg.t_max, 2501)
    start = time.perf_counter()
    max_drift = 0.0
    max_residual = 0.0
    max_cost_increase = -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateWidthWarning)
        for i in range(20):
            depth = int(rng.integers(2, 5))
            n = int(rng.integers(1, 4))
            k = n + int(rng.integers(0, 4))
            target = np.eye(n) + 0.3 * rng.standard_normal((n, n))
            stack0 = random_init(NetShape(n, k, depth), seed=100 + i, scale=0.5)
            traj = integrate(stack0, QuadraticMatrixCost(target), cfg, checkpoints=grid)
            assert len(traj.t) >= DP54_SAMPLES[i], f"deep flow {i} checked at {len(traj.t)} samples"
            max_drift = max(max_drift, drift(traj))
            max_residual = max(max_residual, float(np.max(norm_chain_residual(traj, invariants(stack0)))))
            max_cost_increase = max(max_cost_increase, float(np.max(np.diff(traj.cost))))
    elapsed = time.perf_counter() - start
    return {
        "drift": max_drift,
        "residual": max_residual,
        "cost_increase": max_cost_increase,
        "seconds": elapsed,
    }


@pytest.fixture(scope="module")
def scalar_battery():
    """20 generic plus 5 anti-balanced scalar flows shared by criteria 6 and 7."""
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=50.0, grad_tol=1e-8)
    rng = np.random.default_rng(77)
    max_D_drift = 0.0
    max_D_vs_c = 0.0
    generic_final_costs = []
    anti_final_costs = []
    anti_final_norms = []

    def track(state0):
        nonlocal max_D_drift, max_D_vs_c
        D0 = conserved_D(state0)
        max_D_vs_c = max(max_D_vs_c, abs(D0 - imbalance_scalar(invariants(to_stack(state0)))))
        traj = full_flow(state0, WELL, cfg)
        for sample in traj.samples:
            max_D_drift = max(max_D_drift, abs(conserved_D(state_from_stack(sample.stack)) - D0))
        return traj

    for _ in range(20):
        state0 = ScalarPairState(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        assert d_metric(state0, WELL) > 0
        traj = track(state0)
        generic_final_costs.append(traj.samples[-1].cost)
    for _ in range(5):
        state0 = anti_balanced(rng.uniform(-1, 1, 2), WELL)
        traj = track(state0)
        final = traj.samples[-1]
        anti_final_costs.append(final.cost)
        anti_final_norms.append(
            np.hypot(np.linalg.norm(final.stack.layers[0]), np.linalg.norm(final.stack.layers[1]))
        )
    return {
        "generic_final_costs": generic_final_costs,
        "anti_final_costs": anti_final_costs,
        "anti_final_norms": anti_final_norms,
        "max_D_drift": max_D_drift,
        "max_D_vs_c": max_D_vs_c,
    }


def test_criterion_01_invariant_conservation(deep_battery):
    ok = deep_battery["drift"] < 1e-6 and deep_battery["seconds"] < 30.0
    report(1, ok, (
        f"invariant drift {deep_battery['drift']:.2e} < 1e-06 over 20 deep flows "
        f"({deep_battery['seconds']:.1f}s, limit 30s)"
    ))


def test_criterion_02_norm_chain_relation(deep_battery):
    ok = deep_battery["residual"] < 1e-6
    report(2, ok, f"norm chain residual {deep_battery['residual']:.2e} < 1e-06 on the same flows")


def test_criterion_03_monotone_cost(deep_battery):
    bound = 10.0 * 1e-12
    ok = deep_battery["cost_increase"] <= bound
    report(3, ok, f"largest cost increase {deep_battery['cost_increase']:.2e} <= {bound:.0e}")


def test_criterion_04_almost_everywhere_convergence():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=50.0, grad_tol=1e-8, record_stride=50)
    start = time.perf_counter()
    labels = sweep(NetShape(2, 4, 2), QuadraticMatrixCost(np.eye(2)), cfg,
                   seeds=range(100), scale=0.5)
    elapsed = time.perf_counter() - start
    hits = sum(1 for l in labels if l.label == "critical_of_f" and l.grad_f_norm < 1e-6)
    ok = hits == 100 and elapsed < 60.0
    report(4, ok, f"{hits}/100 random inits reached a critical point of f ({elapsed:.1f}s, limit 60s)")


def _orthogonal_2x2(seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((2, 2)))
    return q * np.sign(np.diag(r))


def test_criterion_05_strict_saddle_certificate_and_escape():
    # full rank target with top singular value 1, so the bottom Hessian
    # eigenvalue at the zero stack must sit at -1
    target = _orthogonal_2x2(5) @ np.diag([1.0, 0.6]) @ _orthogonal_2x2(6).T
    cost = QuadraticMatrixCost(target)
    zero = LayerStack.from_layers([np.zeros((3, 2)), np.zeros((2, 3))])
    cert = certify_strict_saddle(zero, cost)
    g0 = cost.value(np.zeros((2, 2)))
    M1, M2 = cert.direction
    nudged = LayerStack.from_layers([1e-3 * M1, 1e-3 * M2])
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=1.0, grad_tol=1e-14)
    final_cost = integrate(nudged, cost, cfg).samples[-1].cost
    ok = (
        cert.is_strict_saddle
        and cert.curvature < 0.0
        and abs(cert.min_eig + 1.0) < 5e-4
        and final_cost < g0 - 1e-6
    )
    report(5, ok, (
        f"zero stack certified (curvature {cert.curvature:.3f}, min eig {cert.min_eig:.6f}); "
        f"nudged flow dropped cost by {g0 - final_cost:.2e} within t=1"
    ))


def test_criterion_06_d_metric_dichotomy(scalar_battery):
    worst_generic = max(scalar_battery["generic_final_costs"])
    worst_anti = max(abs(f - 1.0) for f in scalar_battery["anti_final_costs"])
    worst_norm = max(scalar_battery["anti_final_norms"])
    ok = worst_generic < 1e-6 and worst_anti <= 1e-6 and worst_norm < 1e-6
    report(6, ok, (
        f"20/20 generic runs reached f <= {worst_generic:.2e}; 5/5 anti-balanced runs "
        f"parked at the origin (|f-1| <= {worst_anti:.2e}, state norm <= {worst_norm:.2e})"
    ))


def test_criterion_07_conserved_D(scalar_battery):
    ok = scalar_battery["max_D_drift"] < 1e-8 and scalar_battery["max_D_vs_c"] < 1e-10
    report(7, ok, (
        f"|D(t)-D(0)| <= {scalar_battery['max_D_drift']:.2e} across all 25 runs; "
        f"|D(0)-c| <= {scalar_battery['max_D_vs_c']:.2e}"
    ))


def test_criterion_08_reduced_flow_equivalence():
    cfg = IntegratorConfig(rtol=1e-12, atol=1e-14, t_max=5.0, grad_tol=1e-10)
    gap_balanced = match_reduction(WELL, ScalarPairState([0.6, 0.0], [0.8, 0.0]), cfg)
    gap_unbalanced = match_reduction(WELL, ScalarPairState([1.2, 0.0], [0.3, 0.4]), cfg)
    reduced = reduced_flow(WELL, 0.0, 0.5, cfg, checkpoints=[0.1, 0.25, 0.5])
    logistic_gap = 0.0
    for t_query in (0.1, 0.25, 0.5):
        idx = int(np.argmin(np.abs(reduced.t - t_query)))
        exact = 1.0 / (1.0 + np.exp(-4.0 * t_query))
        logistic_gap = max(logistic_gap, abs(reduced.z[idx] - exact))
    ok = max(gap_balanced, gap_unbalanced) <= 1e-8 and logistic_gap <= 1e-8
    report(8, ok, (
        f"full vs reduced z(t) gap {max(gap_balanced, gap_unbalanced):.2e} <= 1e-08; "
        f"logistic oracle gap {logistic_gap:.2e} <= 1e-08"
    ))


def test_criterion_09_acceleration_and_tau_collapse():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=1.0, grad_tol=1e-12)
    rep = compare_acceleration(WELL, 0.5, 0.0, 9.0, cfg)
    margins = rep.cost_low_c - rep.cost_high_c
    ok = bool(np.all(margins[1:] > 0.0)) and rep.tau_collapse_error < 1e-4
    report(9, ok, (
        f"c=9 run strictly below c=0 at all sampled t > 0 (min margin {margins[1:].min():.2e}); "
        f"tau collapse sup gap {rep.tau_collapse_error:.2e} < 1e-04"
    ))


def test_criterion_10_sigmoidal_invariant():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=20.0, grad_tol=1e-12)
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(20):
        traj = sig_integrate(*rng.uniform(-2, 2, 2), cfg)
        worst = max(worst, float(np.max(np.abs(traj.invariant - traj.invariant[0]))))
    origin_level = sig_invariant(0.0, 0.0)
    ok = worst < 1e-8 and origin_level == -0.5
    report(10, ok, (
        f"invariant drift {worst:.2e} < 1e-08 over 20 sigmoidal flows; "
        f"level through the origin = {origin_level}"
    ))


def test_criterion_11_separatrix_formula(tmp_path):
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=25.0, grad_tol=1e-12)
    trace = separatrix_trace("plus", "backward", cfg, eps=1e-6, radius=2.5)
    worst = 0.0
    for probe in (0.25, 0.5, 1.0):
        w2 = np.interp(probe, trace[:, 0], trace[:, 1])
        plus, minus = manifold_curve(np.array([probe]))
        worst = max(worst, min(abs(w2 - plus[0]), abs(w2 - minus[0])))
    exit_code = main(["recipe-fig2", "--outdir", str(tmp_path / "fig2"), "--grid", "9"])
    ok = worst < 1e-4 and exit_code == 0
    report(11, ok, (
        f"traced stable manifold off by {worst:.2e} < 1e-04 at w1 in {{0.25, 0.5, 1.0}}; "
        f"figure recipe exit code {exit_code}"
    ))


def test_criterion_12_derivative_oracles():
    rng = np.random.default_rng(31)
    worst_grad = 0.0
    grad_cases = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateWidthWarning)
        for i in range(100):
            depth = int(rng.integers(2, 5))
            n = int(rng.integers(1, 4))
            k = n + int(rng.integers(0, 4))
            cost = QuadraticMatrixCost(np.eye(n) + 0.3 * rng.standard_normal((n, n)))
            stack = random_init(NetShape(n, k, depth), seed=400 + i, scale=0.6)
            exact = layer_gradients(stack.layers, cost)
            approx = fd_layer_gradients(stack.layers, cost)
            for got, want in zip(exact, approx):
                worst_grad = max(worst_grad, rel_err(got, want))
            grad_cases += 1

    pool = [
        parse_scalar_cost(text) for text in (
            "(1 - w)^2",
            "(w^2 - 1)^2",
            "w^4 - 3 * w^2 + w",
            "(1 - w)^2 * (1 + w^2)",
            "1 / (1 + w^2)",
            "w^3 - 2 * w + 5",
        )
    ]
    rng = np.random.default_rng(32)
    eps = 1e-6
    worst_deriv = 0.0
    deriv_cases = 0
    for cost in pool:
        for w in rng.uniform(-2.0, 2.0, 20):
            fd = (cost.value(w + eps) - cost.value(w - eps)) / (2.0 * eps)
            worst_deriv = max(worst_deriv, rel_err(cost.deriv(w), fd))
            deriv_cases += 1

    ok = grad_cases >= 100 and deriv_cases >= 100 and worst_grad < 1e-6 and worst_deriv < 1e-6
    report(12, ok, (
        f"{grad_cases} layer gradient cases (worst rel err {worst_grad:.2e}) and "
        f"{deriv_cases} parsed derivative cases (worst rel err {worst_deriv:.2e}), both < 1e-06"
    ))
