"""Conserved quantities along the factored flow."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovflow.cost import QuadraticMatrixCost
from ovflow.invariant import (
    drift,
    imbalance_scalar,
    invariants,
    norm_chain_residual,
)
from ovflow.linnet import LayerStack, NetShape, balanced_init, random_init, rescale_pair
from ovflow.odeint import IntegratorConfig
from ovflow.flow import integrate
from ovflow.scalarcase import conserved_D


def pair_stack(w1, w2) -> LayerStack:
    """The two-layer n = 1 stack with first-layer column w1 and second-layer row w2."""
    return LayerStack.from_layers([np.reshape(w1, (-1, 1)), np.reshape(w2, (1, -1))])


def test_balanced_stack_has_zero_invariants():
    stack = balanced_init(np.array([[2.0, 1.0], [0.0, 1.0]]), NetShape(2, 4, 3), seed=1)
    inv = invariants(stack)
    assert len(inv.matrices) == 2
    for C, tr in zip(inv.matrices, inv.traces):
        assert np.abs(C).max() < 1e-12
        assert abs(tr) < 1e-12


def test_invariants_need_two_layers():
    stack = LayerStack(NetShape(2, 2, 1), (np.eye(2),))
    with pytest.raises(ValueError):
        invariants(stack)


def test_rescale_shows_up_in_the_invariant():
    stack = balanced_init(np.array([[2.0]]), NetShape(1, 3, 2), seed=0)
    scaled = rescale_pair(stack, 1, 2.0)
    inv = invariants(scaled)
    assert np.abs(inv.matrices[0]).max() > 0.1
    # the residual is zero against its own starting point, nonzero against the balanced one
    assert max(norm_chain_residual(scaled, inv)) < 1e-12
    assert max(norm_chain_residual(scaled, invariants(stack))) > 0.1


def test_imbalance_scalar_only_for_two_layers():
    deep = balanced_init(np.array([[2.0]]), NetShape(1, 3, 3), seed=0)
    with pytest.raises(ValueError):
        imbalance_scalar(invariants(deep))


def test_imbalance_matches_scalar_case_quantity():
    w1 = np.array([3.0, 0.0])
    w2 = np.array([1.0, 0.0])
    stack = pair_stack(w1, w2)
    inv = invariants(stack)
    assert imbalance_scalar(inv) == pytest.approx(conserved_D(stack))
    assert imbalance_scalar(inv) == pytest.approx(64.0)  # (9+1)^2 - 4*9


@settings(max_examples=50, deadline=None)
@given(
    vals=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
)
def test_imbalance_equals_product_of_diagonal_norms(vals):
    # c = S^2 - 4 z^2 factors as |w1 - w2|^2 |w1 + w2|^2
    w1 = np.array(vals[:2])
    w2 = np.array(vals[2:])
    want = np.sum((w1 - w2) ** 2) * np.sum((w1 + w2) ** 2)
    assert conserved_D(pair_stack(w1, w2)) == pytest.approx(want, abs=1e-9)


def test_drift_stays_small_along_a_flow():
    cost = QuadraticMatrixCost(np.array([[2.0, 0.3], [-0.1, 1.0]]))
    stack0 = random_init(NetShape(2, 4, 3), seed=2, scale=0.6)
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=20.0)
    traj = integrate(stack0, cost, cfg)
    assert traj.stop_reason == "converged"
    assert drift(traj) < 1e-8
    assert np.max(norm_chain_residual(traj, invariants(stack0))) < 1e-8


def test_a_recording_gets_one_series_per_pair():
    stack0 = random_init(NetShape(2, 4, 3), seed=2, scale=0.6)
    traj = integrate(stack0, QuadraticMatrixCost(np.eye(2)), IntegratorConfig(t_max=5.0))
    count = len(traj.t)
    inv = invariants(traj)
    assert [c.shape for c in inv.matrices] == [(count, 4, 4)] * 2
    assert [tr.shape for tr in inv.traces] == [(count,)] * 2
    residual = norm_chain_residual(traj, invariants(stack0))
    assert [r.shape for r in residual] == [(count,)] * 2
    # a stack still gets one float per pair
    for got, series in zip(norm_chain_residual(stack0, invariants(stack0)), residual):
        assert isinstance(got, float) and got == series[0]


def test_drift_rejects_empty_trajectory():
    class Fake:
        t = ()

    with pytest.raises(ValueError):
        drift(Fake())
