"""The saturating one-neuron flow: fields, conservation law, manifolds."""

import math

import numpy as np
import pytest

from ovflow.odeint import IntegratorConfig
from ovflow.sigmoid import (
    linear_field,
    manifold_curve,
    origin_eigenvectors,
    phase_portrait,
    separatrix_trace,
    sig_cost,
    sig_flow_field,
    sig_integrate,
    sig_invariant,
    sigma,
    write_overlays_csv,
    write_portrait_csv,
)


def test_sigma_values():
    assert sigma(0.0) == 0.0
    assert sigma(1.0) == pytest.approx(0.7071067811865475, abs=1e-16)
    assert sigma(-1.0) == -sigma(1.0)
    z = np.linspace(-50.0, 50.0, 101)
    assert np.all(np.abs(sigma(z)) < 1.0)


def test_field_frozen_values():
    # at (1, 1): dw1 = (sqrt(2) - 1) / 4, dw2 = (sqrt(2) - 1) / 2
    dw1, dw2 = sig_flow_field(1.0, 1.0)
    root2 = math.sqrt(2.0)
    assert dw1 == pytest.approx((root2 - 1.0) / 4.0, abs=1e-15)
    assert dw2 == pytest.approx((root2 - 1.0) / 2.0, abs=1e-15)
    # the origin is an equilibrium
    assert sig_flow_field(0.0, 0.0) == (0.0, 0.0)


def test_invariant_frozen_values():
    assert sig_invariant(0.0, 0.0) == pytest.approx(-0.5)
    assert sig_invariant(1.0, 2.0) == pytest.approx(2.0)  # 4 - 0.5 * 4


def test_cost_zero_on_the_target_curve():
    for w1 in (0.3, 1.0, 2.5):
        w2 = 1.0 / sigma(w1)
        assert sig_cost(w1, w2) == pytest.approx(0.0, abs=1e-15)
    assert sig_cost(0.0, 0.0) == pytest.approx(1.0)


def test_manifold_curve_frozen_points_and_invariant():
    plus, minus = manifold_curve(1.0)
    assert plus == pytest.approx(math.sqrt(1.5), abs=1e-15)
    assert minus == pytest.approx(-math.sqrt(1.5), abs=1e-15)
    plus2, _ = manifold_curve(2.0)
    assert plus2 == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-14)

    # both branches live on the level set of the conserved quantity through 0
    span = np.linspace(-2.0, 2.0, 41)
    plus_arr, minus_arr = manifold_curve(span)
    for w1, w2 in zip(span, plus_arr):
        assert sig_invariant(w1, w2) == pytest.approx(-0.5, abs=1e-12)
    for w1, w2 in zip(span, minus_arr):
        assert sig_invariant(w1, w2) == pytest.approx(-0.5, abs=1e-12)


def test_flow_conserves_the_invariant():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=30.0, grad_tol=1e-10)
    traj = sig_integrate(0.5, 0.6, cfg)
    C0 = sig_invariant(0.5, 0.6)
    worst = np.max(np.abs(traj.invariant - C0))
    assert worst < 1e-10
    # a generic start lands on the zero-cost curve
    assert traj.cost[-1] < 1e-8


def test_stable_branch_flows_to_the_origin():
    # a start on the stable branch dives at the origin; roundoff eventually
    # tips it onto the unstable direction, so test the closest approach
    # rather than the endpoint
    w1 = 0.5
    _, minus = manifold_curve(w1)
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=40.0, grad_tol=1e-12)
    traj = sig_integrate(w1, float(minus), cfg)
    closest = np.min(np.hypot(traj.y[:, 0], traj.y[:, 1]))
    assert closest < 1e-5
    assert np.all(np.abs(traj.invariant + 0.5) < 1e-9)


def test_origin_eigenvectors():
    stable, unstable = origin_eigenvectors()
    root2 = math.sqrt(2.0)
    np.testing.assert_array_equal(stable, [1.0 / root2, -1.0 / root2])
    np.testing.assert_array_equal(unstable, [1.0 / root2, 1.0 / root2])


def test_field_jacobian_at_the_origin():
    # the closed-form eigenvectors rest on this linearization
    h = 1e-6
    jac = np.empty((2, 2))
    for j in range(2):
        step = np.zeros(2)
        step[j] = h
        jac[:, j] = (np.array(sig_flow_field(*step)) - np.array(sig_flow_field(*-step))) / (2.0 * h)
    np.testing.assert_allclose(jac, [[0.0, 1.0], [1.0, 0.0]], atol=1e-9)


def test_separatrix_matches_the_closed_form():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=25.0, grad_tol=1e-12)
    trace = separatrix_trace("plus", "backward", cfg, eps=1e-6, radius=2.5)
    assert trace.shape[1] == 2
    assert np.all(np.diff(trace[:, 0]) >= 0.0)  # w1 runs outward monotonically
    for probe in (0.25, 0.5, 1.0):
        w2 = float(np.interp(probe, trace[:, 0], trace[:, 1]))
        _, want = manifold_curve(probe)
        assert abs(w2 - float(want)) < 1e-4


def test_separatrix_argument_validation():
    cfg = IntegratorConfig(t_max=1.0)
    with pytest.raises(ValueError):
        separatrix_trace("up", "backward", cfg)
    with pytest.raises(ValueError):
        separatrix_trace("plus", "sideways", cfg)
    with pytest.raises(ValueError):
        separatrix_trace("plus", "backward", cfg, eps=0.5)


def test_linear_field_frozen_value():
    dw1, dw2 = linear_field(1.0, 2.0)
    assert dw1 == pytest.approx(-4.0)  # 2 (1 - w2 w1) w2
    assert dw2 == pytest.approx(-2.0)  # 2 (1 - w2 w1) w1


def test_phase_portrait_grids_and_overlays():
    bounds = (-3.0, 3.0, -3.0, 3.0)
    portrait = phase_portrait(bounds, grid=9, kind="sigmoid")
    assert portrait.w1.shape == (81,)  # one flat row per grid point
    assert portrait.dw2.shape == (81,)
    ids = [name for name, _ in portrait.overlays]
    assert ids == ["target_pos", "target_neg", "manifold_plus", "manifold_minus"]
    for _, polyline in portrait.overlays:
        assert polyline.shape[1] == 2
        assert np.all(polyline[:, 0] >= bounds[0]) and np.all(polyline[:, 0] <= bounds[1])
        assert np.all(polyline[:, 1] >= bounds[2]) and np.all(polyline[:, 1] <= bounds[3])

    bare = phase_portrait(bounds, grid=5, kind="linear", include_manifolds=False)
    assert [name for name, _ in bare.overlays] == ["target_pos", "target_neg"]

    with pytest.raises(ValueError):
        phase_portrait(bounds, grid=1)
    with pytest.raises(ValueError):
        phase_portrait((1.0, -1.0, -1.0, 1.0), grid=5)
    with pytest.raises(ValueError):
        phase_portrait(bounds, grid=5, kind="cubic")


def test_portrait_csv_files(tmp_path):
    portrait = phase_portrait((-2.0, 2.0, -2.0, 2.0), grid=4, kind="linear")
    field_path = tmp_path / "field.csv"
    overlay_path = tmp_path / "overlays.csv"
    write_portrait_csv(portrait, str(field_path))
    write_overlays_csv(portrait, str(overlay_path))

    field_lines = field_path.read_text().strip().splitlines()
    assert field_lines[0] == "w1,w2,dw1,dw2"
    assert len(field_lines) == 1 + 16

    overlay_lines = overlay_path.read_text().strip().splitlines()
    assert overlay_lines[0] == "w1,w2,curve_id"
    assert all(line.split(",")[2] in ("target_pos", "target_neg", "manifold_plus", "manifold_minus")
               for line in overlay_lines[1:])
