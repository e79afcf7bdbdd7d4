"""Strict-saddle certificates: the explicit descent direction against the
finite-difference Hessian, and the dynamics actually escaping."""

import math

import numpy as np
import pytest

from ovflow.cost import QuadraticMatrixCost
from ovflow.flow import integrate
from ovflow.linnet import LayerStack, NetShape, balanced_init
from ovflow.odeint import IntegratorConfig
from ovflow.saddle import (
    assemble_hessian,
    certify_strict_saddle,
    escape_direction,
    hessian_quadratic_form,
    write_certificate_csv,
)

SHAPE = NetShape(2, 3, 2)


def zero_stack():
    return LayerStack(SHAPE, (np.zeros((3, 2)), np.zeros((2, 3))))


def rank_one_saddle():
    # W2 W1 = diag(3, 0) is critical for the diag(3, 1) target but misses
    # its second direction; both layers are rank one
    W1 = np.zeros((3, 2))
    W1[0, 0] = math.sqrt(3.0)
    W2 = np.zeros((2, 3))
    W2[0, 0] = math.sqrt(3.0)
    W2[0, 1] = 1.0
    return LayerStack(SHAPE, (W1, W2))


def test_quadratic_form_frozen_value_at_origin():
    # grad f(0) = -I; with psi = -e1, phi = e1, gamma = e2 the mixed term is
    # <grad f, M2 M1> = -q^3 and the quadratic term vanishes: -0.125 at q = 0.5
    cost = QuadraticMatrixCost(np.eye(2))
    q = 0.5
    psi = np.array([-1.0, 0.0])
    phi = np.array([1.0, 0.0])
    gamma = np.array([0.0, 1.0, 0.0])
    M1 = -np.outer(gamma, phi) * q * q
    M2 = np.outer(psi, gamma) * q
    form = hessian_quadratic_form(zero_stack(), cost, M1, M2)
    assert form == pytest.approx(-0.125, abs=1e-12)


def test_quadratic_form_matches_assembled_hessian():
    # for the exactly-quadratic cost, form = 0.5 x^T H x at any point
    cost = QuadraticMatrixCost(np.array([[2.0, 0.3], [-0.1, 1.0]]))
    rng = np.random.default_rng(0)
    stack = LayerStack(SHAPE, (rng.normal(0, 0.5, (3, 2)), rng.normal(0, 0.5, (2, 3))))
    H = assemble_hessian(stack, cost)
    np.testing.assert_allclose(H, H.T)
    for _ in range(5):
        M1 = rng.normal(0, 1, (3, 2))
        M2 = rng.normal(0, 1, (2, 3))
        x = np.concatenate([M1.ravel(), M2.ravel()])
        form = hessian_quadratic_form(stack, cost, M1, M2)
        assert form == pytest.approx(0.5 * x @ H @ x, abs=1e-8)


def test_direction_shape_validation():
    cost = QuadraticMatrixCost(np.eye(2))
    with pytest.raises(ValueError):
        hessian_quadratic_form(zero_stack(), cost, np.zeros((2, 2)), np.zeros((2, 3)))


def test_escape_direction_at_the_origin():
    # all curvature comes from the cubic term there, so q_bar is unbounded
    # and the certified value is exactly -sigma
    esc = escape_direction(zero_stack(), QuadraticMatrixCost(np.diag([3.0, 1.0])))
    assert esc.sigma == pytest.approx(3.0)
    assert math.isinf(esc.q_bar)
    assert esc.q == 1.0
    assert esc.curvature == pytest.approx(-3.0, abs=1e-10)
    assert esc.curvature <= -esc.sigma * esc.q**3 / 2.0


def test_escape_direction_needs_a_critical_point():
    cost = QuadraticMatrixCost(np.eye(2))
    rng = np.random.default_rng(1)
    generic = LayerStack(SHAPE, (rng.normal(0, 0.5, (3, 2)), rng.normal(0, 0.5, (2, 3))))
    with pytest.raises(ValueError, match="not a critical point"):
        escape_direction(generic, cost)


def test_escape_direction_refuses_minimizers():
    target = np.array([[2.0, 1.0], [0.0, 1.0]])
    cost = QuadraticMatrixCost(target)
    minimizer = balanced_init(target, SHAPE, seed=0)
    with pytest.raises(ValueError, match="grad f vanishes"):
        escape_direction(minimizer, cost)


def test_two_layers_required():
    cost = QuadraticMatrixCost(np.eye(2))
    deep = balanced_init(np.eye(2) + 0.1, NetShape(2, 3, 3), seed=0)
    with pytest.raises(ValueError):
        escape_direction(deep, cost)
    with pytest.raises(ValueError):
        assemble_hessian(deep, cost)


def test_rank_one_saddle_quartic_coefficient():
    # along gamma = e2 the form is exactly -q^3 + 0.5 q^4, so the window is
    # q_bar = 1 and the curvature stays below -sigma q^3 / 2 inside it
    cost = QuadraticMatrixCost(np.diag([3.0, 1.0]))
    saddle = rank_one_saddle()
    psi = np.array([0.0, -1.0])
    phi = np.array([0.0, 1.0])
    gamma = np.array([0.0, 1.0, 0.0])
    for q in np.linspace(0.05, 0.95, 10):
        M1 = -np.outer(gamma, phi) * q * q
        M2 = np.outer(psi, gamma) * q
        form = hessian_quadratic_form(saddle, cost, M1, M2)
        assert form == pytest.approx(-q**3 + 0.5 * q**4, abs=1e-12)
        assert form < -q**3 / 2.0  # sigma = 1 here


def test_certificates_at_zero_stacks():
    for target, sigma in ((np.eye(2), 1.0), (np.diag([3.0, 1.0]), 3.0)):
        cert = certify_strict_saddle(zero_stack(), QuadraticMatrixCost(target))
        assert cert.is_strict_saddle
        assert cert.curvature == pytest.approx(-sigma, abs=1e-8)
        # the assembled Hessian at the origin pairs off cross blocks; its
        # bottom eigenvalue is minus the top singular value of the target
        assert cert.min_eig == pytest.approx(-sigma, abs=1e-6)


def test_certificate_at_rank_one_saddle():
    cost = QuadraticMatrixCost(np.diag([3.0, 1.0]))
    cert = certify_strict_saddle(rank_one_saddle(), cost)
    assert cert.is_strict_saddle
    assert cert.curvature < -1e-10
    assert cert.min_eig == pytest.approx(-1.0, abs=1e-6)


def test_flow_escapes_along_the_certified_direction():
    cost = QuadraticMatrixCost(np.diag([3.0, 1.0]))
    saddle = rank_one_saddle()
    saddle_cost = cost.value(saddle.layers[1] @ saddle.layers[0])
    assert saddle_cost == pytest.approx(0.5)

    esc = escape_direction(saddle, cost)
    s = 0.25  # stay near the saddle so the escape is the dynamics' doing
    pert = LayerStack(SHAPE, (saddle.layers[0] + s * esc.M1, saddle.layers[1] + s * esc.M2))
    traj = integrate(pert, cost, IntegratorConfig(rtol=1e-10, atol=1e-12, t_max=20.0, grad_tol=1e-10))
    assert traj.samples[0].cost < saddle_cost
    assert traj.stop_reason == "converged"
    assert traj.final.cost < 1e-12


def test_certificate_csv_round_trip(tmp_path):
    cost = QuadraticMatrixCost(np.diag([3.0, 1.0]))
    cert = certify_strict_saddle(zero_stack(), cost)
    path = tmp_path / "cert.csv"
    direction_path = write_certificate_csv(cert, str(path))
    assert direction_path == str(tmp_path / "cert_direction.csv")

    lines = path.read_text().strip().splitlines()
    assert lines[0] == "curvature,q_bar,min_eig,is_strict_saddle"
    fields = lines[1].split(",")
    assert float(fields[0]) == cert.curvature
    assert math.isinf(float(fields[1]))
    assert fields[3] == "true"

    from ovflow.linnet import read_stack_csv

    direction = read_stack_csv(direction_path)
    np.testing.assert_array_equal(direction.layers[0], cert.direction[0])
    np.testing.assert_array_equal(direction.layers[1], cert.direction[1])
