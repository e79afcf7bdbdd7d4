"""Strict-saddle certificates: the explicit descent direction against the
exact Hessian, the Hessian against a second-difference oracle at every
depth, and the dynamics actually escaping."""

import math
import warnings

import numpy as np
import pytest

from ovflow.cost import QuadraticMatrixCost, parse_scalar_cost
from ovflow.flow import integrate
from ovflow.linnet import DegenerateWidthWarning, LayerStack, NetShape, balanced_init, layer_shapes
from ovflow.odeint import IntegratorConfig
from ovflow.saddle import (
    assemble_hessian,
    certify_strict_saddle,
    escape_direction,
    hessian_quadratic_form,
    write_certificate_csv,
)

from _oracles import fd_hessian, rel_err

SHAPE = NetShape(2, 3, 2)
QUARTIC = "(w - 1)^4 + (w - 1)^2"


def zero_stack(n=2, k=3, depth=2):
    shape = NetShape(n, k, depth)
    return LayerStack(shape, tuple(np.zeros(dims) for dims in layer_shapes(shape)))


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


def random_stack(shape, rng):
    return LayerStack(shape, tuple(rng.normal(0, 0.7, dims) for dims in layer_shapes(shape)))


def test_quadratic_form_matches_assembled_hessian():
    # form = 0.5 x^T H x, against the oracle's second-difference Hessian
    cost = QuadraticMatrixCost(np.array([[2.0, 0.3], [-0.1, 1.0]]))
    rng = np.random.default_rng(0)
    for shape in (SHAPE, NetShape(2, 3, 3)):
        stack = random_stack(shape, rng)
        H = fd_hessian(stack.layers, cost)
        for _ in range(5):
            M = [rng.normal(0, 1, dims) for dims in layer_shapes(shape)]
            x = np.concatenate([m.ravel() for m in M])
            form = hessian_quadratic_form(stack, cost, *M)
            assert form == pytest.approx(0.5 * x @ H @ x, rel=1e-6, abs=1e-8)


def test_assemble_hessian_matches_the_oracle_at_every_depth():
    rng = np.random.default_rng(1)
    quartic = parse_scalar_cost(QUARTIC).as_matrix()
    for depth in (1, 2, 3, 4):
        for n in (1, 2):
            for k in {n, n + 1} if depth > 1 else {n}:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegenerateWidthWarning)
                    shape = NetShape(n, k, depth)
                costs = [QuadraticMatrixCost(np.eye(n) + rng.normal(0, 0.3, (n, n)))]
                if n == 1:
                    costs.append(quartic)
                for cost in costs:
                    stack = random_stack(shape, rng)
                    H = assemble_hessian(stack, cost)
                    assert rel_err(H, fd_hessian(stack.layers, cost)) < 1e-6, (shape, cost)


def test_hessian_vanishes_at_deep_zero_stacks():
    # every term of the Hessian keeps N - 2 of the zero layers as factors
    for depth in (3, 4):
        for cost, n in ((QuadraticMatrixCost(np.diag([3.0, 1.0])), 2), (parse_scalar_cost(QUARTIC).as_matrix(), 1)):
            H = assemble_hessian(zero_stack(n, 3, depth), cost)
            assert H.size and np.array_equal(H, np.zeros_like(H))


def test_origin_hessian_is_universal_across_scalar_costs():
    # at the origin H_g = f'(0) H_z: the costs differ only by that factor
    texts = ["(1 - w)^2", "(2 - w)^2", "(1 + w)^2 - 0.5*w", QUARTIC, "w^2 - 3*w + 7"]
    origin = zero_stack(1, 3, 2)
    scaled = []
    for text in texts:
        cost = parse_scalar_cost(text)
        scaled.append(assemble_hessian(origin, cost.as_matrix()) / cost.deriv(0.0))
    for H in scaled[1:]:
        assert np.array_equal(H, scaled[0])
    eigs = np.linalg.eigvalsh(scaled[0])
    tol = 1e-12 * np.abs(eigs).max()
    assert (int(np.sum(eigs < -tol)), int(np.sum(np.abs(eigs) <= tol)), int(np.sum(eigs > tol))) == (3, 0, 3)


def test_direction_shape_validation():
    cost = QuadraticMatrixCost(np.eye(2))
    with pytest.raises(ValueError):
        hessian_quadratic_form(zero_stack(), cost, np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hessian_quadratic_form(zero_stack(), cost, np.zeros((3, 2)))


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
    with pytest.raises(ValueError, match="two-layer"):
        escape_direction(deep, cost)


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
        assert cert.min_eig == pytest.approx(-sigma, abs=1e-12)


def test_certificate_at_rank_one_saddle():
    cost = QuadraticMatrixCost(np.diag([3.0, 1.0]))
    cert = certify_strict_saddle(rank_one_saddle(), cost)
    assert cert.is_strict_saddle
    assert cert.curvature < -1e-10
    assert cert.min_eig == pytest.approx(-1.0, abs=1e-12)


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
