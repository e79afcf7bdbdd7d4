"""Strict-saddle certificates for spurious critical points of factored flows.

At a critical point of g(W1, W2) = f(W2 W1) where grad f itself does not
vanish, both layers must be rank deficient, and a descent direction can be
written down explicitly: take a top singular pair (psi, phi, sigma) of
grad f(W2 W1), a unit vector gamma with gamma^T W1 = 0, and move along

    M1 = -gamma phi^T p,   M2 = psi gamma^T q,   p = q^2.

The second-order value of g along that direction is a q^3 + b q^4 with
a = -sigma, so small q always buys strictly negative curvature; b is fit
numerically from two evaluations of the quadratic form, and the curvature
stays below -sigma q^3 / 2 for q below q_bar = sigma / (2 |b|). The escape
direction is built for two-layer stacks only.

The Hessian of g, at any depth, is exact: Hessian-vector products carried
as tangents through the backward chain of ``layer_gradients``. The tests
check it against a second-difference Hessian of the objective itself.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ovflow.cost import MatrixCost
from ovflow.csvio import write_csv
from ovflow.linnet import LayerStack, layer_gradients, layer_shapes, pack, product, unpacker, write_stack_csv

__all__ = [
    "SaddleCertificate",
    "EscapeDirection",
    "hessian_quadratic_form",
    "escape_direction",
    "assemble_hessian",
    "certify_strict_saddle",
    "write_certificate_csv",
]

_GRAD_TOL = 1e-8
_GRADF_FLOOR = 1e-6


@dataclass(frozen=True)
class EscapeDirection:
    """A direction (M1, M2) with certified negative curvature at the chosen
    scale q, plus the scale ceiling q_bar below which the cubic term wins."""

    M1: np.ndarray
    M2: np.ndarray
    q: float
    q_bar: float
    sigma: float
    curvature: float


@dataclass(frozen=True)
class SaddleCertificate:
    direction: tuple[np.ndarray, np.ndarray]
    curvature: float
    q_bar: float
    min_eig: float
    is_strict_saddle: bool


def _hessian_products(layers, cost: MatrixCost, tangents) -> list[np.ndarray]:
    """H M, exactly, for a batch of directions M given as one (B, rows, cols)
    stack per layer; the products come back stacked the same way.

    Tangents ride along ``layer_gradients``' chain: dP_i = M_i P_{i-1} +
    W_i dP_{i-1}, d(back) starts at ``cost.gradient_directional(W, dP_N)``,
    and for i = N, ..., 2, (H M)_i = d(back) P_{i-1}^T + back dP_{i-1}^T and
    d(back) = M_i^T back + W_i^T d(back); (H M)_1 is the last d(back).
    """
    prefix, dprefix = [layers[0]], [tangents[0]]
    for W, M in zip(layers[1:], tangents[1:]):
        dprefix.append(M @ prefix[-1] + W @ dprefix[-1])
        prefix.append(W @ prefix[-1])
    back = cost.gradient(prefix[-1])
    dback = cost.gradient_directional(prefix[-1], dprefix[-1])
    products = [None] * len(layers)
    for i in range(len(layers) - 1, 0, -1):
        products[i] = dback @ prefix[i - 1].T + back @ np.swapaxes(dprefix[i - 1], -1, -2)
        dback = np.swapaxes(tangents[i], -1, -2) @ back + layers[i].T @ dback
        back = layers[i].T @ back
    products[0] = dback
    return products


def hessian_quadratic_form(stack: LayerStack, cost: MatrixCost, *directions: np.ndarray) -> float:
    """Second-order Taylor coefficient of g along M = (M_1, ..., M_N), one
    matrix per layer:

        g(W + M) = g + <grad g, M> + form + higher order,   form = <M, H M> / 2.

    For two layers this is <grad f(W), M2 M1> + f''(W)[A, A] with
    A = W2 M1 + M2 W1, the coefficient the escape direction is fit from.
    """
    tangents = [np.asarray(M, dtype=float) for M in directions]
    if [M.shape for M in tangents] != layer_shapes(stack.shape):
        raise ValueError("directions must match the layer shapes, one per layer")
    products = _hessian_products(stack.layers, cost, [M[np.newaxis] for M in tangents])
    return 0.5 * sum(float(np.sum(M * HM[0])) for M, HM in zip(tangents, products))


def escape_direction(stack: LayerStack, cost: MatrixCost) -> EscapeDirection:
    """Construct the certified descent direction at a spurious critical point.

    Preconditions: grad g vanishes (norm below 1e-8) while grad f does not
    (norm above 1e-6). gamma is taken as the left-singular vector of W1 for
    its smallest singular value; if that vector fails to annihilate W1 the
    input was not actually a critical point of the kind treated here.
    """
    if stack.shape.depth != 2:
        raise ValueError("escape directions are constructed for two-layer stacks")
    W1, W2 = stack.layers
    grads = layer_gradients(stack.layers, cost)
    grad_g = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if grad_g >= _GRAD_TOL:
        raise ValueError(f"not a critical point of g: ||grad g|| = {grad_g:.3g}")
    u, s, vt = np.linalg.svd(cost.gradient(product(stack.layers)))
    sigma = float(s[0])
    if sigma <= _GRADF_FLOOR:
        raise ValueError("grad f vanishes here; the point is critical for f itself")

    psi = u[:, 0]
    phi = vt[0, :]

    if float(np.linalg.norm(W1)) == 0.0:
        gamma = np.zeros(stack.shape.k)
        gamma[0] = 1.0
    else:
        uw, sw, _ = np.linalg.svd(W1)
        gamma = uw[:, -1]
        if float(np.linalg.norm(gamma @ W1)) > 1e-8:
            raise ValueError("no direction annihilates W1; the first layer is not rank deficient")

    M1_unit = -np.outer(gamma, phi)  # scaled by p = q^2
    M2_unit = np.outer(psi, gamma)  # scaled by q

    def form_at(q: float) -> float:
        return hessian_quadratic_form(stack, cost, M1_unit * q * q, M2_unit * q)

    # form(q) = a q^3 + b q^4 exactly; fit both from two probes
    q1, q2 = 0.25, 0.5
    f1, f2 = form_at(q1), form_at(q2)
    mat = np.array([[q1**3, q1**4], [q2**3, q2**4]])
    a, b = np.linalg.solve(mat, np.array([f1, f2]))

    if abs(b) < 1e-12 * max(1.0, sigma):
        q_bar = math.inf
    else:
        q_bar = sigma / (2.0 * abs(float(b)))
    q = min(q_bar / 2.0, 1.0)
    curvature = form_at(q)
    return EscapeDirection(
        M1=M1_unit * q * q,
        M2=M2_unit * q,
        q=q,
        q_bar=q_bar,
        sigma=sigma,
        curvature=curvature,
    )


def assemble_hessian(stack: LayerStack, cost: MatrixCost) -> np.ndarray:
    """Exact Hessian of g in the flat coordinates of ``pack``, at any depth:
    column j is H e_j, all of them from one tangent pass, and the result is
    symmetrized so no rounding asymmetry remains."""
    dim = sum(layer.size for layer in stack.layers)
    H = pack(_hessian_products(stack.layers, cost, unpacker(stack.shape)(np.eye(dim))))
    return 0.5 * (H + H.T)


def certify_strict_saddle(stack: LayerStack, cost: MatrixCost) -> SaddleCertificate:
    """Combine the algebraic escape direction with the assembled Hessian.

    is_strict_saddle requires both certificates: certified negative
    curvature along the constructed direction and a negative minimum
    eigenvalue of the exact Hessian.
    """
    escape = escape_direction(stack, cost)
    H = assemble_hessian(stack, cost)
    min_eig = float(np.linalg.eigvalsh(H)[0])
    is_saddle = escape.curvature < -1e-10 and min_eig < -1e-6
    return SaddleCertificate(
        direction=(escape.M1, escape.M2),
        curvature=escape.curvature,
        q_bar=escape.q_bar,
        min_eig=min_eig,
        is_strict_saddle=is_saddle,
    )


def write_certificate_csv(cert: SaddleCertificate, path: str) -> str:
    """Write the certificate row; the direction goes to a sibling file in
    the layer CSV format, named by path without its extension plus
    "_direction.csv". Returns the direction file path."""
    row = [cert.curvature, cert.q_bar, cert.min_eig, str(cert.is_strict_saddle).lower()]
    write_csv(path, ["curvature", "q_bar", "min_eig", "is_strict_saddle"], [row])
    direction_path = os.path.splitext(path)[0] + "_direction.csv"
    M1, M2 = cert.direction
    write_stack_csv(LayerStack.from_layers([M1, M2]), direction_path)
    return direction_path
