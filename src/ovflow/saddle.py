"""Strict-saddle certificates for spurious critical points of two-layer flows.

At a critical point of g(W1, W2) = f(W2 W1) where grad f itself does not
vanish, both layers must be rank deficient, and a descent direction can be
written down explicitly: take a top singular pair (psi, phi, sigma) of
grad f(W2 W1), a unit vector gamma with gamma^T W1 = 0, and move along

    M1 = -gamma phi^T p,   M2 = psi gamma^T q,   p = q^2.

The second-order value of g along that direction is a q^3 + b q^4 with
a = -sigma, so small q always buys strictly negative curvature; b is fit
numerically from two evaluations of the quadratic form, and the curvature
stays below -sigma q^3 / 2 for q below q_bar = sigma / (2 |b|).

``assemble_hessian`` provides the independent route: a finite-difference
Hessian of g in stacked layer coordinates whose minimum eigenvalue can be
compared against the algebraic certificate.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ovflow.cost import MatrixCost
from ovflow.csvio import write_csv
from ovflow.linnet import LayerStack, flow_field, layer_gradients, pack, product, write_stack_csv

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
_HESSIAN_STEP = 1e-5


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


def _require_two_layers(stack: LayerStack) -> None:
    if stack.shape.depth != 2:
        raise ValueError("saddle certificates are implemented for two-layer stacks")


def hessian_quadratic_form(
    stack: LayerStack, cost: MatrixCost, M1: np.ndarray, M2: np.ndarray
) -> float:
    """Second-order Taylor coefficient of g along (M1, M2).

    g(W1 + M1, W2 + M2) = g + <grad g, (M1, M2)> + form + higher order, with

        form = <grad f(W), M2 M1> + f''(W)[A, A],   A = W2 M1 + M2 W1,

    where f''[A, A] is the coefficient in f(W + A) = f + f'[A] + f''[A, A] + ...,
    which every matrix cost supplies exactly as ``second_directional``.
    """
    _require_two_layers(stack)
    W1, W2 = stack.layers
    M1 = np.asarray(M1, dtype=float)
    M2 = np.asarray(M2, dtype=float)
    if M1.shape != W1.shape or M2.shape != W2.shape:
        raise ValueError("direction shapes must match the layer shapes")

    W = W2 @ W1
    A = W2 @ M1 + M2 @ W1
    B = M2 @ M1
    first = float(np.sum(cost.gradient(W) * B))
    return first + float(cost.second_directional(W, A))


def escape_direction(stack: LayerStack, cost: MatrixCost) -> EscapeDirection:
    """Construct the certified descent direction at a spurious critical point.

    Preconditions: grad g vanishes (norm below 1e-8) while grad f does not
    (norm above 1e-6). gamma is taken as the left-singular vector of W1 for
    its smallest singular value; if that vector fails to annihilate W1 the
    input was not actually a critical point of the kind treated here.
    """
    _require_two_layers(stack)
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
    """Central-difference Hessian of g in stacked (vec W1, vec W2) coordinates.

    Differences the analytic layer gradient with step 1e-5, then
    symmetrizes, so the result is exact to O(step^2) with no asymmetry
    residue.
    """
    _require_two_layers(stack)
    field = flow_field(stack.shape, cost)  # -grad g
    x0 = pack(stack.layers)
    dim = x0.size

    H = np.empty((dim, dim))
    down, up = np.empty(dim), np.empty(dim)
    for j in range(dim):
        step = np.zeros(dim)
        step[j] = _HESSIAN_STEP
        field(x0 - step, down)
        field(x0 + step, up)
        H[:, j] = (down - up) / (2.0 * _HESSIAN_STEP)
    return 0.5 * (H + H.T)


def certify_strict_saddle(stack: LayerStack, cost: MatrixCost) -> SaddleCertificate:
    """Combine the algebraic escape direction with the assembled Hessian.

    is_strict_saddle requires both routes to agree: certified negative
    curvature along the constructed direction and a negative minimum
    eigenvalue of the finite-difference Hessian.
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
