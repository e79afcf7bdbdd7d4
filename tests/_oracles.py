"""Finite-difference oracles the test modules check analytic results against.

Everything here is deliberately dumb: central differences on the raw
definitions, no reuse of package internals beyond evaluating the objective.
"""

import numpy as np


def fd_scalar_derivative(func, w, eps=1e-6):
    return (func(w + eps) - func(w - eps)) / (2.0 * eps)


def fd_matrix_gradient(func, W, eps=1e-6):
    """Entrywise central-difference gradient of a scalar function of a matrix."""
    W = np.asarray(W, dtype=float)
    grad = np.zeros_like(W)
    for idx in np.ndindex(*W.shape):
        bump = np.zeros_like(W)
        bump[idx] = eps
        grad[idx] = (func(W + bump) - func(W - bump)) / (2.0 * eps)
    return grad


def chain_value(layers, cost):
    """cost applied to the left-to-right matrix product W_N ... W_1."""
    out = layers[0]
    for layer in layers[1:]:
        out = layer @ out
    return cost.value(out)


def fd_layer_gradients(layers, cost, eps=1e-6):
    """Gradient of chain_value with respect to every entry of every layer."""
    grads = []
    for i in range(len(layers)):
        g = np.zeros_like(layers[i])
        for idx in np.ndindex(*g.shape):
            plus = [np.array(l) for l in layers]
            minus = [np.array(l) for l in layers]
            plus[i][idx] += eps
            minus[i][idx] -= eps
            g[idx] = (chain_value(plus, cost) - chain_value(minus, cost)) / (2.0 * eps)
        grads.append(g)
    return grads


def fd_hessian(layers, cost, eps=1e-4):
    """Hessian of chain_value in flat coordinates (every layer's entries,
    row-major, first layer first) from central second differences."""
    shapes = [np.shape(layer) for layer in layers]
    x0 = np.concatenate([np.ravel(layer) for layer in layers]).astype(float)
    splits = np.cumsum([np.prod(s, dtype=int) for s in shapes])[:-1]

    def g(x):
        return chain_value([part.reshape(s) for part, s in zip(np.split(x, splits), shapes)], cost)

    steps = eps * np.eye(x0.size)
    H = np.empty((x0.size, x0.size))
    for a in range(x0.size):
        for b in range(a, x0.size):
            ea, eb = steps[a], steps[b]
            second = g(x0 + ea + eb) - g(x0 + ea - eb) - g(x0 - ea + eb) + g(x0 - ea - eb)
            H[a, b] = H[b, a] = second / (4.0 * eps * eps)
    return H


def rel_err(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want)))

