"""Oracles the test modules check the package against.

Everything here is deliberately dumb, a plain route to the same numbers:
central differences on the raw definitions, reusing nothing of the package
beyond evaluating the objective; the tree walk that evaluates a scalar
expression node by node, the reference for the compiled closures; the
trajectory CSV read back row by row with the ``csv`` module; and the
portrait SVG written one arrow at a time.
"""

import csv
import math

import numpy as np

from ovflow.cost import Add, Div, Expr, Mul, Neg, Num, Pow, Sub, Var


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


def evaluate(expr: Expr, w: float) -> float:
    """Evaluate an expression tree at w. Overflow and division by zero are
    reported as non-finite values rather than raised: a power that overflows
    or divides by zero gives the infinity of its true sign. This tree walk is
    the reference that the ``cost.compile_expr`` closures, a ScalarCost's
    ``value``, ``deriv`` and ``second``, are tested against bit for bit."""
    if isinstance(expr, Num):
        return float(expr.value)
    if isinstance(expr, Var):
        return w
    if isinstance(expr, Neg):
        return -evaluate(expr.arg, w)
    if isinstance(expr, Add):
        return evaluate(expr.left, w) + evaluate(expr.right, w)
    if isinstance(expr, Sub):
        return evaluate(expr.left, w) - evaluate(expr.right, w)
    if isinstance(expr, Mul):
        return evaluate(expr.left, w) * evaluate(expr.right, w)
    if isinstance(expr, Div):
        num = evaluate(expr.left, w)
        den = evaluate(expr.right, w)
        if den == 0.0:
            return math.nan if num == 0.0 else math.copysign(math.inf, num)
        return num / den
    if isinstance(expr, Pow):
        base = evaluate(expr.base, w)
        try:
            return base ** expr.exponent
        except (OverflowError, ZeroDivisionError):
            return math.copysign(math.inf, base) if expr.exponent % 2 else math.inf
    raise TypeError(f"unknown node {expr!r}")


def read_trajectory_csv(path: str) -> dict[str, np.ndarray]:
    """Columns of a trajectory CSV keyed by header name; the blank
    imbalance column comes back as NaN."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [row for row in reader if row]
    columns: dict[str, np.ndarray] = {}
    for j, name in enumerate(header):
        columns[name] = np.array(
            [float(row[j]) if row[j] != "" else float("nan") for row in rows]
        )
    return columns


def rel_err(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want)))


def write_portrait_svg_per_arrow(portrait, path):
    """The portrait SVG written one arrow at a time, each coordinate from
    Python floats and each formatted by its own f-string: the reference
    the array writer ``cli.write_portrait_svg`` must match byte for byte."""
    lo1, hi1, lo2, hi2 = portrait.bounds
    size = 800.0

    def px(a: float, b: float) -> tuple[float, float]:
        return (
            (a - lo1) / (hi1 - lo1) * size,
            size - (b - lo2) / (hi2 - lo2) * size,
        )

    cell = size / max(portrait.grid - 1, 1)
    arrow_len = 0.42 * cell
    barb = 0.3 * arrow_len

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" viewBox="0 0 800 800">',
        f"<!-- kind={portrait.kind} grid={portrait.grid} -->",
        '<rect x="0" y="0" width="800" height="800" fill="#ffffff"/>',
        '<g class="field" stroke="#4a4a4a" stroke-width="1" fill="none">',
    ]
    for w1, w2, dw1, dw2 in zip(portrait.w1, portrait.w2, portrait.dw1, portrait.dw2):
        cx, cy = px(float(w1), float(w2))
        norm = math.hypot(float(dw1), float(dw2))
        if norm == 0.0:
            parts.append(f'<path class="arrow" d="M {cx:.2f} {cy:.2f} L {cx:.2f} {cy:.2f}"/>')
            continue
        ux = float(dw1) / norm
        uy = -float(dw2) / norm  # pixel y points down
        tail = (cx - 0.5 * arrow_len * ux, cy - 0.5 * arrow_len * uy)
        tip = (cx + 0.5 * arrow_len * ux, cy + 0.5 * arrow_len * uy)
        # barbs rotated +-150 degrees from the direction
        cos_b, sin_b = -0.8660254037844387, 0.5
        b1 = (tip[0] + barb * (ux * cos_b - uy * sin_b), tip[1] + barb * (ux * sin_b + uy * cos_b))
        b2 = (tip[0] + barb * (ux * cos_b + uy * sin_b), tip[1] + barb * (-ux * sin_b + uy * cos_b))
        parts.append(
            '<path class="arrow" d="'
            f"M {tail[0]:.2f} {tail[1]:.2f} L {tip[0]:.2f} {tip[1]:.2f} "
            f"M {b1[0]:.2f} {b1[1]:.2f} L {tip[0]:.2f} {tip[1]:.2f} L {b2[0]:.2f} {b2[1]:.2f}"
            '"/>'
        )
    parts.append("</g>")

    for prefix, style in (
        ("target", 'stroke="#1f6f43" stroke-width="2" fill="none"'),
        ("manifold", 'stroke="#b03a3a" stroke-width="2" fill="none" stroke-dasharray="7 5"'),
    ):
        curves = [ov for ov in portrait.overlays if ov[0].startswith(prefix)]
        if curves:
            parts.append(f"<g {style}>")
            for curve_id, line in curves:
                pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in (px(a, b) for a, b in line))
                parts.append(f'<polyline class="{prefix}-curve" id="{curve_id}" points="{pts}"/>')
            parts.append("</g>")
    parts.append("</svg>")

    with open(path, "w") as handle:
        handle.write("\n".join(parts) + "\n")
