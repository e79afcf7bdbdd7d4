"""A two-parameter sigmoidal model with the same conservation structure.

The model trains y = w2 * sigma(w1) with sigma(z) = z / sqrt(1 + z^2)
toward the value 1 under the loss (1 - w2 sigma(w1))^2. Its flow field

    dw1/dt = (w2 sqrt(1 + w1^2) - w2^2 w1) / (1 + w1^2)^2
    dw2/dt = (w1 sqrt(1 + w1^2) - w2 w1^2) / (1 + w1^2)

conserves C = w2^2 - (1 + w1^2)^2 / 2, the nonlinear analogue of the layer
balance invariant. The origin is a strict saddle whose stable manifold is
exactly the branch of the level set C = -1/2 through it,

    w2 = +- w1 sqrt((2 + w1^2) / 2),

so tracing the separatrix numerically and comparing against that formula
is a closed-form test of the whole pipeline. A linear comparison model
(train y = w2 * w1 toward 1) is included for side-by-side portraits; its
separatrices are the lines w2 = +- w1.

The field, the conserved level and the cost take w1 and w2 as floats or as
arrays, so a recorded run or a portrait grid is one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ovflow.csvio import write_csv
from ovflow.odeint import IntegratorConfig, OdeResult, solve_flow

__all__ = [
    "sigma",
    "sig_flow_field",
    "sig_invariant",
    "sig_cost",
    "manifold_curve",
    "SigTrajectory",
    "sig_integrate",
    "origin_eigenvectors",
    "separatrix_trace",
    "linear_field",
    "PortraitData",
    "phase_portrait",
    "write_portrait_csv",
    "write_overlays_csv",
]


def sigma(z: Union[float, np.ndarray]):
    """The bounded nonlinearity z / sqrt(1 + z^2)."""
    return z / np.sqrt(1.0 + np.square(z))


def sig_flow_field(w1, w2):
    """Right-hand side (dw1/dt, dw2/dt) of the sigmoidal flow."""
    one = 1.0 + np.square(w1)
    root = np.sqrt(one)
    dw1 = (w2 * root - np.square(w2) * w1) / np.square(one)
    dw2 = (w1 * root - w2 * np.square(w1)) / one
    return dw1, dw2


def sig_invariant(w1, w2):
    """C = w2^2 - (1 + w1^2)^2 / 2; constant along the flow."""
    return w2**2 - 0.5 * (1.0 + w1**2) ** 2


def sig_cost(w1, w2):
    return (1.0 - w2 * sigma(w1)) ** 2


def manifold_curve(w1: Union[float, np.ndarray]):
    """The two branches (plus, minus) of the origin's invariant manifold."""
    mag = np.abs(w1) * np.sqrt((2.0 + np.square(w1)) / 2.0)
    branch = np.where(np.asarray(w1) >= 0, mag, -mag)
    return branch, -branch


@dataclass(frozen=True, eq=False)
class SigTrajectory(OdeResult):
    """A sigmoidal run: the solver's record, whose states y (S, 2) are the
    (w1, w2) rows, plus the conserved level and the cost at every sample."""

    invariant: np.ndarray
    cost: np.ndarray


def _sig_rhs(y: np.ndarray, out: np.ndarray) -> None:
    out[..., 0], out[..., 1] = sig_flow_field(y[..., 0], y[..., 1])


def _sig_rhs_backward(y: np.ndarray, out: np.ndarray) -> None:
    _sig_rhs(y, out)
    np.negative(out, out=out)


def sig_integrate(w1: float, w2: float, cfg: IntegratorConfig) -> SigTrajectory:
    """Integrate the sigmoidal flow from (w1, w2)."""
    result = solve_flow(_sig_rhs, np.array([w1, w2]), cfg)
    w1s, w2s = result.y.T
    return SigTrajectory(**vars(result), invariant=sig_invariant(w1s, w2s), cost=sig_cost(w1s, w2s))


def origin_eigenvectors() -> tuple[np.ndarray, np.ndarray]:
    """(stable, unstable) unit eigenvectors of the field at the origin,
    oriented into the w1 > 0 half plane. The field's Jacobian there is
    [[0, 1], [1, 0]], with eigenvalues -1 along (1, -1) and +1 along (1, 1)."""
    root = np.sqrt(2.0)
    return np.array([1.0, -1.0]) / root, np.array([1.0, 1.0]) / root


def separatrix_trace(
    sign: str,
    direction: str,
    cfg: IntegratorConfig,
    eps: float = 1e-6,
    radius: float = 4.0,
) -> np.ndarray:
    """Trace an invariant manifold branch of the origin as a polyline.

    sign is "plus" or "minus" (which half plane the branch leaves through);
    direction "forward" follows the unstable manifold with the flow, while
    "backward" runs time-reversed along the stable manifold, which is the
    branch the closed-form curve describes. Integration starts eps off the
    origin along the matching eigenvector and stops at cfg.t_max or once
    the state leaves the given radius.
    """
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    if not 0 < eps <= 1e-2:
        raise ValueError("eps must be a small positive offset")

    stable, unstable = origin_eigenvectors()
    vec = unstable if direction == "forward" else stable
    if sign == "minus":
        vec = -vec
    y0 = eps * vec

    rhs = _sig_rhs if direction == "forward" else _sig_rhs_backward
    checkpoints = np.arange(0.01, cfg.t_max, 0.01)
    result = solve_flow(
        rhs,
        y0,
        cfg,
        checkpoints=checkpoints,
        stop_when=lambda t, y: abs(y[0]) > radius or abs(y[1]) > radius,
    )
    return result.y.copy()


def linear_field(w1, w2):
    """Gradient flow of (1 - w2 w1)^2 in two scalar parameters; the
    comparison model whose separatrices are straight lines."""
    resid = 2.0 * (1.0 - w2 * w1)
    return resid * w2, resid * w1


@dataclass(frozen=True)
class PortraitData:
    """A sampled vector field plus overlay curves, ready for CSV/SVG export.

    w1, w2, dw1, dw2 are flat arrays over the grid (row-major). Overlays
    are (curve_id, polyline) pairs with polylines as (m, 2) arrays.
    """

    kind: str
    bounds: tuple[float, float, float, float]
    grid: int
    w1: np.ndarray
    w2: np.ndarray
    dw1: np.ndarray
    dw2: np.ndarray
    overlays: tuple[tuple[str, np.ndarray], ...]


def _clip_curve(w1: np.ndarray, w2: np.ndarray, bounds) -> np.ndarray:
    lo1, hi1, lo2, hi2 = bounds
    keep = (w1 >= lo1) & (w1 <= hi1) & (w2 >= lo2) & (w2 <= hi2)
    return np.column_stack([w1[keep], w2[keep]])


# each portrait kind's field, the activation whose reciprocal is its target
# curve w2 = 1 / act(w1), and the map from w1 to the origin's separatrix
# branches (plus, minus)
_PORTRAIT_KINDS = {
    "sigmoid": (sig_flow_field, sigma, manifold_curve),
    "linear": (linear_field, lambda w1: w1, lambda w1: (w1, -w1)),
}


def phase_portrait(
    bounds: tuple[float, float, float, float],
    grid: int,
    include_manifolds: bool = True,
    kind: str = "sigmoid",
) -> PortraitData:
    """Sample the flow field on a uniform grid with overlay curves.

    Overlays: the target (equilibrium) curve branches, and, when requested,
    the origin's separatrix branches from the closed-form expressions.
    """
    if kind not in _PORTRAIT_KINDS:
        raise ValueError(f"kind must be 'sigmoid' or 'linear', got {kind!r}")
    lo1, hi1, lo2, hi2 = (float(b) for b in bounds)
    if not (lo1 < hi1 and lo2 < hi2):
        raise ValueError(f"degenerate bounds {bounds}")
    if grid < 2:
        raise ValueError("grid must be at least 2")
    field, activation, manifold = _PORTRAIT_KINDS[kind]

    xs = np.linspace(lo1, hi1, grid)
    ys = np.linspace(lo2, hi2, grid)
    g1, g2 = np.meshgrid(xs, ys, indexing="ij")
    d1, d2 = field(g1, g2)

    span = np.linspace(lo1, hi1, 801)
    pos = span[span > 1e-3]  # one target branch per sign of w1
    neg = span[span < -1e-3]
    overlays = [
        ("target_pos", _clip_curve(pos, 1.0 / np.asarray(activation(pos)), bounds)),
        ("target_neg", _clip_curve(neg, 1.0 / np.asarray(activation(neg)), bounds)),
    ]
    if include_manifolds:
        plus, minus = manifold(span)
        overlays.append(("manifold_plus", _clip_curve(span, np.asarray(plus), bounds)))
        overlays.append(("manifold_minus", _clip_curve(span, np.asarray(minus), bounds)))

    return PortraitData(
        kind=kind,
        bounds=(lo1, hi1, lo2, hi2),
        grid=grid,
        w1=g1.ravel(),
        w2=g2.ravel(),
        dw1=np.asarray(d1).ravel(),
        dw2=np.asarray(d2).ravel(),
        overlays=tuple(overlays),
    )


def write_portrait_csv(portrait: PortraitData, path: str) -> None:
    """Field samples as w1,w2,dw1,dw2 rows."""
    write_csv(path, ["w1", "w2", "dw1", "dw2"], np.column_stack([portrait.w1, portrait.w2, portrait.dw1, portrait.dw2]))


def write_overlays_csv(portrait: PortraitData, path: str) -> None:
    """All overlay polylines in one file, tagged by curve_id."""
    rows = ([a, b, curve_id] for curve_id, polyline in portrait.overlays for a, b in polyline)
    write_csv(path, ["w1", "w2", "curve_id"], rows)
