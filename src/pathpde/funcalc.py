"""Functional derivatives of path functionals and an Ito-expansion checker.

A functional U(t, eta) of time and a look-back path has three derivative
directions: horizontal (shift the past by epsilon, freeze the present),
first vertical (bump the present value only), and second vertical.  The
finite-difference realisations here follow those definitions literally on
the discrete path: the present bump touches the single node at x = 0, and
the horizontal shift back-fills with eta(-T) on the left.

``ito_residual`` measures, path by path, how far the discrete expansion

    U(T, X_T-window) - U(0, X_0-window)
        - sum_k [ (d_t + D^H) U dt + D^V U dX_k + 1/2 D^VV U sigma^2 dt ]

is from zero along simulated trajectories.  The bracket term uses the
model quadratic variation sigma^2 dt rather than (dX_k)^2: with the
squared increments the expansion of any quadratic functional telescopes
exactly and the statistic would be identically zero, hiding exactly the
O(dt^(1/2)) fluctuation the check is meant to expose.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .paths import Grid, Path
from .smoothing import CylindricalFunctional

__all__ = [
    "FunctionalSpec",
    "PresentFunctional",
    "CylindricalIto",
    "horizontal_derivative",
    "vertical_derivative",
    "ito_residual",
    "default_vertical_eps",
]


def default_vertical_eps(eta: Path) -> float:
    return 1e-4 * max(1.0, float(np.max(np.abs(eta.values))))


def horizontal_derivative(u: Callable, t: float, eta: Path, eps: float | None = None) -> float:
    """One-sided difference quotient for the past-shift sensitivity.

    The shifted argument keeps the present value and moves the past,
    eta_eps(x) = eta(x - eps) for x < 0 with left fill by eta(-T); values
    off the node set are linear interpolations, so an eps below the node
    spacing only warns (the quotient is still returned).
    """
    h = eta.horizon / (eta.n_nodes - 1)
    if eps is None:
        eps = h
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eps < h:
        warnings.warn(
            f"horizontal eps={eps:g} is below the node spacing {h:g}; "
            "the shift is resolved by interpolation only",
            stacklevel=2,
        )
    xs = eta.nodes
    shifted = eta(np.maximum(xs - eps, -eta.horizon))
    shifted[-1] = eta.values[-1]
    return (u(t, eta) - u(t, Path(eta.horizon, shifted))) / eps


def vertical_derivative(
    u: Callable, t: float, eta: Path, eps: float | None = None, order: int = 1
) -> float:
    """Central difference in the present value (order 1 or 2).

    Exact for functionals polynomial of degree <= 2 in eta(0).
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if eps is None:
        eps = default_vertical_eps(eta)
    if eps <= 0:
        raise ValueError("eps must be positive")
    up = eta.values.copy()
    dn = eta.values.copy()
    up[-1] += eps
    dn[-1] -= eps
    u_up = u(t, Path(eta.horizon, up))
    u_dn = u(t, Path(eta.horizon, dn))
    if order == 1:
        return (u_up - u_dn) / (2.0 * eps)
    return (u_up - 2.0 * u(t, eta) + u_dn) / (eps * eps)


# ---------------------------------------------------------------------------
# Batch functionals for the Ito checker


@dataclass(frozen=True)
class FunctionalSpec:
    """A functional with exact derivative callables for the Ito check.

    All callables are vectorised over paths: ``value(t, x, state)`` etc.,
    where x is the (n_paths,) array of present values and state is what
    ``tracker`` returns (None for present-only functionals, which have no
    tracker).  ``tracker(x0, t0)`` starts the state from the present
    values x0 at time t0, and the checker steps it with
    ``state.advance(u0, x0, u1, x1)`` along each path increment, as a
    ``FeatureTracker`` steps.  ``ah`` is the combined (d_t + D^H) term.
    """

    value: Callable
    ah: Callable
    dv: Callable
    dvv: Callable
    tracker: Callable | None = None


def PresentFunctional(g: Callable, g_t: Callable, g_x: Callable, g_xx: Callable) -> FunctionalSpec:
    """Functional depending on the present value only; D^H vanishes."""
    return FunctionalSpec(
        value=lambda t, x, st: g(t, x),
        ah=lambda t, x, st: g_t(t, x),
        dv=lambda t, x, st: g_x(t, x),
        dvv=lambda t, x, st: g_xx(t, x),
    )


def CylindricalIto(cyl: CylindricalFunctional) -> FunctionalSpec:
    """Ito-checker adapter for a cylindrical functional with derivatives.

    The pathwise-integral features F_j(s) = phi_j(s) X_s - int_0^s phi_j' X
    satisfy dF_j = phi_j dX, so the combined (d_t + D^H) term is the
    explicit time derivative of the base.  The state is the functional's
    own ``FeatureTracker``: ``tracker`` is ``cyl.tracker``.
    """
    return FunctionalSpec(
        value=lambda t, x, st: np.asarray(cyl.base(t, st.features(t, x))),
        ah=lambda t, x, st: cyl.time_plus_horizontal(t, st.features(t, x)),
        dv=lambda t, x, st: cyl.vertical(t, st.features(t, x), order=1),
        dvv=lambda t, x, st: cyl.vertical(t, st.features(t, x), order=2),
        tracker=cyl.tracker,
    )


def ito_residual(
    spec: FunctionalSpec,
    paths: np.ndarray,
    grid: Grid,
    sigma: Callable | float = 1.0,
) -> tuple[float, np.ndarray]:
    """Mean absolute discrete Ito expansion defect along the given paths.

    ``paths`` has shape (n_paths, n_steps + 1) on the grid; ``sigma`` is
    the diffusion whose squared value times dt acts as the bracket
    increment.  A functional's state starts from the paths' first values
    at the grid start, with no history: a tracker that needs one (a
    cylindrical functional at t0 > 0) raises.  Returns (mean residual,
    per-path residuals).
    """
    for name in ("value", "ah", "dv", "dvv"):
        if getattr(spec, name) is None:
            raise ValueError(f"the functional is missing its {name} callable")
    n_paths, n1 = paths.shape
    n_steps = n1 - 1
    if n_steps != grid.n_steps:
        raise ValueError("paths and grid disagree on the number of steps")
    times = grid.times
    dt = grid.dt
    sig = sigma if callable(sigma) else (lambda t, x, s=float(sigma): np.full_like(x, s))

    state = spec.tracker(paths[:, 0], times[0]) if spec.tracker is not None else None
    total = np.zeros(n_paths)
    u0 = spec.value(times[0], paths[:, 0], state)
    for k in range(n_steps):
        t_k = times[k]
        x_k = paths[:, k]
        dx = paths[:, k + 1] - x_k
        s2 = np.asarray(sig(t_k, x_k), dtype=float) ** 2
        total += (
            spec.ah(t_k, x_k, state) * dt
            + spec.dv(t_k, x_k, state) * dx
            + 0.5 * spec.dvv(t_k, x_k, state) * s2 * dt
        )
        if state is not None:
            state.advance(t_k, x_k, times[k + 1], paths[:, k + 1])
    u1 = spec.value(times[-1], paths[:, -1], state)
    residuals = np.abs(u1 - u0 - total)
    return float(residuals.mean()), residuals
