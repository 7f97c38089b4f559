"""Discrete paths on [-T, 0] and pathwise integrals.

A ``Path`` samples a continuous function on the uniform nodes
``x_k = -T + k * T / (n_nodes - 1)``; off-node evaluation is linear
interpolation everywhere in this package.  A ``WindowBatch`` stacks many
such look-back slices on one node layout; ``pathpde.sde.TrajectoryBatch``
cuts them out of simulated trajectories.

The pathwise integral against the increments of a path is realised through
integration by parts,

    integral(psi d-eta)  =  psi(0) * eta(0) - int_{-T}^0 psi'(x) eta(x) dx,

a convention that places the initial point mass at -T: the constant
integrand reproduces eta(0), and a constant path returns c * psi(-T).
``forward_integral`` evaluates it row by row, for one path or a batch.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Grid",
    "Path",
    "WindowBatch",
    "sup_norm",
    "forward_integral",
    "extend_canonical",
    "path_to_csv",
    "path_from_csv",
]


@dataclass(frozen=True)
class Grid:
    """Uniform time grid over [t_start, t_end] with n_steps steps."""

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.t_end > self.t_start:
            raise ValueError(f"need t_end > t_start, got [{self.t_start}, {self.t_end}]")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class Path:
    """A continuous path on [-T, 0] sampled on uniform nodes.

    ``values[k]`` is the sample at ``x_k = -T + k * T/(n_nodes-1)``, so the
    final entry is the present value eta(0).
    """

    horizon: float
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("a Path needs a 1-d array of at least 2 values")
        if not np.all(np.isfinite(vals)):
            raise ValueError("path values must be finite")
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n_nodes(self) -> int:
        return self.values.size

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(-self.horizon, 0.0, self.n_nodes)

    def __call__(self, x) -> np.ndarray | float:
        """Evaluate at x in [-T, 0] by linear interpolation (clamped outside)."""
        out = np.interp(x, self.nodes, self.values)
        return float(out) if np.isscalar(x) else out

    @classmethod
    def from_function(cls, f: Callable, horizon: float, n_nodes: int = 201) -> "Path":
        xs = np.linspace(-horizon, 0.0, n_nodes)
        return cls(horizon, np.asarray(f(xs), dtype=float))

    @classmethod
    def constant(cls, c: float, horizon: float, n_nodes: int = 201) -> "Path":
        return cls(horizon, np.full(n_nodes, float(c)))


@dataclass
class WindowBatch:
    """Many length-T look-back slices sharing one node layout.

    ``values[i, j]`` is path i at window node ``xs[j]``; the last column is
    the present value.  Used to evaluate path-dependent coefficients on all
    Monte Carlo paths at once.
    """

    xs: np.ndarray
    values: np.ndarray

    @property
    def horizon(self) -> float:
        return -float(self.xs[0])

    def sup_norm(self) -> np.ndarray:
        return np.max(np.abs(self.values), axis=1)

    def path(self, i: int) -> Path:
        return Path(self.horizon, self.values[i])


def sup_norm(path: Path) -> float:
    """Supremum norm over the path nodes."""
    return float(np.max(np.abs(path.values)))


def forward_integral(psi0: float, dpsi: np.ndarray, xs: np.ndarray, values: np.ndarray):
    """Pathwise integral of psi against the increments of each row of values.

    ``values`` samples eta on the nodes ``xs`` along its last axis (one
    path, or one path per row), ending at x = 0; ``dpsi`` samples psi' on
    the same nodes and ``psi0`` is psi(0).  Returns
    psi(0) * eta(0) - int psi'(x) eta(x) dx, the Lebesgue integral by
    composite trapezoid on the nodes, one value per row.  The convention
    carries the initial point mass at xs[0], so psi == 1 returns eta(0) and
    a constant path returns c * psi(xs[0]).
    """
    return psi0 * values[..., -1] - np.trapezoid(dpsi * values, xs, axis=-1)


def extend_canonical(times: np.ndarray, values: np.ndarray, s) -> np.ndarray | float:
    """Evaluate a trajectory at any real time, frozen outside its span.

    Returns the first value for s before the record starts, the last value
    after it ends, and the linear interpolation in between.
    """
    out = np.interp(s, np.asarray(times, dtype=float), np.asarray(values, dtype=float))
    return float(out) if np.isscalar(s) else out


def path_to_csv(path: Path, filename) -> None:
    """Write the path as CSV with columns (x, value), x ascending from -T."""
    with open(filename, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "value"])
        for x, v in zip(path.nodes, path.values):
            writer.writerow([f"{x:.17g}", f"{v:.17g}"])


def path_from_csv(filename) -> Path:
    with open(filename, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [h.strip() for h in header] != ["x", "value"]:
            raise ValueError(f"unexpected CSV header {header!r}, want ['x', 'value']")
        rows = [(float(r[0]), float(r[1])) for r in reader]
    xs = np.array([r[0] for r in rows])
    vals = np.array([r[1] for r in rows])
    if xs[0] >= 0 or abs(xs[-1]) > 1e-12 * max(1.0, -xs[0]):
        raise ValueError("CSV nodes must ascend from -T to 0")
    return Path(-xs[0], vals)
