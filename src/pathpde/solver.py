"""User-facing evaluation of PDE solutions through their backward-SDE form.

``evaluate_markov`` and ``evaluate_ppde`` price a single space-time point:
simulate the forward dynamics, form the terminal samples, and run the
regression backward induction.  With a zero driver the equation is linear
and its value is the Feynman-Kac expectation of the terminal data, so the
point value is the terminal sample mean, with the samples' standard error.
That is the induction's own value: each of its projections keeps the mean
of its target and all paths start from one state, so Y_0 is the terminal
mean up to rounding.  No features or solution arrays are built.

``strong_viscosity_pipeline`` wraps them in the approximation loop:
coefficients and terminal data are replaced by smoothed versions at
increasing index n, each rung is evaluated at the requested probes under
common random numbers, and the report tracks the Cauchy behaviour of the
resulting value sequence.  The final rung defines the returned solution
field.

The lookback benchmark carries its own closed form: for unit-diffusion,
driver-free dynamics the expected terminal running maximum is an explicit
function of the gap between the past maximum and the present value
(reflection principle), which ``lookback_oracle`` evaluates.
"""

from __future__ import annotations

import hashlib
import struct
import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from .bsde import (
    BsdeSolution,
    DriverSpec,
    RegressionBasisSpec,
    _check_basis_size,
    _zero_driver_value,
    comparison_check,
    extract_compensator,
    make_features,
    solve_bsde,
)
from .paths import Grid, Path, WindowBatch
from .sde import NoiseBundle, SdeSpec, TrajectoryBatch, euler_markov, euler_path_dependent
from .smoothing import (
    CylindricalFunctional,
    FourierBasis,
    mollify,
    select_diagonal,
    smooth_finite_dim,
    smooth_terminal,
)

__all__ = [
    "SupTerminal",
    "ProblemSpec",
    "SolverConfig",
    "ApproximationSchedule",
    "SolutionField",
    "PipelineReport",
    "evaluate_markov",
    "evaluate_ppde",
    "lookback_oracle",
    "strong_viscosity_pipeline",
    "comparison_experiment",
    "bridge_corrected_max",
]


@dataclass(frozen=True)
class SupTerminal:
    """Marker for the running-maximum terminal functional H(eta) = sup eta."""


@dataclass(frozen=True)
class ProblemSpec:
    """Terminal-value problem data for either the state or the path equation.

    mode "markov": b, sigma are (t, x)-callables (or constants) on R^d and
    ``terminal`` maps terminal states to samples.  mode "path": the
    dynamics are scalar, coefficients read the look-back window (constants,
    CylindricalFunctional, or (t, WindowBatch) callables) and ``terminal``
    is a path functional: a SupTerminal marker, a CylindricalFunctional, or
    a plain Path -> float callable.
    """

    mode: str
    b: object
    sigma: object
    driver: DriverSpec
    terminal: object
    horizon: float
    d: int = 1
    growth_c: float | None = None
    growth_m: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("markov", "path"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "path" and self.d != 1:
            raise ValueError("path-dependent problems are scalar (d = 1)")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")


@dataclass(frozen=True)
class SolverConfig:
    n_paths: int = 100_000
    n_steps: int = 100
    seed: int = 2024
    basis: RegressionBasisSpec | None = None
    workers: int = 1
    bridge_max: bool = True

    def resolved_basis(self, mode: str) -> RegressionBasisSpec:
        if self.basis is not None:
            if mode == "markov" and self.basis.kind == "path":
                raise ValueError("a path regression basis needs a path-mode problem")
            return self.basis
        if mode == "markov":
            return RegressionBasisSpec("markov", degree=2)
        return RegressionBasisSpec("path", degree=2, n_fourier=2)


@dataclass(frozen=True)
class ApproximationSchedule:
    """Smoothing indices and the per-rung solver configuration."""

    indices: tuple[int, ...] = (4, 8, 16, 32)
    config: SolverConfig = field(default_factory=SolverConfig)
    mollifier_family: str = "exp"
    mollify_coefficients: bool = True
    mollify_driver: bool = False
    quad_nodes: int = 12

    def __post_init__(self) -> None:
        idx = tuple(int(n) for n in self.indices)
        if any(b <= a for a, b in zip(idx, idx[1:])) or not idx:
            raise ValueError("smoothing indices must be strictly increasing and nonempty")
        object.__setattr__(self, "indices", idx)


def _probe_seed(seed: int, t: float, probe) -> int:
    payload = struct.pack("<d", float(t))
    if isinstance(probe, Path):
        payload += struct.pack("<d", probe.horizon) + probe.values.tobytes()
    else:
        payload += np.atleast_1d(np.asarray(probe, dtype=float)).tobytes()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return (seed ^ int.from_bytes(digest, "little")) & ((1 << 63) - 1)


# ---------------------------------------------------------------------------
# Point evaluation


def _pathwise_se(
    sol: BsdeSolution, driver: DriverSpec, features, terminal: np.ndarray
) -> float:
    """Cross-sectional error of the pathwise Feynman-Kac companion estimator."""
    comp = np.asarray(terminal, dtype=float)
    if driver.f is not None:
        dt = sol.grid.dt
        times = sol.grid.times
        comp = comp.copy()
        Y_t = np.ascontiguousarray(sol.Y.T)
        Z_t = np.ascontiguousarray(sol.Z.transpose(1, 0, 2))
        for k in range(sol.grid.n_steps):
            comp += driver(times[k], features.state(k), Y_t[k], Z_t[k]) * dt
    return float(comp.std(ddof=1) / np.sqrt(comp.size))


def _evaluate_point(problem: ProblemSpec, t: float, config: SolverConfig, forward) -> tuple[float, float]:
    """Value and standard error at one point: the part both evaluations share.

    ``forward(grid, noise, dW)`` runs the problem's Euler scheme and returns
    the trajectories and the terminal samples.  The basis-size guard runs
    before any noise is drawn, whatever the driver.  A zero driver returns
    the terminal sample mean and builds no features: every projection
    keeps the mean of its target (the intercept is never penalised) and at
    the first step all paths share one state, so the induction's Y_0 is
    that mean up to rounding.
    """
    basis = config.resolved_basis(problem.mode)
    n_paths = config.n_paths
    _check_basis_size(basis.n_features(problem.d), n_paths)
    grid = Grid(t, problem.horizon, config.n_steps)
    noise = NoiseBundle(config.seed, n_paths, config.n_steps, problem.d)
    dW = noise.increments(grid.dt)
    traj, xi = forward(grid, noise, dW)
    if xi.shape != (n_paths,):
        raise ValueError(f"terminal samples shape {xi.shape} != ({n_paths},)")
    if problem.driver.f is None:
        return _zero_driver_value(xi), float(xi.std(ddof=1) / np.sqrt(n_paths))
    features = make_features(basis, traj)
    sol = solve_bsde(problem.driver, xi, features, traj, dW, basis=basis)
    return sol.value, _pathwise_se(sol, problem.driver, features, xi)


def evaluate_markov(
    problem: ProblemSpec, t: float, x, config: SolverConfig
) -> tuple[float, float]:
    """Value of the state problem at (t, x) with its standard error.

    A zero driver gives the terminal sample mean, which is the value of
    the regression backward induction up to rounding; otherwise the
    induction runs.
    """
    if problem.mode != "markov":
        raise ValueError("evaluate_markov needs a problem in markov mode")
    T = problem.horizon
    if t > T + 1e-12:
        raise ValueError(f"evaluation time {t} beyond horizon {T}")
    if abs(t - T) < 1e-12:
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        return float(np.asarray(problem.terminal(xv))[0]), 0.0

    def forward(grid, noise, dW):
        traj = euler_markov(
            SdeSpec(problem.b, problem.sigma), t, x, grid, noise,
            workers=config.workers, increments=dW,
        )
        return traj, np.asarray(problem.terminal(traj.terminal()), dtype=float)

    return _evaluate_point(problem, t, config, forward)


def bridge_corrected_max(
    values: np.ndarray, dt: float, sigma: float, noise: NoiseBundle | np.ndarray
) -> np.ndarray:
    """Running maximum with per-step Brownian-bridge maxima.

    Conditionally on the step endpoints, the in-step maximum of a constant
    diffusion bridge is (a + b + sqrt((b-a)^2 - 2 sigma^2 dt ln U)) / 2.
    The plain discrete maximum underestimates by O(sqrt(dt)); this
    estimator is exact in law for constant sigma.  ``noise`` supplies the
    auxiliary uniforms, either as a bundle (streamed in path blocks) or as
    a (n_paths, n_steps) array.
    """
    n_paths = values.shape[0]
    if sigma == 0.0:
        return values.max(axis=1)
    out = np.empty(n_paths)
    block = max(1, min(n_paths, 2**22 // max(1, values.shape[1])))
    for p0 in range(0, n_paths, block):
        p1 = min(p0 + block, n_paths)
        if isinstance(noise, NoiseBundle):
            u = noise.uniforms(p0, p1)[:, :, 0]
        else:
            u = np.array(noise[p0:p1], dtype=float)
        np.log(u, out=u)
        u *= -2.0 * sigma**2 * dt
        diff = values[p0:p1, 1:] - values[p0:p1, :-1]
        np.square(diff, out=diff)
        u += diff
        np.sqrt(u, out=u)
        u += values[p0:p1, 1:]
        u += values[p0:p1, :-1]
        u *= 0.5
        out[p0:p1] = u.max(axis=1)
    return out


def _past_sup(eta: Path, lookback: float) -> float:
    """Supremum of eta over [-lookback, 0] (interpolated left endpoint)."""
    if lookback <= 0:
        return float(eta.values[-1])
    if lookback >= eta.horizon:
        return float(np.max(eta.values))
    xs = eta.nodes
    inside = xs >= -lookback
    cand = float(np.max(eta.values[inside])) if np.any(inside) else -np.inf
    return max(cand, float(eta(-lookback)))


def _terminal_samples_path(
    problem: ProblemSpec,
    t: float,
    eta: Path,
    traj: TrajectoryBatch,
    noise: NoiseBundle,
    config: SolverConfig,
) -> np.ndarray:
    term = problem.terminal
    grid = traj.grid
    if isinstance(term, SupTerminal):
        past = _past_sup(eta, t)
        if config.bridge_max and isinstance(problem.sigma, (int, float)):
            body = bridge_corrected_max(traj.values, grid.dt, float(problem.sigma), noise.child(1))
        else:
            if config.bridge_max:
                warnings.warn(
                    "bridge-corrected maxima need a constant diffusion; "
                    "falling back to the discrete maximum",
                    stacklevel=2,
                )
            body = traj.values.max(axis=1)
        return np.maximum(past, body)
    m = int(round(problem.horizon / grid.dt)) + 1
    wb = traj.window_batch(grid.n_steps, n_nodes=m)
    if isinstance(term, CylindricalFunctional):
        F = _window_features(term, problem.horizon, wb)
        return np.asarray(term.base(problem.horizon, F), dtype=float)
    if hasattr(term, "evaluate_batch"):
        return np.asarray(term.evaluate_batch(wb), dtype=float)
    return np.array([float(term(wb.path(i))) for i in range(wb.values.shape[0])])


def _window_features(cyl: CylindricalFunctional, T: float, wb: WindowBatch) -> np.ndarray:
    cols = []
    for ig in cyl.integrands:
        integrand = np.asarray(ig.dphi(wb.xs + T), dtype=float)
        lebesgue = np.trapezoid(wb.values * integrand[None, :], wb.xs, axis=1)
        cols.append(float(ig.phi(T)) * wb.present - lebesgue)
    return np.stack(cols, axis=1)


def _terminal_value_single(problem: ProblemSpec, eta: Path) -> float:
    term = problem.terminal
    if isinstance(term, SupTerminal):
        return float(np.max(eta.values))
    if isinstance(term, CylindricalFunctional):
        return term.value(problem.horizon, eta)
    return float(term(eta))


def evaluate_ppde(
    problem: ProblemSpec, t: float, eta: Path, config: SolverConfig
) -> tuple[float, float]:
    """Value of the path-dependent problem at (t, eta) with standard error.

    A zero driver gives the terminal sample mean, which is the value of
    the regression backward induction up to rounding; otherwise the
    induction runs.
    """
    if problem.mode != "path":
        raise ValueError("evaluate_ppde needs a problem in path mode")
    T = problem.horizon
    if abs(eta.horizon - T) > 1e-12 * max(1.0, T):
        raise ValueError(f"history horizon {eta.horizon} differs from problem horizon {T}")
    if t > T + 1e-12:
        raise ValueError(f"evaluation time {t} beyond horizon {T}")
    if abs(t - T) < 1e-12:
        return _terminal_value_single(problem, eta), 0.0

    def forward(grid, noise, dW):
        traj = euler_path_dependent(
            SdeSpec(problem.b, problem.sigma, path_dependent=True), t, eta, grid, noise,
            workers=config.workers, increments=dW,
        )
        return traj, _terminal_samples_path(problem, t, eta, traj, noise, config)

    return _evaluate_point(problem, t, config, forward)


def lookback_oracle(t: float, eta: Path, horizon: float) -> float:
    """Closed-form value of the driver-free unit-diffusion lookback problem.

    With tau = T - t and m the nonnegative gap between the supremum of the
    history over [-t, 0] and the present value, the expected terminal
    running maximum is

        eta(0) + m (2 Phi(m / sqrt(tau)) - 1)
               + sqrt(2 tau / pi) exp(-m^2 / (2 tau)),

    by the reflection principle.  Only the last t units of history matter:
    older values have left the look-back window by time T.
    """
    if t > horizon + 1e-12:
        raise ValueError(f"evaluation time {t} beyond horizon {horizon}")
    tau = max(horizon - t, 0.0)
    if tau == 0.0:
        return float(np.max(eta.values))
    present = float(eta.values[-1])
    m = max(0.0, _past_sup(eta, t) - present)
    gauss_part = np.sqrt(2.0 * tau / np.pi) * np.exp(-(m * m) / (2.0 * tau))
    return present + m * (2.0 * ndtr(m / np.sqrt(tau)) - 1.0) + gauss_part


# ---------------------------------------------------------------------------
# Smoothing pipeline


def _mollify_state_coefficient(coef, d: int, n: int, nodes: int, family: str):
    """Convolve a (t, x)-callable with the index-n state mollifier."""
    if isinstance(coef, (int, float)):
        return coef  # constants are fixed points of the convolution
    from .smoothing import Mollifier, _tensor_rule

    phi = Mollifier(d, n, family)
    pts, wts = _tensor_rule([1.0 / n] * d, nodes)
    kernel = wts * phi(pts)
    kernel = kernel / kernel.sum()

    def smoothed(t, x):
        x_arr = np.asarray(x, dtype=float)
        if d == 1 and x_arr.ndim == 1:
            shifted = x_arr[:, None] - pts[None, :, 0]
            vals = np.stack([np.asarray(coef(t, shifted[:, j]), dtype=float) for j in range(pts.shape[0])], axis=1)
        else:
            vals = np.stack(
                [np.asarray(coef(t, x_arr - pts[j][None, :]), dtype=float) for j in range(pts.shape[0])],
                axis=1,
            )
        return vals @ kernel

    return smoothed


def _mollify_driver_markov(driver: DriverSpec, d: int, n: int, nodes: int, family: str) -> DriverSpec:
    """Joint mollification of the generator in (x, y, z); q = 2d + 1."""
    if driver.f is None:
        return driver
    from .smoothing import Mollifier, _tensor_rule

    q = 2 * d + 1
    phi = Mollifier(q, n, family) if q <= 3 else None
    if phi is None:
        raise ValueError("driver mollification supports d = 1 only (q = 3)")
    pts, wts = _tensor_rule([1.0 / n] * q, nodes)
    kernel = wts * phi(pts)
    kernel = kernel / kernel.sum()
    f = driver.f

    def f_n(t, state, y, z):
        x = np.asarray(state, dtype=float)
        acc = np.zeros_like(np.asarray(y, dtype=float))
        z1 = np.asarray(z, dtype=float)[:, 0]
        for j in range(pts.shape[0]):
            dxj, dyj, dzj = pts[j]
            acc += kernel[j] * np.asarray(f(t, x - dxj, y - dyj, (z1 - dzj)[:, None]), dtype=float)
        return acc

    return replace(driver, f=f_n)


class _LinearTerminalSmoother:
    """Batch form of the terminal smoothing: one matrix per node layout.

    The composed argument (projection plus endpoint correction) is linear
    in the window samples, so it is materialised by probing the scalar
    routine with unit vectors; the wrapped functional is then applied row
    by row (vectorised for the running maximum).
    """

    def __init__(self, inner, n: int, horizon: float):
        self.inner = inner
        self.n = n
        self.horizon = horizon
        self._matrix_cache: dict[int, np.ndarray] = {}

    def _matrix(self, m: int) -> np.ndarray:
        if m not in self._matrix_cache:
            transform = smooth_terminal(lambda p: 0.0, self.n, self.horizon).argument
            cols = np.empty((m, m))
            for j in range(m):
                unit = np.zeros(m)
                unit[j] = 1.0
                cols[:, j] = transform(Path(self.horizon, unit)).values
            self._matrix_cache[m] = cols
        return self._matrix_cache[m]

    def evaluate_batch(self, wb: WindowBatch) -> np.ndarray:
        M = self._matrix(wb.xs.size)
        smoothed_vals = wb.values @ M.T
        if isinstance(self.inner, SupTerminal):
            return smoothed_vals.max(axis=1)
        return np.array(
            [float(self.inner(Path(self.horizon, smoothed_vals[i]))) for i in range(smoothed_vals.shape[0])]
        )

    def __call__(self, eta: Path) -> float:
        vals = self._matrix(eta.n_nodes) @ eta.values
        smoothed = Path(self.horizon, vals)
        if isinstance(self.inner, SupTerminal):
            return float(np.max(smoothed.values))
        return float(self.inner(smoothed))


def _smooth_rung(problem: ProblemSpec, n: int, schedule: ApproximationSchedule,
                 inner_k: int | None = None) -> ProblemSpec:
    fam = schedule.mollifier_family
    nodes = schedule.quad_nodes
    if problem.mode == "markov":
        b_n = (
            _mollify_state_coefficient(problem.b, problem.d, n, nodes, fam)
            if schedule.mollify_coefficients
            else problem.b
        )
        s_n = (
            _mollify_state_coefficient(problem.sigma, problem.d, n, nodes, fam)
            if schedule.mollify_coefficients
            else problem.sigma
        )
        h_n = mollify(problem.terminal, problem.d, n, nodes_per_axis=nodes, family=fam)
        drv = (
            _mollify_driver_markov(problem.driver, problem.d, n, max(4, nodes // 2), fam)
            if schedule.mollify_driver
            else problem.driver
        )
        return replace(problem, b=b_n, sigma=s_n, terminal=h_n, driver=drv)
    # path mode: coefficients must already be cylindrical or constant;
    # the terminal is smoothed by projection + endpoint mollification,
    # and a cylindrical terminal gets its base mollified instead.
    for name, coef in (("b", problem.b), ("sigma", problem.sigma)):
        if callable(coef) and not isinstance(coef, CylindricalFunctional):
            raise ValueError(
                f"the smoothing pipeline needs cylindrical {name} coefficients "
                "(generic window functionals are supported through the terminal only)"
            )
    term = problem.terminal
    if isinstance(term, CylindricalFunctional):
        k = inner_k if inner_k is not None else n
        smoothed_base = smooth_finite_dim(
            lambda F: term.base(problem.horizon, F), term.n_features, k
        )
        new_term = replace(term, base=lambda t, F, _s=smoothed_base: _s(np.atleast_2d(F)))
        return replace(problem, terminal=new_term)
    return replace(problem, terminal=_LinearTerminalSmoother(term, n, problem.horizon))


@dataclass
class SolutionField:
    """Deterministic evaluator for the final-rung approximation.

    Same (seed, probe) always reproduces the same value bit for bit: the
    probe seed is a stable hash of the probe coordinates mixed into the
    configured seed.
    """

    problem: ProblemSpec
    config: SolverConfig
    provenance: dict

    def evaluate(self, t: float, probe) -> tuple[float, float]:
        cfg = replace(self.config, seed=_probe_seed(self.config.seed, t, probe))
        if self.problem.mode == "markov":
            return evaluate_markov(self.problem, t, probe, cfg)
        return evaluate_ppde(self.problem, t, probe, cfg)


@dataclass
class PipelineReport:
    indices: tuple[int, ...]
    probes: list
    values: np.ndarray  # (n_rungs, n_probes)
    std_errors: np.ndarray
    cauchy_gaps: np.ndarray  # (n_rungs - 1, n_probes)
    converged: np.ndarray  # per probe
    field: SolutionField

    def rows(self) -> list[dict]:
        out = []
        for r, n in enumerate(self.indices):
            for p in range(len(self.probes)):
                out.append(
                    {
                        "n": n,
                        "probe": p,
                        "value": float(self.values[r, p]),
                        "std_error": float(self.std_errors[r, p]),
                        "cauchy_gap": float(self.cauchy_gaps[r - 1, p]) if r > 0 else float("nan"),
                    }
                )
        return out


def strong_viscosity_pipeline(
    problem: ProblemSpec,
    schedule: ApproximationSchedule,
    probes: Sequence[tuple[float, object]],
) -> PipelineReport:
    """Evaluate the smoothed-problem sequence at each probe point.

    Every rung shares the probe's seed (common random numbers), so the
    Cauchy gaps between consecutive rungs isolate the smoothing effect.
    A probe is flagged non-convergent when its last gap both grew and
    exceeds three joint standard errors.
    """
    probes = list(probes)
    inner_k = None
    if problem.mode == "path" and isinstance(problem.terminal, CylindricalFunctional):
        inner_k = _select_terminal_inner_index(problem, schedule, probes)

    n_rungs = len(schedule.indices)
    values = np.empty((n_rungs, len(probes)))
    errors = np.empty_like(values)
    rung_problem = problem
    for r, n in enumerate(schedule.indices):
        k_n = int(inner_k[r]) if inner_k is not None else None
        rung_problem = _smooth_rung(problem, n, schedule, inner_k=k_n)
        for p, (t, probe) in enumerate(probes):
            cfg = replace(schedule.config, seed=_probe_seed(schedule.config.seed, t, probe))
            if problem.mode == "markov":
                values[r, p], errors[r, p] = evaluate_markov(rung_problem, t, probe, cfg)
            else:
                values[r, p], errors[r, p] = evaluate_ppde(rung_problem, t, probe, cfg)
    gaps = np.abs(np.diff(values, axis=0))
    converged = np.ones(len(probes), dtype=bool)
    if n_rungs >= 3:
        joint_se = np.sqrt(errors[-1] ** 2 + errors[-2] ** 2)
        converged = ~((gaps[-1] > gaps[-2]) & (gaps[-1] > 3.0 * joint_se))
    field = SolutionField(
        rung_problem,
        schedule.config,
        provenance={
            "indices": list(schedule.indices),
            "seed": schedule.config.seed,
            "mollifier_family": schedule.mollifier_family,
            "final_index": schedule.indices[-1],
        },
    )
    return PipelineReport(schedule.indices, probes, values, errors, gaps, converged, field)


def _select_terminal_inner_index(problem, schedule, probes) -> np.ndarray:
    """Diagonal choice of the base-mollification scale for cylindrical terminals."""
    term: CylindricalFunctional = problem.terminal
    T = problem.horizon
    probe_paths = [p for (_, p) in probes if isinstance(p, Path)]
    if not probe_paths:
        probe_paths = [Path.constant(0.0, T)]
    feats = np.stack([term.features(T, p) for p in probe_paths])

    def family(n, k):
        if k < 1:
            return np.full(len(probe_paths), np.inf)
        smoothed = smooth_finite_dim(lambda F: term.base(T, F), term.n_features, k)
        return np.array([float(smoothed(f)) for f in feats])

    def targets(n):
        return np.array([float(np.asarray(term.base(T, f[None, :]))[0]) for f in feats])

    n_max = max(schedule.indices)
    ks = select_diagonal(family, targets, probe_paths, n_max=n_max, k_max=512)
    return np.array([ks[n - 1] for n in schedule.indices])


# ---------------------------------------------------------------------------
# Comparison experiment


def comparison_experiment(
    problem: ProblemSpec,
    slack: float,
    t: float,
    x,
    config: SolverConfig,
) -> dict:
    """Order and compensator checks for tilted super/sub fields.

    Solves the problem once, then adds +- slack * (T - s) to the value
    field.  The raised field must dominate the lowered one, and their
    compensators must be nondecreasing (raised) and nonincreasing
    (lowered) step by step.
    """
    if problem.mode != "markov":
        raise ValueError("the comparison experiment runs on the Markovian benchmark family")
    T = problem.horizon
    grid = Grid(t, T, config.n_steps)
    noise = NoiseBundle(config.seed, config.n_paths, config.n_steps, problem.d)
    dW = noise.increments(grid.dt)
    traj = euler_markov(SdeSpec(problem.b, problem.sigma), t, x, grid, noise,
                        workers=config.workers, increments=dW)
    xi = np.asarray(problem.terminal(traj.terminal()), dtype=float)
    basis = config.resolved_basis("markov")
    features = make_features(basis, traj)
    sol = solve_bsde(problem.driver, xi, features, traj, dW, basis=basis)

    tilt = slack * (T - grid.times)[None, :]
    y_super = sol.Y + tilt
    y_sub = sol.Y - tilt
    se = _pathwise_se(sol, problem.driver, features, xi)
    tol = 3.0 * se
    order = comparison_check(y_sub, y_super, tol)
    swapped = comparison_check(y_super, y_sub, tol)

    k_super = extract_compensator(y_super, sol.Z, problem.driver, features, grid, dW)
    k_sub = extract_compensator(y_sub, sol.Z, problem.driver, features, grid, dW)
    inc_super = np.diff(k_super, axis=1)
    inc_sub = np.diff(k_sub, axis=1)
    return {
        "ordering": order,
        "swapped": swapped,
        "k_super_nondecreasing_fraction": float((inc_super >= -1e-12).mean()),
        "k_sub_nonincreasing_fraction": float((inc_sub <= 1e-12).mean()),
        "tolerance": tol,
        "value": sol.value,
    }
