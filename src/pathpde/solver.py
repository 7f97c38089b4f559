"""User-facing evaluation of PDE solutions through their backward-SDE form.

``evaluate_markov`` and ``evaluate_ppde`` price a single space-time point
in two parts.  The forward part draws the noise and runs the forward
Euler scheme; the value part forms the terminal samples and runs the
regression backward induction on them.  With a zero driver the equation
is linear and its value is the Feynman-Kac expectation of the terminal
data, so the point value is the terminal sample mean, with the samples'
standard error.  That is the induction's own value: each of its
projections keeps the mean of its target and all paths start from one
state, so Y_0 is the terminal mean up to rounding, and no features or
solution arrays are built.

The forward part is one pass for every driver: ``sde._lanes`` deals
blocks of ``_FORWARD_BLOCK`` paths to up to ``SolverConfig.workers``
threads, and each lane draws, steps and evaluates its blocks whole, noise
and bridge maximum included.  The noise regenerates any range of paths
bit for bit and the terminals act path by path, so the samples, and the
mean and standard error taken once over all of them, depend neither on
the block size, a multiple of the noise's 256-path block, nor on the
lanes.  A zero driver streams: each lane steps its blocks on one array of
one block, its value buffer, and only the terminal samples outlive a
block, so the pass holds, up to small per-block arrays,

    workers x (_FORWARD_BLOCK x (n_steps + 1) x 8 B + one noise scratch)
    + 8 B per path and problem,

where the value buffer is d times larger for a d-dimensional state and
the noise scratch is one 256-path noise block, 256 x n_steps x d x 8 B,
or two with the bridge maximum (a tile's uniform rows and their squared
step differences).  A nonzero driver keeps all paths for the backward
induction: each block writes its values and increments into its own
columns of step-major arrays of all paths.  With s steps, a
d-dimensional state and B features, a state problem then peaks inside
the induction at

    ((s + 1) d + s d + (s + 1)(d + 1) + (B + d + 1) + 2) x n_paths x 8 B

(values, increments, the (Y, Z) state, the regression buffer, samples
and the induction's Feynman-Kac companion, whose spread is the standard
error)
plus the driver's result, one row of n_paths doubles, and one noise
scratch per lane.  A path problem adds its float32 features, (2 + 2
n_fourier)(s + 1) x n_paths x 4 B, and the driver's float64 ``state(k)``
bundle of a step, (2 + 2 n_fourier) x n_paths x 8 B.  A path problem's
terminals read a block in tiles of ``_PATH_TILE`` = 256 paths, and each
tile's windows are cut once for every rung, so a rung group of the
pipeline holds the streamed model: a smoothed terminal forms its argument
for one tile, about one noise scratch a lane, and a probe at t > 0 adds
the tile's cut and its interpolation scratch, 3 x 256 x m x 8 B per lane
for m window nodes.  ``tests/test_solver.py`` holds small evaluations at
one and two workers to both models under ``tracemalloc``, and pipelines
at t = 0 and t > 0 to the streamed one.  User
terminals and coefficients are called from lane threads, at the same
time, on disjoint blocks of paths.  While the lanes run, OpenBLAS is
held to one thread, process-wide, so other threads' numpy products run
single-threaded meanwhile.  ``sde`` is the one module that knows the
noise blocks and their per-block ``SeedSequence`` keying;
``bridge_corrected_max`` is imported from there.

One loop, ``_evaluate_point``, evaluates a list of problems that share
one forward pass at one point: the exact values at the horizon, else the
forward part once and the value part per problem.  ``evaluate_markov``,
``evaluate_ppde``, ``SolutionField.evaluate`` and each rung group of the
pipeline call it.  A problem is posed on [0, T]: a time below 0 or
beyond T raises ``ValueError``.

``strong_viscosity_pipeline`` wraps that loop in the approximation loop:
coefficients and terminal data are replaced by smoothed versions at
increasing index n, each rung is evaluated at the requested probes under
common random numbers, and the report tracks the Cauchy behaviour of the
resulting value sequence.  Common random numbers make the forward part
of a probe the same for every rung whose coefficients are the same, so
those rungs form a group, one ``_evaluate_point`` call per probe, and
evaluate only their terminals and values on the shared pass, block by
block (all path-mode rungs, which smooth only the terminal, and Markov
rungs with constant or unmollified coefficients).
A path-mode rung's smoothed terminal applies its rank-(n + 3) factors to
a tile's windows (at t = 0 a view of Euler's step rows, neither copied
nor interpolated) and hands the arguments to ``_window_samples``, the
one evaluator of a path terminal on windows, which the forward samples
and the value at the horizon use too.  The final rung defines the
returned solution field.

The lookback benchmark carries its own closed form: for unit-diffusion,
driver-free dynamics the expected terminal running maximum is an explicit
function of the gap between the past maximum and the present value
(reflection principle), which ``lookback_oracle`` evaluates.
"""

from __future__ import annotations

import hashlib
import math
import struct
import warnings
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .bsde import (
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
from .sde import (
    DivergenceError,
    NoiseBundle,
    SdeSpec,
    TrajectoryBatch,
    _lanes,
    _trajectories,
    _usable_cores,
    bridge_corrected_max,
    euler_markov,
    euler_path_dependent,
)
from .smoothing import (
    CylindricalFunctional,
    _convolve,
    _mollifier_rule,
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
    is a path functional: a SupTerminal marker, a CylindricalFunctional, an
    object with a batch form ``evaluate_batch(WindowBatch) -> (m,)``, or a
    plain Path -> float callable.

    The forward blocks run on ``SolverConfig.workers`` lane threads,
    whatever the driver, so the terminal and callable coefficients may be
    called from several threads at once, each call on its own disjoint
    block of paths; they must not write state that another call reads.
    """

    mode: str
    b: object
    sigma: object
    driver: DriverSpec
    terminal: object
    horizon: float
    d: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("markov", "path"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "path" and self.d != 1:
            raise ValueError("path-dependent problems are scalar (d = 1)")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        term = self.terminal
        if self.mode == "markov" and not callable(term):
            raise ValueError(f"a markov-mode terminal must be callable on terminal states, got {term!r}")
        if self.mode == "path" and not (isinstance(term, (SupTerminal, CylindricalFunctional))
                                        or hasattr(term, "evaluate_batch") or callable(term)):
            raise ValueError("a path-mode terminal must be a SupTerminal, a CylindricalFunctional, "
                             f"have evaluate_batch or be callable on paths, got {term!r}")


@dataclass(frozen=True)
class SolverConfig:
    n_paths: int = 100_000
    n_steps: int = 100
    seed: int = 2024
    basis: RegressionBasisSpec | None = None
    workers: int = field(default_factory=_usable_cores)  # lanes of a forward pass
    bridge_max: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

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
    mollify_driver: bool = False
    quad_nodes: int = 12

    def __post_init__(self) -> None:
        idx = tuple(int(n) for n in self.indices)
        if any(b <= a for a, b in zip(idx, idx[1:])) or not idx:
            raise ValueError("smoothing indices must be strictly increasing and nonempty")
        if idx[0] < 1:
            raise ValueError(f"smoothing indices must be >= 1, got {idx[0]}")
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


# Paths per forward block, the unit the lanes take.  A streamed pass keeps
# only a block's terminal samples: about this many paths times the steps
# per lane, plus one float per path and rung.  A multiple of
# sde._NOISE_BLOCK, so that a block draws whole blocks of normals.
_FORWARD_BLOCK = 2048
# Paths per tile of a path problem's terminals: a tile's cut windows and a
# smoothed terminal's (n + 3) x 256 coordinates and m x 256 argument stay
# in cache and take about one noise scratch.  A divisor of _FORWARD_BLOCK.
_PATH_TILE = 256


@dataclass
class _Forward:
    """One tile of simulated paths at a point, as the path terminals read it; shared by every rung of a probe.

    ``offset`` is the index of the tile's first path among all paths.
    Holds the noise bundle of all paths (the bridge maximum draws its child
    stream at the tile's offset), the tile's trajectories and, built on
    first use, its look-back windows at the horizon (``windows``, cut, and
    ``smoother_windows``, a view of the step rows where the windows lie on
    the grid), so a tile is cut once for every rung.  The arrays are
    read-only: rungs that share the tile must all see the same samples.  A
    tile of a streamed pass is valid only until its lane advances, which
    writes the lane's next block into the same value buffer.
    """

    noise: NoiseBundle
    traj: TrajectoryBatch
    offset: int = 0

    @property
    def _window_nodes(self) -> np.ndarray:
        grid = self.traj.grid
        m = int(round(self.traj.prefix.horizon / grid.dt)) + 1
        return np.linspace(-self.traj.prefix.horizon, 0.0, m)

    @cached_property
    def windows(self) -> WindowBatch:
        xs = self._window_nodes
        wb = WindowBatch(xs, self.traj.window_values(self.traj.grid.n_steps, xs))
        wb.values.flags.writeable = False
        return wb

    @cached_property
    def smoother_windows(self) -> WindowBatch:
        """The windows the linear terminal smoother reads.

        An aligned window batch is the read-only view of its step rows
        (``TrajectoryBatch.step_window``): nothing is copied or
        interpolated.  Otherwise it is ``windows``, the C-ordered cut.
        """
        xs = self._window_nodes
        view = self.traj.step_window(self.traj.grid.n_steps, xs)
        return self.windows if view is None else WindowBatch(xs, view)


def _constant(coef) -> bool:
    """Whether Euler treats a coefficient as a constant: not callable, not cylindrical."""
    return not callable(coef) and not isinstance(coef, CylindricalFunctional)


def _checked(block, n: int) -> np.ndarray:
    """A block of terminal samples as floats; a ValueError unless it holds n of them."""
    block = np.asarray(block, dtype=float)
    if block.shape != (n,):
        raise ValueError(f"terminal samples shape {block.shape} != ({n},)")
    return block


def _finite(xi: np.ndarray) -> np.ndarray:
    """Terminal samples, checked to be finite; a ValueError counts the others."""
    n_bad = xi.size - int(np.count_nonzero(np.isfinite(xi)))
    if n_bad:
        raise ValueError(f"{n_bad} of {xi.size} terminal samples are not finite (NaN or inf)")
    return xi


class _AllPaths(NamedTuple):
    """The trajectories and increments of all paths of a forward pass, read-only."""

    traj: TrajectoryBatch
    dW: np.ndarray


def _terminal_samples(
    problems: Sequence[ProblemSpec], t: float, start, config: SolverConfig, keep_paths: bool = False
) -> tuple[list[np.ndarray], _AllPaths | None]:
    """The forward part of a point evaluation and the terminal samples of problems that share it.

    The problems share their mode, coefficients, horizon and whether their
    driver is zero; the first result holds one (n_paths,) array of checked
    samples per problem.  One function, ``block``, simulates the paths
    [p0, p1): it draws their increments, runs Euler, and writes every
    problem's samples into rows p0..p1 of the results, on the lanes.  A
    path problem's block is read in tiles of ``_PATH_TILE`` paths, each one
    ``_Forward`` that every problem's terminal reads in turn.

    A zero driver streams: a lane's scratch is its (n_steps + 1, d, block)
    value buffer, and a block steps on its columns [:, :, :p1 - p0], whose
    rows 1..n_steps take the increments that Euler then overwrites; the
    second result is None, so that no block outlives the pass.  A nonzero
    driver, or ``keep_paths``, keeps all paths for the backward induction:
    each block steps on its own columns [:, :, p0:p1] of step-major arrays
    of all paths, which the second result holds, read-only.

    The basis-size guard runs before any noise is drawn, whatever the
    driver.  A diverging path is reported by its index among all paths, the
    lowest one when several blocks diverge.  A block of samples of the
    wrong shape raises a ValueError, and so does a NaN or inf among a
    problem's samples.  Where ``bridge_max`` cannot take effect (a
    non-constant diffusion, a smoothed running maximum) it warns.
    """
    if config.bridge_max and any(isinstance(p.terminal, SupTerminal) and not _constant(p.sigma) for p in problems):
        warnings.warn("bridge-corrected maxima need a constant diffusion; falling back to the discrete maximum",
                      stacklevel=2)
    if config.bridge_max and any(isinstance(p.terminal, _LinearTerminalSmoother)
                                 and isinstance(p.terminal.inner, SupTerminal) for p in problems):
        warnings.warn("a smoothed running maximum is the discrete maximum of its smoothed argument; "
                      "bridge_max has no effect on it", stacklevel=2)
    problem = problems[0]
    _check_basis_size(config.resolved_basis(problem.mode).n_features(problem.d), config.n_paths)
    n_paths, n_steps, d = config.n_paths, config.n_steps, problem.d
    grid = Grid(t, problem.horizon, n_steps)
    noise = NoiseBundle(config.seed, n_paths, n_steps, d)
    spec = SdeSpec(problem.b, problem.sigma)
    euler = euler_markov if problem.mode == "markov" else euler_path_dependent
    keep = keep_paths or problem.driver.f is not None
    xi = [np.empty(n_paths) for _ in problems]
    if keep:
        values, dW = np.empty((n_steps + 1, d, n_paths)), np.empty((n_steps, d, n_paths))

    def block(p0: int, p1: int, buf: np.ndarray) -> None:
        rows = values[:, :, p0:p1] if keep else buf[:, :, :p1 - p0]
        increments = noise.increments(grid.dt, p0, p1, out=dW[:, :, p0:p1] if keep else rows[1:])
        try:
            traj = euler(spec, start, grid, increments, out=rows)
        except DivergenceError as err:
            raise DivergenceError(p0 + err.path, err.step) from None
        traj.values.flags.writeable = False
        if problem.mode == "markov":
            for r, prob in enumerate(problems):
                xi[r][p0:p1] = _checked(prob.terminal(traj.terminal()), p1 - p0)
            return
        for q0 in range(p0, p1, _PATH_TILE):
            q1 = min(q0 + _PATH_TILE, p1)
            fwd = _Forward(noise, replace(traj, values=traj.values[q0 - p0:q1 - p0]), q0)
            for r, prob in enumerate(problems):
                xi[r][q0:q1] = _checked(_terminal_samples_path(prob, fwd, config), q1 - q0)

    lane_shape = 0 if keep else (n_steps + 1, d, min(n_paths, _FORWARD_BLOCK))
    _lanes(block, n_paths, _FORWARD_BLOCK, config.workers, lane_shape)
    for row in xi:
        _finite(row)
    if not keep:
        return xi, None
    values.flags.writeable = dW.flags.writeable = False
    return xi, _AllPaths(_trajectories(grid, values, start), dW.transpose(2, 0, 1))


def _check_time(t: float, T: float) -> None:
    """A ValueError unless the evaluation time t lies in [0, T], up to 1e-12 beyond T."""
    if t < 0:
        raise ValueError(f"evaluation time {t} is negative: the problem is posed on [0, {T}]")
    if t > T + 1e-12:
        raise ValueError(f"evaluation time {t} beyond horizon {T}")


def _terminal_time_value(problem: ProblemSpec, t: float, start) -> float | None:
    """Check the point against the problem; at the horizon, its exact value: the checked sample of the start."""
    T = problem.horizon
    if problem.mode == "path" and abs(start.horizon - T) > 1e-12 * max(1.0, T):
        raise ValueError(f"history horizon {start.horizon} differs from problem horizon {T}")
    _check_time(t, T)
    if abs(t - T) >= 1e-12:
        return None
    if problem.mode == "markov":
        # one row shaped as traj.terminal() shapes the start: (1,) or (1, d)
        xi = problem.terminal(np.asarray(start, dtype=float)[None, ...])
    else:
        xi = _window_samples(problem.terminal, T, WindowBatch(start.nodes, start.values[None]))
    return float(_finite(_checked(xi, 1))[0])


def _evaluate_point(
    problems: Sequence[ProblemSpec], t: float, start, config: SolverConfig
) -> list[tuple[float, float]]:
    """Problems that share one forward pass at one point: each one's value and standard error.

    At the horizon, the exact values (the problems share their horizon).
    Otherwise the forward part runs once; then a zero driver gives the
    terminal sample mean, the induction's Y_0 up to rounding (see the
    module docstring), and a nonzero driver runs the induction on all the
    paths, whose features are built once, and reads its Y_0 and the
    standard error of its companion.  The path set dies with this call.
    """
    exact = [_terminal_time_value(problem, t, start) for problem in problems]
    if exact[0] is not None:
        return [(value, 0.0) for value in exact]
    xi, paths = _terminal_samples(problems, t, start, config)
    features = None if paths is None else make_features(config.resolved_basis(problems[0].mode), paths.traj)
    results = []
    for problem, row in zip(problems, xi):
        if problem.driver.f is None:
            results.append((_zero_driver_value(row), float(row.std(ddof=1) / np.sqrt(row.size))))
        else:
            sol = solve_bsde(problem.driver, row, features, paths.traj, paths.dW)
            results.append((sol.value, sol.std_error))
    return results


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
    return _evaluate_point([problem], t, x, config)[0]


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


def _window_samples(term, horizon: float, wb: WindowBatch) -> np.ndarray:
    """A path terminal on a batch of look-back windows: the running maximum, a cylindrical
    functional's base at the horizon, a batch form, else the callable path by path."""
    if isinstance(term, SupTerminal):
        return wb.values.max(axis=1)
    if isinstance(term, CylindricalFunctional):
        return np.asarray(term.base(horizon, term._integrals(horizon, wb.xs, wb.values)), dtype=float)
    if hasattr(term, "evaluate_batch"):
        return np.asarray(term.evaluate_batch(wb), dtype=float)
    return np.array([float(term(wb.path(i))) for i in range(wb.values.shape[0])])


def _terminal_samples_path(problem: ProblemSpec, fwd: _Forward, config: SolverConfig) -> np.ndarray:
    term, traj = problem.terminal, fwd.traj
    if isinstance(term, SupTerminal):
        past = _past_sup(traj.prefix, traj.grid.t_start)
        if config.bridge_max and _constant(problem.sigma):
            body = bridge_corrected_max(traj.values, traj.grid.dt, float(problem.sigma), fwd.noise.child(1),
                                        fwd.offset)
        else:  # _terminal_samples warned once if the bridge maximum was asked for
            body = traj.values.max(axis=1)
        return np.maximum(past, body)
    wb = fwd.smoother_windows if isinstance(term, _LinearTerminalSmoother) else fwd.windows
    return _window_samples(term, problem.horizon, wb)


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
    return _evaluate_point([problem], t, eta, config)[0]


def lookback_oracle(t: float, eta: Path, horizon: float) -> float:
    """Closed-form value of the driver-free unit-diffusion lookback problem.

    With tau = T - t and m the nonnegative gap between the supremum of the
    history over [-t, 0] and the present value, the expected terminal
    running maximum is

        eta(0) + m (2 Phi(m / sqrt(tau)) - 1)
               + sqrt(2 tau / pi) exp(-m^2 / (2 tau)),

    by the reflection principle, and evaluated as m erf(m / sqrt(2 tau)),
    since 2 Phi(z) - 1 = erf(z / sqrt(2)); that form has no cancellation
    near z = 0.  Only the last t units of history matter: older values
    have left the look-back window by time T, so the history must cover
    [-t, 0].
    """
    _check_time(t, horizon)
    if t > eta.horizon + 1e-12:
        raise ValueError(f"history of horizon {eta.horizon} does not cover [-{t}, 0]")
    tau = max(horizon - t, 0.0)
    if tau == 0.0:
        return float(np.max(eta.values))
    present = float(eta.values[-1])
    m = max(0.0, _past_sup(eta, t) - present)
    gauss_part = np.sqrt(2.0 * tau / np.pi) * np.exp(-(m * m) / (2.0 * tau))
    return present + m * math.erf(m / math.sqrt(2.0 * tau)) + gauss_part


# ---------------------------------------------------------------------------
# Smoothing pipeline


def _mollify_state_coefficient(coef, d: int, n: int, nodes: int, family: str):
    """Convolve a (t, x)-callable with the index-n state mollifier."""
    if _constant(coef):
        return coef  # constants are fixed points of the convolution
    pts, kernel = _mollifier_rule(d, n, nodes, family)

    def smoothed(t, x):
        x_arr = np.asarray(x, dtype=float)
        if d == 1 and x_arr.ndim == 1:  # scalar states arrive as (m,)
            return _convolve(lambda rows: coef(t, rows[:, 0]), x_arr[:, None], pts, kernel)
        return _convolve(lambda rows: coef(t, rows), x_arr, pts, kernel)  # (m,) or (m, d) for a drift

    return smoothed


def _mollify_driver_markov(driver: DriverSpec, d: int, n: int, nodes: int, family: str) -> DriverSpec:
    """Joint mollification of the generator in (x, y, z); q = 2d + 1."""
    if driver.f is None:
        return driver
    if d != 1:
        raise ValueError("driver mollification supports d = 1 only (q = 3)")
    pts, kernel = _mollifier_rule(3, n, nodes, family)
    f = driver.f
    # Accumulated node by node, not through _convolve: routed through its
    # row blocks, a 100k x 25 mollified linear-driver pipeline (2-core
    # Xeon) took 54 s against 12 s this way.

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
    """Batch form of the terminal smoothing ``smooth_terminal(inner, n, T)``.

    ``evaluate_batch`` takes the smoothed arguments, linear of rank n + 3
    in the samples, from ``smooth_terminal``'s ``argument_rows`` as m step
    rows, one column per path (a view of the step-major values,
    ``TrajectoryBatch.step_window``, is read with no copy), and hands
    their transpose to ``_window_samples`` as the windows of the wrapped
    terminal.  The forward pass hands it one tile of ``_PATH_TILE``
    paths, so its (n + 3) x 256 coordinates and m x 256 argument add
    about one noise scratch to a lane.
    """

    def __init__(self, inner, n: int, horizon: float):
        self.inner = inner
        self.horizon = horizon
        self._argument_rows = smooth_terminal(inner, n, horizon).argument_rows

    def evaluate_batch(self, wb: WindowBatch) -> np.ndarray:
        rows = self._argument_rows(wb.values)  # (m, paths): one column per window
        return _window_samples(self.inner, self.horizon, WindowBatch(wb.xs, rows.T))


def _smooth_rung(problem: ProblemSpec, n: int, schedule: ApproximationSchedule,
                 inner_k: int | None = None) -> ProblemSpec:
    fam = schedule.mollifier_family
    nodes = schedule.quad_nodes
    if problem.mode == "markov":
        b_n = _mollify_state_coefficient(problem.b, problem.d, n, nodes, fam)
        s_n = _mollify_state_coefficient(problem.sigma, problem.d, n, nodes, fam)
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
        return _evaluate_point([self.problem], t, probe, cfg)[0]


@dataclass
class PipelineReport:
    values: np.ndarray  # (n_rungs, n_probes)
    std_errors: np.ndarray
    cauchy_gaps: np.ndarray  # (n_rungs - 1, n_probes)
    converged: np.ndarray  # per probe
    field: SolutionField


def strong_viscosity_pipeline(
    problem: ProblemSpec,
    schedule: ApproximationSchedule,
    probes: Sequence[tuple[float, object]],
) -> PipelineReport:
    """Evaluate the smoothed-problem sequence at each probe point.

    Every rung shares the probe's seed (common random numbers), so the
    Cauchy gaps between consecutive rungs isolate the smoothing effect.
    Consecutive rungs whose drift and diffusion are the same objects share
    one forward pass per probe: it runs in path blocks, and each block's
    look-back windows feed every rung's terminal before the block is
    dropped; with a nonzero driver the rungs also share the regression
    features of the pass's paths.  The values are
    those of one ``evaluate_*`` call per rung and probe, bit for bit.  A
    probe is flagged non-convergent when its last gap both grew and
    exceeds three joint standard errors.
    """
    probes = list(probes)
    inner_k = None
    if problem.mode == "path" and isinstance(problem.terminal, CylindricalFunctional):
        inner_k = _select_terminal_inner_index(problem, schedule, probes)

    rungs = [
        _smooth_rung(problem, n, schedule, inner_k=None if inner_k is None else int(inner_k[r]))
        for r, n in enumerate(schedule.indices)
    ]
    groups: list[list[int]] = []  # runs of rungs whose drift and diffusion are the same objects
    for r, rung in enumerate(rungs):
        if r and rung.b is rungs[r - 1].b and rung.sigma is rungs[r - 1].sigma:
            groups[-1].append(r)
        else:
            groups.append([r])
    n_rungs = len(rungs)
    values = np.empty((n_rungs, len(probes)))
    errors = np.empty_like(values)
    for p, (t, probe) in enumerate(probes):
        cfg = replace(schedule.config, seed=_probe_seed(schedule.config.seed, t, probe))
        for group in groups:
            values[group, p], errors[group, p] = zip(*_evaluate_point([rungs[r] for r in group], t, probe, cfg))
    gaps = np.abs(np.diff(values, axis=0))
    converged = np.ones(len(probes), dtype=bool)
    if n_rungs >= 3:
        joint_se = np.sqrt(errors[-1] ** 2 + errors[-2] ** 2)
        converged = ~((gaps[-1] > gaps[-2]) & (gaps[-1] > 3.0 * joint_se))
    field = SolutionField(
        rungs[-1],
        schedule.config,
        provenance={
            "indices": list(schedule.indices),
            "seed": schedule.config.seed,
            "mollifier_family": schedule.mollifier_family,
            "final_index": schedule.indices[-1],
        },
    )
    return PipelineReport(values, errors, gaps, converged, field)


def _select_terminal_inner_index(problem, schedule, probes) -> np.ndarray:
    """Diagonal choice of the base-mollification scale for cylindrical terminals.

    The smoothed base depends on k alone, so each k is built once, however
    many stages n ask for it.
    """
    term: CylindricalFunctional = problem.terminal
    T = problem.horizon
    probe_paths = [p for (_, p) in probes if isinstance(p, Path)]
    if not probe_paths:
        probe_paths = [Path.constant(0.0, T)]
    feats = np.stack([term.features(T, p) for p in probe_paths])

    @cache
    def smoothed_values(k):
        if k < 1:
            return np.full(len(probe_paths), np.inf)
        smoothed = smooth_finite_dim(lambda F: term.base(T, F), term.n_features, k)
        return np.array([float(smoothed(f)) for f in feats])

    def targets(n):
        return np.array([float(np.asarray(term.base(T, f[None, :]))[0]) for f in feats])

    n_max = max(schedule.indices)
    ks = select_diagonal(lambda n, k: smoothed_values(k), targets, probe_paths, n_max=n_max, k_max=512)
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
    (lowered) step by step.  The point is checked as an evaluation's,
    before any noise is drawn, and must lie before the horizon.
    """
    if problem.mode != "markov":
        raise ValueError("the comparison experiment runs on the Markovian benchmark family")
    if _terminal_time_value(problem, t, x) is not None:
        raise ValueError(f"the comparison needs t < T: evaluation time {t} is the horizon {problem.horizon}")
    (xi,), (traj, dW) = _terminal_samples([problem], t, x, config, keep_paths=True)
    grid = traj.grid
    features = make_features(config.resolved_basis(problem.mode), traj)
    sol = solve_bsde(problem.driver, xi, features, traj, dW)

    tilt = slack * (problem.horizon - grid.times)[None, :]
    y_super = sol.Y + tilt
    y_sub = sol.Y - tilt
    tol = 3.0 * sol.std_error
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
