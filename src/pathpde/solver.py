"""User-facing evaluation of PDE solutions through their backward-SDE form.

``evaluate_markov`` and ``evaluate_ppde`` price a single space-time point
in two parts.  The forward part draws the noise and runs the forward
Euler scheme; the value part forms the terminal samples and runs the
regression backward induction on them.  With a zero driver the equation
is linear and its value is the Feynman-Kac expectation of the terminal
data, so the point value is the terminal sample mean, with the samples'
standard error.  That is the induction's own value: each of its
projections keeps the mean of its target and all paths start from one
state, so Y_0 is the terminal mean up to rounding.  No features or
solution arrays are built, and the forward part streams: noise, Euler and
terminal run on blocks of ``_FORWARD_BLOCK`` paths, and only the terminal
samples outlive a block.  Philox regenerates any block bit for bit and the
terminals act path by path, so the samples, and the mean and standard
error taken once over all of them, do not depend on the block size.
Inside a block, noise and bridge maximum spread their chunks of paths
over ``SolverConfig.workers`` threads, which join before Euler runs; no
value depends on their number.

``strong_viscosity_pipeline`` wraps them in the approximation loop:
coefficients and terminal data are replaced by smoothed versions at
increasing index n, each rung is evaluated at the requested probes under
common random numbers, and the report tracks the Cauchy behaviour of the
resulting value sequence.  Common random numbers make the forward part
of a probe the same for every rung whose coefficients are the same, so it
runs once per probe and those rungs evaluate only their terminals and
values on it, block by block (all path-mode rungs, which smooth only the
terminal, and Markov rungs with constant or unmollified coefficients).
A path-mode rung's smoothed terminal applies its rank-(n + 3) factors to
the block's windows; when the windows lie on the grid (a probe at t = 0)
they are a view of Euler's step rows, neither copied nor interpolated.
The final rung defines the returned solution field.

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
from functools import cached_property
from typing import Iterator, Sequence

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
from .sde import (
    _CHUNK_WORDS,
    DivergenceError,
    NoiseBundle,
    SdeSpec,
    TrajectoryBatch,
    _lanes,
    _step_rows,
    _usable_cores,
    euler_markov,
    euler_path_dependent,
    value_buffer_size,
)
from .smoothing import (
    CylindricalFunctional,
    FourierBasis,
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
    workers: int = field(default_factory=_usable_cores)  # threads of the noise and bridge maxima
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


def _pathwise_se(
    sol: BsdeSolution, driver: DriverSpec, features, terminal: np.ndarray
) -> float:
    """Cross-sectional error of the pathwise Feynman-Kac companion estimator."""
    comp = np.array(terminal, dtype=float)
    if driver.f is not None:
        for k in range(sol.grid.n_steps):
            comp += driver(sol.grid.times[k], features.state(k), sol.Y[:, k], sol.Z[:, k]) * sol.grid.dt
    return float(comp.std(ddof=1) / np.sqrt(comp.size))


# Paths per forward block of a zero-driver evaluation.  Only the terminal
# samples outlive a block, so the forward part holds about this many paths
# times the step count, plus one float per path and rung.
_FORWARD_BLOCK = 4096


@dataclass
class _Forward:
    """One simulated block of paths at a point, shared by every rung of a probe.

    ``offset`` is the index of the block's first path among all paths.
    Holds the noise bundle of all paths (the bridge maximum draws its child
    stream at the block's offset), the block's trajectories, its increments
    when a backward induction will read them (None otherwise), the
    regression basis, and, built on first use, the regression features of
    the trajectories and for a path problem the look-back windows at the
    horizon (``windows``, cut, and ``smoother_windows``, a view of the step
    rows where the windows lie on the grid).  The arrays are read-only:
    rungs that share the block must all see the same samples.  A block of
    a streamed pass is valid only until the pass advances, which writes
    the next block into the same value buffer.
    """

    noise: NoiseBundle
    dW: np.ndarray | None
    traj: TrajectoryBatch
    basis: RegressionBasisSpec | None = None
    offset: int = 0

    @cached_property
    def features(self):
        return make_features(self.basis, self.traj)

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


def _simulate_point(
    problem: ProblemSpec, t: float, start, config: SolverConfig, keep_increments: bool = False
) -> Iterator[_Forward]:
    """The forward part of a point evaluation: noise, increments and Euler.

    Yields the path set in blocks.  A zero driver runs blocks of
    ``_FORWARD_BLOCK`` paths.  Every block goes into the leading part of
    one value buffer that belongs to the pass, sized for a full block, so a
    block lives until the next one is simulated: its increments are drawn
    into the buffer's rows 1..n_steps, which Euler overwrites with the
    values.  A nonzero driver, or ``keep_increments``, runs one block of
    all paths and keeps its increments, because the backward induction
    reads the whole arrays.  The basis-size guard runs before any noise is
    drawn, whatever the driver.  A diverging path is reported by its index
    among all paths.
    """
    basis = config.resolved_basis(problem.mode)
    _check_basis_size(basis.n_features(problem.d), config.n_paths)
    grid = Grid(t, problem.horizon, config.n_steps)
    noise = NoiseBundle(config.seed, config.n_paths, config.n_steps, problem.d)
    spec = SdeSpec(problem.b, problem.sigma)
    whole = keep_increments or problem.driver.f is not None
    block = config.n_paths if whole else min(_FORWARD_BLOCK, config.n_paths)
    euler = euler_markov if problem.mode == "markov" else euler_path_dependent
    buf = np.empty(value_buffer_size(config.n_steps, problem.d, block))
    for p0 in range(0, config.n_paths, block):
        p1 = min(p0 + block, config.n_paths)
        rows = None if whole else _step_rows(buf, config.n_steps, problem.d, p1 - p0)[1:]
        dW = noise.increments(grid.dt, p0, p1, out=rows, workers=config.workers)
        try:
            traj = euler(spec, start, grid, dW, out=buf)
        except DivergenceError as err:
            raise DivergenceError(p0 + err.path, err.step) from None
        traj.values.flags.writeable = False
        if whole:
            dW.flags.writeable = False
        else:
            dW = None
        yield _Forward(noise, dW, traj, basis, p0)


def _terminal_samples(
    problems: Sequence[ProblemSpec], t: float, start, config: SolverConfig, keep_increments: bool = False
) -> tuple[list[np.ndarray], _Forward | None]:
    """Terminal samples of problems that share one forward pass, checked.

    The problems share their mode, coefficients, horizon and whether their
    driver is zero; the returned list holds one (n_paths,) array of
    samples per problem.  The second result is the one block of all
    paths when the pass ran in one block, as it does when the induction
    will run, and None otherwise, so that no block outlives its pass.  A
    block of samples of the wrong shape raises a ValueError, and so does a
    NaN or inf among a problem's samples.
    """
    for problem in problems:
        if config.bridge_max and isinstance(problem.terminal, SupTerminal) and not isinstance(
            problem.sigma, (int, float)
        ):
            warnings.warn(
                "bridge-corrected maxima need a constant diffusion; falling back to the discrete maximum",
                stacklevel=2,
            )
    n_paths = config.n_paths
    xi = [np.empty(n_paths) for _ in problems]
    for fwd in _simulate_point(problems[0], t, start, config, keep_increments):
        p0, p1 = fwd.offset, fwd.offset + fwd.traj.n_paths
        for r, problem in enumerate(problems):
            if problem.mode == "markov":
                block = np.asarray(problem.terminal(fwd.traj.terminal()), dtype=float)
            else:
                block = _terminal_samples_path(problem, fwd, config)
            if block.shape != (p1 - p0,):
                raise ValueError(f"terminal samples shape {block.shape} != ({p1 - p0},)")
            if p1 - p0 == n_paths:
                xi[r] = block  # one block of all paths: no copy, and the untouched row is freed
            else:
                xi[r][p0:p1] = block  # a copy, so no block outlives its pass
    for row in xi:
        n_bad = n_paths - int(np.count_nonzero(np.isfinite(row)))
        if n_bad:
            raise ValueError(f"{n_bad} of {n_paths} terminal samples are not finite (NaN or inf)")
    return xi, fwd if fwd.traj.n_paths == n_paths else None


def _point_value(problem: ProblemSpec, xi: np.ndarray, fwd: _Forward | None) -> tuple[float, float]:
    """The value part of a point evaluation: value and standard error.

    A zero driver returns the mean of the terminal samples xi and builds
    no features: every projection keeps the mean of its target (the
    intercept is never penalised) and at the first step all paths share
    one state, so the induction's Y_0 is that mean up to rounding.  A
    nonzero driver runs the induction on ``fwd``, one block of all paths;
    a zero driver reads no ``fwd``, which is None for a streamed pass.
    """
    if problem.driver.f is None:
        return _zero_driver_value(xi), float(xi.std(ddof=1) / np.sqrt(xi.size))
    sol = solve_bsde(problem.driver, xi, fwd.features, fwd.traj, fwd.dW)
    return sol.value, _pathwise_se(sol, problem.driver, fwd.features, xi)


def _terminal_time_value(problem: ProblemSpec, t: float, start) -> float | None:
    """Check the point against the problem; its exact value when t is the horizon."""
    T = problem.horizon
    if problem.mode == "path" and abs(start.horizon - T) > 1e-12 * max(1.0, T):
        raise ValueError(f"history horizon {start.horizon} differs from problem horizon {T}")
    if t > T + 1e-12:
        raise ValueError(f"evaluation time {t} beyond horizon {T}")
    if abs(t - T) >= 1e-12:
        return None
    term = problem.terminal
    if problem.mode == "markov":
        # one row shaped as traj.terminal() shapes the start: (1,) or (1, d)
        return float(np.asarray(term(np.asarray(start, dtype=float)[None, ...]))[0])
    if isinstance(term, SupTerminal):
        return float(np.max(start.values))
    if isinstance(term, CylindricalFunctional):
        return term.value(T, start)
    return float(term(start))


def _evaluate_point(problem: ProblemSpec, t: float, start, config: SolverConfig) -> tuple[float, float]:
    """One point: exact at the horizon, else the forward part, then the value part."""
    exact = _terminal_time_value(problem, t, start)
    if exact is not None:
        return exact, 0.0
    (xi,), fwd = _terminal_samples([problem], t, start, config)
    return _point_value(problem, xi, fwd)


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
    return _evaluate_point(problem, t, x, config)


def bridge_corrected_max(
    values: np.ndarray, dt: float, sigma: float, noise: NoiseBundle, offset: int = 0, workers: int = 1
) -> np.ndarray:
    """Running maximum with per-step Brownian-bridge maxima.

    Conditionally on the step endpoints, the in-step maximum of a constant
    diffusion bridge is (a + b + sqrt((b-a)^2 - 2 sigma^2 dt ln U)) / 2.
    The plain discrete maximum underestimates by O(sqrt(dt)); this
    estimator is exact in law for constant sigma.  ``noise`` supplies the
    auxiliary uniforms, streamed in path blocks: row i of ``values`` reads
    path ``offset + i`` of that stream, so a block of a forward pass gets
    the uniforms it would get in one pass over all paths.  The work runs
    on cache-sized chunks of paths on up to ``workers`` threads: the log
    and the scale act in place on the chunk's uniforms in their path-major
    Philox layout, which are then transposed once and combined with the
    step rows ``values.T``, (b - a)^2 taking their place.  The maximum is
    halved once, which rounds as halving every value: x -> x / 2 is monotone.
    """
    n_paths = values.shape[0]
    if sigma == 0.0:
        return values.max(axis=1)
    rows = values.T  # (steps + 1, n)
    n_steps = rows.shape[0] - 1
    out = np.empty(n_paths)
    chunk = max(1, min(n_paths, _CHUNK_WORDS // n_steps))
    wpp, d = noise._words_per_path, noise.d
    scale = -2.0 * sigma**2 * dt

    def work(q0: int, q1: int, scratch: np.ndarray) -> None:
        q = q1 - q0
        words, m = scratch[: q * wpp], scratch[chunk * wpp : chunk * wpp + n_steps * q].reshape(n_steps, q)
        u = noise._words(offset + q0, offset + q1, words)[:, : n_steps * d : d]
        np.log(u, out=u)
        u *= scale
        m[...] = u.T
        d2 = words[: n_steps * q].reshape(n_steps, q)
        a, b = rows[:-1, q0:q1], rows[1:, q0:q1]
        np.subtract(b, a, out=d2)
        np.square(d2, out=d2)
        m += d2
        np.sqrt(m, out=m)
        m += b
        m += a
        m.max(axis=0, out=out[q0:q1])

    _lanes(work, n_paths, chunk, workers, chunk * (wpp + n_steps))
    out *= 0.5
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


def _terminal_samples_path(problem: ProblemSpec, fwd: _Forward, config: SolverConfig) -> np.ndarray:
    term = problem.terminal
    traj = fwd.traj
    if isinstance(term, SupTerminal):
        past = _past_sup(traj.prefix, traj.grid.t_start)
        if config.bridge_max and isinstance(problem.sigma, (int, float)):
            body = bridge_corrected_max(
                traj.values, traj.grid.dt, float(problem.sigma), fwd.noise.child(1), fwd.offset, config.workers
            )
        else:  # _terminal_samples warned once if the bridge maximum was asked for
            body = traj.values.max(axis=1)
        return np.maximum(past, body)
    if isinstance(term, _LinearTerminalSmoother):
        return term.evaluate_batch(fwd.smoother_windows)
    wb = fwd.windows
    if isinstance(term, CylindricalFunctional):
        F = term._integrals(problem.horizon, wb.xs, wb.values)
        return np.asarray(term.base(problem.horizon, F), dtype=float)
    if hasattr(term, "evaluate_batch"):
        return np.asarray(term.evaluate_batch(wb), dtype=float)
    return np.array([float(term(wb.path(i))) for i in range(wb.values.shape[0])])


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
    return _evaluate_point(problem, t, eta, config)


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

    The smoothed argument (projection plus endpoint correction) is linear
    in the window samples, of rank n + 3 on m nodes.  ``evaluate_batch``
    takes its factors A (m, n + 3) and B (n + 3, m) from
    ``smooth_terminal`` once per window node count and applies them to a
    batch of windows as ``B.T @ (A.T @ values.T)``: the arguments come out
    as m step rows, one column per path, and a window batch that is a view
    of the step-major values (``TrajectoryBatch.step_window``) is read
    with no copy.  A single window is doubled before the products, so
    that it too goes through BLAS gemm: numpy hands a one-column product
    to gemv, which sums in another order, and a streamed pass whose last
    block holds one path would then round that path differently.  The
    running maximum then reduces over the rows; any other wrapped
    functional is applied path by path.
    """

    def __init__(self, inner, n: int, horizon: float):
        self.inner = inner
        self.horizon = horizon
        H = (lambda p: float(np.max(p.values))) if isinstance(inner, SupTerminal) else inner
        self._smoothed = smooth_terminal(H, n, horizon)
        self._factors: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def evaluate_batch(self, wb: WindowBatch) -> np.ndarray:
        m = wb.xs.size
        if m not in self._factors:
            self._factors[m] = self._smoothed.factors(m)
        A, B = self._factors[m]
        values = wb.values
        if values.shape[0] == 1:  # numpy hands one column to gemv, which rounds unlike gemm
            values = np.repeat(values, 2, axis=0)
        rows = (B.T @ (A.T @ values.T))[:, : wb.values.shape[0]]  # (m, n_paths)
        if isinstance(self.inner, SupTerminal):
            return rows.max(axis=0)
        return np.array([float(self.inner(Path(self.horizon, row))) for row in rows.T])

    def __call__(self, eta: Path) -> float:
        return self._smoothed(eta)


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


def strong_viscosity_pipeline(
    problem: ProblemSpec,
    schedule: ApproximationSchedule,
    probes: Sequence[tuple[float, object]],
) -> PipelineReport:
    """Evaluate the smoothed-problem sequence at each probe point.

    Every rung shares the probe's seed (common random numbers), so the
    Cauchy gaps between consecutive rungs isolate the smoothing effect.
    Consecutive rungs whose drift and diffusion are the same objects share
    one forward pass per probe: for a zero driver it runs in path blocks,
    and each block's look-back windows feed every rung's terminal before
    the block is dropped; for a nonzero driver it is one block of all
    paths, whose regression features the rungs share.  The values are
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
        exact = [_terminal_time_value(rung, t, probe) for rung in rungs]
        if exact[0] is not None:  # every rung has the same horizon
            values[:, p], errors[:, p] = exact, 0.0
            continue
        cfg = replace(schedule.config, seed=_probe_seed(schedule.config.seed, t, probe))
        for group in groups:
            xi, fwd = _terminal_samples([rungs[r] for r in group], t, probe, cfg)
            for r, row in zip(group, xi):
                values[r, p], errors[r, p] = _point_value(rungs[r], row, fwd)
            xi = fwd = None  # release the path set before the next group simulates
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
    (xi,), fwd = _terminal_samples([problem], t, x, config, keep_increments=True)
    traj, dW, grid = fwd.traj, fwd.dW, fwd.traj.grid
    features = fwd.features
    sol = solve_bsde(problem.driver, xi, features, traj, dW)

    tilt = slack * (problem.horizon - grid.times)[None, :]
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
