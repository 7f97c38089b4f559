"""Forward simulation: Euler schemes for state and path-dependent dynamics.

Noise is keyed by a 64-bit seed plus a 64-bit stream tag, which form one
128-bit key.  The one unit in which noise is drawn is the block of
``_NOISE_BLOCK`` (256) paths: block j takes numpy's ziggurat normals, or
its uniforms, from its own SFC64 stream, seeded by
``SeedSequence(key, spawn_key=(j,))``, so a value at (path, step,
component) is a pure function of the key, the block and the place in it.
Any block regenerates bit for bit and any range of paths is a slice of
the one-call array: values depend on the block size, never on the
caller's range.

The forward pass is step-major.  A block's draws are path-major, so one
writer, ``NoiseBundle._rows``, draws every block, normals or uniforms,
into a (256, n_steps, d) scratch and writes it once, transposed, into a
(n_steps, d, n_paths) buffer: scaled by sqrt(dt) for ``increments``,
copied for ``uniforms``.  Both return its path-major view;
``bridge_corrected_max`` is arithmetic on a tile's uniform rows, and
nothing outside this module knows the layout.  The noise runs on the
thread that calls it.  ``_lanes`` is the one parallel axis, and a forward pass
(``solver``) its one caller: it deals the pass's blocks of paths to up to
``workers`` threads, and each lane draws, steps and evaluates its blocks,
noise and bridge maximum included, on that lane alone, so no bit depends
on how many.  While more than one lane runs, OpenBLAS is held to one
thread (``_BlasThreads``), process-wide.  The Euler schemes step on the
rows of a (n_steps + 1, d, n_paths) array, contiguous in the paths, and
``TrajectoryBatch.values`` is its path-major view (``_trajectories``, for
them and the forward pass alike), so ``values.T`` (or
``values.transpose(1, 2, 0)``) gives the step rows back without a copy.
Every value is computed by the same arithmetic as on a path-major
layout, so the layout moves no bit; where numpy's order of summation
depends on the layout (a row reduction, an einsum contraction), the
operands are C-ordered, as they were.

Both schemes run one recursion, ``_euler``, on the step rows of all
their paths, on the thread that calls them (a lane, in a forward pass).
They differ only in the coefficients they build: floats, or step
functions (k, X) -> array that read a C-ordered copy of the state, a
feature tracker or a rolling window.  Floats take one add per step and
one guard per block (``_euler_constant``), with the bits of the general
step.
"""

from __future__ import annotations

import ctypes
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .paths import Grid, Path, WindowBatch
from .smoothing import CylindricalFunctional

__all__ = [
    "NoiseBundle",
    "bridge_corrected_max",
    "SdeSpec",
    "TrajectoryBatch",
    "DivergenceError",
    "euler_markov",
    "euler_path_dependent",
    "coupled_sup_error",
    "moment_check",
    "bridge_refine",
    "trajectories_to_csv",
    "trajectories_to_binary",
    "trajectories_from_binary",
]

_MASK64 = (1 << 64) - 1
_BINARY_MAGIC = b"PPDETRJ1"
# Paths per noise block, the one unit in which normals and uniforms are drawn:
# their values depend on it, never on the workers or on the caller's range.
# A divisor of solver._FORWARD_BLOCK, so a forward block draws whole blocks.
_NOISE_BLOCK = 256


class DivergenceError(RuntimeError):
    """A simulated path left the admissible range; ``path`` is its index among all paths."""

    def __init__(self, path: int, step: int):
        super().__init__(f"trajectory diverged at path {path}, step {step}")
        self.path = path
        self.step = step


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity, where the platform has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class _BlasThreads:
    """OpenBLAS's thread count, and a hold of it at one thread while lanes run.

    numpy's bundled OpenBLAS is reached through ctypes on first use.  Its
    ``scipy_openblas_{get,set}_num_threads64_`` symbols are named after the
    ``scipy-openblas`` build that numpy ships, not after scipy, which is
    never imported; where they are absent, ``get`` returns None and the
    hold does nothing.  The count is process-wide, so the holds of
    concurrent evaluations share it: the first saves the caller's setting
    and the last restores it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._holders = 0
        self._prior = 0

    @cached_property
    def _calls(self) -> tuple[Callable, Callable] | None:
        try:
            lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (AttributeError, OSError):
            return None
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_

    def get(self) -> int | None:
        return None if self._calls is None else self._calls[0]()

    def set(self, threads: int) -> None:
        if self._calls is not None:
            self._calls[1](threads)

    def __enter__(self) -> None:
        with self._lock:
            if self._holders == 0 and self._calls is not None:
                self._prior = self.get()
                self.set(1)
            self._holders += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._holders -= 1
            if self._holders == 0 and self._calls is not None:
                self.set(self._prior)


_BLAS = _BlasThreads()


def _lanes(work: Callable[[int, int, np.ndarray], None], n: int, chunk: int, workers: int, shape: tuple | int) -> None:
    """Run ``work(q0, q1, scratch)`` on the chunks [q0, q1) of ``chunk`` paths among n.

    The forward pass (``solver._terminal_samples``) is the one caller.  The
    chunks are dealt round-robin to up to ``workers`` lanes, each with one
    scratch array of ``shape`` that its chunks reuse; only more than one
    lane takes a thread pool, and while it runs OpenBLAS is held to one
    thread (``_BLAS``), so that its own threads do not contend with the
    lanes.  A lane runs its chunks in order and stops at one that raises,
    or before any chunk past one that raised on another lane; the lowest
    raising chunk's error is raised, so it does not depend on ``workers``.
    """
    scratch = [np.empty(shape) for _ in range(max(1, min(workers, -(-n // chunk))))]
    lock = threading.Lock()
    failed: list = [n, None]  # the lowest chunk that raised, and its error

    def lane(i: int) -> None:
        for q0 in range(i * chunk, n, len(scratch) * chunk):
            if failed[0] < q0:
                return
            try:
                work(q0, min(q0 + chunk, n), scratch[i])
            except Exception as err:
                with lock:
                    if q0 < failed[0]:
                        failed[:] = q0, err
                return

    if len(scratch) == 1:
        lane(0)
    else:
        with _BLAS, ThreadPoolExecutor(max_workers=len(scratch)) as pool:
            list(pool.map(lane, range(len(scratch))))
    if failed[1] is not None:
        raise failed[1]


@dataclass(frozen=True)
class NoiseBundle:
    """Reproducible Gaussian increments and uniforms for n_paths x n_steps x d.

    Everything is drawn per block of ``_NOISE_BLOCK`` paths: block j reads
    an SFC64 stream seeded by ``SeedSequence(key, spawn_key=(j,))``, where
    the key is the seed in the low 64 bits and the tag in the high 64, so
    a block regenerates bit for bit and ``increments(dt, p0, p1)`` and
    ``uniforms(p0, p1)`` are the slices [p0, p1) of the one-call arrays,
    whatever the range.  The key is one integer, which ``SeedSequence``
    pads to four words before it appends j, so no two (seed, tag, block)
    triples share a stream; a tuple of the three would be flattened into
    32-bit words, and (2^32 + 5, 1) would collide with (5, 2^32 + 1).  A
    block's normals and its uniforms read the same stream, so take the two
    from different tags.  ``child(tag)`` derives an independent stream
    from the same seed (used for bridge refinement and maximum sampling).
    """

    seed: int
    n_paths: int
    n_steps: int
    d: int = 1
    tag: int = 0

    def __post_init__(self) -> None:
        if self.n_paths < 1 or self.n_steps < 1 or self.d < 1:
            raise ValueError("n_paths, n_steps, d must all be positive")

    def _generator(self, j: int) -> np.random.Generator:
        """Block j's generator: SFC64 seeded by this bundle's 128-bit key, spawned at j."""
        key = (self.seed & _MASK64) | ((self.tag & _MASK64) << 64)
        return np.random.Generator(np.random.SFC64(np.random.SeedSequence(key, spawn_key=(j,))))

    def _rows(self, p0: int, p1: int | None, scale: float | None, out: np.ndarray | None = None) -> np.ndarray:
        """The path-major view of the step rows (n_steps, d, p1 - p0), ``out`` if given, of paths [p0, p1).

        Each block that covers the range draws path-major from its first
        path into the leading rows of a (256, n_steps, d) scratch, and its
        paths in the range are written transposed into their columns:
        normals scaled by ``scale``, or, with no scale, uniforms copied.
        """
        p1 = self.n_paths if p1 is None else p1
        steps, d, P = self.n_steps, self.d, _NOISE_BLOCK
        out = np.empty((steps, d, p1 - p0)) if out is None else out
        scratch = np.empty((min(P, p1 - p0 // P * P), steps, d))
        for j in range(p0 // P, -(-p1 // P) if p1 > p0 else 0):
            a, e = max(p0, j * P), min(p1, (j + 1) * P)
            z = scratch[: e - j * P]
            block = z[a - j * P :].transpose(1, 2, 0)
            gen = self._generator(j)
            if scale is None:
                gen.random(out=z)
                out[:, :, a - p0 : e - p0] = block
            else:
                gen.standard_normal(out=z)
                np.multiply(block, scale, out=out[:, :, a - p0 : e - p0])
        return out.transpose(2, 0, 1)

    def uniforms(self, p0: int = 0, p1: int | None = None) -> np.ndarray:
        """Uniforms in (0, 1), shape (p1 - p0, n_steps, d).

        The result is the path-major view of their step-major (n_steps, d,
        p1 - p0) rows, so ``uniforms(p0, p1)[:, :, 0].T`` gives the rows of
        the first component without a copy.  Exact zeros (probability
        2^-53 per draw) are clamped to 2^-54, so that their logarithm is
        finite.
        """
        u = self._rows(p0, p1, None)
        return np.maximum(u, 2.0**-54, out=u)

    def increments(self, dt: float, p0: int = 0, p1: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
        """Brownian increments N(0, dt), shape (p1 - p0, n_steps, d).

        The result is the path-major view of a step-major (n_steps, d,
        p1 - p0) buffer, ``out`` when given (say rows 1..n_steps of an Euler
        value buffer), so each step's increments are contiguous rows; the
        normals are scaled by sqrt(dt) as they are written.
        """
        return self._rows(p0, p1, np.sqrt(dt), out)

    def child(self, tag: int, d: int | None = None) -> "NoiseBundle":
        if tag == self.tag:
            raise ValueError("child stream must use a distinct tag")
        return NoiseBundle(self.seed, self.n_paths, self.n_steps, self.d if d is None else d, tag=tag)


def bridge_corrected_max(
    values: np.ndarray, dt: float, sigma: float, noise: NoiseBundle, offset: int = 0
) -> np.ndarray:
    """Running maximum with per-step Brownian-bridge maxima.

    Conditionally on the step endpoints, the in-step maximum of a constant
    diffusion bridge is (a + b + sqrt((b-a)^2 - 2 sigma^2 dt ln U)) / 2.
    The plain discrete maximum underestimates by O(sqrt(dt)); this
    estimator is exact in law for constant sigma.  ``noise`` supplies the
    auxiliary uniforms, its first component: row i of ``values`` reads
    path ``offset + i`` of ``noise.uniforms()[:, :, 0]``, so a block of a
    forward pass (a tile of 256 paths, one noise block) gets the uniforms
    it would get in one pass over all paths.  The rest is arithmetic on
    step rows: the uniform rows are logged and scaled in place and
    combined with ``values.T`` and their squared differences (b - a)^2.
    The maximum is halved once, which rounds as halving every value:
    x -> x / 2 is monotone.
    """
    if sigma == 0.0:
        return values.max(axis=1)
    rows = values.T  # (steps + 1, n)
    lo, hi = rows[:-1], rows[1:]
    m = noise.uniforms(offset, offset + values.shape[0])[:, :, 0].T  # (steps, n)
    np.log(m, out=m)
    m *= -2.0 * sigma**2 * dt
    d2 = np.subtract(hi, lo)
    np.square(d2, out=d2)
    m += d2
    np.sqrt(m, out=m)
    m += hi
    m += lo
    out = m.max(axis=0)
    out *= 0.5
    return out


@dataclass(frozen=True)
class SdeSpec:
    """Drift and diffusion, either state functions or path functionals.

    Which scheme reads them decides how: ``euler_markov`` calls them as
    (t, x) -> array over paths with x of shape (m,) or (m, d);
    ``euler_path_dependent`` takes CylindricalFunctional instances
    (evaluated through incrementally tracked pathwise integrals) or
    callables (t, WindowBatch) -> (m,).  Scalars are accepted and treated
    as constants by both.
    """

    b: Callable | CylindricalFunctional | float
    sigma: Callable | CylindricalFunctional | float


@dataclass
class TrajectoryBatch:
    """Forward values for many paths on one grid, with a shared history.

    ``values`` is path-major, (n_paths, n_steps + 1[, d]).  The Euler
    schemes return it as the view of a step-major (n_steps + 1[, d],
    n_paths) buffer, so ``values.T`` (scalar) or
    ``values.transpose(1, 2, 0)`` (vector) are contiguous step rows, and
    the readers here and in the backward solver take those rows without
    a copy.  Any other layout works too, only with strided reads.

    A history path covers [t - T, t] for the grid start t; continuity
    requires its present value to equal every path's first value exactly.
    """

    grid: Grid
    values: np.ndarray  # (n_paths, n_steps + 1) or (n_paths, n_steps + 1, d)
    prefix: Path | None = None

    def __post_init__(self) -> None:
        if self.prefix is not None and np.any(self.values[:, 0] != self.prefix.values[-1]):
            raise ValueError("history present value must equal the first value of every path exactly")

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return 1 if self.values.ndim == 2 else self.values.shape[2]

    def terminal(self) -> np.ndarray:
        return self.values[:, -1]

    def window_values(self, k: int, xs: np.ndarray) -> np.ndarray:
        """Materialised look-back slice at grid index k on node layout xs.

        Shape (n_paths, xs.size), C-ordered: row i is path i's window, as
        on a path-major layout, so a terminal reducing rows adds them in
        the same order whatever the layout of the values.  An aligned
        window (see ``step_window``) is a copy of its step rows.  Otherwise
        each node interpolates between two step rows: the cut forms one row
        per node from the step rows and copies their transpose, so it holds
        three (n_paths, xs.size) arrays; the forward pass hands it one
        256-path tile (``solver._PATH_TILE``).
        """
        if self.prefix is None:
            raise ValueError("window extraction requires a history path")
        if self.values.ndim != 2:
            raise ValueError("windows are defined for scalar trajectories only")
        aligned = self.step_window(k, xs)
        if aligned is not None:
            return np.ascontiguousarray(aligned)
        t0, dt, n_steps = self.grid.t_start, self.grid.dt, self.grid.n_steps
        taus = self.grid.times[k] + xs
        history = taus <= t0
        pre_vals = self.prefix(np.clip(taus - t0, -self.prefix.horizon, 0.0))[history, None]
        pos = np.minimum(np.maximum((taus - t0) / dt, 0.0), n_steps)
        i0 = np.minimum(pos.astype(int), n_steps - 1)
        i1 = i0 + 1
        w = (pos - i0)[:, None]
        rows = self.values.T
        cut = rows[i0] * (1.0 - w)
        cut += rows[i1] * w
        cut[history] = pre_vals
        cut[-1] = rows[k]
        return cut.T.copy()

    def step_window(self, k: int, xs: np.ndarray) -> np.ndarray | None:
        """The window at grid index k on nodes xs as a view of the values, if aligned; else None.

        A window is aligned when xs are the uniform nodes of [xs[0], 0] at
        spacing ``grid.dt`` (the test of ``_prefix_on_dt_layout``) and it
        lies inside the simulated grid (k >= m - 1 for m nodes).  Its
        samples are then the values at steps k - m + 1..k, and the result
        is the (n_paths, m) view ``values[:, k - m + 1 : k + 1]``, whose
        transpose is m contiguous step rows of the step-major buffer.
        """
        m = xs.size
        if self.values.ndim != 2 or m < 2 or k < m - 1 or _dt_node_count(-xs[0], self.grid.dt) != m:
            return None
        if not np.array_equal(xs, np.linspace(xs[0], 0.0, m)):
            return None
        return self.values[:, k - m + 1 : k + 1]


def _apply_sigma(sig_val, dw: np.ndarray) -> np.ndarray:
    """Diffusion contraction for one step: supports scalar, diagonal, full.

    A full matrix contracts with C-ordered increments: einsum rounds a sum
    over the rows of a transposed step row differently.
    """
    if not isinstance(sig_val, float) and sig_val.ndim == 3:  # (m, d, d) matrix
        return np.einsum("mij,mj->mi", sig_val, np.ascontiguousarray(dw))
    return sig_val * dw  # a float, (m,) scalar state, (m, d) diagonal or broadcastable


def _guard(x: np.ndarray, step: int) -> None:
    """Raise on the first bad path of the state row x.

    One reduction per step finds NaN, +-inf and values beyond 1e12; the
    full mask is built only to name the failing path.
    """
    if not np.abs(x).max() <= 1e12:
        bad = ~np.isfinite(x) | (np.abs(x) > 1e12)
        idx = int(np.argmax(bad.reshape(bad.shape[0], -1).any(axis=1)))
        raise DivergenceError(idx, step)


def _check_increments(dW: np.ndarray, grid: Grid) -> None:
    if dW.ndim != 3 or dW.shape[1] != grid.n_steps:
        raise ValueError(f"increments of shape {dW.shape} do not match (n_paths, {grid.n_steps}, d)")


def _trajectories(grid: Grid, V: np.ndarray, start) -> TrajectoryBatch:
    """The paths from ``start`` whose values are the path-major view of the step-major buffer V.

    A vector start gives (n_paths, n_steps + 1, d), any other (n_paths, n_steps + 1); a ``Path`` is their history.
    """
    if isinstance(start, Path):
        return TrajectoryBatch(grid, V[:, 0].T, prefix=start)
    return TrajectoryBatch(grid, V.transpose(2, 0, 1) if np.ndim(start) else V[:, 0].T)


def _euler(
    x0: np.ndarray, grid: Grid, dW: np.ndarray, b, sigma, after: Callable | None, out: np.ndarray | None
) -> np.ndarray:
    """The Euler recursion X_{k+1} = X_k + b dt + sigma dW of both schemes.

    Returns ``out``, the step-major float64 (n_steps + 1, d, n_paths)
    value buffer of any strides (a new one when None), or raises
    ``ValueError``.  The state is a value per path for a 0-d x0 and a
    d-vector per path otherwise; step k reads the state X_k and the
    increments as rows of that buffer and of dW, (m,) or (m, d) for m
    paths.  Each coefficient is a float or a step function
    (k, X) -> array, and ``after`` is None or a hook (k, X, row) that
    advances the coefficients' state once the row of X_{k+1} is written.
    The increments may be rows 1..n_steps of the value buffer itself:
    step k forms sigma dW_k before it overwrites their row.

    Step functions read X_k, so each such step is guarded before the next
    one runs.  Constant coefficients take ``_euler_constant``, which
    guards the block once.
    """
    n_paths, n_steps, d = dW.shape
    shape = (n_steps + 1, d, n_paths)
    V = np.empty(shape) if out is None else out
    if V.shape != shape or V.dtype != np.float64:
        raise ValueError(f"value buffer must be a float64 array of shape {shape}, got {V.dtype} {V.shape}")
    if x0.ndim:
        R, N = V.transpose(0, 2, 1), dW.transpose(1, 0, 2)  # (steps, n, d)
    else:
        R, N = V[:, 0], dW[:, :, 0].T  # (steps, n)
    dt = grid.dt
    R[0] = x0
    if not (callable(b) or callable(sigma) or after is not None):
        _euler_constant(x0, b * dt, sigma, V, dW.transpose(1, 2, 0))
        steps = V[1:]
        if not (steps.max() <= 1e12 and steps.min() >= -1e12):  # one guard per block; NaN fails both
            for k in range(1, n_steps + 1):
                _guard(R[k], k)
        return V
    for k in range(n_steps):
        X, row = R[k], R[k + 1]
        b_dt = (b(k, X) if callable(b) else b) * dt
        dX = _apply_sigma(sigma(k, X) if callable(sigma) else sigma, N[k])
        np.add(X, b_dt, out=row)
        row += dX
        _guard(row, k + 1)
        if after is not None:
            after(k, X, row)
    return V


def _euler_constant(x0: np.ndarray, b_dt: float, sigma: float, V: np.ndarray, N: np.ndarray) -> None:
    """Euler steps for constant coefficients on the step rows V[k] and N[k] of values and increments.

    Step k writes (X_k + b dt) + sigma dW_k into row k + 1, the bits of the
    general recursion, in as few passes as keep them: sigma dW_k is formed
    in place in that row, and not at all for sigma == 1.0 (1.0 w == w).
    X_k + b dt takes one scratch row, and no pass for b dt == 0.0: a sum is
    -0.0 only when both its terms are, and X_0 + 0.0 is not, so no row
    after the start is -0.0 and X_k + 0.0 == X_k there.  X_0 + b dt is
    formed once, on x0.  A diverging path overflows in the steps past its
    first bad one; that is silenced, and the caller's guard names the path.
    """
    start = (x0 + b_dt).reshape(-1, 1)  # X_0 + b dt of every path, (d, 1)
    shifted = None if b_dt == 0.0 else np.empty_like(V[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(N.shape[0]):
            row = V[k + 1]
            dX = N[k] if sigma == 1.0 else np.multiply(N[k], sigma, out=row)
            if k == 0:
                X = start
            else:
                X = V[k] if shifted is None else np.add(V[k], b_dt, out=shifted)
            np.add(X, dX, out=row)


def euler_markov(
    spec: SdeSpec,
    x: float | np.ndarray,
    grid: Grid,
    dW: np.ndarray,
    out: np.ndarray | None = None,
) -> TrajectoryBatch:
    """Euler-Maruyama recursion X_{k+1} = X_k + b dt + sigma dW per path.

    The increments dW, shape (n_paths, grid.n_steps, d), are the one noise
    input: they set the path count and the state dimension, and the
    recursion starts from x at ``grid.t_start``.  A scalar x needs d = 1,
    a vector x needs d = x.size.  Step k reads ``dW[:, k]`` as the rows
    ``dW.transpose(1, 2, 0)[k]``, contiguous when dW came from
    ``NoiseBundle.increments``.  The values go into ``out``, a float64
    step-major (n_steps + 1, d, n_paths) array of any strides (or a new one).
    Callable coefficients see a C-ordered copy of a step's rows as the
    state, (m,) for a scalar x and (m, d) for a vector one, so they round
    as on a path-major layout; constant ones stay floats.
    """
    _check_increments(dW, grid)
    times = grid.times

    def step(c):
        if not callable(c):
            return float(c)
        return lambda k, X: np.asarray(c(times[k], np.ascontiguousarray(X)), dtype=float)

    x0 = np.asarray(x, dtype=float)
    if x0.size != dW.shape[2]:
        raise ValueError(f"state dimension {x0.size} does not match increments d={dW.shape[2]}")
    V = _euler(x0, grid, dW, step(spec.b), step(spec.sigma), None, out)
    return _trajectories(grid, V, x0)


def _dt_node_count(horizon: float, dt: float) -> int | None:
    """Nodes of a uniform layout of [-horizon, 0] at spacing dt, or None when dt does not divide it."""
    m = int(round(horizon / dt)) + 1
    return m if abs((m - 1) * dt - horizon) <= 1e-9 * max(1.0, horizon) else None


def _prefix_on_dt_layout(eta: Path, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Resample the history onto dt spacing; returns (nodes, values)."""
    m = _dt_node_count(eta.horizon, dt)
    if m is None:
        raise ValueError(
            f"the loop's rolling window needs dt to divide the horizon; "
            f"got dt={dt}, T={eta.horizon}"
        )
    xs = np.linspace(-eta.horizon, 0.0, m)
    return xs, np.asarray(eta(xs), dtype=float)


def euler_path_dependent(
    spec: SdeSpec,
    eta: Path,
    grid: Grid,
    dW: np.ndarray,
    out: np.ndarray | None = None,
) -> TrajectoryBatch:
    """Euler recursion with coefficients reading the look-back window.

    The increments dW, shape (n_paths, grid.n_steps, 1), are the one noise
    input; the dynamics are scalar, and every path continues the history
    eta from ``grid.t_start``.  Cylindrical coefficients are evaluated
    through running pathwise integrals (no window is built), one tracker
    per coefficient object.  Generic callables receive a
    WindowBatch view of a rolling buffer whose node spacing equals dt, so
    each step's window is a zero-copy slice.  Trackers and window are
    built before the recursion, for the dW.shape[0] paths: a tracker
    reads only the size of its start row, the broadcast present value
    eta(0).  ``_euler`` then takes the step functions and the hook that
    advances them.  The values go into ``out``, a float64 (n_steps + 1, 1,
    n_paths) array of any strides, as for ``euler_markov``.
    """
    _check_increments(dW, grid)
    if dW.shape[2] != 1:
        raise ValueError(f"path-dependent dynamics are scalar (d = 1), got increments d={dW.shape[2]}")
    times = grid.times
    x0 = np.asarray(eta.values[-1], dtype=float)
    start = np.broadcast_to(x0, dW.shape[:1])  # the start row X_0 of every path
    cylindrical = {id(c): c for c in (spec.b, spec.sigma) if isinstance(c, CylindricalFunctional)}
    trackers = {key: c.tracker(start, t0=grid.t_start, prefix=eta) for key, c in cylindrical.items()}
    windowed = any(callable(c) and id(c) not in trackers for c in (spec.b, spec.sigma))
    if windowed:
        xs, pre_vals = _prefix_on_dt_layout(eta, grid.dt)
        m = xs.size
        buf = np.empty((start.size, m + grid.n_steps))
        buf[:, :m] = pre_vals

    def step(c):
        if id(c) in trackers:
            tracker = trackers[id(c)]
            return lambda k, X: np.asarray(c.base(times[k], tracker.features(times[k], X)), dtype=float)
        if callable(c):
            return lambda k, X: np.asarray(c(times[k], WindowBatch(xs, buf[:, k : k + m])), dtype=float)
        return float(c)

    def after(k: int, X: np.ndarray, row: np.ndarray) -> None:
        if windowed:
            buf[:, m + k] = row
        for tracker in trackers.values():
            tracker.advance(times[k], X, times[k + 1], row)

    V = _euler(x0, grid, dW, step(spec.b), step(spec.sigma), after if trackers or windowed else None, out)
    return _trajectories(grid, V, eta)


def coupled_sup_error(
    spec_n: SdeSpec,
    spec: SdeSpec,
    start,
    grid: Grid,
    noise: NoiseBundle,
    p: float = 2.0,
) -> tuple[float, float]:
    """Monte Carlo estimate of E[sup_s |X^n_s - X_s|^p] under common noise.

    Both recursions start at ``grid.t_start``; a history ``Path`` start
    selects the path-dependent scheme, any other start the Markov one.
    Identical specs produce exactly zero: the increments are drawn once,
    on the calling thread, and both recursions consume them.
    """
    dW = noise.increments(grid.dt)
    euler = euler_path_dependent if isinstance(start, Path) else euler_markov
    a = euler(spec_n, start, grid, dW)
    bb = euler(spec, start, grid, dW)
    gap = np.abs(a.values - bb.values)
    sup = gap.max(axis=tuple(range(1, gap.ndim)))
    samples = sup**p
    est = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(samples.size)) if samples.size > 1 else 0.0
    return est, se


def moment_check(traj: TrajectoryBatch, p: float) -> tuple[float, float]:
    """Estimate E[sup_s |X_s|^p] over the full record including the history."""
    if p < 1:
        raise ValueError(f"moment order must be >= 1, got {p}")
    flat = np.abs(traj.values).reshape(traj.n_paths, -1)
    sup = flat.max(axis=1)
    if traj.prefix is not None:
        sup = np.maximum(sup, np.max(np.abs(traj.prefix.values)))
    samples = sup**p
    est = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(samples.size)) if samples.size > 1 else 0.0
    return est, se


def bridge_refine(dW: np.ndarray, dt: float, midpoint_normals: np.ndarray) -> np.ndarray:
    """Split increments over dt into two bridge-consistent halves over dt/2.

    Conditionally on the coarse increment, the midpoint displacement is
    N(dW/2, dt/4); the two halves sum to dW exactly.
    """
    first = 0.5 * dW + 0.5 * np.sqrt(dt) * midpoint_normals
    second = dW - first
    out = np.empty(dW.shape[:1] + (2 * dW.shape[1],) + dW.shape[2:])
    out[:, 0::2] = first
    out[:, 1::2] = second
    return out


def trajectories_to_csv(traj: TrajectoryBatch, filename) -> None:
    """Write rows (path_id, step, time, value); vector states get one row per component."""
    times = traj.grid.times
    with open(filename, "w") as fh:
        fh.write("path_id,step,time,value\n")
        vals = traj.values if traj.values.ndim == 3 else traj.values[:, :, None]
        for i in range(vals.shape[0]):
            for k in range(vals.shape[1]):
                for c in range(vals.shape[2]):
                    fh.write(f"{i},{k},{times[k]:.17g},{vals[i, k, c]:.17g}\n")


def trajectories_to_binary(traj: TrajectoryBatch, filename) -> None:
    """Binary dump: 8-byte magic, three little-endian int64 dims, float64 data.

    Layout: magic 'PPDETRJ1', then (n_paths, n_steps+1, d) as '<q', then
    the C-ordered float64 array ('<f8').
    """
    vals = traj.values if traj.values.ndim == 3 else traj.values[:, :, None]
    with open(filename, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack("<3q", *vals.shape))
        fh.write(np.ascontiguousarray(vals, dtype="<f8").tobytes())


def trajectories_from_binary(filename) -> np.ndarray:
    with open(filename, "rb") as fh:
        magic = fh.read(8)
        if magic != _BINARY_MAGIC:
            raise ValueError(f"bad magic {magic!r} in trajectory dump")
        shape = struct.unpack("<3q", fh.read(24))
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(shape)
    return data[:, :, 0] if shape[2] == 1 else data
