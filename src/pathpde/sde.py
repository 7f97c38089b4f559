"""Forward simulation: Euler schemes for state and path-dependent dynamics.

Noise comes from a counter-based generator (Philox) keyed by a 64-bit seed
plus a stream tag.  Uniform draws consume exactly one 64-bit word each and
normals are produced by inverse CDF, so the increment at (path, step,
component) is a pure function of the key and its counter offset: any block
of paths can be regenerated bit-identically, independent of how work is
partitioned across threads.

The forward pass is step-major.  Philox lays each path's words out
contiguously, so ``NoiseBundle.increments`` turns them into increments
in place, a cache-sized chunk of paths at a time, and writes them
transposed into a (n_steps, d, n_paths) buffer, of which it returns the
path-major view.  Those chunks are the one parallel axis: ``_lanes``
deals them to up to ``workers`` threads, and as each chunk writes only
its own paths, no bit depends on how many.  The Euler schemes step on
contiguous rows of a (n_steps + 1[, d], n_paths) buffer, and
``TrajectoryBatch.values`` is its path-major view, so ``values.T`` (or
``values.transpose(1, 2, 0)``) gives the step rows back without a copy.
Every value is computed by the same arithmetic as on a path-major
layout, so the layout moves no bit; where numpy's order of summation
depends on the layout (a row reduction, an einsum contraction), the
operands are C-ordered, as they were.

Both schemes run one recursion, ``_euler``, on the step rows of all
their paths, on the calling thread.  They differ only in the coefficients
they build: floats, or step functions (k, X) -> array that read a
C-ordered copy of the state, a feature tracker or a rolling window.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtri

from .paths import Grid, Path, WindowBatch
from .smoothing import CylindricalFunctional

__all__ = [
    "NoiseBundle",
    "SdeSpec",
    "TrajectoryBatch",
    "DivergenceError",
    "euler_markov",
    "euler_path_dependent",
    "value_buffer_size",
    "coupled_sup_error",
    "moment_check",
    "bridge_refine",
    "trajectories_to_csv",
    "trajectories_to_binary",
    "trajectories_from_binary",
]

_MASK64 = (1 << 64) - 1
_BINARY_MAGIC = b"PPDETRJ1"
# Philox words in one cache-sized chunk of paths (512 KB), the unit in which
# increments and the solver's bridge maxima are formed and transposed
_CHUNK_WORDS = 2**16


class DivergenceError(RuntimeError):
    """A simulated path left the admissible range; ``path`` is its index among all paths."""

    def __init__(self, path: int, step: int):
        super().__init__(f"trajectory diverged at path {path}, step {step}")
        self.path = path
        self.step = step


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity, where the platform has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _lanes(work: Callable[[int, int, np.ndarray], None], n: int, chunk: int, workers: int, width: int) -> None:
    """Run ``work(q0, q1, scratch)`` on the chunks [q0, q1) of ``chunk`` paths among n.

    The chunks are dealt round-robin to up to ``workers`` lanes, each with
    one scratch buffer of ``width`` doubles; only more than one lane takes
    a thread pool.  ``work`` calls ``NoiseBundle._words`` and ufuncs only:
    perfbench's layer trace keeps one span stack.
    """
    scratch = [np.empty(width) for _ in range(max(1, min(workers, -(-n // chunk))))]

    def lane(i: int) -> None:
        for q0 in range(i * chunk, n, len(scratch) * chunk):
            work(q0, min(q0 + chunk, n), scratch[i])

    if len(scratch) == 1:
        lane(0)
    else:
        with ThreadPoolExecutor(max_workers=len(scratch)) as pool:
            list(pool.map(lane, range(len(scratch))))


@dataclass(frozen=True)
class NoiseBundle:
    """Reproducible Gaussian increments for n_paths x n_steps x d.

    The stream for path p occupies a fixed block of counter words, so
    ``normals(p0, p1)`` returns the same values whether generated in one
    call or many.  ``child(tag)`` derives an independent stream from the
    same seed (used for bridge refinement and maximum sampling).
    """

    seed: int
    n_paths: int
    n_steps: int
    d: int = 1
    tag: int = 0

    def __post_init__(self) -> None:
        if self.n_paths < 1 or self.n_steps < 1 or self.d < 1:
            raise ValueError("n_paths, n_steps, d must all be positive")

    @property
    def _words_per_path(self) -> int:
        need = self.n_steps * self.d
        return ((need + 3) // 4) * 4  # Philox counter advances in 4-word blocks

    def _words(self, p0: int, p1: int, out: np.ndarray | None = None) -> np.ndarray:
        """Clamped uniform words of paths p0..p1, shape (p1 - p0, words per path).

        ``out``, when given, is a contiguous buffer of (p1 - p0) * words per
        path doubles that receives them.
        """
        key = (self.seed & _MASK64) | ((self.tag & _MASK64) << 64)
        bg = np.random.Philox(key=key)
        wpp = self._words_per_path
        bg.advance((p0 * wpp) // 4)
        gen = np.random.Generator(bg)
        u = gen.random((p1 - p0) * wpp) if out is None else gen.random(out=out)
        np.maximum(u, 2.0**-54, out=u)
        return u.reshape(p1 - p0, wpp)

    def uniforms(self, p0: int = 0, p1: int | None = None) -> np.ndarray:
        """Uniforms in (0, 1), shape (block, n_steps, d).

        One double consumes exactly one counter word, so block boundaries
        do not change values.  Exact zeros (probability 2^-53 per draw)
        are clamped away for the inverse-CDF step.
        """
        p1 = self.n_paths if p1 is None else p1
        u = self._words(p0, p1)[:, : self.n_steps * self.d]
        return u.reshape(p1 - p0, self.n_steps, self.d)

    def normals(self, p0: int = 0, p1: int | None = None) -> np.ndarray:
        return ndtri(self.uniforms(p0, p1))

    def increments(self, dt: float, p0: int = 0, p1: int | None = None, out: np.ndarray | None = None,
                   workers: int = 1) -> np.ndarray:
        """Brownian increments N(0, dt), shape (block, n_steps, d).

        The result is the path-major view of a step-major (n_steps, d,
        block) buffer, ``out`` when given (say rows 1..n_steps of an Euler
        value buffer), so each step's increments are contiguous rows.  The
        words are drawn a cache-sized chunk of paths at a time on up to
        ``workers`` threads; ``ndtri`` and the sqrt(dt) scale run in place
        on them, and they are written once, transposed, into the buffer.
        """
        p1 = self.n_paths if p1 is None else p1
        n, d, steps = p1 - p0, self.d, self.n_steps
        out = np.empty((steps, d, n)) if out is None else out
        wpp = self._words_per_path
        chunk = max(1, _CHUNK_WORDS // wpp)
        scale = np.sqrt(dt)

        def work(q0: int, q1: int, scratch: np.ndarray) -> None:
            z = self._words(p0 + q0, p0 + q1, scratch[: (q1 - q0) * wpp])[:, : steps * d]
            ndtri(z, out=z)
            z *= scale
            out[:, :, q0:q1] = z.reshape(q1 - q0, steps, d).transpose(1, 2, 0)

        _lanes(work, n, chunk, workers, min(n, chunk) * wpp)
        return out.transpose(2, 0, 1)

    def child(self, tag: int, d: int | None = None) -> "NoiseBundle":
        if tag == self.tag:
            raise ValueError("child stream must use a distinct tag")
        return NoiseBundle(self.seed, self.n_paths, self.n_steps, self.d if d is None else d, tag=tag)


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
        each node interpolates between two step rows: the cut runs on
        cache-sized chunks of paths, forming a chunk's tile of one row per
        node from the step rows and writing it transposed into the result.
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
        w0 = 1.0 - w
        rows = self.values.T
        n, m = self.n_paths, xs.size
        out = np.empty((n, m))
        chunk = max(1, _CHUNK_WORDS // m)
        tile = np.empty((m, min(n, chunk)))
        tmp = np.empty_like(tile)
        for q0 in range(0, n, chunk):
            q1 = min(q0 + chunk, n)
            a, b, block = tile[:, : q1 - q0], tmp[:, : q1 - q0], rows[:, q0:q1]
            np.multiply(block[i0], w0, out=a)
            np.multiply(block[i1], w, out=b)
            a += b
            a[history] = pre_vals
            a[-1] = block[k]
            out[q0:q1] = a.T
        return out

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


def value_buffer_size(n_steps: int, d: int, n_paths: int) -> int:
    """Doubles in the step-major (n_steps + 1, d, n_paths) value buffer of the Euler schemes."""
    return (n_steps + 1) * d * n_paths


def _step_rows(out: np.ndarray | None, n_steps: int, d: int, n_paths: int) -> np.ndarray:
    """The (n_steps + 1, d, n_paths) value buffer: the leading part of ``out``, or a new one."""
    shape = (n_steps + 1, d, n_paths)
    if out is None:
        return np.empty(shape)
    need = value_buffer_size(n_steps, d, n_paths)
    if out.dtype != np.float64 or not out.flags.c_contiguous or out.size < need:
        raise ValueError(f"value buffer of {out.size} {out.dtype} cannot hold {need} contiguous doubles")
    return out.reshape(-1)[:need].reshape(shape)


def _euler(x0: np.ndarray, grid: Grid, dW: np.ndarray, coefficients: Callable, out: np.ndarray | None) -> np.ndarray:
    """The Euler recursion X_{k+1} = X_k + b dt + sigma dW of both schemes.

    Returns the step-major (n_steps + 1, d, n_paths) value buffer held by
    ``out`` (a new one when None).  The state is a value per path for a
    0-d x0 and a d-vector per path otherwise; step k reads the state X_k
    and the increments as rows of that buffer and of dW, (m,) or (m, d)
    for m paths.  ``coefficients(X0)`` runs once, given the start row X0,
    and returns (b, sigma, after): each coefficient a float or a step
    function (k, X) -> array, and ``after`` None or a hook (k, X, row)
    that advances the coefficients' state once the row of X_{k+1} is
    written.  The increments may be rows 1..n_steps of the value buffer
    itself: step k forms sigma dW_k before it overwrites their row.
    """
    n_paths, n_steps, d = dW.shape
    V = _step_rows(out, n_steps, d, n_paths)
    if x0.ndim:
        R, N = V.transpose(0, 2, 1), dW.transpose(1, 0, 2)  # (steps, n, d)
    else:
        R, N = V[:, 0], dW[:, :, 0].T  # (steps, n)
    dt = grid.dt
    R[0] = x0
    b, sigma, after = coefficients(R[0])
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
    ``NoiseBundle.increments``.  The values go into the step-major
    (n_steps + 1, d, n_paths) buffer held by the leading
    ``value_buffer_size`` doubles of ``out`` (a new one when None).
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

    coefficients = (step(spec.b), step(spec.sigma), None)
    x0 = np.asarray(x, dtype=float)
    if x0.size != dW.shape[2]:
        raise ValueError(f"state dimension {x0.size} does not match increments d={dW.shape[2]}")
    V = _euler(x0, grid, dW, lambda X0: coefficients, out)
    return TrajectoryBatch(grid, V.transpose(2, 0, 1) if x0.ndim else V[:, 0].T)


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
    each step's window is a zero-copy slice.  The values go into the
    step-major buffer held by the leading ``value_buffer_size`` doubles of
    ``out`` (a new one when None).
    """
    _check_increments(dW, grid)
    if dW.shape[2] != 1:
        raise ValueError(f"path-dependent dynamics are scalar (d = 1), got increments d={dW.shape[2]}")
    times = grid.times
    cylindrical = {id(c): c for c in (spec.b, spec.sigma) if isinstance(c, CylindricalFunctional)}
    windowed = any(callable(c) and id(c) not in cylindrical for c in (spec.b, spec.sigma))
    xs, pre_vals = _prefix_on_dt_layout(eta, grid.dt) if windowed else (None, None)
    b, sigma = (c if callable(c) or id(c) in cylindrical else float(c) for c in (spec.b, spec.sigma))

    def coefficients(X0: np.ndarray):
        """Step functions of the paths, which start at X0, and their after-step hook."""
        trackers = {key: c.tracker(X0, t0=grid.t_start, prefix=eta) for key, c in cylindrical.items()}
        if windowed:
            m = xs.size
            buf = np.empty((X0.size, m + grid.n_steps))
            buf[:, :m] = pre_vals

        def step(c):
            if id(c) in trackers:
                tracker = trackers[id(c)]
                return lambda k, X: np.asarray(c.base(times[k], tracker.features(times[k], X)), dtype=float)
            if callable(c):
                return lambda k, X: np.asarray(c(times[k], WindowBatch(xs, buf[:, k : k + m])), dtype=float)
            return c

        def after(k: int, X: np.ndarray, row: np.ndarray) -> None:
            if windowed:
                buf[:, m + k] = row
            for tracker in trackers.values():
                tracker.advance(times[k], X, times[k + 1], row)

        return step(b), step(sigma), after if trackers or windowed else None

    V = _euler(np.asarray(eta.values[-1], dtype=float), grid, dW, coefficients, out)
    return TrajectoryBatch(grid, V[:, 0].T, prefix=eta)


def coupled_sup_error(
    spec_n: SdeSpec,
    spec: SdeSpec,
    start,
    grid: Grid,
    noise: NoiseBundle,
    p: float = 2.0,
    workers: int = 1,
) -> tuple[float, float]:
    """Monte Carlo estimate of E[sup_s |X^n_s - X_s|^p] under common noise.

    Both recursions start at ``grid.t_start``; a history ``Path`` start
    selects the path-dependent scheme, any other start the Markov one.
    Identical specs produce exactly zero: the increments are drawn once,
    on up to ``workers`` threads, and both recursions consume them.
    """
    dW = noise.increments(grid.dt, workers=workers)
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
