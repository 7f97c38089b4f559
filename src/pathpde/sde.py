"""Forward simulation: Euler schemes for state and path-dependent dynamics.

Noise comes from a counter-based generator (Philox) keyed by a 64-bit seed
plus a stream tag.  Uniform draws consume exactly one 64-bit word each and
normals are produced by inverse CDF, so the increment at (path, step,
component) is a pure function of the key and its counter offset: any block
of paths can be regenerated bit-identically, independent of how work is
partitioned across workers.

The forward pass is step-major.  Philox lays each path's words out
contiguously, so ``NoiseBundle.increments`` turns them into increments
in place, a cache-sized chunk of paths at a time, and writes them
transposed into a (n_steps, d, n_paths) buffer, of which it returns the
path-major view.  The Euler schemes step on contiguous rows of a
(n_steps + 1[, d], n_paths) buffer, and ``TrajectoryBatch.values`` is its
path-major view, so ``values.T`` (or ``values.transpose(1, 2, 0)``) gives
the step rows back without a copy.  Every value is computed by the same
arithmetic as on a path-major layout, so the layout moves no bit; where
numpy's order of summation depends on the layout (a row reduction, an
einsum contraction), the operands are C-ordered, as they were.
"""

from __future__ import annotations

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


def _path_blocks(n_paths: int, workers: int) -> list[tuple[int, int]]:
    workers = max(1, int(workers))
    edges = np.linspace(0, n_paths, workers + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def _run_blocks(fn: Callable[[int, int], None], n_paths: int, workers: int) -> None:
    blocks = _path_blocks(n_paths, workers)
    if len(blocks) == 1:
        fn(*blocks[0])
        return
    with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
        list(pool.map(lambda blk: fn(*blk), blocks))


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

    def increments(self, dt: float, p0: int = 0, p1: int | None = None) -> np.ndarray:
        """Brownian increments N(0, dt), shape (block, n_steps, d).

        The result is the path-major view of a step-major (n_steps, d,
        block) buffer, so each step's increments are contiguous rows.  The
        words are drawn a cache-sized chunk of paths at a time; ``ndtri``
        and the sqrt(dt) scale run in place on them, and they are written
        once, transposed, into the buffer.
        """
        p1 = self.n_paths if p1 is None else p1
        n, d, steps = p1 - p0, self.d, self.n_steps
        out = np.empty((steps, d, n))
        wpp = self._words_per_path
        chunk = max(1, _CHUNK_WORDS // wpp)
        scratch = np.empty(min(n, chunk) * wpp)
        scale = np.sqrt(dt)
        for q0 in range(0, n, chunk):
            q1 = min(q0 + chunk, n)
            z = self._words(p0 + q0, p0 + q1, scratch[: (q1 - q0) * wpp])[:, : steps * d]
            ndtri(z, out=z)
            z *= scale
            out[:, :, q0:q1] = z.reshape(q1 - q0, steps, d).transpose(1, 2, 0)
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
        the same order whatever the layout of the values.  Each node
        interpolates between two step rows.  The cut runs on cache-sized
        chunks of paths, forming a chunk's tile of one row per node from
        the step rows and writing it transposed into the result.
        """
        if self.prefix is None:
            raise ValueError("window extraction requires a history path")
        if self.values.ndim != 2:
            raise ValueError("windows are defined for scalar trajectories only")
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

    def window_batch(self, k: int, n_nodes: int | None = None) -> WindowBatch:
        T = self.prefix.horizon
        m = self.prefix.n_nodes if n_nodes is None else n_nodes
        xs = np.linspace(-T, 0.0, m)
        return WindowBatch(xs, self.window_values(k, xs))


def _coef_markov(c) -> Callable | float:
    """A state coefficient as given if callable, else as a float constant."""
    return c if callable(c) else float(c)


def _apply_sigma(sig_val, dw: np.ndarray) -> np.ndarray:
    """Diffusion contraction for one step: supports scalar, diagonal, full.

    A full matrix contracts with C-ordered increments: einsum rounds a sum
    over the rows of a transposed step row differently.
    """
    if np.ndim(sig_val) == 3:  # (m, d, d) matrix
        return np.einsum("mij,mj->mi", np.asarray(sig_val, dtype=float), np.ascontiguousarray(dw))
    return sig_val * dw  # a float, (m,) scalar state, (m, d) diagonal or broadcastable


def _guard(x: np.ndarray, step: int, p0: int) -> None:
    """Raise on the first bad path of a worker's block, which starts at path p0.

    One reduction per step finds NaN, +-inf and values beyond 1e12; the
    full mask is built only to name the failing path.
    """
    if not np.abs(x).max() <= 1e12:
        bad = ~np.isfinite(x) | (np.abs(x) > 1e12)
        idx = int(np.argmax(bad.reshape(bad.shape[0], -1).any(axis=1)))
        raise DivergenceError(p0 + idx, step)


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


def euler_markov(
    spec: SdeSpec,
    x: float | np.ndarray,
    grid: Grid,
    dW: np.ndarray,
    workers: int = 1,
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
    n_paths, _, d = dW.shape
    b = _coef_markov(spec.b)
    sigma = _coef_markov(spec.sigma)
    dt = grid.dt
    times = grid.times
    x0 = np.asarray(x, dtype=float)
    if x0.size != d:
        raise ValueError(f"state dimension {x0.size} does not match increments d={d}")
    vector_state = x0.ndim > 0
    state = slice(None) if vector_state else 0  # a step's state rows in the d axis
    n_steps = grid.n_steps
    V = _step_rows(out, n_steps, d, n_paths)
    dW_t = dW.transpose(1, 2, 0)  # (steps, d, n)
    callables = callable(b) or callable(sigma)

    def coef(c, k, X):
        return np.asarray(c(times[k], X), dtype=float) if callable(c) else c

    def simulate(p0: int, p1: int) -> None:
        V[0, state, p0:p1].T[...] = x0
        for k in range(n_steps):
            X, row = V[k, state, p0:p1].T, V[k + 1, state, p0:p1].T
            Xc = np.ascontiguousarray(X) if callables else X  # row sums round as on a path-major state
            b_dt = coef(b, k, Xc) * dt
            noise = _apply_sigma(coef(sigma, k, Xc), dW_t[k, state, p0:p1].T)
            np.add(X, b_dt, out=row)
            row += noise
            _guard(row, k + 1, p0)

    _run_blocks(simulate, n_paths, workers)
    return TrajectoryBatch(grid, V.transpose(2, 0, 1) if vector_state else V[:, 0].T)


def _prefix_on_dt_layout(eta: Path, dt: float) -> tuple[np.ndarray, int]:
    """Resample the history onto dt spacing; returns (values, n_window_nodes)."""
    m = int(round(eta.horizon / dt)) + 1
    if abs((m - 1) * dt - eta.horizon) > 1e-9 * max(1.0, eta.horizon):
        raise ValueError(
            f"the loop's rolling window needs dt to divide the horizon; "
            f"got dt={dt}, T={eta.horizon}"
        )
    xs = np.linspace(-eta.horizon, 0.0, m)
    return np.asarray(eta(xs), dtype=float), m


def euler_path_dependent(
    spec: SdeSpec,
    eta: Path,
    grid: Grid,
    dW: np.ndarray,
    workers: int = 1,
    out: np.ndarray | None = None,
) -> TrajectoryBatch:
    """Euler recursion with coefficients reading the look-back window.

    The increments dW, shape (n_paths, grid.n_steps, 1), are the one noise
    input; the dynamics are scalar, and every path continues the history
    eta from ``grid.t_start``.  Cylindrical coefficients are evaluated
    through running pathwise integrals (no window is built).  Generic
    callables receive a WindowBatch view of a rolling buffer whose node
    spacing equals dt, so each step's window is a zero-copy slice.  The
    values go into the step-major buffer held by the leading
    ``value_buffer_size`` doubles of ``out`` (a new one when None).
    """
    _check_increments(dW, grid)
    if dW.shape[2] != 1:
        raise ValueError(f"path-dependent dynamics are scalar (d = 1), got increments d={dW.shape[2]}")
    n_paths = dW.shape[0]
    dt = grid.dt
    times = grid.times
    n_steps = grid.n_steps
    V = _step_rows(out, n_steps, 1, n_paths)[:, 0]
    dW_t = dW[:, :, 0].T  # (steps, n)

    needs_window = any(
        callable(c) and not isinstance(c, CylindricalFunctional) for c in (spec.b, spec.sigma)
    )
    pre_vals, m_win = (None, 0)
    xs_win = None
    if needs_window:
        pre_vals, m_win = _prefix_on_dt_layout(eta, dt)
        xs_win = np.linspace(-eta.horizon, 0.0, m_win)

    def make_eval(coef):
        if isinstance(coef, CylindricalFunctional):
            return ("cyl", coef)
        if callable(coef):
            return ("win", coef)
        return ("const", float(coef))

    b_kind = make_eval(spec.b)
    s_kind = make_eval(spec.sigma)

    def simulate(p0: int, p1: int) -> None:
        nb = p1 - p0
        X = V[0, p0:p1]
        X[...] = float(eta.values[-1])

        trackers = {}
        for kind, coef in (b_kind, s_kind):
            if kind == "cyl" and id(coef) not in trackers:
                trackers[id(coef)] = (coef, coef.tracker(X, t0=grid.t_start, prefix=eta))

        buf = None
        if needs_window:
            buf = np.empty((nb, m_win - 1 + n_steps + 1))
            buf[:, :m_win] = pre_vals[None, :]

        def coef_at(kind_coef, k, s):
            kind, coef = kind_coef
            if kind == "const":
                return coef
            if kind == "cyl":
                cf, tracker = trackers[id(coef)]
                return np.asarray(coef.base(s, tracker.features(s, X)), dtype=float)
            wb = WindowBatch(xs_win, buf[:, k : k + m_win])
            return np.asarray(coef(s, wb), dtype=float)

        for k in range(n_steps):
            s = times[k]
            b_dt = coef_at(b_kind, k, s) * dt
            noise = coef_at(s_kind, k, s) * dW_t[k, p0:p1]
            X_new = V[k + 1, p0:p1]
            np.add(X, b_dt, out=X_new)
            X_new += noise
            _guard(X_new, k + 1, p0)
            if needs_window:
                buf[:, m_win + k] = X_new
            for cf, tracker in trackers.values():
                tracker.advance(s, X, times[k + 1], X_new)
            X = X_new

    _run_blocks(simulate, n_paths, workers)
    return TrajectoryBatch(grid, V.T, prefix=eta)


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
    Identical specs produce exactly zero: the increments are drawn once
    and both recursions consume them.
    """
    dW = noise.increments(grid.dt)
    euler = euler_path_dependent if isinstance(start, Path) else euler_markov
    a = euler(spec_n, start, grid, dW, workers)
    bb = euler(spec, start, grid, dW, workers)
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
