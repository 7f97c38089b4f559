"""Forward simulation: Euler schemes for state and path-dependent dynamics.

Noise comes from a counter-based generator (Philox) keyed by a 64-bit seed
plus a stream tag.  Uniform draws consume exactly one 64-bit word each and
normals are produced by inverse CDF, so the increment at (path, step,
component) is a pure function of the key and its counter offset: any block
of paths can be regenerated bit-identically, independent of how work is
partitioned across workers.
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
    "coupled_sup_error",
    "moment_check",
    "bridge_refine",
    "trajectories_to_csv",
    "trajectories_to_binary",
    "trajectories_from_binary",
]

_MASK64 = (1 << 64) - 1
_BINARY_MAGIC = b"PPDETRJ1"


class DivergenceError(RuntimeError):
    """A simulated path left the admissible range."""


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

    def uniforms(self, p0: int = 0, p1: int | None = None) -> np.ndarray:
        """Uniforms in (0, 1), shape (block, n_steps, d).

        One double consumes exactly one counter word, so block boundaries
        do not change values.  Exact zeros (probability 2^-53 per draw)
        are clamped away for the inverse-CDF step.
        """
        p1 = self.n_paths if p1 is None else p1
        key = (self.seed & _MASK64) | ((self.tag & _MASK64) << 64)
        bg = np.random.Philox(key=key)
        wpp = self._words_per_path
        bg.advance((p0 * wpp) // 4)
        u = np.random.Generator(bg).random((p1 - p0) * wpp)
        np.maximum(u, 2.0**-54, out=u)
        u = u.reshape(p1 - p0, wpp)[:, : self.n_steps * self.d]
        return u.reshape(p1 - p0, self.n_steps, self.d)

    def normals(self, p0: int = 0, p1: int | None = None) -> np.ndarray:
        return ndtri(self.uniforms(p0, p1))

    def increments(self, dt: float, p0: int = 0, p1: int | None = None) -> np.ndarray:
        """Brownian increments N(0, dt), shape (block, n_steps, d)."""
        return np.sqrt(dt) * self.normals(p0, p1)

    def child(self, tag: int, n_steps: int | None = None, d: int | None = None) -> "NoiseBundle":
        if tag == self.tag:
            raise ValueError("child stream must use a distinct tag")
        return NoiseBundle(
            self.seed,
            self.n_paths,
            self.n_steps if n_steps is None else n_steps,
            self.d if d is None else d,
            tag=tag,
        )


@dataclass(frozen=True)
class SdeSpec:
    """Drift and diffusion, either state functions or path functionals.

    Markovian callables map (t, x) -> array over paths with x of shape
    (m,) or (m, d).  Path-dependent coefficients are either
    CylindricalFunctional instances (evaluated through incrementally
    tracked pathwise integrals) or callables (t, WindowBatch) -> (m,).
    Scalars are accepted and treated as constants.
    """

    b: Callable | CylindricalFunctional | float
    sigma: Callable | CylindricalFunctional | float
    path_dependent: bool = False
    growth_c: float | None = None
    growth_m: float | None = None


@dataclass
class TrajectoryBatch:
    """Forward values for many paths on one grid, with a shared history."""

    grid: Grid
    values: np.ndarray  # (n_paths, n_steps + 1) or (n_paths, n_steps + 1, d)
    prefix: Path | None = None

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return 1 if self.values.ndim == 2 else self.values.shape[2]

    def terminal(self) -> np.ndarray:
        return self.values[:, -1]

    def window_values(self, k: int, xs: np.ndarray) -> np.ndarray:
        """Materialised look-back slice at grid index k on node layout xs."""
        if self.prefix is None:
            raise ValueError("window extraction requires a history path")
        if self.values.ndim != 2:
            raise ValueError("windows are defined for scalar trajectories only")
        t0 = self.grid.t_start
        sk = self.grid.times[k]
        taus = sk + xs
        out = np.empty((self.n_paths, xs.size))
        pre_vals = self.prefix(np.clip(taus - t0, -self.prefix.horizon, 0.0))
        times = self.grid.times
        dt = self.grid.dt
        for j, tau in enumerate(taus):
            if tau <= t0:
                out[:, j] = pre_vals[j]
            else:
                pos = min(max((tau - t0) / dt, 0.0), self.grid.n_steps)
                i0 = min(int(pos), self.grid.n_steps - 1)
                w = pos - i0
                out[:, j] = (1.0 - w) * self.values[:, i0] + w * self.values[:, i0 + 1]
        out[:, -1] = self.values[:, k]
        return out

    def window_batch(self, k: int, n_nodes: int | None = None) -> WindowBatch:
        T = self.prefix.horizon
        m = self.prefix.n_nodes if n_nodes is None else n_nodes
        xs = np.linspace(-T, 0.0, m)
        return WindowBatch(xs, self.window_values(k, xs))


def _coef_markov(c) -> Callable:
    if callable(c):
        return c
    val = float(c)
    return lambda t, x: np.broadcast_to(np.asarray(val), np.shape(x)).copy() if np.ndim(x) else val


def _apply_sigma(sig_val: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """Diffusion contraction for one step: supports scalar, diagonal, full."""
    sig = np.asarray(sig_val, dtype=float)
    if dw.ndim == 1:  # scalar state
        return sig * dw
    if sig.ndim == 3:  # (m, d, d) matrix
        return np.einsum("mij,mj->mi", sig, dw)
    return sig * dw  # (m, d) diagonal or broadcastable scalar


def _guard(x: np.ndarray, step: int) -> None:
    bad = ~np.isfinite(x) | (np.abs(x) > 1e12)
    if np.any(bad):
        idx = int(np.argmax(bad.reshape(bad.shape[0], -1).any(axis=1)))
        raise DivergenceError(f"trajectory diverged at path {idx}, step {step}")


def euler_markov(
    spec: SdeSpec,
    t: float,
    x: float | np.ndarray,
    grid: Grid,
    noise: NoiseBundle,
    workers: int = 1,
    increments: np.ndarray | None = None,
) -> TrajectoryBatch:
    """Euler-Maruyama recursion X_{k+1} = X_k + b dt + sigma dW per path."""
    if abs(grid.t_start - t) > 1e-12 * max(1.0, abs(t)):
        raise ValueError(f"grid starts at {grid.t_start}, expected {t}")
    if noise.n_steps != grid.n_steps:
        raise ValueError("noise bundle and grid disagree on the number of steps")
    b = _coef_markov(spec.b)
    sigma = _coef_markov(spec.sigma)
    dt = grid.dt
    times = grid.times
    x0 = np.asarray(x, dtype=float)
    vector_state = x0.ndim > 0
    if vector_state and x0.size != noise.d:
        raise ValueError(f"state dimension {x0.size} does not match noise d={noise.d}")

    if vector_state:
        values = np.empty((noise.n_paths, grid.n_steps + 1, noise.d))
    else:
        values = np.empty((noise.n_paths, grid.n_steps + 1))

    def simulate(p0: int, p1: int) -> None:
        dW = increments[p0:p1] if increments is not None else noise.increments(dt, p0, p1)
        X = np.broadcast_to(x0, (p1 - p0, noise.d)).copy() if vector_state else np.full(p1 - p0, float(x0))
        values[p0:p1, 0] = X
        for k in range(grid.n_steps):
            dw = dW[:, k, :] if vector_state else dW[:, k, 0]
            X = X + np.asarray(b(times[k], X), dtype=float) * dt + _apply_sigma(sigma(times[k], X), dw)
            _guard(X, k + 1)
            values[p0:p1, k + 1] = X

    _run_blocks(simulate, noise.n_paths, workers)
    return TrajectoryBatch(grid, values)


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
    t: float,
    eta: Path,
    grid: Grid,
    noise: NoiseBundle,
    workers: int = 1,
    increments: np.ndarray | None = None,
) -> TrajectoryBatch:
    """Euler recursion with coefficients reading the look-back window.

    Cylindrical coefficients are evaluated through running pathwise
    integrals (no window is built).  Generic callables receive a
    WindowBatch view of a rolling buffer whose node spacing equals dt, so
    each step's window is a zero-copy slice.
    """
    if abs(grid.t_start - t) > 1e-12 * max(1.0, abs(t)):
        raise ValueError(f"grid starts at {grid.t_start}, expected {t}")
    if noise.d != 1:
        raise ValueError("path-dependent dynamics are scalar (d = 1)")
    dt = grid.dt
    times = grid.times
    n_steps = grid.n_steps
    values = np.empty((noise.n_paths, n_steps + 1))

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
        dW = increments[p0:p1, :, 0] if increments is not None else noise.increments(dt, p0, p1)[:, :, 0]
        X = np.full(nb, float(eta.values[-1]))
        values[p0:p1, 0] = X

        trackers = {}
        for kind, coef in (b_kind, s_kind):
            if kind == "cyl" and id(coef) not in trackers:
                trackers[id(coef)] = (coef, coef.tracker(X, t0=t, prefix=eta))

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
            bv = coef_at(b_kind, k, s)
            sv = coef_at(s_kind, k, s)
            X_new = X + bv * dt + sv * dW[:, k]
            _guard(X_new, k + 1)
            values[p0:p1, k + 1] = X_new
            if needs_window:
                buf[:, m_win + k] = X_new
            for cf, tracker in trackers.values():
                tracker.advance(s, X, times[k + 1], X_new)
            X = X_new

    _run_blocks(simulate, noise.n_paths, workers)
    return TrajectoryBatch(grid, values, prefix=eta)


def _simulate(spec: SdeSpec, t, start, grid, noise, workers=1) -> TrajectoryBatch:
    if spec.path_dependent:
        return euler_path_dependent(spec, t, start, grid, noise, workers)
    return euler_markov(spec, t, start, grid, noise, workers)


def coupled_sup_error(
    spec_n: SdeSpec,
    spec: SdeSpec,
    t: float,
    start,
    grid: Grid,
    noise: NoiseBundle,
    p: float = 2.0,
    workers: int = 1,
) -> tuple[float, float]:
    """Monte Carlo estimate of E[sup_s |X^n_s - X_s|^p] under common noise.

    Identical specs produce exactly zero: the two recursions consume
    bit-identical increments.
    """
    a = _simulate(spec_n, t, start, grid, noise, workers)
    bb = _simulate(spec, t, start, grid, noise, workers)
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
