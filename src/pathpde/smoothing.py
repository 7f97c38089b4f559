"""Smoothing operators: mollifiers, Fejer path projection, terminal smoothing.

Three regularisation devices are provided, all built from classical
ingredients:

* compactly supported bump mollifiers on R^q, used to smooth Markovian
  coefficients by convolution;
* a trigonometric basis on [-T, 0] together with the endpoint-trend
  operator and Fejer (Cesaro) weights, giving a uniformly convergent,
  sup-norm-contractive projection of continuous paths onto smooth ones;
* a one-sided bump that replaces the left endpoint eta(-T) of a path
  functional's argument by a local average, plus an anisotropic
  finite-dimensional mollifier for functions of the projected coordinates.

All convolutions use tensor Gauss-Legendre quadrature on the (compact)
support and are normalised by the quadrature mass of the kernel itself, so
constants are reproduced exactly and affine functions up to rounding.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .paths import Path, forward_integral

__all__ = [
    "Mollifier",
    "mollify",
    "FourierBasis",
    "linear_trend",
    "fourier_coeff",
    "fejer_project",
    "smooth_terminal",
    "smooth_finite_dim",
    "select_diagonal",
    "Integrand",
    "CylindricalFunctional",
    "FeatureTracker",
    "NonConvergenceError",
    "smooth_corpus",
]

MIN_QUAD_NODES = 4
TENSOR_DIM_CAP = 6


class NonConvergenceError(RuntimeError):
    """A diagonal selection or schedule failed to meet its tolerance."""


@cache
def _unit_gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1], read-only: solved once per n.

    ``leggauss`` solves a dense eigenproblem; the mollifiers and the edge
    bump ask for the same 200-node rule at every rung they build.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _unit_gauss_legendre(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def _bump_profile(r2: np.ndarray, family: str) -> np.ndarray:
    """Unnormalised radial profile at squared radius r2 < 1."""
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    if family == "exp":
        out[inside] = np.exp(1.0 / (r2[inside] - 1.0))
    elif family == "poly":
        out[inside] = (1.0 - r2[inside]) ** 4
    else:
        raise ValueError(f"unknown mollifier family {family!r}")
    return out


_SPHERE_AREA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


@dataclass(frozen=True)
class Mollifier:
    """Unit-mass bump n^q * phi(n w) supported on the ball |w| <= 1/n."""

    q: int
    n: int
    family: str = "exp"
    normalizer: float = field(init=False)

    def __post_init__(self) -> None:
        if self.q not in _SPHERE_AREA:
            raise ValueError(f"mollifier dimension q={self.q} not supported (q in 1..3)")
        if self.n < 1:
            raise ValueError(f"mollifier index must be >= 1, got {self.n}")
        # unit mass on the ball via the radial integral, high-order rule
        r, w = _gauss_legendre(0.0, 1.0, 200)
        mass = _SPHERE_AREA[self.q] * np.sum(w * r ** (self.q - 1) * _bump_profile(r * r, self.family))
        object.__setattr__(self, "normalizer", 1.0 / mass)

    def __call__(self, w: np.ndarray) -> np.ndarray:
        """Evaluate phi_{q,n} at points w of shape (..., q)."""
        w = np.asarray(w, dtype=float)
        r2 = np.sum((self.n * w) ** 2, axis=-1)
        return self.n**self.q * self.normalizer * _bump_profile(r2, self.family)

    def mass(self) -> float:
        """Tensor-quadrature check of the unit mass, on 40 Gauss-Legendre nodes per axis."""
        pts, wts = _tensor_rule([1.0 / self.n] * self.q, 40)
        return float(np.sum(wts * self(pts)))


def _tensor_rule(half_widths: Sequence[float], nodes_per_axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule on the box prod [-h_i, h_i]."""
    axes = [_gauss_legendre(-h, h, nodes_per_axis) for h in half_widths]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wts = np.ones(pts.shape[0])
    for k, (_, w) in enumerate(axes):
        shape = [1] * len(axes)
        shape[k] = w.size
        wts = wts * np.broadcast_to(w.reshape(shape), [a[0].size for a in axes]).ravel()
    return pts, wts


def _mollifier_rule(q: int, n: int, nodes_per_axis: int, family: str) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and kernel weights of the index-n mollifier on R^q.

    The nodes are the tensor Gauss-Legendre rule on the box [-1/n, 1/n]^q;
    each weight is the rule's weight times the mollifier at its node, and
    the weights are normalised by their own sum, so constants are
    reproduced exactly and affine functions up to rounding (the rule is
    symmetric).  Apply the weights as ``np.sum(vals * kernel, axis=-1)``:
    each row's sum then does not depend on how many rows are evaluated
    together, as it does with a BLAS matrix-vector product, so forward
    paths split into worker blocks stay bit-identical.
    """
    if nodes_per_axis < MIN_QUAD_NODES:
        raise ValueError(
            f"nodes_per_axis={nodes_per_axis} below documented minimum {MIN_QUAD_NODES}"
        )
    phi = Mollifier(q, n, family)
    pts, wts = _tensor_rule([1.0 / n] * q, nodes_per_axis)
    kernel = wts * phi(pts)
    return pts, kernel / kernel.sum()


_CONVOLVE_ROWS = 2**18  # the most shifted rows _convolve hands g in one call


def _convolve(g: Callable, x2: np.ndarray, pts: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The quadrature convolution sum_j kernel_j g(x - pts_j) at each row x of x2.

    ``x2`` holds m points as rows (m, q) and ``pts`` the Q nodes of the
    rule (Q, q).  g is called once per block of at most ``_CONVOLVE_ROWS
    // Q`` points, on its shifted rows, and may return one value per
    row or a vector (a drift); the node axis is moved last and the
    weights applied as ``np.sum(vals * kernel, axis=-1)`` on a contiguous
    array.  Each row's value then does not depend on how many rows are
    evaluated together, as it would with a BLAS matrix-vector product, so
    the blocks, and forward paths split into worker blocks, are bit-identical.
    """
    m, Q = x2.shape[0], pts.shape[0]
    step = max(1, _CONVOLVE_ROWS // Q)
    if m > step:
        return np.concatenate([_convolve(g, x2[r0 : r0 + step], pts, kernel) for r0 in range(0, m, step)])
    vals = np.asarray(g((x2[:, None, :] - pts[None, :, :]).reshape(m * Q, -1)), dtype=float)
    vals = np.ascontiguousarray(np.moveaxis(vals.reshape(m, Q, *vals.shape[1:]), 1, -1))
    return np.sum(vals * kernel, axis=-1)


def mollify(
    g: Callable,
    q: int,
    n: int,
    nodes_per_axis: int = 12,
    family: str = "exp",
) -> Callable:
    """Smooth g: R^q -> R by convolution with the index-n mollifier.

    Returns a callable accepting points of shape (m, q) (or (m,) when
    q == 1) and evaluating the convolution with the quadrature of
    ``_mollifier_rule`` through ``_convolve``.  g is called once, on all
    shifted points as rows of shape (m * Q, q) (or (m * Q,) when q == 1)
    for a rule of Q nodes, so it keeps the (m, q) -> (m,) contract of a
    terminal.
    """
    pts, kernel = _mollifier_rule(q, n, nodes_per_axis, family)
    g_rows = (lambda rows: g(rows[:, 0])) if q == 1 else g

    def smoothed(x):
        x_arr = np.asarray(x, dtype=float)
        x2 = x_arr.reshape(-1, 1) if q == 1 else np.atleast_2d(x_arr)
        out = _convolve(g_rows, x2, pts, kernel)
        return float(out[0]) if x_arr.ndim == 0 else out

    return smoothed


# ---------------------------------------------------------------------------
# Trigonometric basis and Fejer projection


@dataclass(frozen=True)
class FourierBasis:
    """Orthonormal trigonometric basis of L^2([-T, 0]).

    Index 0 is the constant 1/sqrt(T); odd index 2k-1 is the sine and even
    index 2k the cosine at frequency k over the period T.  A negative
    index raises ``ValueError``.
    """

    horizon: float
    max_index: int

    def _freq(self, i: int) -> float:
        if i < 1:
            raise ValueError(f"basis index must be >= 0, got {i}")
        return 2.0 * np.pi * ((i + 1) // 2) / self.horizon

    def evaluate(self, i: int, x) -> np.ndarray:
        T = self.horizon
        x = np.asarray(x, dtype=float)
        if i == 0:
            return np.full_like(x, 1.0 / np.sqrt(T))
        w = self._freq(i)
        if i % 2 == 1:
            return np.sqrt(2.0 / T) * np.sin(w * (x + T))
        return np.sqrt(2.0 / T) * np.cos(w * (x + T))

    def antiderivative(self, i: int, x) -> np.ndarray:
        """Integral of e_i from -T to x."""
        T = self.horizon
        x = np.asarray(x, dtype=float)
        if i == 0:
            return (x + T) / np.sqrt(T)
        w = self._freq(i)
        if i % 2 == 1:
            return np.sqrt(2.0 / T) * (1.0 - np.cos(w * (x + T))) / w
        return np.sqrt(2.0 / T) * np.sin(w * (x + T)) / w

    def x_moment(self, i: int) -> float:
        """Closed form of int_{-T}^0 x e_i(x) dx."""
        if i < 0:
            raise ValueError(f"basis index must be >= 0, got {i}")
        T = self.horizon
        if i == 0:
            return -(T**1.5) / 2.0
        if i % 2 == 1:
            return -np.sqrt(2.0 / T) * T * T / (2.0 * np.pi * ((i + 1) // 2))
        return 0.0

    def gram_matrix(self) -> np.ndarray:
        """Quadrature Gram matrix of e_0..e_max on [-T, 0].

        Periodic trapezoid is exact to rounding for these band-limited
        products once the node count clears the Nyquist rate; the rule
        takes 8 (max_index + 2) + 64 intervals, well clear of it.
        """
        n_quad = 8 * (self.max_index + 2) + 64
        xs = np.linspace(-self.horizon, 0.0, n_quad + 1)
        E = np.stack([self.evaluate(i, xs) for i in range(self.max_index + 1)])
        w = np.full(n_quad + 1, self.horizon / n_quad)
        w[0] *= 0.5
        w[-1] *= 0.5
        return (E * w) @ E.T


def linear_trend(path: Path) -> Path:
    """The linear path x * (eta(0) - eta(-T)) / T.

    Subtracting it equalises the endpoints, so the remainder extends
    periodically and admits a Fourier expansion.
    """
    slope = (path.values[-1] - path.values[0]) / path.horizon
    return Path(path.horizon, slope * path.nodes)


def fourier_coeff(path: Path, i: int, basis: FourierBasis) -> float:
    """Coefficient of the path against e_i via the pathwise-integral form.

    Evaluates integral((e~_i(0) - e~_i(x)) d-eta), which agrees with the
    direct quadrature of eta * e_i to grid accuracy.
    """
    if i > basis.max_index:
        raise ValueError(f"index {i} exceeds basis max_index {basis.max_index}")
    if abs(basis.horizon - path.horizon) > 1e-12 * max(1.0, path.horizon):
        raise ValueError(f"basis horizon {basis.horizon} differs from path horizon {path.horizon}")
    # psi(x) = e~_i(0) - e~_i(x): psi(0) = 0 and psi' = -e_i
    return float(forward_integral(0.0, -basis.evaluate(i, path.nodes), path.nodes, path.values))


def _fejer_weights(n: int) -> np.ndarray:
    return (n + 1 - np.arange(n + 1)) / (n + 1)


def _trapezoid_weights(xs: np.ndarray) -> np.ndarray:
    """Weights w with w @ f == np.trapezoid(f, xs) up to rounding."""
    half = 0.5 * np.diff(xs)
    w = np.zeros(xs.size)
    w[:-1] += half
    w[1:] += half
    return w


@dataclass(frozen=True)
class _FejerLayout:
    """The order-n Fejer projection on m uniform nodes of [-T, 0].

    The pathwise-integral coefficient of the detrended path against e_i
    reduces to the trapezoid sum of e_i times the path (its boundary term
    vanishes), so once the basis is sampled on the nodes the projection of
    any stack of rows is two matrix products.
    """

    horizon: float
    xs: np.ndarray  # (m,)
    weighted: np.ndarray  # (n+1, m): e_i(x_j) times the trapezoid weight of x_j
    fejer: np.ndarray  # (n+1, m): (n+1-i)/(n+1) * e_i(x_j)

    @classmethod
    def build(cls, n: int, basis: FourierBasis, horizon: float, m: int) -> "_FejerLayout":
        if n > basis.max_index:
            raise ValueError(f"order {n} exceeds basis max_index {basis.max_index}")
        if abs(basis.horizon - horizon) > 1e-12 * max(1.0, horizon):
            raise ValueError(f"basis horizon {basis.horizon} differs from path horizon {horizon}")
        xs = np.linspace(-horizon, 0.0, m)
        E = np.stack([basis.evaluate(i, xs) for i in range(n + 1)])
        return cls(horizon, xs, E * _trapezoid_weights(xs), _fejer_weights(n)[:, None] * E)

    def project(self, V: np.ndarray) -> np.ndarray:
        """Project every row of V, shape (..., m): Fejer mean of the detrended row plus trend."""
        trend = ((V[..., -1] - V[..., 0]) / self.horizon)[..., None] * self.xs
        return ((V - trend) @ self.weighted.T) @ self.fejer + trend


def fejer_project(path: Path, n: int, basis: FourierBasis) -> Path:
    """Order-n smooth projection: Fejer mean of the detrended path plus trend.

    The Cesaro weights (n+1-i)/(n+1) make the periodic part a sup-norm
    contraction of the detrended path; the output converges uniformly to
    the input as n grows.  The trend is ``linear_trend(path)`` and the
    coefficients are ``fourier_coeff`` of the detrended path, in closed form.
    """
    layout = _FejerLayout.build(n, basis, path.horizon, path.n_nodes)
    return Path(path.horizon, layout.project(path.values))


# ---------------------------------------------------------------------------
# Terminal-functional smoothing


def _edge_bump_normalizer(T: float) -> float:
    u, w = _gauss_legendre(0.0, T, 200)
    return 1.0 / float(np.sum(w * np.exp(1.0 / (u * u - T * T))))


def edge_bump(T: float, m: int, u) -> np.ndarray:
    """One-sided unit-mass bump m*phi(m u), phi supported on [0, T)."""
    u = np.asarray(u, dtype=float)
    c = _edge_bump_normalizer(T)
    arg = m * u
    out = np.zeros_like(u)
    inside = (arg >= 0.0) & (arg < T)
    out[inside] = m * c * np.exp(1.0 / (arg[inside] ** 2 - T * T))
    return out


def smooth_terminal(H: Callable, n: int, horizon: float) -> Callable:
    """Smooth a path functional H by projection and endpoint mollification.

    Returns the functional

        H_n(eta) = H( T_n eta + correction * I_n(eta) ),

    where T_n is the order-n Fejer projection, I_n(eta) is the trapezoid
    value of int (eta(x) - eta(-T)) phi_n(x+T) dx against the one-sided
    edge bump, and the correction path collects the weighted x-moment
    coefficients a_i of the projection:

        correction(x) = sum_{i=0}^n w_i a_i e_i(x) - x / T,
        a_i = (1/T) int x e_i dx.

    This is the form obtained by direct substitution of the endpoint average
    into the projected coordinates of ``FourierBasis(horizon, n)``; it is
    valid for every horizon.

    The argument of H is linear in the path samples, of rank n + 3 on m
    uniform nodes: its coordinates are the n + 1 Fejer coefficients of the
    detrended path, the trend's slope (eta(0) - eta(-T)) / T and I_n.
    ``factors(m)`` returns the map as two factors, A of shape (m, n + 3)
    taking the samples to those coordinates and B of shape (n + 3, m)
    taking them to the argument's samples: the weighted basis with the
    slope's share taken out, then the Fejer-weighted basis, the nodes
    and the correction.  The factors are built once per node count m,
    also when the lanes of a forward pass ask for them together.
    ``argument_rows(values)`` is the one product of the factors with
    samples, ``B.T @ (A.T @ values.T)``: k sample rows (k, m) on the
    uniform nodes in, their arguments out as m step rows (m, k), one
    column per path.  A single row is doubled so that it too runs through
    BLAS gemm and rounds like its column in any batch, so a caller may
    hand it the rows in tiles: the solver's forward pass hands its
    smoother one tile of 256 paths' windows at a time, which keeps the
    (n + 3) x k coordinates and m x k argument in cache.
    ``argument(eta)``, the argument of one path as a Path, is
    ``argument_rows`` on one row.
    """
    if n < 1:
        raise ValueError(f"smoothing index must be >= 1, got {n}")
    T = horizon
    basis = FourierBasis(T, max_index=n)
    built: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    lock = threading.Lock()

    def factors(m: int) -> tuple[np.ndarray, np.ndarray]:
        with lock:
            if m not in built:
                fejer = _FejerLayout.build(n, basis, T, m)
                xs = fejer.xs
                slope = np.zeros(m)  # the samples' functional (eta(0) - eta(-T)) / T
                slope[-1] += 1.0 / T
                slope[0] -= 1.0 / T
                bump = _trapezoid_weights(xs) * edge_bump(T, n, xs + T)
                inner = bump.copy()  # I_n: the bump sum of eta - eta(-T)
                inner[0] -= bump.sum()
                moments = np.array([basis.x_moment(i) for i in range(n + 1)]) / T
                correction = moments @ fejer.fejer - xs / T
                A = np.column_stack([fejer.weighted.T - np.outer(slope, fejer.weighted @ xs), slope, inner])
                B = np.vstack([fejer.fejer, xs, correction])
                built[m] = (A, B)
            return built[m]

    def argument_rows(values: np.ndarray) -> np.ndarray:
        A, B = factors(values.shape[1])
        k = values.shape[0]
        if k == 1:  # numpy hands one column to gemv, which rounds unlike gemm
            values = np.repeat(values, 2, axis=0)
        return (B.T @ (A.T @ values.T))[:, :k]

    def argument(eta: Path) -> Path:
        if abs(eta.horizon - T) > 1e-12 * max(1.0, T):
            raise ValueError(f"path horizon {eta.horizon} does not match functional horizon {T}")
        return Path(T, argument_rows(eta.values[None])[:, 0])

    def smoothed(eta: Path) -> float:
        return float(H(argument(eta)))

    smoothed.argument = argument
    smoothed.argument_rows = argument_rows
    smoothed.factors = factors
    return smoothed


# ---------------------------------------------------------------------------
# Finite-dimensional anisotropic smoothing


def smooth_finite_dim(base: Callable, M: int, k: int, nodes_per_axis: int = 12) -> Callable:
    """Smooth base: R^M -> R with the anisotropic product bump, scale 1/k.

    The kernel is the product of one-dimensional ``exp`` bumps on the box
    prod [-h_i/k, h_i/k] with geometric half-widths h_i = 2^-(i+1) for
    coordinates i = 1..M; larger k means less smoothing.  The convolution
    uses the full tensor Gauss-Legendre rule on that box, normalised by
    its own mass, and is evaluated by ``_convolve``: base is called once
    per evaluation and each row's value does not depend on the other rows.
    Dimensions above ``TENSOR_DIM_CAP`` = 6 are rejected.  The returned
    callable takes points of shape (m, M), or one point of shape (M,) for
    a float.
    """
    if k < 1:
        raise ValueError(f"scale index k must be >= 1, got {k}")
    if M > TENSOR_DIM_CAP:
        raise ValueError(f"M={M} exceeds tensor-quadrature cap {TENSOR_DIM_CAP}")
    scaled = 2.0 ** (-(np.arange(1, M + 1) + 1.0)) / k
    pts, wts = _tensor_rule(scaled, nodes_per_axis)
    kernel = wts * np.prod(_bump_profile((pts / scaled) ** 2, "exp"), axis=-1)
    kernel = kernel / kernel.sum()

    def smoothed(xi):
        out = _convolve(base, np.atleast_2d(np.asarray(xi, dtype=float)), pts, kernel)
        return float(out[0]) if np.asarray(xi).ndim == 1 else out

    return smoothed


# ---------------------------------------------------------------------------
# Diagonal selection


def select_diagonal(
    family: Callable,
    targets: Callable,
    probe_points: Sequence,
    n_max: int,
    k_max: int = 1000,
) -> np.ndarray:
    """Pick a nondecreasing inner-index sequence achieving tolerance 1/n.

    ``family(n, k)`` and ``targets(n)`` must return arrays of values over
    ``probe_points``.  For each n the smallest k is found such that the
    first min(n, #probes) probe values of family(n, k) are within 1/n of
    targets(n); the returned k_n is the running maximum of these, starting
    from k_0 = 0.  Raises NonConvergenceError naming the offending probe
    if k_max is exhausted.
    """
    probes = list(probe_points)
    ks = np.zeros(n_max + 1, dtype=int)
    for n in range(1, n_max + 1):
        tol = 1.0 / n
        target = np.asarray(targets(n), dtype=float)
        m = min(n, len(probes))
        found = None
        for k in range(0, k_max + 1):
            vals = np.asarray(family(n, k), dtype=float)
            err = np.abs(vals[:m] - target[:m])
            if np.all(err <= tol):
                found = k
                break
        if found is None:
            vals = np.asarray(family(n, k_max), dtype=float)
            err = np.abs(vals[:m] - target[:m])
            j = int(np.argmax(err))
            raise NonConvergenceError(
                f"family did not reach tolerance {tol:g} at stage n={n} within k_max={k_max}; "
                f"worst probe {probes[j]!r} with gap {err[j]:g}"
            )
        ks[n] = max(ks[n - 1], found)
    return ks[1:]


# ---------------------------------------------------------------------------
# Cylindrical functionals


@dataclass(frozen=True)
class Integrand:
    """A C^2 integrand on [0, T] with its derivatives."""

    phi: Callable
    dphi: Callable
    d2phi: Callable | None = None


def _recent_window(t: float, eta: Path) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of eta inside (-t, 0] with -t prepended, and eta on them."""
    xs = np.concatenate(([-t], eta.nodes[eta.nodes > -t]))
    return xs, eta(xs)


@dataclass(frozen=True)
class CylindricalFunctional:
    """A smooth function of finitely many pathwise integrals.

    Realises functionals of the form

        U(t, eta) = base(t, F_1(t, eta), ..., F_N(t, eta)),
        F_j(t, eta) = phi_j(t) eta(0) - int_{-t}^0 phi_j'(x + t) eta(x) dx,

    i.e. base applied to the pathwise integrals of phi_j(. + t) against
    d-eta over [-t, 0].  ``base`` is vectorised: base(t, F) with F of shape
    (m, N) returns shape (m,); F may not be C-ordered (a tracker's features
    are the transpose of (N, m) rows).  Optional derivative callables (same
    vectorised convention) enable exact functional derivatives:

        vertical    D^V  = sum_j d_j base * phi_j(t)
        vertical 2  D^VV = sum_jl d2_jl base * phi_j(t) phi_l(t)
        time + horizontal = d_t base       (the two split via base_grad
                                            and the second derivatives of
                                            the integrands)
    """

    base: Callable
    integrands: tuple[Integrand, ...]
    base_t: Callable | None = None
    base_grad: Callable | None = None
    base_hess: Callable | None = None

    @property
    def n_features(self) -> int:
        return len(self.integrands)

    def features(self, t: float, eta: Path) -> np.ndarray:
        """Feature vector F(t, eta) from a single window path."""
        if t < 0 or t > eta.horizon + 1e-12:
            raise ValueError(f"time {t} outside [0, {eta.horizon}]")
        return self._integrals(t, *_recent_window(t, eta))

    def _integrals(self, t: float, xs: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Features of each row of ``values`` on the nodes ``xs`` of [-t, 0], shape (..., N)."""
        return np.stack(
            [forward_integral(float(ig.phi(t)), np.asarray(ig.dphi(xs + t), dtype=float), xs, values)
             for ig in self.integrands],
            axis=-1,
        )

    def value(self, t: float, eta: Path) -> float:
        F = self.features(t, eta)[None, :]
        return float(np.asarray(self.base(t, F))[0])

    def tracker(self, x0: np.ndarray, t0: float = 0.0, prefix: Path | None = None) -> "FeatureTracker":
        return FeatureTracker(self.integrands, x0, t0, prefix)

    # -- exact derivatives (require the optional callables) ----------------

    def _need(self, name: str):
        fn = getattr(self, name)
        if fn is None:
            raise ValueError(f"CylindricalFunctional is missing the {name} callable")
        return fn

    def vertical(self, t: float, F: np.ndarray, order: int = 1) -> np.ndarray:
        phis = np.array([float(ig.phi(t)) for ig in self.integrands])
        if order == 1:
            grad = np.asarray(self._need("base_grad")(t, F))
            return grad @ phis
        hess = np.asarray(self._need("base_hess")(t, F))
        return np.einsum("mjl,j,l->m", hess, phis, phis)

    def time_plus_horizontal(self, t: float, F: np.ndarray) -> np.ndarray:
        """(d_t + D^H) U along windows; equals the explicit t-derivative of base."""
        return np.asarray(self._need("base_t")(t, F))

    def horizontal(self, t: float, eta: Path) -> float:
        """Closed-form horizontal derivative at a single (t, eta)."""
        F = self.features(t, eta)[None, :]
        grad = np.asarray(self._need("base_grad")(t, F))[0]
        total = 0.0
        xs, vals = _recent_window(t, eta)
        for j, ig in enumerate(self.integrands):
            if ig.d2phi is None:
                raise ValueError("horizontal derivative needs d2phi on every integrand")
            # d_t F_j: the pathwise integral of phi_j'(. + t), less phi_j'(0) eta(-t)
            dt_feature = (
                forward_integral(float(ig.dphi(t)), np.asarray(ig.d2phi(xs + t), dtype=float), xs, vals)
                - float(ig.dphi(0.0)) * vals[0]
            )
            total += grad[j] * dt_feature
        return -total


class FeatureTracker:
    """Incrementally maintained pathwise-integral features along absolute time.

    For a batch of trajectories X_u the features at time s are
    phi_j(s) X_s - int_0^s phi_j'(u) X_u du; the integral accumulates by
    trapezoid as the simulation advances, so no window is materialised.
    """

    def __init__(self, integrands: Sequence[Integrand], x0: np.ndarray, t0: float = 0.0,
                 prefix: Path | None = None):
        self.integrands = tuple(integrands)
        x0 = np.asarray(x0, dtype=float)
        self.accum = np.zeros((len(self.integrands), x0.size))
        if t0 > 0:
            if prefix is None:
                raise ValueError("a start time t0 > 0 requires the history path")
            us = np.linspace(0.0, t0, max(2, int(np.ceil(t0 / prefix.horizon * (prefix.n_nodes - 1))) + 1))
            vals = prefix(us - t0)
            for j, ig in enumerate(self.integrands):
                self.accum[j, :] = np.trapezoid(np.asarray(ig.dphi(us)) * vals, us)

    def advance(self, u0: float, x_old: np.ndarray, u1: float, x_new: np.ndarray) -> None:
        h = 0.5 * (u1 - u0)
        for j, ig in enumerate(self.integrands):
            self.accum[j] += h * (float(ig.dphi(u0)) * x_old + float(ig.dphi(u1)) * x_new)

    def features(self, s: float, x: np.ndarray) -> np.ndarray:
        """Feature matrix of shape (n_paths, N) at time s with present values x.

        It is the transpose of (N, n_paths) rows, formed in one broadcast,
        so each feature is a contiguous column.
        """
        phis = np.array([float(ig.phi(s)) for ig in self.integrands])
        return (phis[:, None] * x - self.accum).T


# ---------------------------------------------------------------------------
# Documented smooth test corpus for the projection sweep


def smooth_corpus(horizon: float = 1.0) -> dict[str, Path]:
    """Named smooth paths used by the projection convergence checks, each on 2049 nodes.

    Kept deliberately band-limited-ish: pure low modes plus one smooth
    non-periodic entry whose detrended part has a mild seam kink.
    """
    T = horizon

    def make(f):
        return Path.from_function(f, T, 2049)

    return {
        "mode1": make(lambda x: np.sin(2 * np.pi * (x + T) / T)),
        "mode_mix": make(
            lambda x: 0.5 * np.sin(2 * np.pi * (x + T) / T)
            + 0.3 * np.cos(4 * np.pi * (x + T) / T)
            + 0.1 * np.sin(6 * np.pi * (x + T) / T)
        ),
        "quadratic": make(lambda x: (x / T) ** 2 + x / T),
        "gaussian": make(lambda x: np.exp(-10.0 * ((x + 0.5 * T) / T) ** 2)),
    }
