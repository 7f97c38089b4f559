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

from dataclasses import dataclass, field
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


def _gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
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

    def mass(self, nodes_per_axis: int = 40) -> float:
        """Tensor-quadrature check of the unit mass."""
        pts, wts = _tensor_rule([1.0 / self.n] * self.q, nodes_per_axis)
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


def mollify(
    g: Callable,
    q: int,
    n: int,
    nodes_per_axis: int = 12,
    family: str = "exp",
) -> Callable:
    """Smooth g: R^q -> R by convolution with the index-n mollifier.

    Returns a callable accepting points of shape (m, q) (or (m,) when
    q == 1) and evaluating the convolution by tensor Gauss-Legendre
    quadrature over the support ball.  The kernel weights are normalised
    by their own quadrature mass, so g == const is reproduced exactly and
    affine g up to rounding (the rule is symmetric).
    """
    if nodes_per_axis < MIN_QUAD_NODES:
        raise ValueError(
            f"nodes_per_axis={nodes_per_axis} below documented minimum {MIN_QUAD_NODES}"
        )
    phi = Mollifier(q, n, family)
    pts, wts = _tensor_rule([1.0 / n] * q, nodes_per_axis)
    kernel = wts * phi(pts)
    kernel = kernel / kernel.sum()

    def smoothed(x):
        x_arr = np.asarray(x, dtype=float)
        scalar_in = x_arr.ndim == 0 or (q == 1 and x_arr.ndim == 0)
        if q == 1:
            x2 = np.atleast_1d(x_arr).reshape(-1, 1)
        else:
            x2 = np.atleast_2d(x_arr)
        # shifted evaluations: (n_points, n_quad)
        shifted = x2[:, None, :] - pts[None, :, :]
        if q == 1:
            vals = np.asarray(g(shifted[..., 0]), dtype=float)
        else:
            vals = np.asarray(g(shifted), dtype=float)
        out = vals @ kernel
        return float(out[0]) if (scalar_in or np.isscalar(x)) else out

    return smoothed


# ---------------------------------------------------------------------------
# Trigonometric basis and Fejer projection


@dataclass(frozen=True)
class FourierBasis:
    """Orthonormal trigonometric basis of L^2([-T, 0]).

    Index 0 is the constant 1/sqrt(T); odd index 2k-1 is the sine and even
    index 2k the cosine at frequency k over the period T.  Index -1 denotes
    the non-orthonormal linear member x, used by the trend operator.
    """

    horizon: float
    max_index: int

    def _freq(self, i: int) -> float:
        return 2.0 * np.pi * ((i + 1) // 2) / self.horizon

    def evaluate(self, i: int, x) -> np.ndarray:
        T = self.horizon
        x = np.asarray(x, dtype=float)
        if i == -1:
            return x.copy()
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
        if i == -1:
            return 0.5 * (x * x - T * T)
        if i == 0:
            return (x + T) / np.sqrt(T)
        w = self._freq(i)
        if i % 2 == 1:
            return np.sqrt(2.0 / T) * (1.0 - np.cos(w * (x + T))) / w
        return np.sqrt(2.0 / T) * np.sin(w * (x + T)) / w

    def x_moment(self, i: int) -> float:
        """Closed form of int_{-T}^0 x e_i(x) dx."""
        T = self.horizon
        if i == 0:
            return -(T**1.5) / 2.0
        if i % 2 == 1:
            return -np.sqrt(2.0 / T) * T * T / (2.0 * np.pi * ((i + 1) // 2))
        return 0.0

    def gram_matrix(self, n_quad: int | None = None) -> np.ndarray:
        """Quadrature Gram matrix of e_0..e_max on [-T, 0].

        Periodic trapezoid is exact to rounding for these band-limited
        products once the node count clears the Nyquist rate.
        """
        if n_quad is None:
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
    top = float(basis.antiderivative(i, 0.0))
    psi = lambda x: top - basis.antiderivative(i, x)
    psi_prime = lambda x: -basis.evaluate(i, x)
    return forward_integral(psi, psi_prime, path)


def _fejer_weights(n: int) -> np.ndarray:
    return (n + 1 - np.arange(n + 1)) / (n + 1)


def fejer_project(path: Path, n: int, basis: FourierBasis) -> Path:
    """Order-n smooth projection: Fejer mean of the detrended path plus trend.

    The Cesaro weights (n+1-i)/(n+1) make the periodic part a sup-norm
    contraction of the detrended path; the output converges uniformly to
    the input as n grows.
    """
    if n > basis.max_index:
        raise ValueError(f"order {n} exceeds basis max_index {basis.max_index}")
    trend = linear_trend(path)
    residual = Path(path.horizon, path.values - trend.values)
    coeffs = np.array([fourier_coeff(residual, i, basis) for i in range(n + 1)])
    xs = path.nodes
    E = np.stack([basis.evaluate(i, xs) for i in range(n + 1)])
    vals = _fejer_weights(n) @ (coeffs[:, None] * E) + trend.values
    return Path(path.horizon, vals)


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


def smooth_terminal(
    H: Callable,
    n: int,
    horizon: float,
    basis: FourierBasis | None = None,
    gamma_form: bool = False,
) -> Callable:
    """Smooth a path functional H by projection and endpoint mollification.

    Returns the functional

        H_n(eta) = H( T_n eta + correction * I_n(eta) ),

    where T_n is the order-n Fejer projection, I_n(eta) is the trapezoid
    value of int (eta(x) - eta(-T)) phi_n(x+T) dx against the one-sided
    edge bump, and the correction path collects the weighted x-moment
    coefficients a_i of the projection:

        correction = sum_{i=0}^n w_i a_i e_i + a_{-1} e_{-1},
        a_{-1} = -1/T,  a_i = (1/T) int x e_i dx.

    With ``gamma_form=True`` the correction is assembled instead as
    T_n(gamma) + e_{-1}/(T(T-1)) with gamma(x) = -x/(T-1); that grouping is
    singular at T == 1 and, because gamma is a fixed point of the trend
    operator, collapses to -x/T, which differs from the weighted-moment
    form.  The default form is the one obtained by direct substitution of
    the endpoint average into the projected coordinates and is valid for
    every horizon.
    """
    if n < 1:
        raise ValueError(f"smoothing index must be >= 1, got {n}")
    T = horizon
    if basis is None:
        basis = FourierBasis(T, max_index=max(n, 1))

    weights = _fejer_weights(n)

    def correction_values(xs: np.ndarray) -> np.ndarray:
        if gamma_form:
            if abs(T - 1.0) < 1e-12:
                raise ValueError("gamma_form correction is singular at horizon T == 1")
            gamma = Path.from_function(lambda x: -x / (T - 1.0), T, xs.size)
            tn_gamma = fejer_project(gamma, n, basis)
            return tn_gamma.values + xs / (T * (T - 1.0))
        vals = (-1.0 / T) * xs
        for i in range(n + 1):
            a_i = basis.x_moment(i) / T
            if a_i != 0.0:
                vals = vals + weights[i] * a_i * basis.evaluate(i, xs)
        return vals

    def argument(eta: Path) -> Path:
        if abs(eta.horizon - T) > 1e-12 * max(1.0, T):
            raise ValueError(f"path horizon {eta.horizon} does not match functional horizon {T}")
        xs = eta.nodes
        projected = fejer_project(eta, n, basis)
        inner = np.trapezoid((eta.values - eta.values[0]) * edge_bump(T, n, xs + T), xs)
        return Path(T, projected.values + correction_values(xs) * inner)

    def smoothed(eta: Path) -> float:
        return float(H(argument(eta)))

    smoothed.argument = argument
    return smoothed


# ---------------------------------------------------------------------------
# Finite-dimensional anisotropic smoothing


def default_half_widths(M: int) -> np.ndarray:
    """Geometric box half-widths 2^-(i+1) for coordinates i = 1..M."""
    return 2.0 ** (-(np.arange(1, M + 1) + 1.0))


def smooth_finite_dim(
    base: Callable,
    M: int,
    k: int,
    half_widths: Sequence[float] | None = None,
    nodes_per_axis: int = 12,
    mc_samples: int | None = None,
    mc_seed: int = 0,
) -> Callable:
    """Smooth base: R^M -> R with the anisotropic product bump, scale 1/k.

    The kernel is the product of one-dimensional bumps with per-coordinate
    half-widths h_i/k; larger k means less smoothing.  Up to M = 6 the
    convolution uses a full tensor Gauss-Legendre rule; beyond that a
    Monte Carlo rule over the box is required (pass ``mc_samples``), and
    the returned callable exposes ``last_std_error``.
    """
    if k < 1:
        raise ValueError(f"scale index k must be >= 1, got {k}")
    if half_widths is None:
        half_widths = default_half_widths(M)
    half_widths = np.asarray(half_widths, dtype=float)
    if half_widths.shape != (M,):
        raise ValueError(f"half_widths shape {half_widths.shape} inconsistent with M={M}")
    scaled = half_widths / k

    def kernel(z: np.ndarray) -> np.ndarray:
        # product bump on prod [-h_i/k, h_i/k], unnormalised
        r2 = (z / scaled[None, :]) ** 2
        vals = np.ones(z.shape[0])
        for i in range(M):
            col = np.zeros(z.shape[0])
            inside = r2[:, i] < 1.0
            col[inside] = np.exp(1.0 / (r2[inside, i] - 1.0))
            vals *= col
        return vals

    if M <= TENSOR_DIM_CAP:
        pts, wts = _tensor_rule(scaled, nodes_per_axis)
        kv = wts * kernel(pts)
        kv = kv / kv.sum()

        def smoothed(xi):
            xi2 = np.atleast_2d(np.asarray(xi, dtype=float))
            shifted = xi2[:, None, :] - pts[None, :, :]
            vals = np.asarray(base(shifted.reshape(-1, M)), dtype=float).reshape(xi2.shape[0], -1)
            out = vals @ kv
            return float(out[0]) if np.asarray(xi).ndim == 1 else out

        return smoothed

    if mc_samples is None:
        raise ValueError(
            f"M={M} exceeds tensor-quadrature cap {TENSOR_DIM_CAP}; pass mc_samples for the Monte Carlo rule"
        )
    rng = np.random.default_rng(mc_seed)
    pts = rng.uniform(-scaled, scaled, size=(mc_samples, M))
    kv = kernel(pts)
    kv = kv / kv.sum()

    def smoothed_mc(xi):
        xi2 = np.atleast_2d(np.asarray(xi, dtype=float))
        shifted = xi2[:, None, :] - pts[None, :, :]
        vals = np.asarray(base(shifted.reshape(-1, M)), dtype=float).reshape(xi2.shape[0], -1)
        out = vals @ kv
        # self-normalised importance-sampling standard error
        se = np.sqrt(((vals - out[:, None]) ** 2) @ (kv**2))
        smoothed_mc.last_std_error = se if np.asarray(xi).ndim > 1 else float(se[0])
        return float(out[0]) if np.asarray(xi).ndim == 1 else out

    smoothed_mc.last_std_error = None
    return smoothed_mc


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


@dataclass(frozen=True)
class CylindricalFunctional:
    """A smooth function of finitely many pathwise integrals.

    Realises functionals of the form

        U(t, eta) = base(t, F_1(t, eta), ..., F_N(t, eta)),
        F_j(t, eta) = phi_j(t) eta(0) - int_{-t}^0 phi_j'(x + t) eta(x) dx,

    i.e. base applied to the pathwise integrals of phi_j(. + t) against
    d-eta over [-t, 0].  ``base`` is vectorised: base(t, F) with F of shape
    (m, N) returns shape (m,).  Optional derivative callables (same
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
        out = np.empty(self.n_features)
        if t <= 0:
            for j, ig in enumerate(self.integrands):
                out[j] = float(ig.phi(0.0)) * float(eta.values[-1])
            return out
        xs_all = eta.nodes
        sub = xs_all[xs_all > -t]
        xs = np.concatenate(([-t], sub)) if (sub.size == 0 or sub[0] > -t) else sub
        vals = eta(xs)
        for j, ig in enumerate(self.integrands):
            lebesgue = np.trapezoid(np.asarray(ig.dphi(xs + t), dtype=float) * vals, xs)
            out[j] = float(ig.phi(t)) * float(eta.values[-1]) - lebesgue
        return out

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
        xs_all = eta.nodes
        sub = xs_all[xs_all > -t]
        xs = np.concatenate(([-t], sub)) if (sub.size == 0 or sub[0] > -t) else sub
        vals = eta(xs)
        for j, ig in enumerate(self.integrands):
            if ig.d2phi is None:
                raise ValueError("horizontal derivative needs d2phi on every integrand")
            second = np.trapezoid(np.asarray(ig.d2phi(xs + t), dtype=float) * vals, xs)
            dt_feature = (
                float(ig.dphi(t)) * float(eta.values[-1])
                - float(ig.dphi(0.0)) * float(eta(-t))
                - second
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
        """Feature matrix of shape (n_paths, N) at time s with present values x."""
        cols = [float(ig.phi(s)) * x - self.accum[j] for j, ig in enumerate(self.integrands)]
        return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# Documented smooth test corpus for the projection sweep


def smooth_corpus(horizon: float = 1.0, n_nodes: int = 2049) -> dict[str, Path]:
    """Named smooth paths used by the projection convergence checks.

    Kept deliberately band-limited-ish: pure low modes plus one smooth
    non-periodic entry whose detrended part has a mild seam kink.
    """
    T = horizon

    def make(f):
        return Path.from_function(f, T, n_nodes)

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
