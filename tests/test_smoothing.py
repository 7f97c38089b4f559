import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathpde import smoothing
from pathpde.paths import Path, WindowBatch, sup_norm
from pathpde.smoothing import (
    CylindricalFunctional,
    FeatureTracker,
    FourierBasis,
    Integrand,
    Mollifier,
    NonConvergenceError,
    _FejerLayout,
    _trapezoid_weights,
    edge_bump,
    fejer_project,
    fourier_coeff,
    linear_trend,
    mollify,
    select_diagonal,
    smooth_corpus,
    smooth_finite_dim,
    smooth_terminal,
)
from pathpde.solver import _PATH_TILE, SupTerminal, _LinearTerminalSmoother

# frozen by independent quadrature (scipy.integrate.quad to 1e-14):
# 2 * int_0^1 phi_1(w) w dw for the standard exp bump
MOLLIFIED_ABS_AT_ZERO = 0.3344539977099742
# int rho_k(z) |z| dz over [-1/(4k), 1/(4k)] for the anisotropic bump, M = 1
SMOOTHED_ABS_K1 = 0.08361349942749353
SMOOTHED_ABS_K4 = 0.020903374856873384


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 4, 16])
def test_mollifier_unit_mass(q, n):
    assert abs(Mollifier(q, n).mass() - 1.0) <= 1e-6


def test_mollify_reproduces_affine():
    rng = np.random.default_rng(3)
    for n in (1, 4):
        g = lambda x: 2.5 * x - 1.25
        smoothed = mollify(g, 1, n)
        xs = rng.normal(size=10)
        np.testing.assert_allclose(smoothed(xs), g(xs), atol=1e-8)
    a = np.array([0.3, -1.1, 2.0])
    g3 = lambda x: x @ a + 0.5
    smoothed3 = mollify(g3, 3, 2, nodes_per_axis=8)
    pts = rng.normal(size=(6, 3))
    np.testing.assert_allclose(smoothed3(pts), g3(pts), atol=1e-8)


def test_mollify_hands_g_rows_of_q_coordinates():
    # g keeps the (m, q) -> (m,) contract of a terminal: it indexes columns
    g = lambda x: 1.5 * x[:, 0] - 0.5 * x[:, 1] + 2.0
    smoothed = mollify(g, 2, 3)
    pts = np.random.default_rng(5).normal(size=(7, 2))
    np.testing.assert_allclose(smoothed(pts), g(pts), atol=1e-12)
    assert smoothed(pts[0]).shape == (1,)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 16), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_property_mollify_rows_do_not_depend_on_the_block(q, n, m, seed):
    # forward paths are split into worker blocks: a row's smoothed value
    # must not depend on which rows are evaluated with it
    x = np.random.default_rng(seed).normal(size=(m, q) if q > 1 else m)
    g = (lambda y: np.sin(3.0 * y)) if q == 1 else (lambda y: np.sin(3.0 * y).sum(axis=1))
    smoothed = mollify(g, q, n, nodes_per_axis=6)
    blocks = np.concatenate([smoothed(x[a:a + 3]) for a in range(0, m, 3)])
    assert np.array_equal(smoothed(x), blocks)


def test_mollify_constant_exact():
    smoothed = mollify(lambda x: np.ones_like(x), 1, 7)
    assert smoothed(np.array([0.0, 3.0]))[0] == pytest.approx(1.0, abs=1e-14)


def test_mollify_kink_regression_value():
    # the integrand keeps the kink at the origin, so the tensor rule is
    # only O(nodes^-2) here; high node counts recover the frozen value
    fine = mollify(np.abs, 1, 1, nodes_per_axis=4000)
    assert fine(np.array([0.0]))[0] == pytest.approx(MOLLIFIED_ABS_AT_ZERO, abs=1e-6)
    default = mollify(np.abs, 1, 1, nodes_per_axis=60)
    assert default(np.array([0.0]))[0] == pytest.approx(MOLLIFIED_ABS_AT_ZERO, abs=5e-4)
    assert default(np.array([0.0]))[0] > 0.0


def test_each_unit_gauss_legendre_rule_is_solved_once(monkeypatch):
    calls, leggauss = [], np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: calls.append(n) or leggauss(n))
    smoothing._unit_gauss_legendre.cache_clear()
    for a, b in ((0.0, 1.0), (-0.5, 0.5), (0.0, 1.0)):
        x, w = smoothing._gauss_legendre(a, b, 37)
        np.testing.assert_allclose(w.sum(), b - a, rtol=1e-14)
        x[:] = w[:] = np.nan  # each caller's rule is its own copy
    assert calls == [37]
    unit = smoothing._unit_gauss_legendre(37)
    assert not unit[0].flags.writeable and not unit[1].flags.writeable
    assert [np.array_equal(u, v) for u, v in zip(unit, leggauss(37))] == [True, True]


def test_mollify_rejects_degenerate_rule():
    with pytest.raises(ValueError):
        mollify(np.abs, 1, 1, nodes_per_axis=2)


def test_gram_matrix_orthonormal():
    basis = FourierBasis(2.0, 64)
    err = np.abs(basis.gram_matrix() - np.eye(65)).max()
    assert err <= 1e-6


@pytest.mark.parametrize("call", [lambda b: b.evaluate(-1, 0.3), lambda b: b.evaluate(-2, 0.3),
                                  lambda b: b.antiderivative(-1, 0.3), lambda b: b.antiderivative(-4, 0.3)],
                         ids=["evaluate-1", "evaluate-2", "antiderivative-1", "antiderivative-4"])
def test_a_negative_basis_index_raises(call):
    with pytest.raises(ValueError, match="basis index must be >= 0, got -"):
        call(FourierBasis(1.0, 4))


def test_antiderivatives_integrate_their_members():
    T = 2.0
    basis = FourierBasis(T, 4)
    xs = np.linspace(-T, 0.0, 20_001)
    for i in range(5):
        e = basis.evaluate(i, xs)
        quad = np.concatenate([[0.0], np.cumsum(0.5 * (e[1:] + e[:-1]) * np.diff(xs))])
        np.testing.assert_allclose(basis.antiderivative(i, xs), quad, rtol=0.0, atol=1e-7)


def test_x_moment_closed_forms_match_quadrature():
    T = 2.0
    basis = FourierBasis(T, 8)
    xs = np.linspace(-T, 0.0, 200_001)
    for i in range(9):
        quad = np.trapezoid(xs * basis.evaluate(i, xs), xs)
        assert quad == pytest.approx(basis.x_moment(i), abs=1e-9)


def test_linear_trend_examples():
    assert sup_norm(linear_trend(Path.constant(4.0, 1.0))) == 0.0
    eta = Path.from_function(lambda x: x, 1.0, 41)
    np.testing.assert_allclose(linear_trend(eta).values, eta.values, atol=1e-15)
    sq = Path.from_function(lambda x: x * x, 1.0, 41)
    np.testing.assert_allclose(linear_trend(sq).values, -sq.nodes, atol=1e-14)


def test_linear_trend_equalises_endpoints():
    rng = np.random.default_rng(4)
    for _ in range(20):
        eta = Path(1.5, rng.normal(size=33))
        resid = eta.values - linear_trend(eta).values
        assert resid[0] == pytest.approx(resid[-1], abs=1e-12)


def test_fourier_coeff_zero_path():
    basis = FourierBasis(1.0, 8)
    eta = Path.constant(0.0, 1.0)
    for i in range(9):
        assert fourier_coeff(eta, i, basis) == 0.0


def test_fourier_coeff_orthonormality():
    T = 2.0
    basis = FourierBasis(T, 8)
    e0 = Path.constant(1.0 / np.sqrt(T), T, 4001)
    assert fourier_coeff(e0, 0, basis) == pytest.approx(1.0, abs=1e-6)
    for i in range(1, 9):
        assert fourier_coeff(e0, i, basis) == pytest.approx(0.0, abs=1e-6)


def test_fourier_coeff_two_routes_agree():
    basis = FourierBasis(1.0, 4)
    eta = Path.from_function(lambda x: x, 1.0, 20_001)
    via_parts = fourier_coeff(eta, 1, basis)
    xs = eta.nodes
    direct = np.trapezoid(eta.values * basis.evaluate(1, xs), xs)
    assert via_parts == pytest.approx(direct, abs=1e-6)


def test_fejer_constant_path_fixed_point():
    basis = FourierBasis(1.0, 16)
    eta = Path.constant(2.0, 1.0)
    for n in (0, 1, 8):
        np.testing.assert_allclose(fejer_project(eta, n, basis).values, 2.0, atol=1e-12)


def test_fejer_pure_mode_weight():
    T = 1.0
    basis = FourierBasis(T, 16)
    eta = Path.from_function(lambda x: np.sin(2 * np.pi * (x + T) / T), T, 2049)
    proj = fejer_project(eta, 3, basis)
    np.testing.assert_allclose(proj.values, 0.75 * eta.values, atol=1e-10)


def test_fejer_project_rejects_a_basis_on_another_horizon():
    eta = Path.from_function(lambda x: np.sin(2 * np.pi * x), 1.0, 2049)
    with pytest.raises(ValueError, match="basis horizon 2.0 differs from path horizon 1.0"):
        fejer_project(eta, 16, FourierBasis(2.0, 16))


def test_fejer_sweep_converges_uniformly():
    basis = FourierBasis(1.0, 300)
    for name, eta in smooth_corpus(1.0).items():
        errs = [sup_norm(Path(1.0, fejer_project(eta, n, basis).values - eta.values))
                for n in (4, 16, 64, 256)]
        assert all(b < a for a, b in zip(errs, errs[1:])), name
        assert errs[-1] <= 1e-2, name


def test_fejer_contraction_on_rough_paths():
    basis = FourierBasis(1.0, 128)
    rng = np.random.default_rng(5)
    n_nodes = 257
    h = 1.0 / (n_nodes - 1)
    for _ in range(100):
        eta = Path(1.0, np.cumsum(rng.normal(0.0, np.sqrt(h), n_nodes)))
        trend = linear_trend(eta)
        resid = eta.values - trend.values
        proj = fejer_project(eta, 64, basis)
        fejer_part = proj.values - trend.values
        assert np.max(np.abs(fejer_part)) <= np.max(np.abs(resid)) + 10.0 * h


def test_fejer_uniform_bound():
    basis = FourierBasis(1.0, 300)
    worst = 0.0
    for eta in smooth_corpus(1.0).values():
        for n in (4, 16, 64, 256):
            worst = max(worst, sup_norm(fejer_project(eta, n, basis)) / sup_norm(eta))
    assert worst < 10.0


# ---------------------------------------------------------------------------
# terminal smoothing


def test_smooth_terminal_present_value_converges():
    T = 1.0
    rng = np.random.default_rng(6)
    max_errs = {}
    for n in (8, 32, 128):
        H_n = smooth_terminal(lambda p: float(p.values[-1]), n, T)
        errs = []
        for _ in range(20):
            c = rng.normal(0.0, 0.3, 5)
            f = lambda x: (c[0] + c[1] * x + c[2] * x * x
                           + c[3] * np.sin(2 * np.pi * (x + T) / T) + c[4] * x**3)
            eta = Path.from_function(f, T, 2049)
            errs.append(abs(H_n(eta) - eta.values[-1]))
        max_errs[n] = max(errs)
    assert max_errs[8] > max_errs[32] > max_errs[128]
    assert max_errs[128] < 1e-2


def test_smooth_terminal_constant_fixed_point():
    H = lambda p: float(np.max(p.values))
    for n in (1, 8, 64):
        H_n = smooth_terminal(H, n, 2.0)
        assert H_n(Path.constant(0.7, 2.0)) == pytest.approx(0.7, abs=1e-12)


def test_smooth_terminal_parabola_sup():
    # sup of -x(x+1) on [-1, 0] is 1/4; the smoothed values approach it
    T = 1.0
    eta = Path.from_function(lambda x: -x * (x + 1.0), T, 4097)
    H = lambda p: float(np.max(p.values))
    vals = {n: smooth_terminal(H, n, T)(eta) for n in (8, 64)}
    assert abs(vals[64] - 0.25) < abs(vals[8] - 0.25)
    assert vals[64] == pytest.approx(0.25, abs=1e-2)


# ---------------------------------------------------------------------------
# the closed-form smoothed-terminal operator against the seed's probe build


def _seed_fejer_project(path, n, basis):
    """The seed's Fejer projection: one pathwise integral per coefficient."""
    trend = linear_trend(path)
    residual = Path(path.horizon, path.values - trend.values)
    coeffs = np.array([fourier_coeff(residual, i, basis) for i in range(n + 1)])
    E = np.stack([basis.evaluate(i, path.nodes) for i in range(n + 1)])
    weights = (n + 1 - np.arange(n + 1)) / (n + 1)
    return weights @ (coeffs[:, None] * E) + trend.values


def _probe_matrix(n, T, m):
    """The smoothed-terminal argument's matrix, probed with unit vectors.

    Column j is the seed's scalar argument of the j-th unit path: its Fejer
    projection plus the weighted-moment correction times the trapezoid
    edge-bump average of the path minus its left endpoint.
    """
    basis = FourierBasis(T, n)
    xs = np.linspace(-T, 0.0, m)
    weights = (n + 1 - np.arange(n + 1)) / (n + 1)
    correction = (-1.0 / T) * xs
    for i in range(n + 1):
        a_i = basis.x_moment(i) / T
        if a_i != 0.0:
            correction = correction + weights[i] * a_i * basis.evaluate(i, xs)
    bump = edge_bump(T, n, xs + T)
    cols = np.empty((m, m))
    for j in range(m):
        unit = Path(T, np.eye(m)[j])
        inner = np.trapezoid((unit.values - unit.values[0]) * bump, xs)
        cols[:, j] = _seed_fejer_project(unit, n, basis) + correction * inner
    return cols


@pytest.mark.parametrize("m", [3, 101, 201])
@pytest.mark.parametrize("n", [1, 4, 16, 64])
def test_argument_values_matches_probe_matrix(n, m):
    for T in (0.5, 1.0, 2.0):
        got = smooth_terminal(lambda p: 0.0, n, T).argument_rows(np.eye(m)).T
        np.testing.assert_allclose(got, _probe_matrix(n, T, m).T, rtol=0.0, atol=1e-12)


def _rows(seed, k, m, scale=1.0):
    return scale * np.random.default_rng(seed).normal(size=(k, m))


_orders = st.integers(1, 64)
_horizons = st.sampled_from([0.5, 1.0, 2.0, 3.7])
_seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=40, deadline=None)
@given(_orders, _horizons, st.integers(2, 257), _seeds,
       st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_property_argument_values_is_linear(n, T, m, seed, a, b):
    rows = smooth_terminal(lambda p: 0.0, n, T).argument_rows
    A = lambda V: rows(V).T
    U, V = _rows(seed, 3, m), _rows(seed + 1, 3, m)
    scale = max(1.0, abs(a) + abs(b)) * max(np.abs(U).max(), np.abs(V).max())
    np.testing.assert_allclose(A(a * U + b * V), a * A(U) + b * A(V), rtol=0.0, atol=1e-12 * scale)


@settings(max_examples=40, deadline=None)
@given(_orders, _horizons, st.data(), st.floats(-1e3, 1e3))
def test_property_argument_values_fixes_constants(n, T, data, c):
    # once the nodes resolve every cosine of the basis (m - 1 > n // 2), the
    # trapezoid sums of the nonconstant modes of a constant path vanish
    m = data.draw(st.integers(n // 2 + 2, 257))
    got = smooth_terminal(lambda p: 0.0, n, T).argument_rows(np.full((2, m), c)).T
    np.testing.assert_allclose(got, c, rtol=0.0, atol=1e-12 * max(1.0, abs(c)))


@settings(max_examples=40, deadline=None)
@given(_orders, _horizons, st.integers(2, 257), _seeds)
def test_property_batch_rows_equal_single_path_argument(n, T, m, seed):
    smoothed = smooth_terminal(lambda p: 0.0, n, T)
    V = _rows(seed, 4, m, scale=3.0)
    batch = smoothed.argument_rows(V).T
    for row, want in zip(V, batch):
        got = smoothed.argument(Path(T, row)).values
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * max(1.0, np.abs(want).max()))


def _path_max(p):
    return float(np.max(p.values))


def _present_plus_spread(p):
    return float(p.values[-1] + np.abs(p.values - p.values.mean()).max())


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 4, 16, 64]), _horizons, st.integers(2, 201), _seeds,
       st.sampled_from(["sup", "callable"]))
def test_property_smoother_batch_equals_row_by_row(n, T, m, seed, inner):
    smoother = _LinearTerminalSmoother(SupTerminal() if inner == "sup" else _present_plus_spread, n, T)
    scalar = smooth_terminal(_path_max if inner == "sup" else _present_plus_spread, n, T)
    wb = WindowBatch(np.linspace(-T, 0.0, m), np.cumsum(_rows(seed, 6, m, scale=0.2), axis=1))
    batch = smoother.evaluate_batch(wb)
    rows = np.array([scalar(wb.path(i)) for i in range(6)])
    assert np.array_equal(batch, rows)


@pytest.mark.parametrize("m", [11, 41, 201])
@pytest.mark.parametrize("n", [2, 8, 16])
def test_smoother_rounds_a_path_alike_in_any_batch(n, m):
    # a streamed pass may end on a one-path block: each path's smoothed
    # terminal must be bit-identical whatever batch it is evaluated in
    smoother = _LinearTerminalSmoother(_present_plus_spread, n, 1.0)
    xs = np.linspace(-1.0, 0.0, m)
    values = np.cumsum(_rows(m + n, 40, m, scale=0.2), axis=1)
    whole = smoother.evaluate_batch(WindowBatch(xs, values))
    for size in (1, 2, 3, 7):
        parts = [smoother.evaluate_batch(WindowBatch(xs, values[i : i + size])) for i in range(0, 40, size)]
        assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("inner", ["sup", "callable"])
def test_smoother_tiles_equal_row_by_row_on_step_row_views_and_cuts(inner):
    # two tiles' worth of paths and one more, read from strided step rows and from a C-ordered cut
    k, m = 2 * _PATH_TILE + 1, 41
    smoother = _LinearTerminalSmoother(SupTerminal() if inner == "sup" else _present_plus_spread, 16, 1.0)
    scalar = smooth_terminal(_path_max if inner == "sup" else _present_plus_spread, 16, 1.0)
    steps = np.cumsum(_rows(57, 60, k, scale=0.2), axis=0)  # step-major: one row per step, one column per path
    view = steps.T[:, -m:]
    assert not view.flags.c_contiguous
    xs = np.linspace(-1.0, 0.0, m)
    rows = np.array([scalar(Path(1.0, row)) for row in view])
    for values in (view, np.ascontiguousarray(view)):
        assert np.array_equal(smoother.evaluate_batch(WindowBatch(xs, values)), rows)


def test_smoother_builds_its_factors_once_per_node_count(monkeypatch):
    smoother = _LinearTerminalSmoother(SupTerminal(), 16, 1.0)
    scalar = smooth_terminal(_path_max, 16, 1.0)
    batches = []
    for m in (201, 201, 51, 201, 51):
        wb = WindowBatch(np.linspace(-1.0, 0.0, m), np.cumsum(_rows(m, 9, m, scale=0.2), axis=1))
        batches.append((wb, np.array([scalar(wb.path(i)) for i in range(9)])))
    original = smoothing._FejerLayout.build
    built = []

    def spy(n, basis, horizon, m):
        built.append(m)
        return original(n, basis, horizon, m)

    monkeypatch.setattr(smoothing._FejerLayout, "build", spy)  # counts the smoother's builds only
    for wb, rows in batches:
        assert np.array_equal(smoother.evaluate_batch(wb), rows)
    assert built == [201, 51]


def _closed_form_argument(n, T, m):
    """The argument map on the unit rows: projection plus ``inner * correction``."""
    basis = FourierBasis(T, n)
    fejer = _FejerLayout.build(n, basis, T, m)
    xs = fejer.xs
    bump = _trapezoid_weights(xs) * edge_bump(T, n, xs + T)
    moments = np.array([basis.x_moment(i) for i in range(n + 1)]) / T
    correction = moments @ fejer.fejer - xs / T
    V = np.eye(m)
    inner = (V - V[:, :1]) @ bump
    return fejer.project(V) + inner[:, None] * correction


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 4, 16, 64]), st.integers(2, 201), st.floats(0.1, 5.0))
def test_property_factors_give_the_argument_map(n, m, T):
    smoothed = smooth_terminal(lambda p: 0.0, n, T)
    A, B = smoothed.factors(m)
    assert A.shape == (m, n + 3) and B.shape == (n + 3, m)
    np.testing.assert_allclose(A @ B, smoothed.argument_rows(np.eye(m)).T, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(A @ B, _closed_form_argument(n, T, m), rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# finite-dimensional smoothing


def test_smooth_finite_dim_affine_exact():
    rng = np.random.default_rng(7)
    base = lambda xi: 3.0 * xi[:, 0] - 0.5
    for k in (1, 3):
        smoothed = smooth_finite_dim(base, 1, k)
        for _ in range(10):
            x = rng.normal(size=1)
            assert smoothed(x) == pytest.approx(float(base(x[None, :])[0]), abs=1e-8)
    base2 = lambda xi: xi[:, 0] - 2.0 * xi[:, 1] + 0.25
    smoothed2 = smooth_finite_dim(base2, 2, 2)
    pts = rng.normal(size=(5, 2))
    np.testing.assert_allclose(smoothed2(pts), base2(pts), atol=1e-8)


def test_smooth_finite_dim_unit_mass():
    smoothed = smooth_finite_dim(lambda xi: np.ones(xi.shape[0]), 3, 2)
    assert smoothed(np.zeros(3)) == pytest.approx(1.0, abs=1e-12)


def test_smooth_finite_dim_kink_regression_values():
    # kinked argument: the rule is O(nodes^-2), so the frozen values need
    # a fine rule; the scaling v(k=4) = v(k=1)/4 is exact either way
    base = lambda xi: np.abs(xi[:, 0])
    v1 = smooth_finite_dim(base, 1, 1, nodes_per_axis=2000)(np.zeros(1))
    v4 = smooth_finite_dim(base, 1, 4, nodes_per_axis=2000)(np.zeros(1))
    assert v1 == pytest.approx(SMOOTHED_ABS_K1, abs=1e-6)
    assert v4 == pytest.approx(SMOOTHED_ABS_K4, abs=1e-6)
    assert 0.0 < v4 < v1


def test_smooth_finite_dim_dimension_cap():
    with pytest.raises(ValueError):
        smooth_finite_dim(lambda xi: xi[:, 0], 7, 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 8), st.integers(1, 30), st.integers(1, 7),
       st.integers(0, 2**32 - 1))
def test_property_smooth_finite_dim_rows_do_not_depend_on_the_block(M, k, m, block, seed):
    # a row's smoothed value must not depend on which rows are evaluated with it
    x = np.random.default_rng(seed).normal(size=(m, M))
    smoothed = smooth_finite_dim(lambda xi: np.sin(3.0 * xi).sum(axis=1), M, k, nodes_per_axis=6)
    blocks = np.concatenate([smoothed(x[a:a + block]) for a in range(0, m, block)])
    assert np.array_equal(smoothed(x), blocks)


# ---------------------------------------------------------------------------
# diagonal selection


def test_select_diagonal_identical_family():
    target = np.array([1.0, 2.0, 3.0])
    ks = select_diagonal(lambda n, k: target, lambda n: target, [0, 1, 2], n_max=5)
    np.testing.assert_array_equal(ks, np.zeros(5, dtype=int))


def test_select_diagonal_reciprocal_gap():
    target = np.array([0.0])
    fam = lambda n, k: target + (np.inf if k == 0 else 1.0 / k)
    ks = select_diagonal(fam, lambda n: target, [0.0], n_max=6)
    np.testing.assert_array_equal(ks, np.arange(1, 7))
    assert np.all(np.diff(ks) >= 0)


def test_select_diagonal_never_converges():
    target = np.array([0.0])
    with pytest.raises(NonConvergenceError, match="probe"):
        select_diagonal(lambda n, k: target + 1.0, lambda n: target, [0.0], n_max=3, k_max=50)


# ---------------------------------------------------------------------------
# cylindrical functionals


def _linear_integrand():
    return Integrand(
        phi=lambda u: np.asarray(u, dtype=float),
        dphi=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        d2phi=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
    )


def test_cylindrical_feature_matches_direct_quadrature():
    ig = Integrand(phi=np.sin, dphi=np.cos, d2phi=lambda u: -np.sin(np.asarray(u, dtype=float)))
    cyl = CylindricalFunctional(base=lambda t, F: F[:, 0], integrands=(ig,))
    eta = Path.from_function(lambda x: np.exp(x), 1.0, 4001)
    t = 0.6
    got = cyl.value(t, eta)
    xs = np.linspace(-t, 0.0, 4001)
    want = np.sin(t) * eta(0.0) - np.trapezoid(np.cos(xs + t) * eta(xs), xs)
    assert got == pytest.approx(want, abs=1e-8)


def test_cylindrical_tracker_matches_window_evaluation():
    ig1 = _linear_integrand()
    ig2 = Integrand(phi=np.cos, dphi=lambda u: -np.sin(np.asarray(u, dtype=float)),
                    d2phi=lambda u: -np.cos(np.asarray(u, dtype=float)))
    cyl = CylindricalFunctional(base=lambda t, F: F[:, 0] + F[:, 1], integrands=(ig1, ig2))
    # a deterministic trajectory: X_u = sin(3u), started at t = 0
    times = np.linspace(0.0, 1.0, 501)
    x = np.sin(3 * times)
    tracker = cyl.tracker(np.array([x[0]]))
    for k in range(len(times) - 1):
        tracker.advance(times[k], np.array([x[k]]), times[k + 1], np.array([x[k + 1]]))
    feats = tracker.features(1.0, np.array([x[-1]]))
    # same features via the window path at the final time
    window = Path.from_function(lambda y: np.sin(3 * (y + 1.0)), 1.0, 501)
    want = cyl.features(1.0, window)
    np.testing.assert_allclose(feats[0], want, atol=1e-5)


def test_fourier_coeff_rejects_a_basis_on_another_horizon():
    eta = Path.from_function(lambda x: np.sin(2 * np.pi * x), 1.0, 2049)
    assert abs(fourier_coeff(eta, 1, FourierBasis(1.0, 4))) > 0.7
    with pytest.raises(ValueError, match="basis horizon 2.0 differs from path horizon 1.0"):
        fourier_coeff(eta, 1, FourierBasis(2.0, 4))


_UNIT = Integrand(phi=lambda u: np.ones_like(np.asarray(u, dtype=float)),
                  dphi=lambda u: np.zeros_like(np.asarray(u, dtype=float)))
_FLAT = Path.constant(0.0, 1.0, 11)
_SMOOTHING_INPUT_CHECKS = {
    "a mollifier family": (lambda: Mollifier(1, 1, "gauss"), "unknown mollifier family 'gauss'"),
    "a mollifier dimension": (lambda: Mollifier(4, 1), r"mollifier dimension q=4 not supported \(q in 1..3\)"),
    "a mollifier index": (lambda: Mollifier(1, 0), "mollifier index must be >= 1, got 0"),
    "an index beyond the basis": (lambda: fourier_coeff(_FLAT, 5, FourierBasis(1.0, 4)),
                                  "index 5 exceeds basis max_index 4"),
    "a projection order beyond the basis": (lambda: fejer_project(_FLAT, 5, FourierBasis(1.0, 4)),
                                            "order 5 exceeds basis max_index 4"),
    "a smoothing index": (lambda: smooth_terminal(SupTerminal(), 0, 1.0), "smoothing index must be >= 1, got 0"),
    "a scale index": (lambda: smooth_finite_dim(lambda x: x[:, 0], 1, 0), "scale index k must be >= 1, got 0"),
    "an argument on another horizon": (lambda: smooth_terminal(SupTerminal(), 4, 1.0).argument(
        Path.constant(0.0, 2.0, 11)), "path horizon 2.0 does not match functional horizon 1.0"),
    "a cylindrical time beyond the window": (
        lambda: CylindricalFunctional(lambda t, F: F[:, 0], (_UNIT,)).features(1.5, _FLAT),
        r"time 1.5 outside \[0, 1.0\]"),
    "a missing derivative callable": (
        lambda: CylindricalFunctional(lambda t, F: F[:, 0], (_UNIT,)).vertical(0.5, np.zeros((3, 1))),
        "missing the base_grad callable"),
    "a missing second integrand derivative": (
        lambda: CylindricalFunctional(lambda t, F: F[:, 0], (_UNIT,), base_grad=lambda t, F: np.ones_like(F))
        .horizontal(0.5, _FLAT),
        "horizontal derivative needs d2phi on every integrand"),
    "a tracker started after 0 without a history": (lambda: FeatureTracker((_UNIT,), np.zeros(3), t0=0.5),
                                                    "a start time t0 > 0 requires the history path"),
}


@pytest.mark.parametrize("case", list(_SMOOTHING_INPUT_CHECKS))
def test_input_checks_raise_value_errors(case):
    call, message = _SMOOTHING_INPUT_CHECKS[case]
    with pytest.raises(ValueError, match=message):
        call()
