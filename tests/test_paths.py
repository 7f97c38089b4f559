import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathpde.paths import (
    Grid,
    Path,
    WindowBatch,
    extend_canonical,
    forward_integral,
    path_from_csv,
    path_to_csv,
    sup_norm,
)
from pathpde.sde import TrajectoryBatch


def test_sup_norm_zero_path():
    assert sup_norm(Path.constant(0.0, 1.0, 11)) == 0.0


def test_sup_norm_linear_path_left_endpoint():
    eta = Path.from_function(lambda x: x, 1.0, 11)
    assert sup_norm(eta) == 1.0


def test_sup_norm_oscillation_matches_dense_grid():
    f = lambda x: np.sin(10 * x)
    coarse = sup_norm(Path.from_function(f, 1.0, 1001))
    dense = sup_norm(Path.from_function(f, 1.0, 100_001))
    assert abs(coarse - dense) <= 1e-3


def test_sup_norm_is_a_norm():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = Path(1.0, rng.normal(size=31))
        b = Path(1.0, rng.normal(size=31))
        lam = float(rng.normal())
        assert sup_norm(Path(1.0, lam * a.values)) == pytest.approx(abs(lam) * sup_norm(a), abs=1e-15)
        assert sup_norm(Path(1.0, a.values + b.values)) <= sup_norm(a) + sup_norm(b) + 1e-15


def _make_traj(prefix_fn, body_fn, T=1.0, t0=0.0, t1=1.0, n_pre=101, n_steps=100):
    prefix = Path.from_function(prefix_fn, T, n_pre)
    grid = Grid(t0, t1, n_steps)
    body = np.asarray(body_fn(grid.times), dtype=float)
    body[0] = prefix.values[-1]
    return TrajectoryBatch(grid, body[None, :], prefix)


def window(traj, s):
    """The one path's look-back slice at time s, on the history's node layout."""
    g = traj.grid
    k = int(round((s - g.t_start) / g.dt))
    return Path(traj.prefix.horizon, traj.window_values(k, traj.prefix.nodes)[0])


def test_window_constant_trajectory():
    traj = _make_traj(lambda x: 3.0 + 0 * x, lambda s: 3.0 + 0 * s)
    for s in (0.0, 0.25, 0.8, 1.0):
        assert np.allclose(window(traj, s).values, 3.0)


def test_window_at_start_is_the_prefix():
    traj = _make_traj(lambda x: np.sin(3 * x), lambda s: np.sin(3 * 0) + s)
    w = window(traj, 0.0)
    np.testing.assert_array_equal(w.values, traj.prefix.values)


def test_window_mid_time_against_direct_indexing():
    # prefix x + 1 on [-1, 0], body rises linearly 0 -> 1 on [0, 1]
    traj = _make_traj(lambda x: x + 1.0, lambda s: s)
    w = window(traj, 0.5)
    xs = w.nodes
    # window value at x is the trajectory at time 0.5 + x
    expect = np.where(xs <= -0.5, (0.5 + xs) + 1.0, 0.5 + xs)
    np.testing.assert_allclose(w.values, expect, atol=1e-12)
    # query point 0 equals the trajectory at s, exactly
    g = traj.grid
    assert w.values[-1] == traj.values[0, int(round((0.5 - g.t_start) / g.dt))]


def _integral(psi, dpsi, eta):
    """The pathwise integral of psi against one path, from callables."""
    return forward_integral(float(psi(0.0)), np.asarray(dpsi(eta.nodes), dtype=float), eta.nodes, eta.values)


def test_forward_integral_unit_integrand_gives_present_value():
    rng = np.random.default_rng(1)
    for _ in range(5):
        eta = Path(1.0, rng.normal(size=51))
        got = _integral(lambda x: np.ones_like(np.asarray(x, dtype=float)),
                               lambda x: np.zeros_like(np.asarray(x, dtype=float)), eta)
        assert got == pytest.approx(eta.values[-1], abs=1e-14)


def test_forward_integral_constant_path_sees_left_endpoint_mass():
    psi = lambda x: np.cos(x)
    dpsi = lambda x: -np.sin(x)
    eta = Path.constant(2.5, 1.0, 4001)
    got = _integral(psi, dpsi, eta)
    # composite trapezoid on 4001 nodes: O(h^2) quadrature error
    assert got == pytest.approx(2.5 * np.cos(-1.0), abs=1e-7)


def test_forward_integral_linear_case():
    # T = 1, eta = x + 1, psi = x: psi(0) eta(0) - int x' (x+1) dx = -1/2
    eta = Path.from_function(lambda x: x + 1.0, 1.0, 100_001)
    got = _integral(lambda x: np.asarray(x, dtype=float),
                           lambda x: np.ones_like(np.asarray(x, dtype=float)), eta)
    assert got == pytest.approx(-0.5, abs=1e-9)


def test_forward_integral_bilinear():
    rng = np.random.default_rng(2)
    psi1 = (lambda x: np.sin(x), lambda x: np.cos(x))
    psi2 = (lambda x: np.asarray(x, dtype=float) ** 2, lambda x: 2.0 * np.asarray(x, dtype=float))
    a = Path(1.0, rng.normal(size=64))
    b = Path(1.0, rng.normal(size=64))
    lam, mu = 0.7, -1.3
    combo = Path(1.0, lam * a.values + mu * b.values)
    for psi, dpsi in (psi1, psi2):
        lhs = _integral(psi, dpsi, combo)
        rhs = lam * _integral(psi, dpsi, a) + mu * _integral(psi, dpsi, b)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))
    # linearity in psi
    comb_psi = lambda x: np.sin(x) + 2.0 * np.asarray(x, dtype=float) ** 2
    comb_dpsi = lambda x: np.cos(x) + 4.0 * np.asarray(x, dtype=float)
    lhs = _integral(comb_psi, comb_dpsi, a)
    rhs = _integral(*psi1, a) + 2.0 * _integral(*psi2, a)
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))


def test_forward_integral_refinement_order():
    psi = lambda x: np.cos(2 * x)
    dpsi = lambda x: -2.0 * np.sin(2 * x)
    f = lambda x: np.exp(x) * np.sin(5 * x)
    errs = []
    ref = _integral(psi, dpsi, Path.from_function(f, 1.0, 400_001))
    for n in (101, 201, 401, 801):
        errs.append(abs(_integral(psi, dpsi, Path.from_function(f, 1.0, n)) - ref))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 1.9


def test_extend_canonical():
    times = np.linspace(0.0, 1.0, 11)
    values = np.linspace(0.0, 1.0, 11)
    assert extend_canonical(times, values, -5.0) == 0.0
    assert extend_canonical(times, values, 2.0) == 1.0
    assert extend_canonical(times, values, 0.5) == pytest.approx(0.5)


def test_path_csv_roundtrip(tmp_path):
    eta = Path.from_function(lambda x: np.sin(x), 2.0, 33)
    fname = tmp_path / "eta.csv"
    path_to_csv(eta, fname)
    back = path_from_csv(fname)
    assert back.horizon == pytest.approx(2.0)
    np.testing.assert_allclose(back.values, eta.values, rtol=1e-15)
    header = fname.read_text().splitlines()[0]
    assert header == "x,value"


def test_trajectory_requires_exact_pasting():
    prefix = Path.constant(1.0, 1.0, 11)
    grid = Grid(0.0, 1.0, 10)
    values = np.linspace(1.0 + 1e-9, 2.0, 11)
    with pytest.raises(ValueError):
        TrajectoryBatch(grid, values[None, :], prefix)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0.0, 0.0, 10)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 0)
    g = Grid(0.25, 1.25, 40)
    assert g.dt == pytest.approx(0.025)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 257), st.integers(1, 6), st.sampled_from([0.5, 1.0, 2.0, 3.7]),
       st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
def test_property_path_and_batch_row_integrals_are_equal(m, k, T, seed, psi0):
    # the kernel is row-wise: a batch row and the same samples as a Path
    # give the same bits, so single-path and batch callers agree exactly
    rng = np.random.default_rng(seed)
    wb = WindowBatch(np.linspace(-T, 0.0, m), np.cumsum(rng.normal(size=(k, m)), axis=1))
    dpsi = np.cos(3.0 * wb.xs)
    batch = forward_integral(psi0, dpsi, wb.xs, wb.values)
    assert batch.shape == (k,)
    for i in range(k):
        eta = wb.path(i)
        np.testing.assert_array_equal(eta.nodes, wb.xs)
        assert forward_integral(psi0, dpsi, eta.nodes, eta.values) == batch[i]
