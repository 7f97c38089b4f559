from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pathpde import bsde, cli
from pathpde.cli import main
from pathpde.paths import Grid, Path
from pathpde.bsde import (
    BsdeSolution,
    DriverSpec,
    RegressionBasisSpec,
    RegressionError,
    _Factor,
    _zero_driver_value,
    bsde_norms,
    comparison_check,
    extract_compensator,
    limit_experiment,
    make_features,
    solve_bsde,
)
from pathpde.sde import NoiseBundle, SdeSpec, TrajectoryBatch, euler_markov, euler_path_dependent
from pathpde.smoothing import CylindricalFunctional, FourierBasis, Integrand, mollify
from pathpde.solver import (
    ProblemSpec,
    SolverConfig,
    SupTerminal,
    _Forward,
    _terminal_samples_path,
    bridge_corrected_max,
)


def _brownian(n_paths=100_000, n_steps=100, seed=11, x0=0.0):
    g = Grid(0.0, 1.0, n_steps)
    nb = NoiseBundle(seed, n_paths, n_steps)
    dW = nb.increments(g.dt)
    traj = euler_markov(SdeSpec(0.0, 1.0), x0, g, dW)
    return g, traj, dW


BASIS = RegressionBasisSpec("markov", 2)


def test_constant_terminal_reproduced_exactly():
    # Y is reproduced exactly (projections restore the target mean); Z is
    # the regression of c dW/dt, zero only up to its sampling noise floor
    g, traj, dW = _brownian(20_000, 20, seed=1)
    sol = solve_bsde(DriverSpec(None), np.full(20_000, 3.25), BASIS, traj, dW)
    np.testing.assert_array_equal(sol.Y, np.full_like(sol.Y, 3.25))
    assert np.abs(sol.Z.mean(axis=0)).max() <= 3.25 * 4.0 / np.sqrt(20_000 * g.dt)


def test_martingale_terminal_unit_gradient():
    g, traj, dW = _brownian(seed=2, x0=0.5)
    sol = solve_bsde(DriverSpec(None), traj.terminal(), BASIS, traj, dW)
    assert abs(sol.value - 0.5) <= 3.0 / np.sqrt(traj.n_paths)
    assert abs(sol.Z.mean() - 1.0) <= 0.02


def test_linear_driver_closed_form():
    g, traj, dW = _brownian(seed=3, x0=1.0)
    drv = DriverSpec(lambda t, s, y, z: -0.1 * y, lipschitz=0.1)
    sol = solve_bsde(drv, traj.terminal(), BASIS, traj, dW)
    exact = np.exp(-0.1)
    assert abs(sol.value - exact) <= 0.01 * exact


def test_terminal_pinning_exact():
    g, traj, dW = _brownian(500, 10, seed=4)
    xi = traj.terminal() ** 2
    sol = solve_bsde(DriverSpec(None), xi, BASIS, traj, dW)
    np.testing.assert_array_equal(sol.Y[:, -1], xi)


def test_zero_driver_mean_increments_vanish():
    g, traj, dW = _brownian(50_000, 50, seed=5)
    sol = solve_bsde(DriverSpec(None), traj.terminal() ** 2, BASIS, traj, dW)
    inc = np.diff(sol.Y, axis=1)
    means = inc.mean(axis=0)
    ses = inc.std(axis=0, ddof=1) / np.sqrt(traj.n_paths)
    assert np.all(np.abs(means) <= 4.0 * np.maximum(ses, 1e-12))


def test_driver_and_terminal_scaling_linearity():
    g, traj, dW = _brownian(50_000, 50, seed=6, x0=1.0)
    alpha = 2.5
    drv = DriverSpec(lambda t, s, y, z: -0.1 * y + 0.05 * z[:, 0], lipschitz=0.15)
    sol1 = solve_bsde(drv, traj.terminal(), BASIS, traj, dW)
    sol2 = solve_bsde(drv, alpha * traj.terminal(), BASIS, traj, dW)
    assert sol2.value == pytest.approx(alpha * sol1.value, rel=0.01)


def test_solution_shape_validation():
    g = Grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        BsdeSolution(g, np.zeros((3, 5)), np.zeros((3, 3, 1)), 0.0)
    with pytest.raises(ValueError):
        BsdeSolution(g, np.zeros((3, 5)), np.zeros((2, 4, 1)), 0.0)


def test_basis_size_guard():
    g, traj, dW = _brownian(30, 10, seed=7)
    with pytest.raises(ValueError, match="well-posedness"):
        solve_bsde(DriverSpec(None), traj.terminal(), RegressionBasisSpec("markov", 3), traj, dW)


def test_rank_deficient_without_ridge_advises_ridge():
    g, traj, dW = _brownian(500, 5, seed=8)

    class CollinearFeatures:
        spec = RegressionBasisSpec("markov", 2, ridge=0.0)  # three design rows

        def design_t(self, k, out):
            x = traj.values[:, k]
            out[:] = np.stack([np.ones_like(x), x, 2.0 * x])
            return out

        def state(self, k):
            return traj.values[:, k]

    with pytest.raises(RegressionError, match="ridge"):
        solve_bsde(DriverSpec(None), traj.terminal(), CollinearFeatures(), traj, dW)


def test_vector_state_solver_shapes():
    g = Grid(0.0, 1.0, 20)
    # 40000 paths: each component of the mean Z has sd about 0.01 (0.009-0.012 over 40 seeds), so 0.05 is over 4 sd
    nb = NoiseBundle(9, 40_000, 20, d=2)
    dW = nb.increments(g.dt)
    traj = euler_markov(SdeSpec(lambda t, x: np.zeros_like(x), lambda t, x: np.ones_like(x)),
                        np.array([0.0, 1.0]), g, dW)
    xi = traj.terminal().sum(axis=1)
    sol = solve_bsde(DriverSpec(None), xi, RegressionBasisSpec("markov", 2), traj, dW)
    assert sol.Z.shape == (40_000, 20, 2)
    assert abs(sol.value - 1.0) <= 3.0 * np.sqrt(2.0) / np.sqrt(40_000)
    assert np.abs(sol.Z.mean(axis=(0, 1)) - 1.0).max() <= 0.05


# ---------------------------------------------------------------------------
# compensator extraction


def _solved_linear(n_paths=50_000, n_steps=50, seed=10):
    g, traj, dW = _brownian(n_paths, n_steps, seed=seed, x0=1.0)
    drv = DriverSpec(lambda t, s, y, z: -0.1 * y, lipschitz=0.1)
    features = make_features(BASIS, traj)
    sol = solve_bsde(drv, traj.terminal(), features, traj, dW)
    return g, traj, dW, drv, features, sol


def test_compensator_of_plain_solution_below_noise_floor():
    g, traj, dW, drv, features, sol = _solved_linear(n_paths=100_000, n_steps=25)
    K = extract_compensator(sol.Y, sol.Z, drv, features, g, dW)
    assert np.all(K[:, 0] == 0.0)
    # per-path running maximum of |K|, averaged: the solver noise floor
    assert np.abs(K).max(axis=1).mean() <= 5e-2


def test_compensator_noise_floor_shrinks_with_paths():
    levels = []
    for n_paths, seed in ((12_500, 11), (50_000, 11)):
        g, traj, dW, drv, features, sol = _solved_linear(n_paths=n_paths, seed=seed)
        K = extract_compensator(sol.Y, sol.Z, drv, features, g, dW)
        levels.append(np.abs(K).mean())
    assert levels[1] < levels[0]


def _solved_martingale(n_paths=200_000, n_steps=10, seed=10):
    g, traj, dW = _brownian(n_paths, n_steps, seed=seed, x0=1.0)
    drv = DriverSpec(None)
    features = make_features(BASIS, traj)
    sol = solve_bsde(drv, traj.terminal(), features, traj, dW)
    return g, traj, dW, drv, features, sol


def test_compensator_upward_tilt_is_nonincreasing():
    g, traj, dW, drv, features, sol = _solved_martingale()
    times = g.times
    tilted = sol.Y + (times - times[0])[None, :]
    K = extract_compensator(tilted, sol.Z, drv, features, g, dW)
    expect = -(times - times[0])
    assert np.abs(K.mean(axis=0) - expect).max() <= 2e-2
    assert np.mean(np.diff(K, axis=1) <= 1e-10) >= 0.99


def test_compensator_downward_tilt_is_nondecreasing():
    g, traj, dW, drv, features, sol = _solved_martingale()
    times = g.times
    c = 0.7
    tilted = sol.Y - c * (times - times[0])[None, :]
    K = extract_compensator(tilted, sol.Z, drv, features, g, dW)
    expect = c * (times - times[0])
    assert np.abs(K.mean(axis=0) - expect).max() <= 2e-2
    assert np.mean(np.diff(K, axis=1) >= -1e-10) >= 0.99


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 12), st.sampled_from([1, 2]), st.floats(-1.0, 1.0),
       st.floats(-1.0, 1.0), st.floats(0.0, 5.0), st.integers(0, 2**32 - 1))
def test_property_extract_compensator(n_paths, n_steps, d, a, b, c, seed):
    # a field built forward by Y_{k+1} = Y_k - F dt + Z.dW has no compensator, up to rounding
    rng = np.random.default_rng(seed)
    g = Grid(0.3, 1.3, n_steps)
    dW = rng.normal(0.0, np.sqrt(g.dt), (n_paths, n_steps, d))
    Z = rng.uniform(-3.0, 3.0, (n_paths, n_steps, d))
    S = rng.uniform(-2.0, 2.0, (n_steps + 1, n_paths))
    features = SimpleNamespace(state=S.__getitem__)  # the driver reads the state rows S[k]
    eps = np.finfo(float).eps
    for driver in (DriverSpec(None), DriverSpec(lambda t, s, y, z: a * y + b * z[:, -1] + s * t)):
        Y = np.empty((n_paths, n_steps + 1))
        Y[:, 0] = rng.uniform(-10.0, 10.0, n_paths)
        flow = np.abs(Y[:, 0])  # per path, a bound on every partial sum's size
        for k in range(n_steps):
            f_dt = driver(g.times[k], S[k], Y[:, k], Z[:, k]) * g.dt
            z_dw = np.sum(Z[:, k] * dW[:, k], axis=1)
            Y[:, k + 1] = Y[:, k] - f_dt + z_dw
            flow = flow + np.abs(f_dt) + np.abs(z_dw) + np.abs(Y[:, k + 1])
        K = extract_compensator(Y, Z, driver, features, g, dW)
        assert K.shape == Y.shape and K.flags.c_contiguous
        assert np.all(K[:, 0] == 0.0)
        assert np.all(np.abs(K) <= 4 * (n_steps + 1) * eps * flow[:, None])
        if driver.f is None:  # a tilt by -c (s - t0) adds c dt to every increment
            tilted = extract_compensator(Y - c * (g.times - g.times[0]), Z, driver, features, g, dW)
            assert np.all(tilted[:, 0] == 0.0)
            bound = 8 * (n_steps + 1) * eps * (flow + c)[:, None]
            assert np.all(np.abs(np.diff(tilted, axis=1) - c * g.dt) <= bound)


# ---------------------------------------------------------------------------
# comparison checks


def test_comparison_identical_fields():
    y = np.random.default_rng(0).normal(size=(100, 11))
    rep = comparison_check(y, y, tolerance=0.0)
    assert rep["violation_fraction"] == 0.0


def test_comparison_tilted_supersolution():
    g, traj, dW, drv, features, sol = _solved_linear(n_paths=20_000)
    tilt = 0.5 * (g.times[-1] - g.times)[None, :]
    rep = comparison_check(sol.Y, sol.Y + tilt, tolerance=2.0 / np.sqrt(traj.n_paths))
    assert rep["violation_fraction"] == 0.0


def test_comparison_swapped_negative_control():
    g, traj, dW, drv, features, sol = _solved_linear(n_paths=20_000)
    tilt = 0.5 * (g.times[-1] - g.times)[None, :]
    rep = comparison_check(sol.Y + tilt, sol.Y, tolerance=2.0 / np.sqrt(traj.n_paths))
    assert rep["violation_fraction"] >= 0.9


_FIELDS = st.tuples(st.integers(1, 40), st.integers(1, 12), st.integers(0, 2**32 - 1)).map(
    lambda a: np.random.default_rng(a[2]).uniform(-1e3, 1e3, size=a[:2]))


@settings(max_examples=80, deadline=None)
@given(_FIELDS, st.floats(0.0, 1e3), st.floats(0.0, 10.0), st.floats(1e-6, 10.0))
def test_property_comparison_check_orders(y, c, tol, margin):
    raised = comparison_check(y, y + c, tol)
    assert raised["violation_fraction"] == 0.0
    assert raised["worst_violation"] == (y - (y + c)).max()
    assert raised["n_entries"] == y.size
    gap = tol + margin  # a lift above the tolerance by more than rounding at |y| <= 2e3
    swapped = comparison_check(y + gap, y, tol)
    assert swapped["violation_fraction"] == 1.0
    assert swapped["worst_violation"] == ((y + gap) - y).max()
    assert swapped["n_entries"] == y.size
    with pytest.raises(ValueError, match="share one grid"):
        comparison_check(y, np.append(y, 0.0), tol)


# ---------------------------------------------------------------------------
# norms


def test_norms_constant_solution():
    g = Grid(0.0, 1.0, 10)
    Y = np.full((50, 11), -1.5)
    Z = np.zeros((50, 10, 1))
    sol = BsdeSolution(g, Y, Z, 0.0)
    out = bsde_norms(sol, p=3.0, K=np.zeros((50, 11)))
    assert out["sp_norm_Y"] == pytest.approx(1.5**3, abs=1e-14)
    assert out["h2_norm_Z"] == 0.0
    assert out["s2_norm_K"] == 0.0


def test_norms_brownian_martingale_gradient_energy():
    g, traj, dW = _brownian(50_000, 50, seed=12)
    sol = solve_bsde(DriverSpec(None), traj.terminal(), BASIS, traj, dW)
    out = bsde_norms(sol, p=2.0)
    # the fitted gradient carries ~1% extra energy from finite-sample
    # regression variance, well beyond the Monte Carlo standard error
    assert abs(out["h2_norm_Z"] - 1.0) <= max(3.0 * out["h2_norm_Z_se"], 0.02)


def test_norm_ratio_bounded_across_terminal_scalings():
    # the gradient/compensator energy is controlled by the value norm with
    # one constant across the whole scaling family
    g, traj, dW = _brownian(20_000, 50, seed=13, x0=1.0)
    drv = DriverSpec(lambda t, s, y, z: -0.1 * y, lipschitz=0.1)
    ratios = []
    features = make_features(BASIS, traj)
    for lam in (1.0, 2.0, 4.0):
        sol = solve_bsde(drv, lam * traj.terminal(), features, traj, dW)
        out = bsde_norms(sol, p=2.0, K=extract_compensator(sol.Y, sol.Z, drv, features, g, dW))
        ratios.append((out["h2_norm_Z"] + out["s2_norm_K"]) / out["sp_norm_Y"])
    assert max(ratios) <= 1.2 * min(ratios)
    assert max(ratios) < 10.0


# ---------------------------------------------------------------------------
# the coupled limit table


def test_limit_experiment_degenerate_control_is_exact_zero():
    g, traj, dW = _brownian(5000, 20, seed=14, x0=1.0)
    drv = DriverSpec(lambda t, s, y, z: -0.1 * y, lipschitz=0.1)
    xi = traj.terminal()
    rows, _ = limit_experiment([drv], drv, [xi], xi, BASIS, traj, dW)
    assert rows[0]["z_gap_q"] == 0.0
    assert rows[0]["y_gap_sup2"] == 0.0
    assert rows[0]["k_gap_max"] == 0.0


def test_limit_experiment_vanishing_driver_perturbation():
    g, traj, dW = _brownian(20_000, 50, seed=15, x0=1.0)
    base = DriverSpec(lambda t, s, y, z: -0.1 * y, lipschitz=0.1)
    xi = traj.terminal()
    ns = [1, 4, 16, 64]
    drivers = [DriverSpec(lambda t, s, y, z, n=n: -0.1 * y + 1.0 / n, lipschitz=0.1) for n in ns]
    rows, _ = limit_experiment(drivers, base, [xi] * 4, xi, BASIS, traj, dW,
                               q=1.0, n_labels=ns)
    z_gaps = [r["z_gap_q"] for r in rows]
    y_gaps = [r["y_gap_sup2"] for r in rows]
    assert all(b < a for a, b in zip(z_gaps, z_gaps[1:]))
    assert all(b < a for a, b in zip(y_gaps, y_gaps[1:]))


def test_limit_experiment_mollified_terminal():
    g, traj, dW = _brownian(20_000, 50, seed=16, x0=0.0)
    base = DriverSpec(None)
    kink = lambda x: np.maximum(x, 0.0)
    xi = kink(traj.terminal())
    terms, drivers = [], []
    for n in (2, 8, 32):
        h_n = mollify(kink, 1, n)
        terms.append(np.asarray(h_n(traj.terminal())))
        drivers.append(base)
    rows, _ = limit_experiment(drivers, base, terms, xi, BASIS, traj, dW, n_labels=[2, 8, 32])
    y_gaps = [r["y_gap_sup2"] for r in rows]
    assert y_gaps[0] > y_gaps[1] > y_gaps[2]


def test_limit_experiment_rejects_bad_order():
    g, traj, dW = _brownian(500, 5, seed=17)
    with pytest.raises(ValueError):
        limit_experiment([], DriverSpec(None), [], traj.terminal(), BASIS, traj, dW, q=2.0)


def test_limit_table_csv_header(tmp_path):
    # the table goes through the CLI's one CSV writer, one row per index
    cfg = tmp_path / "limit.cfg"
    cfg.write_text("[experiment]\nname = bsde-limit\nseed = 18\n\n[parameters]\nn_paths = 2000\n"
                   "n_steps = 10\nindices = 1,4\n")
    main(["run", str(cfg), "--out", str(tmp_path / "out")])
    lines = (tmp_path / "out" / "bsde_limit.csv").read_text().splitlines()
    assert lines[0] == "n,z_gap_q,y_gap_sup2,k_gap_max,se_z_gap_q,se_y_gap_sup2"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "4"]


def test_limit_experiment_builds_features_once_per_trajectory_set(tmp_path, monkeypatch):
    # a default bsde-limit run: one build for the base and its four rows, one for each solve of the noise floor
    builds, make_features = [], bsde.make_features

    def spy(spec, traj):
        builds.append(traj)
        return make_features(spec, traj)

    monkeypatch.setattr(bsde, "make_features", spy)
    cfg = tmp_path / "limit.cfg"
    cfg.write_text("[experiment]\nname = bsde-limit\nseed = 18\n\n[parameters]\nn_paths = 2000\nn_steps = 10\n")
    main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert len(builds) == 2 and len({id(traj) for traj in builds}) == 2  # the floor's first solve is the base


def test_bsde_limit_solves_the_unperturbed_problem_once(tmp_path, monkeypatch):
    # a default bsde-limit run: the base, its four rows and the floor's second solve
    solves, solve_bsde = [], bsde.solve_bsde

    def spy(*args, **kwargs):
        solves.append(args[0])
        return solve_bsde(*args, **kwargs)

    monkeypatch.setattr(bsde, "solve_bsde", spy)
    monkeypatch.setattr(cli, "solve_bsde", spy)
    cfg = tmp_path / "limit.cfg"
    cfg.write_text("[experiment]\nname = bsde-limit\nseed = 18\n\n[parameters]\nn_paths = 2000\nn_steps = 10\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(solves) == 6


def test_limit_experiment_builds_one_provider_for_every_solve(monkeypatch):
    # the base and its three rows run on the base trajectories: one feature build, four solves
    g, traj, dW = _brownian(2000, 10, seed=19, x0=1.0)
    builds, solves = [], []
    make, solve = bsde.make_features, bsde.solve_bsde
    monkeypatch.setattr(bsde, "make_features", lambda *args: builds.append(args) or make(*args))
    monkeypatch.setattr(bsde, "solve_bsde", lambda *args: solves.append(args) or solve(*args))
    base = DriverSpec(lambda t, s, y, z: -0.1 * y)
    drivers = [DriverSpec(lambda t, s, y, z, n=n: -0.1 * y + 1.0 / n) for n in (1, 4, 16)]
    xi = traj.terminal()
    rows, _ = limit_experiment(drivers, base, [xi] * 3, xi, BASIS, traj, dW)
    assert len(rows) == 3 and len(builds) == 1 and len(solves) == 4
    assert all(args[2] is solves[0][2] for args in solves)  # every solve reads the one provider


def test_limit_experiment_hands_back_its_base_solution():
    g, traj, dW = _brownian(3000, 20, seed=17, x0=1.0)
    base = DriverSpec(lambda t, s, y, z: -0.1 * y, lipschitz=0.1)
    xi = traj.terminal()
    drivers = [DriverSpec(lambda t, s, y, z, n=n: -0.1 * y + 1.0 / n, lipschitz=0.1) for n in (1, 4)]
    _, sol = limit_experiment(drivers, base, [xi] * 2, xi, BASIS, traj, dW)
    ref = solve_bsde(base, xi, BASIS, traj, dW)
    assert np.array_equal(sol.Y, ref.Y) and np.array_equal(sol.Z, ref.Z) and sol.value == ref.value


# ---------------------------------------------------------------------------
# the fused one-pass regression against the two-pass reference


class _TwoPassFactor:
    """The two-pass normal-equations factor the fused ``_Factor`` replaced.

    It materialises the centred design, then makes separate passes for the
    right-hand side and the fitted values.
    """

    def __init__(self, At, ridge):
        B, n = At.shape
        head = At[:, : min(n, 4096)]
        scale = np.abs(head).max(axis=1)
        keep = np.zeros(B, dtype=bool)
        keep[1:] = head[1:].std(axis=1) > 1e-13 * np.maximum(1.0, scale[1:])
        centered = At[keep] - At[keep].mean(axis=1, keepdims=True)
        self.A = centered
        self.ridge = ridge
        G = centered @ centered.T
        if ridge > 0 and G.shape[0] > 0:
            G = G + (ridge * np.trace(G) / G.shape[0]) * np.eye(G.shape[0])
        self.G = G

    def fit(self, targets):
        means = targets.mean(axis=0, keepdims=True)
        if self.A.shape[0] == 0:
            return np.repeat(means, targets.shape[0], axis=0)
        resid = targets - means
        rhs = self.A @ resid
        try:
            beta = np.linalg.solve(self.G, rhs)
            fitted = self.A.T @ beta
            if not np.all(np.isfinite(fitted)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            if self.ridge == 0:
                raise RegressionError("rank deficient") from None
            beta, *_ = np.linalg.lstsq(self.A.T, resid, rcond=None)
            fitted = self.A.T @ beta
        fitted += means
        return fitted


def _reference_solve(driver, terminal, features, traj, dW, ridge):
    """The backward induction with the two-pass factor, one step at a time, and its companion.

    The companion is xi plus each step's F dt, with F taken at the step's projection.
    """
    n_paths, n_steps, d = dW.shape
    dt, times = traj.grid.dt, traj.grid.times
    Y = np.empty((n_paths, n_steps + 1))
    Z = np.empty((n_paths, n_steps, d))
    Y[:, -1] = terminal
    companion = np.array(terminal, dtype=float)
    targets = np.empty((n_paths, d + 1))
    design = np.empty((features.spec.n_features(traj.d), n_paths))
    for k in range(n_steps - 1, -1, -1):
        factor = _TwoPassFactor(features.design_t(k, design), ridge)
        y_next = Y[:, k + 1]
        np.multiply(dW[:, k], y_next[:, None], out=targets[:, :d])
        targets[:, :d] /= dt
        targets[:, d] = y_next
        fitted = factor.fit(targets)
        Z[:, k] = fitted[:, :d]
        y_proj = fitted[:, d]
        f_dt = driver(times[k], features.state(k), y_proj, Z[:, k]) * dt
        Y[:, k] = y_proj + f_dt
        companion += f_dt
    return Y, Z, companion


# float64 eps times the paths summed in one moment, with headroom for the
# conditioning of the degree-2 designs
REFERENCE_RTOL = 1e-9


def _assert_matches_reference(driver, xi, basis, traj, dW):
    features = make_features(basis, traj)
    sol = solve_bsde(driver, xi, features, traj, dW)
    Y, Z, companion = _reference_solve(driver, xi, features, traj, dW, basis.ridge)
    assert np.abs(sol.Y - Y).max() <= REFERENCE_RTOL * np.abs(Y).max()
    assert np.abs(sol.Z - Z).max() <= REFERENCE_RTOL * np.abs(Z).max()
    se = companion.std(ddof=1) / np.sqrt(companion.size)
    assert abs(sol.std_error - se) <= REFERENCE_RTOL * se


def test_fused_matches_reference_markov_degree2_d2():
    g = Grid(0.0, 1.0, 20)
    nb = NoiseBundle(19, 20_000, 20, d=2)
    dW = nb.increments(g.dt)
    traj = euler_markov(SdeSpec(lambda t, x: -0.3 * x, lambda t, x: np.ones_like(x)),
                        np.array([0.0, 1.0]), g, dW)
    xi = np.sin(traj.terminal()).sum(axis=1)
    drv = DriverSpec(lambda t, s, y, z: -0.1 * y + 0.05 * z[:, 0] - 0.02 * z[:, 1], lipschitz=0.2)
    _assert_matches_reference(drv, xi, RegressionBasisSpec("markov", 2), traj, dW)


def test_fused_matches_reference_path_sup_terminal():
    eta = Path.from_function(lambda x: 0.3 * np.sin(3.0 * x), 1.0, 101)
    g = Grid(0.2, 1.0, 40)
    nb = NoiseBundle(20, 20_000, 40)
    dW = nb.increments(g.dt)
    traj = euler_path_dependent(SdeSpec(0.0, 1.0), eta, g, dW)
    problem = ProblemSpec("path", 0.0, 1.0, DriverSpec(None), SupTerminal(), horizon=1.0)
    xi = _terminal_samples_path(problem, _Forward(nb, traj), SolverConfig(20_000, 40, seed=20))
    _assert_matches_reference(DriverSpec(None), xi, RegressionBasisSpec("path", 2), traj, dW)


def test_fused_matches_reference_large_offset():
    # the feature means dwarf their spread: the head-mean shift keeps the
    # one-pass moments from cancelling
    g = Grid(0.0, 1.0, 20)
    nb = NoiseBundle(21, 20_000, 20)
    dW = nb.increments(g.dt)
    traj = euler_markov(SdeSpec(0.0, 1e-2), 1e3, g, dW)
    xi = traj.terminal() ** 2
    drv = DriverSpec(lambda t, s, y, z: -0.1 * y, lipschitz=0.1)
    _assert_matches_reference(drv, xi, RegressionBasisSpec("markov", 2), traj, dW)


def test_zero_driver_never_reads_the_state():
    g, traj, dW = _brownian(2000, 10, seed=22)
    features = make_features(BASIS, traj)

    class NoState:
        spec = BASIS

        def design_t(self, k, out):
            return features.design_t(k, out)

        def state(self, k):
            raise AssertionError("state read for the zero driver")

    sol = solve_bsde(DriverSpec(None), traj.terminal(), NoState(), traj, dW)
    ref = solve_bsde(DriverSpec(None), traj.terminal(), features, traj, dW)
    np.testing.assert_array_equal(sol.Y, ref.Y)
    np.testing.assert_array_equal(extract_compensator(sol.Y, sol.Z, DriverSpec(None), NoState(), g, dW),
                                  extract_compensator(ref.Y, ref.Z, DriverSpec(None), features, g, dW))


# ---------------------------------------------------------------------------
# properties of the fused factor


def _fused_fit(At, targets, ridge=1e-8):
    factor = _Factor(At.shape[0], targets.shape[0], At.shape[1], ridge)
    factor.design[:] = At
    factor.targets[:] = targets
    return factor.fit()


@st.composite
def _designs(draw, min_features=2):
    """A random design (B, n) with intercept row, offsets and scales per feature."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(40, 600))
    B = draw(st.integers(min_features, 6))
    offsets = draw(st.lists(st.floats(-1e4, 1e4), min_size=B - 1, max_size=B - 1))
    scales = draw(st.lists(st.floats(1e-3, 1e3), min_size=B - 1, max_size=B - 1))
    rng = np.random.default_rng(seed)
    At = np.empty((B, n))
    At[0] = 1.0
    At[1:] = np.asarray(offsets)[:, None] + np.asarray(scales)[:, None] * rng.standard_normal((B - 1, n))
    return At, rng


_constants = st.floats(-1e6, 1e6, allow_subnormal=False)


@settings(max_examples=60, deadline=None)
@given(_designs(), st.lists(_constants, min_size=1, max_size=3), st.sampled_from([0.0, 1e-8]))
def test_property_constant_targets_reproduced_exactly(design, consts, ridge):
    At, _ = design
    targets = np.repeat(np.asarray(consts)[:, None], At.shape[1], axis=1)
    fitted = _fused_fit(At, targets, ridge)
    np.testing.assert_array_equal(fitted, targets)


@settings(max_examples=60, deadline=None)
@given(_designs(), st.integers(1, 3), st.floats(-1e3, 1e3))
def test_property_fitted_mean_equals_target_mean(design, n_targets, offset):
    At, rng = design
    targets = offset + At[1] * 0.1 + rng.standard_normal((n_targets, At.shape[1]))
    fitted = _fused_fit(At, targets)
    scale = np.abs(targets).max()
    np.testing.assert_allclose(fitted.mean(axis=1), targets.mean(axis=1), rtol=0, atol=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(_designs(), st.floats(-1e4, 1e4), st.data())
def test_property_constant_feature_row_is_dropped(design, value, data):
    At, rng = design
    targets = rng.standard_normal((2, At.shape[1])) + At[1]
    at = data.draw(st.integers(1, At.shape[0]))
    with_const = np.insert(At, at, value, axis=0)
    # with ridge 0 a kept constant row would make the normal equations singular
    fitted = _fused_fit(with_const, targets, ridge=0.0)
    np.testing.assert_allclose(fitted, _fused_fit(At, targets, ridge=0.0), rtol=1e-10, atol=1e-10)


def test_degenerate_features_are_decided_on_all_paths():
    rng = np.random.default_rng(61)
    n = 6000
    x = rng.standard_normal(n)
    late = np.zeros(n)
    late[4096:] = rng.standard_normal(n - 4096)  # constant on the first 4096 paths only
    targets = (2.0 * late + 0.5 * x + 0.1 * rng.standard_normal(n))[None, :]
    At = np.vstack([np.ones(n), x, late])
    beta, *_ = np.linalg.lstsq(At.T, targets[0], rcond=None)
    fitted = _fused_fit(At, targets, ridge=0.0)
    np.testing.assert_allclose(fitted[0], At.T @ beta, rtol=0.0, atol=1e-9)  # the late feature is kept
    # a feature constant on all paths is still dropped: without a ridge it would make the Gram singular
    with_const = np.insert(At, 2, 3.7, axis=0)
    np.testing.assert_allclose(_fused_fit(with_const, targets, ridge=0.0), fitted, rtol=0.0, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(40, 300), st.lists(_constants, min_size=4, max_size=4),
       st.integers(0, 2**32 - 1))
def test_property_all_features_degenerate_projects_onto_constants(B, n, values, seed):
    At = np.ones((B, n))
    At[1:] = np.asarray(values[: B - 1])[:, None]
    targets = np.random.default_rng(seed).normal(3.0, 2.0, size=(2, n))
    fitted = _fused_fit(At, targets)
    assert np.all(fitted == fitted[:, :1])
    np.testing.assert_allclose(fitted[:, 0], targets.mean(axis=1), rtol=0, atol=1e-13 * 10.0)


@settings(max_examples=40, deadline=None)
@given(_designs(min_features=2), st.sampled_from([1.0, 2.0, -0.5, 4.0]), st.data())
def test_property_collinear_design_without_ridge_raises(design, factor, data):
    At, rng = design
    row = data.draw(st.integers(1, At.shape[0] - 1))
    collinear = np.vstack([At, factor * At[row]])
    targets = rng.standard_normal((2, At.shape[1]))
    with pytest.raises(RegressionError, match="ridge"):
        _fused_fit(collinear, targets, ridge=0.0)


@settings(max_examples=40, deadline=None)
@given(_designs(), st.sampled_from([np.nan, np.inf, -np.inf]), st.sampled_from(["target", "feature"]), st.data())
def test_property_non_finite_data_raises_without_lstsq(design, bad, where, data):
    # at a positive ridge the fit has no retry: NaN or inf data, in a target
    # or in a feature row (which would otherwise be dropped as constant), raises
    At, rng = design
    targets = rng.standard_normal((2, At.shape[1]))
    row = data.draw(st.integers(0, 1) if where == "target" else st.integers(1, At.shape[0] - 1))
    (targets if where == "target" else At)[row, data.draw(st.integers(0, At.shape[1] - 1))] = bad
    with pytest.MonkeyPatch.context() as mp:
        calls = []
        mp.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(a))
        with pytest.raises(RegressionError, match="NaN or inf"), np.errstate(invalid="ignore"):
            _fused_fit(At, targets, ridge=1e-8)
    assert calls == []


# ---------------------------------------------------------------------------
# the zero-driver value is the terminal sample mean


_ZERO_DRIVER_BASES = [("markov", deg, d) for deg in range(4) for d in (1, 2)] + [
    ("path", deg, 1) for deg in (1, 2)
]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(_ZERO_DRIVER_BASES),
    st.sampled_from([0.0, 1e-8, 1e-2]),
    st.sampled_from(["constant", "offset", "sup-bridge", "sup-discrete"]),
)
def test_property_zero_driver_value_is_terminal_mean(seed, basis_case, ridge, terminal):
    # evaluate_markov / evaluate_ppde return xi.mean() for a zero driver on
    # the strength of this identity: every projection keeps its target's
    # mean and the common starting state leaves only the intercept at step 0
    kind, degree, d = basis_case
    # ridge 0 needs a non-collinear design; in the path basis the running
    # integral is affine in the present value at step 1
    assume(kind == "markov" or ridge > 0.0)
    n_paths, n_steps = 1500, 8
    g = Grid(0.0, 1.0, n_steps)
    nb = NoiseBundle(seed, n_paths, n_steps, d)
    dW = nb.increments(g.dt)
    if kind == "markov":
        traj = euler_markov(SdeSpec(0.0, 1.0), np.zeros(d) if d > 1 else 0.0, g, dW)
        scalar = traj.values[:, :, 0] if d > 1 else traj.values
    else:
        eta = Path.from_function(lambda x: 0.2 * np.sin(4.0 * x), 1.0, 51)
        traj = euler_path_dependent(SdeSpec(0.0, 1.0), eta, g, dW)
        scalar = traj.values
    if terminal == "constant":
        xi = np.full(n_paths, 2.75)
    elif terminal == "offset":
        xi = 1e5 + scalar[:, -1] ** 2
    elif terminal == "sup-bridge":
        xi = bridge_corrected_max(scalar, g.dt, 1.0, nb.child(1, d=1))
    else:
        xi = scalar.max(axis=1)
    basis = RegressionBasisSpec(kind, degree, ridge=ridge)
    features = make_features(basis, traj)
    sol = solve_bsde(DriverSpec(None), xi, features, traj, dW)
    mean = xi.mean()
    assert abs(sol.value - mean) <= 1e-12 * max(1.0, abs(mean))
    # the value the evaluations return in place of the induction
    assert abs(_zero_driver_value(xi) - sol.value) <= 1e-12 * max(1.0, abs(mean))


# ---------------------------------------------------------------------------
# the standard error is that of the induction's own Feynman-Kac companion


_COMPANION_DRIVERS = {
    "linear": lambda t, s, y, z: -0.1 * y + 0.05 * z[:, 0] + 0.2,
    "abs-z": lambda t, s, y, z: 0.3 * np.abs(z[:, 0]),
}


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(_ZERO_DRIVER_BASES),
    st.sampled_from(sorted(_COMPANION_DRIVERS)),
    st.sampled_from(["offset", "sup-discrete"]),
)
def test_property_companion_mean_is_the_value(seed, basis_case, driver, terminal):
    # every projection keeps its target's mean and all paths share the state at step 0, so the mean of
    # xi + sum_k F(t_k, S_k, P_k[Y_{k+1}], Z_k) dt is Y_0; the driver's rows, recorded as the walk reads
    # them, rebuild the companion whose spread is the solution's standard error
    kind, degree, d = basis_case
    n_paths, n_steps = 1500, 8
    g = Grid(0.0, 1.0, n_steps)
    dW = NoiseBundle(seed, n_paths, n_steps, d).increments(g.dt)
    if kind == "markov":
        traj = euler_markov(SdeSpec(0.0, 1.0), np.zeros(d) if d > 1 else 0.0, g, dW)
        scalar = traj.values[:, :, 0] if d > 1 else traj.values
    else:
        eta = Path.from_function(lambda x: 0.2 * np.sin(4.0 * x), 1.0, 51)
        traj = euler_path_dependent(SdeSpec(0.0, 1.0), eta, g, dW)
        scalar = traj.values
    xi = 3.0 + scalar[:, -1] ** 2 if terminal == "offset" else scalar.max(axis=1)
    rows = []
    f = _COMPANION_DRIVERS[driver]
    drv = DriverSpec(lambda t, s, y, z: rows.append(np.array(f(t, s, y, z))) or rows[-1])
    sol = solve_bsde(drv, xi, make_features(RegressionBasisSpec(kind, degree), traj), traj, dW)
    assert len(rows) == n_steps
    companion = xi.copy()
    for f_k in rows:
        companion += f_k * g.dt
    assert abs(companion.mean() - sol.value) <= 1e-12 * max(1.0, abs(sol.value))
    assert sol.std_error == companion.std(ddof=1) / np.sqrt(n_paths)


# ---------------------------------------------------------------------------
# the Markov design, built as rows


def _column_poly_features(x: np.ndarray, degree: int) -> np.ndarray:
    """Reference: the monomial design as columns (n, B), built from the state as (n, d)."""
    if x.ndim == 1:
        x = x[:, None]
    m, d = x.shape
    cols = [np.ones(m)]
    if degree >= 1:
        cols.extend(x[:, j] for j in range(d))
    if degree >= 2:
        for j in range(d):
            for l in range(j, d):
                cols.append(x[:, j] * x[:, l])
    if degree >= 3:
        for j in range(d):
            for l in range(j, d):
                for r in range(l, d):
                    cols.append(x[:, j] * x[:, l] * x[:, r])
    return np.stack(cols, axis=1)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(1, 40), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_property_markov_design_rows_equal_transposed_columns(d, degree, n_paths, n_steps, seed):
    shape = (n_paths, n_steps + 1) if d == 1 else (n_paths, n_steps + 1, d)
    values = np.random.default_rng(seed).normal(size=shape)
    traj = TrajectoryBatch(Grid(0.0, 1.0, n_steps), values)
    spec = RegressionBasisSpec("markov", degree)
    features = make_features(spec, traj)
    for k in range(n_steps + 1):
        design = features.design_t(k, np.empty((spec.n_features(d), n_paths)))
        assert design.shape == (spec.n_features(d), n_paths)
        assert np.array_equal(design, _column_poly_features(values[:, k], degree).T)
        assert np.array_equal(features.state(k), values[:, k])


# ---------------------------------------------------------------------------
# the providers write each step's design into the regression's buffer


def _path_case(n_paths=2000, n_steps=10, seed=24):
    eta = Path.from_function(lambda x: 0.2 * np.sin(4.0 * x), 1.0, 51)
    g = Grid(0.0, 1.0, n_steps)
    dW = NoiseBundle(seed, n_paths, n_steps).increments(g.dt)
    return euler_path_dependent(SdeSpec(0.0, 1.0), eta, g, dW), dW


@pytest.mark.parametrize("kind", ["markov", "path"])
def test_one_design_per_step_written_into_the_factor_buffer(monkeypatch, kind):
    if kind == "markov":
        _, traj, dW = _brownian(2000, 10, seed=23)
    else:
        traj, dW = _path_case()
    features = make_features(RegressionBasisSpec(kind, 2), traj)
    factors, outs = [], []

    class RecordingFactor(_Factor):
        def __init__(self, *args):
            super().__init__(*args)
            factors.append(self)

    design_t = type(features).design_t

    def spy(self, k, out):
        outs.append(out)
        return design_t(self, k, out)

    monkeypatch.setattr(bsde, "_Factor", RecordingFactor)
    monkeypatch.setattr(type(features), "design_t", spy)
    drv = DriverSpec(lambda t, s, y, z: -0.1 * y)
    solve_bsde(drv, np.sin(traj.terminal()), features, traj, dW)
    assert len(factors) == 1 and len(outs) == traj.grid.n_steps
    assert all(np.shares_memory(out, factors[0].buf) for out in outs)


_PROVIDER_BASES = [("markov", deg, d) for d in (1, 2, 3) for deg in range(4)] + [
    ("path", deg, 1) for deg in (1, 2)
]


@pytest.mark.parametrize("kind, degree, d", _PROVIDER_BASES)
def test_spec_row_count_is_what_each_provider_writes(kind, degree, d):
    # the solve sizes the regression buffer from the spec alone: every row of it must be written
    n_paths, n_steps = 64, 4
    if kind == "markov":
        values = np.random.default_rng(25).normal(size=(n_paths, n_steps + 1) + ((d,) if d > 1 else ()))
        traj = TrajectoryBatch(Grid(0.0, 1.0, n_steps), values)
    else:
        traj, _ = _path_case(n_paths, n_steps)
    spec = RegressionBasisSpec(kind, degree)
    features = make_features(spec, traj)
    for k in range(n_steps + 1):
        out = np.full((spec.n_features(d), n_paths), np.nan)
        assert features.design_t(k, out) is out
        assert not np.isnan(out).any()


# ---------------------------------------------------------------------------
# the path state


def test_path_state_present_is_the_exact_value():
    traj, _ = _path_case(1000, 20)
    spec = RegressionBasisSpec("path", 2)
    features = make_features(spec, traj)
    for k in range(traj.grid.n_steps + 1):
        assert np.array_equal(features.state(k)["present"], traj.values[:, k])
        assert np.array_equal(features.design_t(k, np.empty((spec.n_features(), traj.n_paths)))[1],
                              traj.values[:, k])


@pytest.mark.parametrize("t0, n_steps", [(0.0, 50), (0.4, 30)])
def test_path_coordinates_are_the_cylindrical_features_of_their_windows(t0, n_steps):
    # the coordinates are the pathwise integrals of e~_i(u - T) at absolute time u; windows cut on the
    # dt-aligned nodes of [-T, 0], which are the history's nodes too, give the reference
    T = 1.0
    eta = Path.from_function(lambda x: 0.2 * np.sin(4.0 * x), T, 51)
    g = Grid(t0, T, n_steps)
    dW = NoiseBundle(27, 300, n_steps).increments(g.dt)
    traj = euler_path_dependent(SdeSpec(0.0, 1.0), eta, g, dW)
    features = make_features(RegressionBasisSpec("path", 2, 2), traj)
    basis = FourierBasis(T, 4)
    reference = CylindricalFunctional(base=None, integrands=tuple(
        Integrand(lambda u, i=i: basis.antiderivative(i, u - T), lambda u, i=i: basis.evaluate(i, u - T))
        for i in range(1, 5)
    ))
    xs = np.linspace(-T, 0.0, 51)
    for k in (0, 1, n_steps // 3, n_steps - 1, n_steps):
        windows = traj.window_values(k, xs)
        want = np.stack([reference.features(g.times[k], Path(T, row)) for row in windows])
        assert np.abs(features.state(k)["fourier"] - want).max() <= 1e-6


# ---------------------------------------------------------------------------
# input checks


def _solve_on(n_paths, terminal_paths=None, increments_steps=None):
    g, traj, dW = _brownian(n_paths, 4, seed=3)
    xi = np.zeros(terminal_paths or n_paths)
    return solve_bsde(DriverSpec(None), xi, BASIS, traj, dW[:, :increments_steps])


def _path_features(values, prefix):
    return make_features(RegressionBasisSpec("path", 2), TrajectoryBatch(Grid(0.0, 1.0, 4), values, prefix))


def _limit_on(n_drivers, n_terminals, **kw):
    """A coupled limit table on 50 Brownian paths whose drivers fail when called: the checks come first."""
    g, traj, dW = _brownian(50, 4, seed=17)

    def never(*args):
        raise AssertionError("a solve ran before the length checks")

    return limit_experiment([DriverSpec(never)] * n_drivers, DriverSpec(never), [traj.terminal()] * n_terminals,
                            traj.terminal(), BASIS, traj, dW, **kw)


_BSDE_INPUT_CHECKS = {
    "basis kind": (lambda: RegressionBasisSpec("spline"), "unknown basis kind 'spline'"),
    "basis degree": (lambda: RegressionBasisSpec("markov", 4), "degree must be within 0..3, got 4"),
    "basis ridge": (lambda: RegressionBasisSpec("markov", 2, ridge=-1e-8), "ridge must be nonnegative"),
    "terminal shape": (lambda: _solve_on(100, terminal_paths=99), r"terminal samples shape \(99,\) != \(100,\)"),
    "increments shape": (lambda: _solve_on(100, increments_steps=3), "increments shape .* mismatches trajectories"),
    "path features of a vector state": (lambda: _path_features(np.zeros((10, 5, 2)), None),
                                        "need scalar trajectories"),
    "path features without a history": (lambda: _path_features(np.zeros((10, 5)), None), "need the history path"),
    "a terminal per driver": (lambda: _limit_on(2, 1), "2 drivers but 1 terminals"),
    "a label per row": (lambda: _limit_on(2, 2, n_labels=[1]), "1 labels for 2 rows"),
    "norm order": (lambda: bsde_norms(BsdeSolution(Grid(0.0, 1.0, 2), np.zeros((3, 3)), np.zeros((3, 2, 1)), 0.0), p=0.5),
                   "norm order must be >= 1, got 0.5"),
}


@pytest.mark.parametrize("case", list(_BSDE_INPUT_CHECKS))
def test_input_checks_raise_value_errors(case):
    call, message = _BSDE_INPUT_CHECKS[case]
    with pytest.raises(ValueError, match=message):
        call()
