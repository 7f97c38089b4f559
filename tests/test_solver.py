from dataclasses import replace

import numpy as np
import pytest

from pathpde import solver
from pathpde.bsde import DriverSpec, RegressionBasisSpec
from pathpde.paths import Path
from pathpde.smoothing import CylindricalFunctional, Integrand
from pathpde.solver import (
    ApproximationSchedule,
    ProblemSpec,
    SolverConfig,
    SupTerminal,
    comparison_experiment,
    evaluate_markov,
    evaluate_ppde,
    lookback_oracle,
    strong_viscosity_pipeline,
)

ROOT2_OVER_PI = np.sqrt(2.0 / np.pi)


def _heat_problem(terminal=lambda x: x * x):
    return ProblemSpec("markov", 0.0, 1.0, DriverSpec(None), terminal, horizon=1.0)


def _linear_problem(rate=0.1):
    drv = DriverSpec(lambda t, s, y, z, r=rate: -r * y, lipschitz=rate)
    return ProblemSpec("markov", 0.0, 1.0, drv, lambda x: x, horizon=1.0)


def _lookback_problem():
    return ProblemSpec("path", 0.0, 1.0, DriverSpec(None), SupTerminal(), horizon=1.0)


def test_markov_martingale_terminal():
    prob = _heat_problem(terminal=lambda x: x)
    value, se = evaluate_markov(prob, 0.0, 0.7, SolverConfig(50_000, 50, seed=1))
    assert abs(value - 0.7) <= 3.0 * max(se, 1e-4)


def test_markov_heat_benchmark():
    value, se = evaluate_markov(_heat_problem(), 0.0, 0.5, SolverConfig(400_000, 100, seed=2))
    exact = 0.25 + 1.0
    assert abs(value - exact) <= 0.01 * exact


def test_markov_linear_driver_probes():
    prob = _linear_problem()
    for t0 in (0.0, 0.5):
        for x0 in (-1.0, 0.0, 1.0):
            value, se = evaluate_markov(prob, t0, x0, SolverConfig(100_000, 100, seed=3))
            exact = x0 * np.exp(-0.1 * (1.0 - t0))
            assert abs(value - exact) <= max(0.01 * abs(exact), 0.01)


def test_markov_terminal_time_is_exact():
    value, se = evaluate_markov(_heat_problem(), 1.0, 3.0, SolverConfig(100, 10, seed=4))
    assert value == 9.0
    assert se == 0.0


def test_ppde_present_value_martingale():
    prob = ProblemSpec("path", 0.0, 1.0, DriverSpec(None),
                       lambda eta: float(eta.values[-1]), horizon=1.0)
    eta = Path.from_function(lambda x: 0.3 * np.cos(2 * x), 1.0, 101)
    value, se = evaluate_ppde(prob, 0.0, eta, SolverConfig(20_000, 50, seed=5))
    assert abs(value - eta.values[-1]) <= 3.0 * max(se, 1e-4)


def test_ppde_lookback_benchmark():
    eta0 = Path.constant(0.0, 1.0, 201)
    value, se = evaluate_ppde(_lookback_problem(), 0.0, eta0, SolverConfig(200_000, 200, seed=6))
    assert abs(value - ROOT2_OVER_PI) <= 0.015 * ROOT2_OVER_PI


def test_ppde_lookback_terminal_exactness():
    rng = np.random.default_rng(7)
    prob = _lookback_problem()
    cfg = SolverConfig(100, 10, seed=7)
    for _ in range(10):
        eta = Path(1.0, np.cumsum(rng.normal(0.0, 0.1, 51)))
        value, se = evaluate_ppde(prob, 1.0, eta, cfg)
        assert value == float(np.max(eta.values))
        assert se == 0.0


def test_ppde_discrete_max_without_bridge_underestimates():
    eta0 = Path.constant(0.0, 1.0, 201)
    with_bridge, _ = evaluate_ppde(_lookback_problem(), 0.0, eta0,
                                   SolverConfig(50_000, 100, seed=8, bridge_max=True))
    without, _ = evaluate_ppde(_lookback_problem(), 0.0, eta0,
                               SolverConfig(50_000, 100, seed=8, bridge_max=False))
    assert without < with_bridge
    assert abs(with_bridge - ROOT2_OVER_PI) < abs(without - ROOT2_OVER_PI)


def test_ppde_nonzero_history_lookback():
    # history descending from a past maximum of one to a present value of zero
    def hist(x):
        return np.clip(-2.0 * (x + 0.5), 0.0, 1.0)

    eta = Path.from_function(hist, 1.0, 401)
    value, se = evaluate_ppde(_lookback_problem(), 0.0, eta, SolverConfig(100_000, 200, seed=9))
    # at t = 0 only the present value survives the window shift: the past
    # maximum is irrelevant and the oracle reduces to eta(0) + E sup W
    target = lookback_oracle(0.0, eta, 1.0)
    assert target == pytest.approx(ROOT2_OVER_PI, abs=1e-12)
    assert abs(value - target) <= 0.02


# ---------------------------------------------------------------------------
# lookback oracle


def test_oracle_terminal_time():
    eta = Path.from_function(lambda x: x * x, 1.0, 101)
    assert lookback_oracle(1.0, eta, 1.0) == 1.0


def test_oracle_flat_history():
    eta0 = Path.constant(0.0, 1.0, 101)
    assert lookback_oracle(0.0, eta0, 1.0) == pytest.approx(ROOT2_OVER_PI, abs=1e-14)


def test_oracle_unit_gap_value():
    # past maximum one above the present value of zero, one unit of time
    # left; the closed form was cross-validated by direct Monte Carlo of
    # E max(1, sup W) (2e6 samples: 1.16681, within one standard error)
    def hist(x):
        return np.clip(-4.0 * (x + 0.25), 0.0, 1.0)

    eta = Path.from_function(hist, 2.0, 1601)
    t = 1.0
    got = lookback_oracle(t, eta, 2.0)
    expect = 1.0 * (2.0 * 0.8413447460685429 - 1.0) + np.sqrt(2.0 / np.pi) * np.exp(-0.5)
    assert got == pytest.approx(expect, abs=2e-3)
    assert got == pytest.approx(1.16663, abs=2e-3)


def test_oracle_rejects_time_beyond_horizon():
    with pytest.raises(ValueError):
        lookback_oracle(1.5, Path.constant(0.0, 1.0), 1.0)


def test_oracle_against_simulation_at_interior_time():
    # solver at t = 0.5 with a history whose running maximum binds
    def hist(x):
        return np.where(x < -0.4, 0.8 + 0.0 * x, -2.0 * (x + 0.4))

    eta = Path.from_function(hist, 1.0, 501)
    target = lookback_oracle(0.5, eta, 1.0)
    value, se = evaluate_ppde(_lookback_problem(), 0.5, eta, SolverConfig(100_000, 100, seed=10))
    assert abs(value - target) <= 0.02 * max(1.0, abs(target))


# ---------------------------------------------------------------------------
# smoothing pipeline


def test_pipeline_smooth_problem_is_fixed_point():
    prob = _linear_problem()
    sched = ApproximationSchedule((2, 4), SolverConfig(20_000, 50, seed=11))
    report = strong_viscosity_pipeline(prob, sched, [(0.0, 1.0)])
    direct, se = evaluate_markov(prob, 0.0, 1.0, SolverConfig(20_000, 50, seed=11))
    spread = report.values[:, 0].max() - report.values[:, 0].min()
    assert spread <= 3.0 * np.sqrt(2.0) * max(report.std_errors[:, 0].max(), 1e-4)
    assert np.abs(report.values[:, 0] - direct).max() <= 6.0 * max(se, 1e-3)


def test_pipeline_kinked_terminal_converges_to_folded_normal():
    prob = _heat_problem(terminal=lambda x: np.abs(x))
    sched = ApproximationSchedule((4, 8, 16, 32), SolverConfig(100_000, 100, seed=12))
    report = strong_viscosity_pipeline(prob, sched, [(0.0, 0.0)])
    gaps = report.cauchy_gaps[:, 0]
    assert np.all(np.diff(gaps) < 0)
    final_err = abs(report.values[-1, 0] - ROOT2_OVER_PI) / ROOT2_OVER_PI
    assert final_err <= 0.02
    assert report.converged[0]


def test_pipeline_driver_mollification_preserves_linear_driver():
    # joint smoothing in (x, y, z) reproduces an affine generator, so the
    # mollified rung still matches the closed form within its statistics
    prob = _linear_problem()
    sched = ApproximationSchedule((4,), SolverConfig(20_000, 25, seed=22),
                                  mollify_driver=True, quad_nodes=8)
    report = strong_viscosity_pipeline(prob, sched, [(0.0, 1.0)])
    exact = np.exp(-0.1)
    assert abs(report.values[0, 0] - exact) <= max(3.0 * report.std_errors[0, 0], 0.01 * exact)


def test_pipeline_two_schedules_agree():
    # uniqueness proxy: different mollifier families and seeds, same limit
    prob = _heat_problem(terminal=lambda x: np.abs(x))
    sched_a = ApproximationSchedule((8, 16), SolverConfig(50_000, 50, seed=13),
                                    mollifier_family="exp")
    sched_b = ApproximationSchedule((8, 16), SolverConfig(50_000, 50, seed=14),
                                    mollifier_family="poly")
    rep_a = strong_viscosity_pipeline(prob, sched_a, [(0.0, 0.0), (0.0, 0.5)])
    rep_b = strong_viscosity_pipeline(prob, sched_b, [(0.0, 0.0), (0.0, 0.5)])
    for p in range(2):
        joint = np.hypot(rep_a.std_errors[-1, p], rep_b.std_errors[-1, p])
        assert abs(rep_a.values[-1, p] - rep_b.values[-1, p]) <= 3.0 * max(joint, 2e-3)


def test_pipeline_lookback_values_approach_oracle():
    # the projection smoothing clips short excursions of the rough window,
    # so its bias decays slowly (measured ~ n^(-1/3)); what is testable at
    # affordable indices is the monotone approach toward the oracle
    prob = _lookback_problem()
    eta0 = Path.constant(0.0, 1.0, 201)
    sched = ApproximationSchedule((4, 16, 64), SolverConfig(20_000, 200, seed=15, bridge_max=False))
    report = strong_viscosity_pipeline(prob, sched, [(0.0, eta0)])
    errs = np.abs(report.values[:, 0] - ROOT2_OVER_PI)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 0.5 * errs[0]
    assert np.all(report.values[:, 0] < ROOT2_OVER_PI)  # smoothing clips the maximum


@pytest.mark.xfail(
    reason="the projection bias on rough windows decays like n^(-1/3); a 2% gap "
    "needs smoothing indices far beyond the affordable schedule",
    strict=True,
)
def test_pipeline_lookback_two_percent_gap():
    prob = _lookback_problem()
    eta0 = Path.constant(0.0, 1.0, 201)
    sched = ApproximationSchedule((4, 16, 64), SolverConfig(20_000, 200, seed=15, bridge_max=False))
    report = strong_viscosity_pipeline(prob, sched, [(0.0, eta0)])
    assert abs(report.values[-1, 0] - ROOT2_OVER_PI) <= 0.02 * ROOT2_OVER_PI


def test_pipeline_cylindrical_terminal_uses_diagonal_index():
    # kinked cylindrical terminal: base |F_1| with a linear integrand;
    # the pipeline smooths the base and selects the inner scale
    ig = Integrand(
        phi=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        dphi=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
    )
    term = CylindricalFunctional(base=lambda t, F: np.abs(F[:, 0]), integrands=(ig,))
    prob = ProblemSpec("path", 0.0, 1.0, DriverSpec(None), term, horizon=1.0)
    eta0 = Path.constant(0.0, 1.0, 101)
    sched = ApproximationSchedule((2, 4, 8), SolverConfig(20_000, 50, seed=16))
    report = strong_viscosity_pipeline(prob, sched, [(0.0, eta0)])
    # terminal is |X_T|: the target value is the folded-normal mean
    errs = np.abs(report.values[:, 0] - ROOT2_OVER_PI)
    assert errs[-1] <= 0.05
    assert errs[-1] <= errs[0]


def test_pipeline_rejects_generic_window_coefficients():
    prob = ProblemSpec("path", lambda t, wb: wb.present, 1.0, DriverSpec(None),
                       SupTerminal(), horizon=1.0)
    sched = ApproximationSchedule((2, 4), SolverConfig(1000, 10, seed=17))
    with pytest.raises(ValueError, match="cylindrical"):
        strong_viscosity_pipeline(prob, sched, [(0.0, Path.constant(0.0, 1.0))])


def test_solution_field_repeatable():
    prob = _heat_problem(terminal=lambda x: np.abs(x))
    sched = ApproximationSchedule((2, 4), SolverConfig(5000, 20, seed=18))
    report = strong_viscosity_pipeline(prob, sched, [(0.0, 0.0)])
    v1, se1 = report.field.evaluate(0.0, 0.25)
    v2, se2 = report.field.evaluate(0.0, 0.25)
    assert v1 == v2 and se1 == se2
    assert report.field.provenance["final_index"] == 4


# ---------------------------------------------------------------------------
# comparison experiment


def test_comparison_degenerate_slack():
    rep = comparison_experiment(_linear_problem(), 0.0, 0.0, 1.0, SolverConfig(20_000, 10, seed=19))
    assert rep["ordering"]["violation_fraction"] == 0.0


def test_comparison_ordering_and_compensator_signs():
    rep = comparison_experiment(_linear_problem(), 0.5, 0.0, 1.0,
                                SolverConfig(400_000, 8, seed=20))
    assert rep["ordering"]["violation_fraction"] <= 1e-3
    assert rep["k_super_nondecreasing_fraction"] >= 0.999
    assert rep["k_sub_nonincreasing_fraction"] >= 0.999


def test_comparison_swapped_arguments_fail():
    rep = comparison_experiment(_linear_problem(), 0.5, 0.0, 1.0,
                                SolverConfig(50_000, 20, seed=21))
    assert rep["swapped"]["violation_fraction"] >= 0.9


# ---------------------------------------------------------------------------
# zero-driver dispatch: the value is the terminal sample mean

ZERO_FN = DriverSpec(lambda t, s, y, z: np.zeros_like(y))  # zero, but through the induction


def _unit_integrand():
    return Integrand(phi=lambda u: np.ones_like(np.asarray(u, dtype=float)),
                     dphi=lambda u: np.zeros_like(np.asarray(u, dtype=float)))


def _evaluate(problem, cfg):
    if problem.mode == "markov":
        return evaluate_markov(problem, 0.0, 0.3, cfg)
    return evaluate_ppde(problem, 0.0, Path.from_function(lambda x: 0.2 * np.cos(3 * x), 1.0, 101), cfg)


def _zero_driver_problems():
    cyl = CylindricalFunctional(base=lambda t, F: np.abs(F[:, 0]) + 0.5 * F[:, 0] ** 2,
                                integrands=(_unit_integrand(),))
    return {
        "square": _heat_problem(),
        "abs": _heat_problem(terminal=lambda x: np.abs(x)),
        "sup": _lookback_problem(),
        "cylindrical": ProblemSpec("path", 0.0, 1.0, DriverSpec(None), cyl, horizon=1.0),
    }


@pytest.mark.parametrize("name", ["square", "abs", "sup", "cylindrical"])
def test_zero_driver_matches_the_induction(name):
    problem = _zero_driver_problems()[name]
    cfg = SolverConfig(20_000, 40, seed=23)
    value, se = _evaluate(problem, cfg)
    full_value, full_se = _evaluate(replace(problem, driver=ZERO_FN), cfg)
    assert abs(value - full_value) <= 1e-12 * abs(full_value)
    assert abs(se - full_se) <= 1e-12 * full_se


def _refuse(*args, **kwargs):
    raise AssertionError("the zero driver reached the backward induction")


def test_zero_driver_builds_no_features_and_runs_no_induction(monkeypatch):
    monkeypatch.setattr(solver, "make_features", _refuse)
    monkeypatch.setattr(solver, "solve_bsde", _refuse)
    cfg = SolverConfig(5000, 20, seed=24)
    for problem in (_heat_problem(), _lookback_problem()):
        value, se = _evaluate(problem, cfg)
        assert np.isfinite(value) and se > 0.0


def test_nonzero_driver_runs_the_induction(monkeypatch):
    calls = []
    for name in ("make_features", "solve_bsde"):
        original = getattr(solver, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(solver, name, spy)
    cfg = SolverConfig(5000, 20, seed=25)
    for problem in (_heat_problem(), _lookback_problem()):
        _evaluate(replace(problem, driver=ZERO_FN), cfg)
    assert calls == ["make_features", "solve_bsde"] * 2


class _NoNoise:
    def __init__(self, *args, **kwargs):
        raise AssertionError("noise drawn before the basis-size guard")


@pytest.mark.parametrize("driver", [DriverSpec(None), ZERO_FN], ids=["zero", "nonzero"])
def test_basis_size_guard_before_any_noise(monkeypatch, driver):
    monkeypatch.setattr(solver, "NoiseBundle", _NoNoise)
    for problem in (_heat_problem(), _lookback_problem()):
        with pytest.raises(ValueError, match="well-posedness guard n_paths/10 = 0.5"):
            _evaluate(replace(problem, driver=driver), SolverConfig(5, 10, seed=26))


def test_path_basis_on_markov_problem_is_rejected():
    cfg = SolverConfig(5000, 10, seed=27, basis=RegressionBasisSpec("path"))
    with pytest.raises(ValueError):
        evaluate_markov(_heat_problem(), 0.0, 0.0, cfg)
