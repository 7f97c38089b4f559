import os
import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pathpde import sde, smoothing, solver
from pathpde.bsde import DriverSpec, RegressionBasisSpec
from pathpde.paths import Grid, Path, WindowBatch
from pathpde.sde import DivergenceError, SdeSpec, TrajectoryBatch
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


def test_non_finite_driver_raises_naming_the_step():
    # log(y) is NaN wherever the projected value is negative; that must not reach Y_0
    prob = ProblemSpec("markov", 0.0, 1.0, DriverSpec(lambda t, x, y, z: np.log(y)), lambda x: x, horizon=1.0)
    message = r"driver values are not finite \(NaN or inf\) at step 9 "
    with pytest.raises(ValueError, match=message), np.errstate(invalid="ignore"):
        evaluate_markov(prob, 0.0, 0.0, SolverConfig(5000, 10, seed=3))


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
    # gap and tau are both exactly 1: only rounding separates the oracle
    # from 2 Phi(1) - 1 + sqrt(2 / pi) e^(-1/2), with Phi(1) = 0.8413447460685429
    expect = 1.0 * (2.0 * 0.8413447460685429 - 1.0) + np.sqrt(2.0 / np.pi) * np.exp(-0.5)
    assert got == pytest.approx(expect, abs=1e-14)
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
    reason="two biases add up: the smoothing bias falls slowly in n (17% low at n = 64, "
    "12.6% at 128), and as n grows the smoothed value tends to the discrete maximum over "
    "the 200 grid nodes, which is itself about 4.6% low (Broadie-Glasserman-Kou: "
    "0.5826 sqrt(dt)); no index reaches 2% at 200 steps",
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


def test_diagonal_index_builds_each_smoothed_base_once(monkeypatch):
    # select_diagonal asks for every k at every stage n; the base depends on k alone
    term = CylindricalFunctional(base=lambda t, F: np.abs(F[:, 0]), integrands=(_unit_integrand(),))
    prob = ProblemSpec("path", 0.0, 1.0, DriverSpec(None), term, horizon=1.0)
    builds = []

    def spy(g, m, k, *args, **kwargs):
        builds.append(k)
        return smoothing.smooth_finite_dim(g, m, k, *args, **kwargs)

    monkeypatch.setattr(solver, "smooth_finite_dim", spy)
    sched = ApproximationSchedule((4, 16, 64), SolverConfig(1000, 10))
    ks = solver._select_terminal_inner_index(prob, sched, [(0.0, Path.constant(0.0, 1.0, 101))])
    assert ks.tolist() == [1, 2, 6]  # the k selected when every (n, k) built its own base, 209 builds
    assert sorted(builds) == [1, 2, 3, 4, 5, 6]


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


# ---------------------------------------------------------------------------
# non-finite terminal samples


def _nan_above_zero(x):
    return np.where(x > 0, np.nan, x)


@pytest.mark.parametrize("driver", [DriverSpec(None), _linear_problem().driver], ids=["zero", "linear"])
def test_non_finite_terminal_samples_are_rejected(driver):
    cfg = SolverConfig(2000, 10, seed=28)
    problem = ProblemSpec("markov", 0.0, 1.0, driver, _nan_above_zero, horizon=1.0)
    with pytest.raises(ValueError, match=r"^\d+ of 2000 terminal samples are not finite"):
        evaluate_markov(problem, 0.0, 0.0, cfg)
    problem = replace(problem, terminal=lambda x: np.where(x > 0, np.inf, x))
    with pytest.raises(ValueError, match="not finite"):
        evaluate_markov(problem, 0.0, 0.0, cfg)


def test_non_finite_path_functional_samples_are_rejected():
    problem = ProblemSpec("path", 0.0, 1.0, DriverSpec(None),
                          lambda eta: float(_nan_above_zero(eta.values[-1])), horizon=1.0)
    with pytest.raises(ValueError, match=r"^\d+ of 2000 terminal samples are not finite"):
        evaluate_ppde(problem, 0.0, Path.constant(0.0, 1.0, 11), SolverConfig(2000, 10, seed=29))


def test_comparison_rejects_non_finite_terminal_samples():
    problem = replace(_linear_problem(), terminal=_nan_above_zero)
    with pytest.raises(ValueError, match=r"^\d+ of 2000 terminal samples are not finite"):
        comparison_experiment(problem, 0.5, 0.0, 0.0, SolverConfig(2000, 10, seed=30))


@pytest.mark.parametrize("t, message", [(-0.5, r"^evaluation time -0.5 is negative: the problem is posed on \[0, 1.0\]"),
                                        (1.0, r"^the comparison needs t < T")], ids=["below-zero", "horizon"])
def test_comparison_checks_the_time_before_any_noise(monkeypatch, t, message):
    monkeypatch.setattr(solver, "NoiseBundle", _no_noise)
    with pytest.raises(ValueError, match=message):
        comparison_experiment(_linear_problem(), 0.05, t, 0.2, SolverConfig(2000, 10, seed=30))


# ---------------------------------------------------------------------------
# one forward pass per probe: rungs with the same coefficients share it


@pytest.mark.parametrize("indices", [(0, 4), (-2, 4), (4, 4)])
def test_schedule_rejects_bad_indices(indices):
    with pytest.raises(ValueError, match="smoothing indices"):
        ApproximationSchedule(indices)


def _kinked_callable_coefficients():
    # callable coefficients are mollified on every rung, so no rung shares
    return ProblemSpec("markov", lambda t, x: -0.3 * x, lambda t, x: 1.0 + 0.1 * np.abs(x),
                       DriverSpec(None), lambda x: np.abs(x), horizon=1.0)


def _reuse_cases():
    history = Path.from_function(lambda x: 0.2 * np.sin(3.0 * x), 1.0, 41)
    path_probes = [(0.0, Path.constant(0.0, 1.0, 41)), (0.25, history)]
    cyl = CylindricalFunctional(base=lambda t, F: np.abs(F[:, 0]), integrands=(_unit_integrand(),))
    linear = replace(_linear_problem(), terminal=lambda x: np.abs(x))
    markov_probes = [(0.0, 0.0), (0.5, 0.3)]
    return {
        "path-sup": (_lookback_problem(), {}, path_probes),
        "path-callable": (ProblemSpec("path", 0.0, 1.0, DriverSpec(None),
                                      lambda eta: float(np.abs(eta.values[-1])), horizon=1.0),
                          {}, path_probes),
        "path-cylindrical": (ProblemSpec("path", 0.0, 1.0, DriverSpec(None), cyl, horizon=1.0),
                             {}, path_probes),
        "markov-constant": (_heat_problem(terminal=lambda x: np.abs(x)), {}, markov_probes),
        "markov-mollified": (_kinked_callable_coefficients(), {}, markov_probes),
        "markov-linear-driver": (linear, {"mollify_driver": True, "quad_nodes": 8}, markov_probes),
    }


def _per_rung_reference(problem, schedule, probes):
    """The pipeline's values as one evaluate_* call per rung and probe."""
    inner_k = None
    if problem.mode == "path" and isinstance(problem.terminal, CylindricalFunctional):
        inner_k = solver._select_terminal_inner_index(problem, schedule, probes)
    values = np.empty((len(schedule.indices), len(probes)))
    errors = np.empty_like(values)
    for r, n in enumerate(schedule.indices):
        rung = solver._smooth_rung(problem, n, schedule,
                                   inner_k=None if inner_k is None else int(inner_k[r]))
        evaluate = evaluate_markov if problem.mode == "markov" else evaluate_ppde
        for p, (t, probe) in enumerate(probes):
            cfg = replace(schedule.config, seed=solver._probe_seed(schedule.config.seed, t, probe))
            values[r, p], errors[r, p] = evaluate(rung, t, probe, cfg)
    return values, errors


@pytest.mark.parametrize("name", ["path-sup", "path-callable", "path-cylindrical", "markov-constant",
                                  "markov-mollified", "markov-linear-driver"])
def test_pipeline_matches_one_evaluation_per_rung(name):
    problem, options, probes = _reuse_cases()[name]
    n_steps = 20 if problem.mode == "markov" else 40
    schedule = ApproximationSchedule((2, 4, 8), SolverConfig(4000, n_steps, seed=31), **options)
    report = strong_viscosity_pipeline(problem, schedule, probes)
    values, errors = _per_rung_reference(problem, schedule, probes)
    assert np.array_equal(report.values, values)
    assert np.array_equal(report.std_errors, errors)


def _euler_sizes(monkeypatch):
    """Record (n_paths, n_steps) of the increments handed to each Euler call."""
    sizes = []
    for name in ("euler_markov", "euler_path_dependent"):
        original = getattr(solver, name)

        def spy(spec, start, grid, dW, *args, _original=original, **kwargs):
            sizes.append(dW.shape[:2])
            return _original(spec, start, grid, dW, *args, **kwargs)

        monkeypatch.setattr(solver, name, spy)
    return sizes


@pytest.mark.parametrize("name, shared", [("path-sup", True), ("path-cylindrical", True),
                                          ("markov-constant", True), ("markov-linear-driver", True),
                                          ("markov-mollified", False)])
def test_pipeline_simulates_once_per_probe_when_rungs_share_coefficients(monkeypatch, name, shared):
    # zero-driver passes stream in four blocks; one pass is 2000 x 20 path-steps whatever the blocks
    monkeypatch.setattr(solver, "_FORWARD_BLOCK", 512)
    problem, options, probes = _reuse_cases()[name]
    sizes = _euler_sizes(monkeypatch)
    schedule = ApproximationSchedule((2, 4, 8), SolverConfig(2000, 20, seed=32), **options)
    strong_viscosity_pipeline(problem, schedule, probes)
    passes = len(probes) * (1 if shared else len(schedule.indices))
    assert sum(n * k for n, k in sizes) == passes * 2000 * 20


_PATH_SAMPLES = solver._terminal_samples_path


def _blocks_read(monkeypatch, check):
    """Spy on the path terminals: run ``check`` on each block while it is live, and collect the blocks."""
    blocks = []

    def spy(problem, fwd, config):
        check(fwd)
        blocks.append(fwd)
        return _PATH_SAMPLES(problem, fwd, config)

    monkeypatch.setattr(solver, "_terminal_samples_path", spy)
    return blocks


def test_shared_forward_arrays_are_read_only(monkeypatch):
    block = solver._FORWARD_BLOCK
    history = Path.constant(0.0, 1.0, 21)

    tile = solver._PATH_TILE
    tiles = [(q0, tile) for q0 in range(0, block, tile)] + [(block, 100)]

    def read_only(fwd):  # a tile is read before its lane advances
        assert not fwd.traj.values.flags.writeable
        assert not fwd.windows.values.flags.writeable
        assert fwd.windows is fwd.windows  # cut once
        assert np.array_equal(fwd.windows.values[:, -1], fwd.traj.terminal())

    for workers in (1, 2):
        cfg = SolverConfig(block + 100, 20, seed=33, workers=workers)
        blocks = _blocks_read(monkeypatch, read_only)
        assert solver._terminal_samples([_lookback_problem()], 0.0, history, cfg)[1] is None
        assert sorted((fwd.offset, fwd.traj.n_paths) for fwd in blocks) == tiles
        # one lane writes its next block into its one value buffer; two lanes have a buffer each
        first = {fwd.offset: fwd for fwd in blocks}
        assert np.shares_memory(first[0].traj.values, first[block].traj.values) == (workers == 1)
        # the tiles of one block are disjoint columns of its buffer
        assert not np.shares_memory(first[0].traj.values, first[tile].traj.values)
        # a nonzero driver keeps all paths: the tiles are columns of the arrays it hands back
        blocks = _blocks_read(monkeypatch, read_only)
        path_linear = replace(_lookback_problem(), driver=_linear_problem().driver)
        (xi,), paths = solver._terminal_samples([path_linear], 0.0, history, cfg)
        assert sorted((fwd.offset, fwd.traj.n_paths) for fwd in blocks) == tiles
        for fwd in blocks:
            assert np.shares_memory(fwd.traj.values, paths.traj.values)
            assert np.array_equal(fwd.traj.values, paths.traj.values[fwd.offset:fwd.offset + fwd.traj.n_paths])
        assert paths.traj.n_paths == cfg.n_paths and paths.traj.prefix is history
        assert not paths.traj.values.flags.writeable and not paths.dW.flags.writeable
        assert paths.dW.shape == (cfg.n_paths, 20, 1)
        _, paths = solver._terminal_samples([_linear_problem()], 0.0, 0.0, cfg)
        assert paths.traj.values.shape == (cfg.n_paths, 21) and paths.traj.prefix is None
        assert not paths.traj.values.flags.writeable and not paths.dW.flags.writeable


def test_smoother_reads_aligned_windows_as_views_of_the_step_rows(monkeypatch):
    cfg = SolverConfig(solver._FORWARD_BLOCK + 100, 20, seed=35)
    history = Path.constant(0.0, 1.0, 21)

    def aligned(fwd):
        wb = fwd.smoother_windows
        assert np.shares_memory(wb.values, fwd.traj.values) and not wb.values.flags.writeable
        assert np.array_equal(wb.values, fwd.traj.values)  # 21 nodes at spacing dt: every simulated step
        assert "windows" not in vars(fwd)  # nothing was cut

    tiles = -(-cfg.n_paths // solver._PATH_TILE)
    blocks = _blocks_read(monkeypatch, aligned)
    solver._terminal_samples([_lookback_problem()], 0.0, history, cfg)
    assert len(blocks) == tiles

    # at t = 0.5 the window reaches back into the history: the cut
    def cut(fwd):
        assert fwd.smoother_windows is fwd.windows
        assert not np.shares_memory(fwd.windows.values, fwd.traj.values)

    blocks = _blocks_read(monkeypatch, cut)
    solver._terminal_samples([_lookback_problem()], 0.5, history, cfg)
    assert len(blocks) == tiles


def test_a_pipeline_hands_argument_rows_at_most_a_tile_of_paths(monkeypatch):
    sizes, smooth = [], solver.smooth_terminal

    def spy(inner, n, horizon):
        smoothed = smooth(inner, n, horizon)
        rows = smoothed.argument_rows
        smoothed.argument_rows = lambda values: sizes.append(values.shape[0]) or rows(values)
        return smoothed

    monkeypatch.setattr(solver, "smooth_terminal", spy)
    cfg = SolverConfig(solver._FORWARD_BLOCK + 257, 20, seed=37, bridge_max=False)  # the last tile holds one path
    schedule = ApproximationSchedule((4, 16), cfg)
    strong_viscosity_pipeline(_lookback_problem(), schedule, [(0.0, Path.constant(0.0, 1.0, 21))])
    assert max(sizes) == solver._PATH_TILE and sum(sizes) == 2 * cfg.n_paths and sizes.count(1) == 2


def test_a_tile_is_cut_once_for_every_rung(monkeypatch):
    rows, cut = [], sde.TrajectoryBatch.window_values

    def spy(traj, k, xs):
        rows.append(traj.n_paths)
        return cut(traj, k, xs)

    monkeypatch.setattr(sde.TrajectoryBatch, "window_values", spy)
    cfg = SolverConfig(solver._FORWARD_BLOCK + 257, 20, seed=37, bridge_max=False)  # 8 + 2 tiles
    history = Path.from_function(lambda x: 0.2 * np.sin(3.0 * x), 1.0, 41)  # at t = 0.3 the windows are cut
    strong_viscosity_pipeline(_lookback_problem(), ApproximationSchedule((4, 16), cfg), [(0.3, history)])
    assert len(rows) == 10 and max(rows) <= solver._PATH_TILE and sum(rows) == cfg.n_paths


@pytest.mark.parametrize("workers", [1, 2])
def test_the_bridge_draws_each_tile_s_uniforms_once_at_its_own_offset(monkeypatch, workers):
    ranges, draw = [], sde.NoiseBundle.uniforms

    def spy(noise, p0=0, p1=None):
        ranges.append((p0, p1))
        return draw(noise, p0, p1)

    monkeypatch.setattr(sde.NoiseBundle, "uniforms", spy)
    cfg = SolverConfig(solver._FORWARD_BLOCK + 257, 20, seed=37, workers=workers)  # 8 + 2 tiles
    evaluate_ppde(_lookback_problem(), 0.0, Path.constant(0.0, 1.0, 21), cfg)
    tiles = range(0, cfg.n_paths, solver._PATH_TILE)
    assert sorted(ranges) == [(q0, min(q0 + solver._PATH_TILE, cfg.n_paths)) for q0 in tiles]


class _MeanAbsWindow:
    """A terminal with a batch form: the mean absolute window value."""

    def evaluate_batch(self, wb):
        return np.abs(wb.values).mean(axis=1)


def _path_terminal_kinds():
    cyl = CylindricalFunctional(base=lambda t, F: np.abs(F[:, 0]) + F[:, 1] ** 2,
                                integrands=(_unit_integrand(), _sin_integrand()))
    callable_ = lambda eta: float(np.abs(eta.values[-1]) + eta.values[0])  # noqa: E731
    return [SupTerminal(), callable_, _MeanAbsWindow(), cyl,
            solver._LinearTerminalSmoother(SupTerminal(), 8, 1.0), solver._LinearTerminalSmoother(callable_, 8, 1.0)]


@pytest.mark.parametrize("t", [0.0, 0.3])
@pytest.mark.parametrize("bridge", [True, False])
def test_the_path_tile_changes_no_sample(monkeypatch, t, bridge):
    problems = [ProblemSpec("path", 0.1, 1.0, DriverSpec(None), term, horizon=1.0) for term in _path_terminal_kinds()]
    history = Path.from_function(lambda x: 0.2 * np.sin(3.0 * x), 1.0, 41)
    cfg = SolverConfig(solver._FORWARD_BLOCK + 300, 10, seed=42, workers=2, bridge_max=bridge)
    samples = []
    for tile in (256, 1, 100):
        monkeypatch.setattr(solver, "_PATH_TILE", tile)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # bridge_max has no effect on the smoothed running maximum
            samples.append(solver._terminal_samples(problems, t, history, cfg)[0])
    for xi in samples[1:]:
        for got, ref in zip(xi, samples[0]):
            assert np.array_equal(got, ref)


def _present_abs(eta):
    return float(np.abs(eta.values[-1]))


@pytest.mark.parametrize("terminal", [SupTerminal(), _present_abs])
def test_pipeline_values_from_the_step_row_view_match_the_cut(terminal):
    problem = replace(_lookback_problem(), terminal=terminal)
    schedule = ApproximationSchedule((4, 16, 64), SolverConfig(3000, 50, seed=36, bridge_max=False))
    probes = [(0.0, Path.constant(0.0, 1.0, 51)), (0.3, Path.from_function(lambda x: 0.2 * np.sin(3.0 * x), 1.0, 41))]
    view = strong_viscosity_pipeline(problem, schedule, probes).values
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver._Forward, "smoother_windows", property(lambda fwd: fwd.windows))
        cut = strong_viscosity_pipeline(problem, schedule, probes).values
    np.testing.assert_allclose(view, cut, rtol=1e-12, atol=0.0)
    for block in (97, 1000):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_FORWARD_BLOCK", block)
            blocked = strong_viscosity_pipeline(problem, schedule, probes).values
        np.testing.assert_allclose(blocked, view, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# zero-driver forward passes stream in path blocks


N_BLOCKED = 2 * solver._FORWARD_BLOCK + 101  # three blocks, the last one partial


@pytest.mark.parametrize("name", ["path-sup", "path-cylindrical", "markov-constant", "markov-linear-driver"])
def test_euler_gets_at_most_a_block_of_paths_whatever_the_driver(monkeypatch, name):
    problem, options, probes = _reuse_cases()[name]
    sizes = _euler_sizes(monkeypatch)
    cfg = SolverConfig(N_BLOCKED, 5, seed=38)
    t, probe = probes[1]
    (evaluate_markov if problem.mode == "markov" else evaluate_ppde)(problem, t, probe, cfg)
    strong_viscosity_pipeline(problem, ApproximationSchedule((2, 4), cfg, **options), [(t, probe)])
    paths = [n for n, _ in sizes]
    assert sum(paths) == 2 * N_BLOCKED  # the evaluation and the pipeline's one shared pass
    assert len(paths) == 6 and max(paths) <= solver._FORWARD_BLOCK


def test_bridge_fallback_warns_once_per_evaluation():
    problem = replace(_lookback_problem(), sigma=lambda t, wb: np.ones(wb.values.shape[0]))
    with pytest.warns(UserWarning, match="constant diffusion") as record:
        value, _ = evaluate_ppde(problem, 0.0, Path.constant(0.0, 1.0, 6), SolverConfig(N_BLOCKED, 5, seed=39))
    assert len(record) == 1 and np.isfinite(value)


def test_pipeline_on_a_running_maximum_warns_that_bridge_max_has_no_effect():
    # a smoothed running maximum reduces its smoothed argument's rows by their discrete maximum
    probes = [(0.0, Path.constant(0.0, 1.0, 11))]
    config = SolverConfig(2000, 10, seed=41)
    with pytest.warns(UserWarning, match="bridge_max has no effect") as record:
        warned = strong_viscosity_pipeline(_lookback_problem(), ApproximationSchedule((2, 4), config), probes)
    assert len(record) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        silent = strong_viscosity_pipeline(
            _lookback_problem(), ApproximationSchedule((2, 4), replace(config, bridge_max=False)), probes
        )
    np.testing.assert_array_equal(warned.values, silent.values)


def test_divergence_names_the_path_among_all_paths(monkeypatch):
    class InfOnPath777(solver.NoiseBundle):
        def increments(self, dt, p0=0, p1=None, **kwargs):
            dW = super().increments(dt, p0, p1, **kwargs)
            if p0 <= 777 < p1:
                dW[777 - p0, 3] = np.inf
            return dW

    monkeypatch.setattr(solver, "NoiseBundle", InfOnPath777)
    monkeypatch.setattr(solver, "_FORWARD_BLOCK", 64)
    for workers in (1, 2):
        for problem, start in ((_heat_problem(), 0.0), (_lookback_problem(), Path.constant(0.0, 1.0, 11))):
            cfg = SolverConfig(1000, 10, seed=40, workers=workers)
            with pytest.raises(DivergenceError, match="path 777, step 4$"):
                solver._evaluate_point([problem], 0.0, start, cfg)


def test_divergence_names_the_lowest_diverging_path_whatever_the_lanes(monkeypatch):
    # blocks of 64: path 197 is in block 3 and path 265, diverging at an earlier step, in block 4;
    # two lanes take them on lanes 1 and 0, four lanes on lanes 3 and 0
    class InfOnTwoPaths(solver.NoiseBundle):
        def increments(self, dt, p0=0, p1=None, **kwargs):
            dW = super().increments(dt, p0, p1, **kwargs)
            for path, step in ((197, 6), (265, 2)):
                if p0 <= path < p1:
                    dW[path - p0, step] = np.inf
            return dW

    monkeypatch.setattr(solver, "NoiseBundle", InfOnTwoPaths)
    monkeypatch.setattr(solver, "_FORWARD_BLOCK", 64)
    for workers in (1, 2, 4):
        for problem, start in ((_heat_problem(), 0.0), (_lookback_problem(), Path.constant(0.0, 1.0, 11)),
                               (_linear_problem(), 0.0)):
            cfg = SolverConfig(1000, 10, seed=40, workers=workers)
            with pytest.raises(DivergenceError, match="path 197, step 7$"):
                solver._evaluate_point([problem], 0.0, start, cfg)


def test_a_diverging_constant_block_names_the_same_path_and_step_on_any_lanes(monkeypatch):
    # 24 blocks of 256; one guard per constant-coefficient block, then a scan of the failed block's rows
    monkeypatch.setattr(solver, "_FORWARD_BLOCK", 256)
    start = 1e12 - 1.6
    callables = replace(_heat_problem(), b=lambda t, x: 0.0 * x, sigma=lambda t, x: 1.0 + 0 * x)
    with pytest.raises(DivergenceError) as ref:  # the per-step guard of callable coefficients
        evaluate_markov(callables, 0.0, start, SolverConfig(6144, 10, seed=41, workers=1))
    for workers in (1, 2):
        with pytest.raises(DivergenceError) as got:
            evaluate_markov(_heat_problem(), 0.0, start, SolverConfig(6144, 10, seed=41, workers=workers))
        assert (got.value.path, got.value.step) == (ref.value.path, ref.value.step)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_streamed_pass_peaks_within_the_memory_model(workers):
    # solver's model: workers x (value buffer + noise scratch) + 8 B per path and rung, and one value
    # buffer of margin; a smoothed rung group forms each rung's argument per 256-path tile, inside it.
    # At t > 0 each lane also cuts a tile's m windows: the cut and its interpolation scratch,
    # 3 x 256 x m x 8 B
    import tracemalloc

    cases = ((5 * 2048 + 300, 50, True, None, 0.0), (2 * 2048 + 100, 600, False, None, 0.0),
             (5 * 2048 + 300, 50, False, (4, 16, 64), 0.0), (2 * 2048 + 100, 600, False, (4, 64), 0.0),
             (5 * 2048 + 300, 50, False, (4, 16, 64), 0.3), (2 * 2048 + 100, 600, False, (4, 64), 0.3))
    for n_paths, n_steps, bridge, indices, t in cases:
        cfg = SolverConfig(n_paths, n_steps, seed=3, workers=workers, bridge_max=bridge)
        eta = Path.constant(0.0, 1.0, n_steps + 1)
        if indices is None:
            rungs, run = 1, lambda: evaluate_ppde(_lookback_problem(), t, eta, cfg)
        else:
            schedule = ApproximationSchedule(indices, cfg)
            rungs, run = len(indices), lambda: strong_viscosity_pipeline(_lookback_problem(), schedule, [(t, eta)])
        run()  # lazy set-up outside the trace
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lane = 2048 * (n_steps + 1) * 8
        noise = (2 if bridge else 1) * 256 * n_steps * 8  # a 256-path noise block, two with the bridge
        cut = 3 * 256 * (int(round(1.0 / ((1.0 - t) / n_steps))) + 1) * 8 if t else 0
        assert peak <= workers * (lane + noise + cut) + 8 * n_paths * rungs + lane


@pytest.mark.parametrize("workers", [1, 2])
def test_a_pass_of_all_paths_peaks_within_the_memory_model(workers):
    # solver's model for s steps, d = 1 and B features: values, increments, (Y, Z), regression buffer
    # and samples, ((s + 1) + s + 2 (s + 1) + (B + 2) + 1) x 8 B per path; a path problem adds its
    # float32 features, (2 + 2 n_fourier)(s + 1) x 4 B per path, and a step's state bundle,
    # (2 + 2 n_fourier) x 8 B per path.  The driver's result, 8 B per path, and one noise scratch per
    # lane (two noise blocks with the bridge maximum) are the margin
    import tracemalloc

    lookback = replace(_lookback_problem(), driver=_linear_problem().driver)
    for n_paths, n_steps in ((20_000, 20), (9_000, 60)):
        cfg = SolverConfig(n_paths, n_steps, seed=3, workers=workers)
        s, d = n_steps, 1
        for problem, start in ((_linear_problem(), 0.5), (lookback, Path.constant(0.0, 1.0, s + 1))):
            evaluate = evaluate_markov if problem.mode == "markov" else evaluate_ppde
            evaluate(problem, 0.0, start, cfg)  # lazy set-up outside the trace
            tracemalloc.start()
            try:
                evaluate(problem, 0.0, start, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            basis = cfg.resolved_basis(problem.mode)
            model = ((s + 1) * d + s * d + (s + 1) * (d + 1) + (basis.n_features(d) + d + 1) + 1) * n_paths * 8
            noise = 256 * s * d * 8
            if problem.mode == "path":
                derived = 2 + 2 * basis.n_fourier
                model += derived * (s + 1) * 4 * n_paths + derived * 8 * n_paths
                noise *= 2
            assert peak <= model + 8 * n_paths + workers * noise


def _streaming_cases():
    history = Path.from_function(lambda x: 0.2 * np.sin(3.0 * x), 1.0, 41)
    cyl = CylindricalFunctional(base=lambda t, F: np.abs(F[:, 0]) + F[:, 1] ** 2,
                                integrands=(_unit_integrand(), _sin_integrand()))

    def path_problem(terminal):
        return ProblemSpec("path", 0.1, 1.0, DriverSpec(None), terminal, horizon=1.0)

    linear = _linear_problem().driver
    return {
        "markov": (_heat_problem(terminal=lambda x: np.abs(x)), 0.3, True),
        "sup-bridge": (path_problem(SupTerminal()), history, True),
        "sup-discrete": (path_problem(SupTerminal()), history, False),
        "cylindrical": (path_problem(cyl), history, True),
        "evaluate-batch": (path_problem(_MeanAbsWindow()), history, True),
        "path-callable": (path_problem(lambda eta: float(np.abs(eta.values[-1]) + eta.values[0])), history, True),
        # nonzero drivers keep all paths for the backward induction
        "markov-linear": (_linear_problem(), 0.3, True),
        "markov-linear-2d": (ProblemSpec("markov", lambda t, x: -0.2 * x, 1.0, linear,
                                         lambda x: np.sum(x**2, axis=1), horizon=1.0, d=2),
                             np.array([0.5, -0.5]), True),
        "path-linear-cylindrical": (replace(path_problem(cyl), driver=linear), history, True),
    }


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["markov", "sup-bridge", "sup-discrete", "cylindrical", "evaluate-batch", "path-callable",
                        "markov-linear", "markov-linear-2d", "path-linear-cylindrical"]),
       st.integers(3, 97), st.integers(120, 400),
       st.integers(1, 12), st.sampled_from([0.0, 0.25]), st.integers(0, 2**32 - 1))
def test_property_streaming_changes_no_sample_value_or_error(name, block, n_paths, n_steps, t, seed):
    assume(n_paths % block)
    problem, start, bridge = _streaming_cases()[name]
    results = []
    for size in (block, 10 * n_paths):
        for workers in (1, 2):
            cfg = SolverConfig(n_paths, n_steps, seed=seed, workers=workers, bridge_max=bridge)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solver, "_FORWARD_BLOCK", size)
                (xi,), _ = solver._terminal_samples([problem], t, start, cfg)
                results.append((xi, solver._evaluate_point([problem], t, start, cfg)[0]))
    for xi, value_and_error in results[1:]:
        assert np.array_equal(xi, results[0][0])
        assert value_and_error == results[0][1]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["path-sup", "path-callable", "path-cylindrical", "markov-constant"]),
       st.integers(3, 97), st.integers(120, 400), st.integers(0, 2**32 - 1))
def test_property_streaming_changes_no_pipeline_value(name, block, n_paths, seed):
    assume(n_paths % block)
    problem, options, probes = _reuse_cases()[name]
    schedule = ApproximationSchedule((2, 4, 8), SolverConfig(n_paths, 10, seed=seed), **options)
    reports = []
    for size in (block, 10 * n_paths):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_FORWARD_BLOCK", size)
            reports.append(strong_viscosity_pipeline(problem, schedule, probes))
    streamed, whole = reports
    assert np.array_equal(streamed.values, whole.values)
    assert np.array_equal(streamed.std_errors, whole.std_errors)


# ---------------------------------------------------------------------------
# one pathwise-integral kernel and one mollifier rule


def test_pipeline_runs_a_two_dimensional_markov_problem():
    # the terminal and the drift keep the (m, d) contract of evaluate_markov;
    # the mollified |x|^2 is |x|^2 plus the kernel's second moment, which is
    # positive and below 1/n^2, and the mollified linear drift is linear
    problem = ProblemSpec("markov", lambda t, x: -0.2 * x, 1.0, DriverSpec(None),
                          lambda x: np.sum(x**2, axis=1), horizon=1.0, d=2)
    x0 = np.array([0.5, -0.5])
    cfg = SolverConfig(4000, 10, seed=34)
    schedule = ApproximationSchedule((2, 4, 8), cfg)
    report = strong_viscosity_pipeline(problem, schedule, [(0.0, x0)])
    exact, _ = evaluate_markov(problem, 0.0, x0, replace(cfg, seed=solver._probe_seed(cfg.seed, 0.0, x0)))
    shift = report.values[:, 0] - exact
    n = np.array(schedule.indices, dtype=float)
    assert np.all(shift > 0.0) and np.all(shift < 1.0 / n**2)


@pytest.mark.parametrize("d", [1, 2])
def test_mollified_coefficient_rows_do_not_depend_on_the_block(d):
    # Euler runs each worker's block of paths through the coefficient
    coef = solver._mollify_state_coefficient(lambda t, x: np.sin(3.0 * x), d, 4, 6, "exp")
    x = np.random.default_rng(35).normal(size=(50, d) if d > 1 else 50)
    whole = coef(0.0, x)
    assert whole.shape == x.shape
    assert np.array_equal(whole, np.concatenate([coef(0.0, x[a:a + 7]) for a in range(0, 50, 7)]))


def _sin_integrand():
    return Integrand(phi=np.sin, dphi=np.cos, d2phi=lambda u: -np.sin(np.asarray(u, dtype=float)))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([0.5, 1.0, 2.0]), st.integers(1, 40), st.integers(2, 41), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_property_path_features_equal_pipeline_batch_features(T, n_steps, n_prefix, n_paths, seed):
    rng = np.random.default_rng(seed)
    prefix = Path(T, np.cumsum(rng.normal(size=n_prefix)))
    values = prefix.values[-1] + np.cumsum(rng.normal(size=(n_paths, n_steps + 1)), axis=1)
    values[:, 0] = prefix.values[-1]
    fwd = solver._Forward(None, TrajectoryBatch(Grid(0.0, T, n_steps), values, prefix))
    batches = []
    cyl = CylindricalFunctional(base=lambda t, F: batches.append(F) or F[:, 0],
                                integrands=(_sin_integrand(), _unit_integrand()))
    problem = ProblemSpec("path", 0.0, 1.0, DriverSpec(None), cyl, horizon=T)
    solver._terminal_samples_path(problem, fwd, SolverConfig())
    (F,) = batches
    for i in range(n_paths):
        assert np.array_equal(cyl.features(T, fwd.windows.path(i)), F[i])


# ---------------------------------------------------------------------------
# one convolution evaluator for the vectorised mollifiers


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(1, 30), st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_property_mollified_vector_drift_rows_do_not_depend_on_the_block(n, m, block, seed):
    drift = solver._mollify_state_coefficient(lambda t, x: np.sin(3.0 * x) * x[:, ::-1], 2, n, 6, "exp")
    x = np.random.default_rng(seed).normal(size=(m, 2))
    whole = drift(0.0, x)
    assert whole.shape == (m, 2)
    assert np.array_equal(whole, np.concatenate([drift(0.0, x[a:a + block]) for a in range(0, m, block)]))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.integers(1, 20))
def test_property_each_smoother_calls_its_function_once_per_evaluation(q, n, m):
    # g sees all m * Q shifted rows in one call, for the rule's Q = 4^q nodes
    shapes = []

    def g(y):
        shapes.append(y.shape)
        return np.cos(y) if y.ndim == 1 else np.cos(y).sum(axis=1)

    x = np.linspace(-1.0, 1.0, m * q).reshape(m, q)
    flat, rows = (x[:, 0], (m * 4**q,)) if q == 1 else (x, (m * 4**q, q))
    coef = solver._mollify_state_coefficient(lambda t, y: g(y), q, n, 4, "exp")
    smoothers = [
        (smoothing.mollify(g, q, n, nodes_per_axis=4), flat, rows),
        (lambda y: coef(0.0, y), flat, rows),
        (smoothing.smooth_finite_dim(g, q, n, nodes_per_axis=4), x, (m * 4**q, q)),
    ]
    for smoothed, points, shape in smoothers:
        shapes.clear()
        assert smoothed(points).shape == (m,)
        assert shapes == [shape]


@pytest.mark.parametrize("vector", [False, True])
def test_convolve_hands_g_at_most_the_row_cap(vector):
    # 12 nodes per axis in q = 2 give Q = 144 nodes: 4000 points are 576000 shifted rows
    pts, kernel = smoothing._mollifier_rule(2, 3, 12, "exp")
    x2 = np.random.default_rng(5).normal(size=(4000, 2))
    sizes = []

    def g(rows):
        sizes.append(rows.shape[0])
        return np.sin(rows) * rows[:, ::-1] if vector else np.cos(rows[:, 0]) * rows[:, 1]

    whole = smoothing._convolve(g, x2, pts, kernel)
    assert whole.shape == ((4000, 2) if vector else (4000,))
    assert len(sizes) > 1 and max(sizes) <= smoothing._CONVOLVE_ROWS
    assert sum(sizes) == 4000 * pts.shape[0]
    parts = [smoothing._convolve(g, x2[a:a + 999], pts, kernel) for a in range(0, 4000, 999)]
    assert np.array_equal(whole, np.concatenate(parts))


# ---------------------------------------------------------------------------
# a vector state at the horizon, and one feature build per forward pass


def _square_norm_problem():
    return ProblemSpec("markov", 0.0, 1.0, DriverSpec(None), lambda x: np.sum(x**2, axis=1), horizon=1.0, d=2)


def test_markov_vector_state_terminal_time_is_exact():
    x0 = np.array([0.5, -1.5])
    value, se = evaluate_markov(_square_norm_problem(), 1.0, x0, SolverConfig(2000, 10, seed=3))
    assert value == float(x0 @ x0)
    assert se == 0.0


def test_pipeline_vector_state_probe_at_the_horizon():
    x0 = np.array([0.5, -1.5])
    schedule = ApproximationSchedule((2, 4), SolverConfig(2000, 10, seed=36))
    report = strong_viscosity_pipeline(_square_norm_problem(), schedule, [(1.0, x0)])
    assert np.all(report.std_errors == 0.0)
    # the mollified |x|^2 exceeds |x|^2 by the kernel's second moment, below 1/n^2
    shift = report.values[:, 0] - float(x0 @ x0)
    assert np.all(shift > 0.0) and np.all(shift < 1.0 / np.array(schedule.indices, dtype=float) ** 2)


def test_pipeline_builds_the_features_once_per_probe(monkeypatch):
    calls = []
    original = solver.make_features

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "make_features", spy)
    problem = replace(_lookback_problem(), driver=DriverSpec(lambda t, s, y, z: -0.1 * y))
    probes = _reuse_cases()["path-sup"][2]
    schedule = ApproximationSchedule((2, 4, 8), SolverConfig(2000, 20, seed=37))
    report = strong_viscosity_pipeline(problem, schedule, probes)
    assert len(calls) == len(probes)
    assert np.all(np.isfinite(report.values))


# ---------------------------------------------------------------------------
# the step-major forward pass


def _bridge_max_path_major(values, dt, sigma, noise, offset):
    """Reference bridge maximum on path-major values, all steps of all rows at once."""
    values = np.ascontiguousarray(values)
    u = noise.uniforms(offset, offset + values.shape[0])[:, :, 0]
    np.log(u, out=u)
    u *= -2.0 * sigma**2 * dt
    diff = values[:, 1:] - values[:, :-1]
    np.square(diff, out=diff)
    u += diff
    np.sqrt(u, out=u)
    u += values[:, 1:]
    u += values[:, :-1]
    u *= 0.5
    return u.max(axis=1)


def test_bridge_max_on_step_rows_equals_the_path_major_reference():
    # paths 1234..2133 span five noise blocks, the first and the last cut by the range
    g = Grid(0.0, 1.0, 200)
    noise = solver.NoiseBundle(46, 5000, 200)
    traj = solver.euler_path_dependent(SdeSpec(0.0, 0.7), Path.constant(0.0, 1.0, 11), g,
                                       noise.increments(g.dt, 1234, 2134))
    got = solver.bridge_corrected_max(traj.values, g.dt, 0.7, noise.child(1), offset=1234)
    assert np.array_equal(got, _bridge_max_path_major(traj.values, g.dt, 0.7, noise.child(1), 1234))
    assert not np.array_equal(got, solver.bridge_corrected_max(traj.values, g.dt, 0.7, noise.child(1)))


def test_values_do_not_depend_on_the_workers():
    # 5000 paths are blocks of 2048, 2048 and 904, one per lane at 3 workers
    history = Path.constant(0.0, 1.0, 201)

    def values(workers):
        cfg = SolverConfig(5000, 200, seed=2719, workers=workers)
        bridge = evaluate_ppde(_lookback_problem(), 0.0, history, cfg)
        schedule = ApproximationSchedule((4, 16), replace(cfg, bridge_max=False))
        report = strong_viscosity_pipeline(_lookback_problem(), schedule, [(0.0, history)])
        return bridge, report.values.tolist(), report.std_errors.tolist()

    ref = values(1)
    assert values(2) == ref and values(3) == ref


def test_each_block_enters_its_trace_points_on_one_thread_and_no_thread_outlives_the_pass(monkeypatch):
    calls = []  # (thread, trace point, the block's first path where the point names it)

    def spy(owner, name, offset):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append((threading.get_ident(), name, offset(*args)))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    spy(solver.NoiseBundle, "increments", lambda self, dt, p0=0, *rest: p0)
    spy(solver, "euler_path_dependent", lambda *args: None)
    spy(solver, "bridge_corrected_max", lambda *args: args[4])
    spy(solver._LinearTerminalSmoother, "evaluate_batch", lambda *args: None)
    history = Path.constant(0.0, 1.0, 21)
    cfg = SolverConfig(N_BLOCKED, 20, seed=7, workers=3)  # three blocks on three lanes
    passes = [  # the points of one tile of a block, where it names its first path
        (lambda: evaluate_ppde(_lookback_problem(), 0.0, history, cfg),
         lambda q0: [("bridge_corrected_max", q0)]),
        (lambda: strong_viscosity_pipeline(_lookback_problem(), ApproximationSchedule(
            (4, 16), replace(cfg, bridge_max=False)), [(0.0, history)]),
         lambda q0: [("evaluate_batch", None)] * 2),
    ]
    before = threading.active_count()
    for run, tile_points in passes:
        calls.clear()
        run()
        assert threading.active_count() == before
        starts = []
        for thread in {thread for thread, _, _ in calls}:
            seen = [(name, p0) for ident, name, p0 in calls if ident == thread]
            while seen:  # a lane enters one block's points after another's
                p0 = seen[0][1]
                tiles = range(p0, min(p0 + solver._FORWARD_BLOCK, N_BLOCKED), solver._PATH_TILE)
                block = [("increments", p0), ("euler_path_dependent", None)]
                block += [point for q0 in tiles for point in tile_points(q0)]
                assert seen[:len(block)] == block
                seen = seen[len(block):]
                starts.append(p0)
            assert thread != threading.main_thread().ident
        assert sorted(starts) == [0, solver._FORWARD_BLOCK, 2 * solver._FORWARD_BLOCK]


def test_blas_threads_are_held_on_the_lanes_and_restored(monkeypatch):
    blas = sde._BLAS
    prior = blas.get()
    if prior is None:
        pytest.skip("numpy's OpenBLAS exports no thread-count controls")
    held = []

    def terminal(eta):  # runs on the lanes
        held.append(blas.get())
        return float(eta.values[-1])

    def failing(eta):
        raise RuntimeError("terminal failed")

    problem = ProblemSpec("path", 0.0, 1.0, DriverSpec(None), terminal, horizon=1.0)
    history = Path.constant(0.0, 1.0, 6)
    cfg = SolverConfig(N_BLOCKED, 5, seed=53, workers=2)
    blas.set(2)
    switch = sys.getswitchinterval()
    try:
        value = evaluate_ppde(problem, 0.0, history, cfg)
        assert set(held) == {1} and blas.get() == 2
        with pytest.raises(RuntimeError, match="terminal failed"):
            evaluate_ppde(replace(problem, terminal=failing), 0.0, history, cfg)
        assert blas.get() == 2
        # concurrent evaluations share the hold: the last to leave restores the caller's setting
        sys.setswitchinterval(1e-5)
        results = []
        users = [threading.Thread(target=lambda: results.append(evaluate_ppde(problem, 0.0, history, cfg)))
                 for _ in range(4)]
        for user in users:
            user.start()
        for user in users:
            user.join(timeout=120)
        assert not any(user.is_alive() for user in users)
        assert results == [value] * 4 and blas.get() == 2
    finally:
        sys.setswitchinterval(switch)
        blas.set(prior)


@pytest.mark.parametrize("name", ["markov", "sup-bridge", "sup-discrete", "cylindrical", "evaluate-batch",
                                  "path-callable"])
def test_values_do_not_depend_on_the_workers_across_blocks(monkeypatch, name):
    # 1000 paths in blocks of 256: four blocks on one, two and four lanes
    monkeypatch.setattr(solver, "_FORWARD_BLOCK", 256)
    problem, start, bridge = _streaming_cases()[name]
    results = []
    for workers in (1, 2, 4):
        cfg = SolverConfig(1000, 12, seed=51, workers=workers, bridge_max=bridge)
        (xi,), _ = solver._terminal_samples([problem], 0.25, start, cfg)
        results.append((xi, solver._evaluate_point([problem], 0.25, start, cfg)[0]))
    for xi, value in results[1:]:
        assert np.array_equal(xi, results[0][0]) and value == results[0][1]


def test_a_pipeline_pass_on_lanes_builds_each_rung_factors_once(monkeypatch):
    builds, build = [], smoothing._FejerLayout.build

    def slow_build(cls, n, basis, horizon, m):
        builds.append(n)
        time.sleep(0.05)  # long enough for the other lane to ask for the same factors
        return build(n, basis, horizon, m)

    monkeypatch.setattr(smoothing._FejerLayout, "build", classmethod(slow_build))
    schedule = ApproximationSchedule((4, 16), SolverConfig(N_BLOCKED, 20, seed=52, workers=2, bridge_max=False))
    strong_viscosity_pipeline(_lookback_problem(), schedule, [(0.0, Path.constant(0.0, 1.0, 21))])
    assert sorted(builds) == [4, 16]


def test_workers_default_to_the_usable_cores_and_must_be_positive():
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert SolverConfig().workers == cores
    for bad in (0, -2):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            SolverConfig(workers=bad)


def test_a_streamed_pass_returns_no_block():
    (xi,), fwd = solver._terminal_samples([_lookback_problem()], 0.0, Path.constant(0.0, 1.0, 6),
                                           SolverConfig(N_BLOCKED, 5, seed=48))
    assert fwd is None and xi.shape == (N_BLOCKED,)
    (xi,), fwd = solver._terminal_samples([_linear_problem()], 0.0, 0.0, SolverConfig(N_BLOCKED, 5, seed=48))
    assert fwd.traj.n_paths == N_BLOCKED and fwd.dW.shape == (N_BLOCKED, 5, 1)


# ---------------------------------------------------------------------------
# one evaluator for path terminals


def _batch_history():
    return Path.from_function(lambda x: 0.2 * np.sin(3.0 * x), 1.0, 41)


def test_batch_only_terminal_at_the_horizon_is_its_batch_form_on_the_history():
    history = _batch_history()
    problem = ProblemSpec("path", 0.0, 1.0, DriverSpec(None), _MeanAbsWindow(), horizon=1.0)
    value, se = evaluate_ppde(problem, 1.0, history, SolverConfig(100, 10, seed=49))
    assert value == _MeanAbsWindow().evaluate_batch(WindowBatch(history.nodes, history.values[None]))[0]
    assert se == 0.0


def test_pipeline_over_a_batch_only_terminal_runs_at_zero_and_the_horizon():
    history = _batch_history()
    problem = ProblemSpec("path", 0.0, 1.0, DriverSpec(None), _MeanAbsWindow(), horizon=1.0)
    schedule = ApproximationSchedule((2, 4), SolverConfig(2000, 10, seed=50))
    report = strong_viscosity_pipeline(problem, schedule, [(0.0, history), (1.0, history)])
    assert np.all(np.isfinite(report.values)) and np.all(report.std_errors[:, 0] > 0.0)
    assert np.all(report.std_errors[:, 1] == 0.0)
    for r, n in enumerate(schedule.indices):  # at the horizon: the batch form of the smoothed argument
        want = smoothing.smooth_terminal(lambda p: np.abs(p.values).mean(), n, 1.0)(history)
        assert report.values[r, 1] == pytest.approx(want, rel=1e-14)


def test_a_numpy_scalar_diffusion_keeps_the_bridge_maximum():
    eta0 = Path.constant(0.0, 1.0, 11)
    cfg = SolverConfig(2000, 10, seed=51)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [evaluate_ppde(replace(_lookback_problem(), sigma=sigma), 0.0, eta0, cfg)
                  for sigma in (1.0, np.float32(1.0), np.int64(1), np.array(1.0))]
    assert values[1:] == values[:1] * 3


def test_a_numpy_scalar_coefficient_is_a_constant_of_the_markov_pipeline():
    schedule = ApproximationSchedule((2, 4), SolverConfig(2000, 10, seed=53))
    want = strong_viscosity_pipeline(_heat_problem(), schedule, [(0.0, 0.3)]).values
    for sigma in (np.float32(1.0), np.int64(1), np.array(1.0)):
        got = strong_viscosity_pipeline(replace(_heat_problem(), sigma=sigma), schedule, [(0.0, 0.3)]).values
        np.testing.assert_array_equal(got, want)


class _ThreeSamples:
    """A batch terminal that returns three samples whatever the batch."""

    def evaluate_batch(self, wb):
        return np.ones(3)


_HORIZON_CASES = {  # a problem, a start, a NaN terminal and a terminal of the wrong shape
    "markov": (_heat_problem(), 0.0, lambda x: np.full_like(x, np.nan), lambda x: np.ones(3)),
    "path": (_lookback_problem(), _batch_history(), lambda eta: np.nan, _ThreeSamples()),
}


@pytest.mark.parametrize("mode", sorted(_HORIZON_CASES))
def test_the_value_at_the_horizon_checks_its_sample(mode):
    problem, start, nan, wide = _HORIZON_CASES[mode]
    cfg = SolverConfig(100, 10, seed=52)
    with pytest.raises(ValueError, match=r"^1 of 1 terminal samples are not finite"):
        solver._evaluate_point([replace(problem, terminal=nan)], 1.0, start, cfg)
    with pytest.raises(ValueError, match=r"^1 of 1 terminal samples are not finite"):
        strong_viscosity_pipeline(replace(problem, terminal=nan), ApproximationSchedule((2, 4), cfg), [(1.0, start)])
    with pytest.raises(ValueError, match=r"^terminal samples shape \(3,\) != \(1,\)"):
        solver._evaluate_point([replace(problem, terminal=wide)], 1.0, start, cfg)


# the problem is posed on [0, T], and its terminal must suit its mode


def _no_noise(*args, **kwargs):
    raise AssertionError("noise was drawn for a point outside [0, T]")


@pytest.mark.parametrize("mode", sorted(_HORIZON_CASES))
def test_a_time_below_zero_raises_before_any_noise(mode, monkeypatch):
    problem, start, _, _ = _HORIZON_CASES[mode]
    cfg = SolverConfig(200, 10, seed=54, bridge_max=False)
    field = strong_viscosity_pipeline(problem, ApproximationSchedule((2, 4), cfg), [(1.0, start)]).field
    evaluate = evaluate_markov if mode == "markov" else evaluate_ppde
    monkeypatch.setattr(solver, "NoiseBundle", _no_noise)
    for call in (lambda: evaluate(problem, -0.5, start, cfg),
                 lambda: strong_viscosity_pipeline(problem, ApproximationSchedule((2, 4), cfg), [(-0.5, start)]),
                 lambda: field.evaluate(-0.5, start)):
        with pytest.raises(ValueError, match=r"^evaluation time -0.5 is negative: the problem is posed on \[0, 1.0\]"):
            call()


def test_oracle_rejects_a_negative_time():
    with pytest.raises(ValueError, match="evaluation time -0.5 is negative"):
        lookback_oracle(-0.5, Path.constant(0.0, 1.0), 1.0)


def test_oracle_rejects_a_history_that_does_not_cover_the_time():
    eta = Path.from_function(lambda x: np.sin(4.0 * x), 0.5, 51)
    with pytest.raises(ValueError, match=r"history of horizon 0.5 does not cover \[-0.8, 0\]"):
        lookback_oracle(0.8, eta, 1.0)
    assert np.isfinite(lookback_oracle(0.5, eta, 1.0))


_CYLINDRICAL = CylindricalFunctional(base=lambda t, F: F[:, 0], integrands=(_unit_integrand(),))


@pytest.mark.parametrize("terminal", [SupTerminal(), _CYLINDRICAL], ids=["sup", "cylindrical"])
def test_a_markov_terminal_must_be_callable(terminal):
    with pytest.raises(ValueError, match="a markov-mode terminal must be callable"):
        _heat_problem(terminal=terminal)
    with pytest.raises(ValueError, match="a markov-mode terminal must be callable"):
        replace(_heat_problem(), terminal=terminal)  # a rung is made by replace()


def test_a_path_terminal_must_be_a_path_functional():
    with pytest.raises(ValueError, match="a path-mode terminal must be a SupTerminal"):
        replace(_lookback_problem(), terminal=3.0)
    for terminal in (SupTerminal(), _CYLINDRICAL, _MeanAbsWindow(), _present_abs):
        assert replace(_lookback_problem(), terminal=terminal).terminal is terminal
