"""The benchmark's workloads: problem construction, one operation and its check.

Each workload function takes the seed and the smoke flag and returns a
``Case``.  The seed reaches the library only as ``SolverConfig(seed=...)``.
Operations call the solver through the ``pathpde.solver`` module attribute
at call time, so the layer trace's module-level wrappers see every call.
Why each workload exists is written down in README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pathpde import solver
from pathpde.bsde import DriverSpec
from pathpde.paths import Path

HORIZON = 1.0
RATE = 0.1  # linear driver F(t, x, y, z) = -RATE * y
MARKOV_PROBES = tuple((t, x) for t in (0.0, 0.5) for x in (-1.0, 0.0, 1.0))
PIPELINE_INDICES = (4, 16, 64)


@dataclass(frozen=True)
class Case:
    """One workload, built and ready to run.

    ``op`` runs one operation and returns the values it computed; ``check``
    maps those values to (passed, rel_error).  ``n_paths`` and ``n_steps``
    are the Monte Carlo size of one evaluation.
    """

    op: Callable[[], np.ndarray]
    check: Callable[[np.ndarray], tuple[bool, float]]
    n_paths: int
    n_steps: int


def _lookback_problem() -> solver.ProblemSpec:
    return solver.ProblemSpec("path", 0.0, 1.0, DriverSpec(None), solver.SupTerminal(), horizon=HORIZON)


def lookback(seed: int, smoke: bool) -> Case:
    """One evaluate_ppde of the running maximum from a flat history."""
    n_paths, n_steps = (4_000, 50) if smoke else (200_000, 200)
    problem = _lookback_problem()
    history = Path.constant(0.0, HORIZON, 201)
    config = solver.SolverConfig(n_paths, n_steps, seed=seed)
    oracle = solver.lookback_oracle(0.0, history, HORIZON)

    def op() -> np.ndarray:
        value, _ = solver.evaluate_ppde(problem, 0.0, history, config)
        return np.array([value])

    def check(values: np.ndarray) -> tuple[bool, float]:
        rel_error = abs(float(values[0]) - oracle) / oracle
        return rel_error <= 0.015, rel_error

    return Case(op, check, n_paths, n_steps)


def markov_driver(seed: int, smoke: bool) -> Case:
    """Six evaluate_markov calls with the linear driver, all at one seed."""
    n_paths, n_steps = (5_000, 20) if smoke else (100_000, 100)
    driver = DriverSpec(lambda t, state, y, z: -RATE * y, lipschitz=RATE)
    problem = solver.ProblemSpec("markov", 0.0, 1.0, driver, lambda x: x, horizon=HORIZON)
    config = solver.SolverConfig(n_paths, n_steps, seed=seed)
    exact = np.array([x * math.exp(-RATE * (HORIZON - t)) for t, x in MARKOV_PROBES])

    def op() -> np.ndarray:
        return np.array([solver.evaluate_markov(problem, t, x, config)[0] for t, x in MARKOV_PROBES])

    def check(values: np.ndarray) -> tuple[bool, float]:
        # within 1% of exact with a 1% floor: |v - e| <= 0.01 * max(|e|, 1)
        rel_error = float(np.max(np.abs(values - exact) / np.maximum(np.abs(exact), 1.0)))
        return rel_error <= 0.01, rel_error

    return Case(op, check, n_paths, n_steps)


def lookback_pipeline(seed: int, smoke: bool) -> Case:
    """strong_viscosity_pipeline on the running maximum in path mode."""
    n_paths, n_steps = (2_000, 50) if smoke else (50_000, 200)
    problem = _lookback_problem()
    history = Path.constant(0.0, HORIZON, 201)
    schedule = solver.ApproximationSchedule(
        PIPELINE_INDICES, solver.SolverConfig(n_paths, n_steps, seed=seed, bridge_max=False)
    )
    oracle = solver.lookback_oracle(0.0, history, HORIZON)

    def op() -> np.ndarray:
        report = solver.strong_viscosity_pipeline(problem, schedule, [(0.0, history)])
        return report.values[:, 0].copy()

    def check(values: np.ndarray) -> tuple[bool, float]:
        # the convergence shape of the smoothing: monotone approach from below
        errs = np.abs(values - oracle)
        passed = bool(np.all(np.diff(errs) < 0.0) and errs[-1] <= 0.5 * errs[0] and np.all(values < oracle))
        return passed, float(errs[-1] / oracle)

    return Case(op, check, n_paths, n_steps)


CASES: dict[str, Callable[[int, bool], Case]] = {
    "lookback": lookback,
    "markov-driver": markov_driver,
    "lookback-pipeline": lookback_pipeline,
}
