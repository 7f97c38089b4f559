"""Reproducible experiment runner.

Configs are flat INI files: an ``[experiment]`` section with ``name`` and
``seed``, and a ``[parameters]`` section of overrides.  Every experiment
writes CSV tables plus ``summary.json`` into the output directory and
returns exit status 0 when all declared tolerances hold, 1 on a tolerance
failure, 2 on usage or config errors (a diverging path among them).

Artifacts are byte-deterministic functions of (config, seed): floats are
formatted with %.17g, JSON keys are sorted, and wall-clock time goes to
stdout and ``timing.txt`` only, never into the compared artifacts.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import sys
import time
from pathlib import Path as FsPath

import numpy as np

from . import __version__
from .bsde import (
    BasisSizeError,
    DriverSpec,
    RegressionBasisSpec,
    limit_experiment,
    solve_bsde,
)
from .funcalc import CylindricalIto, PresentFunctional, ito_residual
from .paths import Grid, Path
from .sde import DivergenceError, NoiseBundle, SdeSpec, _usable_cores, coupled_sup_error, euler_markov
from .smoothing import (
    CylindricalFunctional,
    FourierBasis,
    Integrand,
    fejer_project,
    linear_trend,
    mollify,
    smooth_corpus,
)
from .solver import (
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

ROOT2_OVER_PI = float(np.sqrt(2.0 / np.pi))


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _write_csv(path: FsPath, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, (int, float, np.floating, np.integer)) else str(v) for v in row])


class Check:
    """One declared tolerance with its observed value."""

    def __init__(self, name: str, observed: float, bound: float, op: str = "<="):
        self.name = name
        self.observed = float(observed)
        self.bound = float(bound)
        self.op = op
        if op == "<=":
            self.passed = self.observed <= self.bound
        elif op == ">=":
            self.passed = self.observed >= self.bound
        elif op == "==":
            self.passed = self.observed == self.bound
        else:
            raise ValueError(f"unknown comparison {op!r}")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "observed": self.observed,
            "op": self.op,
            "bound": self.bound,
            "passed": self.passed,
        }


# ---------------------------------------------------------------------------
# Experiments


def _p(params: dict, key: str, default, cast=float):
    raw = params.get(key)
    if raw is None:
        return default
    try:
        value = cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"parameter {key!r}: cannot parse {raw!r}") from exc
    if isinstance(value, float) and not np.isfinite(value):
        raise ConfigError(f"parameter {key!r} must be finite, got {raw!r}")
    return value


def _int_list(raw) -> tuple[int, ...]:
    return tuple(int(v) for v in str(raw).split(","))


def _index_list(params: dict, default: tuple[int, ...]) -> tuple[int, ...]:
    """The ``indices`` parameter: smoothing or perturbation indices, each >= 1, strictly increasing."""
    indices = _p(params, "indices", default, _int_list)
    if min(indices) < 1 or any(b <= a for a, b in zip(indices, indices[1:])):
        raise ConfigError(f"parameter 'indices': smoothing indices must be >= 1 and strictly increasing, got {indices}")
    return indices


def run_markov_heat(params, seed, workers, outdir):
    # with b = 0 and sigma = 1 Euler is exact in law at any step count, so the
    # normals go to paths: the relative error has sd sqrt(2 / n_paths) at x = 0,
    # T = 1, and at 1M paths the 0.01 tolerance is 7.1 of them
    n_paths = _p(params, "n_paths", 1_000_000, int)
    n_steps = _p(params, "n_steps", 10, int)
    tol = _p(params, "tolerance", 0.01)
    x0 = _p(params, "x", 0.0)
    T = _p(params, "horizon", 1.0)
    prob = ProblemSpec("markov", 0.0, 1.0, DriverSpec(None), lambda x: x * x, horizon=T)
    cfg = SolverConfig(n_paths, n_steps, seed=seed, workers=workers)
    value, se = evaluate_markov(prob, 0.0, x0, cfg)
    exact = x0 * x0 + T
    _write_csv(outdir / "markov_heat.csv", ["t", "x", "value", "std_error", "exact"],
               [[0.0, x0, value, se, exact]])
    checks = [Check("heat_relative_error", abs(value - exact) / exact, tol)]
    return {"value": value, "std_error": se, "exact": exact}, checks


def run_markov_linear_driver(params, seed, workers, outdir):
    n_paths = _p(params, "n_paths", 100_000, int)
    n_steps = _p(params, "n_steps", 100, int)
    rate = _p(params, "rate", 0.1)
    tol = _p(params, "tolerance", 0.01)
    T = _p(params, "horizon", 1.0)
    drv = DriverSpec(lambda t, s, y, z, r=rate: -r * y, lipschitz=rate)
    prob = ProblemSpec("markov", 0.0, 1.0, drv, lambda x: x, horizon=T)
    rows, checks = [], []
    for x0 in (-1.0, 0.0, 1.0):
        for t0 in (0.0, 0.5):
            cfg = SolverConfig(n_paths, n_steps, seed=seed, workers=workers)
            value, se = evaluate_markov(prob, t0, x0, cfg)
            exact = x0 * np.exp(-rate * (T - t0))
            rows.append([t0, x0, value, se, exact])
            # 1% relative with an absolute floor of tol at the unit state scale
            bound = max(tol * abs(exact), tol)
            checks.append(Check(f"linear_driver_error_t{t0:g}_x{x0:g}", abs(value - exact), bound))
    _write_csv(outdir / "markov_linear_driver.csv", ["t", "x", "value", "std_error", "exact"], rows)
    return {"n_probes": len(rows)}, checks


def run_markov_kinked_terminal(params, seed, workers, outdir):
    n_paths = _p(params, "n_paths", 100_000, int)
    n_steps = _p(params, "n_steps", 100, int)
    tol = _p(params, "tolerance", 0.02)
    indices = _index_list(params, (4, 8, 16, 32))
    prob = ProblemSpec("markov", 0.0, 1.0, DriverSpec(None), lambda x: np.abs(x), horizon=1.0)
    sched = ApproximationSchedule(indices, SolverConfig(n_paths, n_steps, seed=seed, workers=workers))
    report = strong_viscosity_pipeline(prob, sched, [(0.0, 0.0)])
    rows = [[n, report.values[r, 0], report.std_errors[r, 0],
             report.cauchy_gaps[r - 1, 0] if r > 0 else float("nan")]
            for r, n in enumerate(indices)]
    _write_csv(outdir / "kinked_terminal_pipeline.csv", ["n", "value", "std_error", "cauchy_gap"], rows)
    gaps = report.cauchy_gaps[:, 0]
    final_err = abs(report.values[-1, 0] - ROOT2_OVER_PI) / ROOT2_OVER_PI
    checks = [
        Check("pipeline_final_relative_error", final_err, tol),
        Check("pipeline_gaps_decreasing", float(np.all(np.diff(gaps) < 0)), 1.0, op=">="),
    ]
    return {"values": [float(v) for v in report.values[:, 0]], "gaps": [float(g) for g in gaps]}, checks


def run_ppde_lookback(params, seed, workers, outdir):
    n_paths = _p(params, "n_paths", 200_000, int)
    n_steps = _p(params, "n_steps", 200, int)
    tol = _p(params, "tolerance", 0.015)
    prob = ProblemSpec("path", 0.0, 1.0, DriverSpec(None), SupTerminal(), horizon=1.0)
    eta0 = Path.constant(0.0, 1.0, 201)
    cfg = SolverConfig(n_paths, n_steps, seed=seed, workers=workers)
    value, se = evaluate_ppde(prob, 0.0, eta0, cfg)
    target = lookback_oracle(0.0, eta0, 1.0)
    rows = [[0.0, value, se, target]]
    _write_csv(outdir / "ppde_lookback.csv", ["t", "value", "std_error", "oracle"], rows)

    # terminal consistency: at t = T the value is the window supremum, exactly
    rng = np.random.default_rng(seed)
    term_rows, worst = [], 0.0
    for i in range(10):
        vals = np.cumsum(rng.normal(0.0, 0.1, 101))
        eta = Path(1.0, vals)
        got, _ = evaluate_ppde(prob, 1.0, eta, cfg)
        want = float(np.max(eta.values))
        worst = max(worst, abs(got - want))
        term_rows.append([i, got, want])
    _write_csv(outdir / "ppde_lookback_terminal.csv", ["path_id", "value", "sup"], term_rows)
    checks = [
        Check("lookback_relative_error", abs(value - target) / target, tol),
        Check("terminal_exactness", worst, 0.0, op="<="),
    ]
    return {"value": value, "std_error": se, "oracle": target}, checks


def run_comparison(params, seed, workers, outdir):
    # coarse grid and many paths: the per-step tilt slack*dt must clear the
    # per-step regression noise for the sign checks to resolve
    n_paths = _p(params, "n_paths", 400_000, int)
    n_steps = _p(params, "n_steps", 8, int)
    slack = _p(params, "slack", 0.5)
    rate = _p(params, "rate", 0.1)
    drv = DriverSpec(lambda t, s, y, z, r=rate: -r * y, lipschitz=rate)
    prob = ProblemSpec("markov", 0.0, 1.0, drv, lambda x: x, horizon=1.0)
    cfg = SolverConfig(n_paths, n_steps, seed=seed, workers=workers)
    rep = comparison_experiment(prob, slack, 0.0, 1.0, cfg)
    _write_csv(
        outdir / "comparison.csv",
        ["slack", "violation_fraction", "worst_violation", "swapped_fraction",
         "k_super_nondecreasing", "k_sub_nonincreasing"],
        [[slack, rep["ordering"]["violation_fraction"], rep["ordering"]["worst_violation"],
          rep["swapped"]["violation_fraction"], rep["k_super_nondecreasing_fraction"],
          rep["k_sub_nonincreasing_fraction"]]],
    )
    # the swapped fields agree at the terminal row, so the violation
    # fraction of the negative control tops out at n_steps/(n_steps + 1)
    swapped_bound = n_steps / (n_steps + 1.0) - 1e-9
    checks = [
        Check("ordering_violations", rep["ordering"]["violation_fraction"], 1e-3),
        Check("k_super_nondecreasing", rep["k_super_nondecreasing_fraction"], 0.999, op=">="),
        Check("k_sub_nonincreasing", rep["k_sub_nonincreasing_fraction"], 0.999, op=">="),
        Check("swapped_negative_control", rep["swapped"]["violation_fraction"], swapped_bound, op=">="),
    ]
    return rep["ordering"], checks


def run_sde_convergence(params, seed, workers, outdir):
    n_paths = _p(params, "n_paths", 20_000, int)
    n_steps = _p(params, "n_steps", 100, int)
    indices = _index_list(params, (2, 8, 32))
    g = Grid(0.0, 1.0, n_steps)
    noise = NoiseBundle(seed, n_paths, n_steps)
    kinked = lambda x: -np.abs(x)
    base = SdeSpec(lambda t, x: kinked(x), 1.0)
    rows = []
    for n in indices:
        b_n = mollify(kinked, 1, n)
        spec_n = SdeSpec(lambda t, x, f=b_n: f(x), 1.0)
        est, se = coupled_sup_error(spec_n, base, 0.0, g, noise, p=2.0)
        rows.append([n, est, se])
    zero_est, _ = coupled_sup_error(base, base, 0.0, g, noise, p=2.0)
    _write_csv(outdir / "sde_convergence.csv", ["n", "coupled_sup_error_p2", "std_error"], rows)
    errs = [r[1] for r in rows]
    checks = [
        Check("coupled_error_decreasing", float(all(b < a for a, b in zip(errs, errs[1:]))), 1.0, op=">="),
        Check("identical_spec_coupling", zero_est, 0.0, op="<="),
    ]
    return {"errors": errs, "identity_error": zero_est}, checks


def run_bsde_limit(params, seed, workers, outdir):
    n_paths = _p(params, "n_paths", 30_000, int)
    n_steps = _p(params, "n_steps", 64, int)
    rate = _p(params, "rate", 0.1)
    indices = _index_list(params, (1, 4, 16, 64))
    g = Grid(0.0, 1.0, n_steps)
    basis = RegressionBasisSpec("markov", 2)
    base_drv = DriverSpec(lambda t, s, y, z, r=rate: -r * y, lipschitz=rate)
    dW = NoiseBundle(seed, n_paths, n_steps).increments(g.dt)
    traj = euler_markov(SdeSpec(0.0, 1.0), 1.0, g, dW)
    xi = traj.terminal()
    drivers = [DriverSpec(lambda t, s, y, z, r=rate, n=n: -r * y + 1.0 / n, lipschitz=rate) for n in indices]
    rows, sol1 = limit_experiment(drivers, base_drv, [xi] * len(indices), xi, basis,
                                  [traj] * len(indices), traj, dW, q=1.0, n_labels=indices)
    _write_csv(outdir / "bsde_limit.csv",
               ["n", "z_gap_q", "y_gap_sup2", "k_gap_max", "se_z_gap_q", "se_y_gap_sup2"],
               [[r["n"], r["z_gap_q"], r["y_gap_sup2"], r["k_gap_max"], r["z_gap_q_se"], r["y_gap_sup2_se"]]
                for r in rows])

    # solver noise floor: positional Z distance between two independent-seed
    # solves of the unperturbed problem (Z is deterministic for this benchmark);
    # the first is the table's base solution
    dW2 = NoiseBundle(seed + 1, n_paths, n_steps).increments(g.dt)
    traj2 = euler_markov(SdeSpec(0.0, 1.0), 1.0, g, dW2)
    sol2 = solve_bsde(base_drv, traj2.terminal(), basis, traj2, dW2)
    floor = float((np.sum(np.abs(sol1.Z - sol2.Z), axis=(1, 2)) * g.dt).mean())
    _write_csv(outdir / "bsde_limit_floor.csv", ["noise_floor_z_gap"], [[floor]])
    gaps = [r["z_gap_q"] for r in rows]
    checks = [
        Check("z_gap_strictly_decreasing", float(all(b < a for a, b in zip(gaps, gaps[1:]))), 1.0, op=">="),
        Check("z_gap_final_vs_noise_floor", gaps[-1], 2.0 * floor),
    ]
    return {"z_gaps": gaps, "noise_floor": floor}, checks


def run_ito_residual(params, seed, workers, outdir):
    n_paths = _p(params, "n_paths", 1000, int)
    steps_list = _p(params, "steps", (100, 1000, 10000), _int_list)
    if len(set(steps_list)) < 2:
        raise ConfigError(f"parameter 'steps': the rate slope needs two distinct step counts, got {params['steps']}")
    identity = PresentFunctional(
        lambda t, x: x, lambda t, x: np.zeros_like(x), lambda t, x: np.ones_like(x),
        lambda t, x: np.zeros_like(x),
    )
    quadratic = PresentFunctional(
        lambda t, x: x * x, lambda t, x: np.zeros_like(x), lambda t, x: 2.0 * x,
        lambda t, x: np.full_like(x, 2.0),
    )
    ig1 = Integrand(lambda u: np.asarray(u, dtype=float), lambda u: np.ones_like(np.asarray(u, dtype=float)),
                    lambda u: np.zeros_like(np.asarray(u, dtype=float)))
    ig2 = Integrand(np.cos, lambda u: -np.sin(np.asarray(u, dtype=float)),
                    lambda u: -np.cos(np.asarray(u, dtype=float)))
    cyl = CylindricalFunctional(
        base=lambda t, F: t * F[:, 0] + 0.5 * F[:, 0] * F[:, 1],
        integrands=(ig1, ig2),
        base_t=lambda t, F: F[:, 0],
        base_grad=lambda t, F: np.stack([t + 0.5 * F[:, 1], 0.5 * F[:, 0]], axis=1),
        base_hess=lambda t, F: np.broadcast_to(np.array([[0.0, 0.5], [0.5, 0.0]]), (F.shape[0], 2, 2)),
    )
    cases = [("identity", identity), ("quadratic", quadratic), ("cylindrical", CylindricalIto(cyl))]
    results = {name: [] for name, _ in cases}
    for steps in steps_list:  # one noise draw and trajectory per step count, shared by the functionals
        g = Grid(0.0, 1.0, steps)
        traj = euler_markov(SdeSpec(0.0, 1.0), 0.0, g, NoiseBundle(seed, n_paths, steps).increments(g.dt))
        for name, spec in cases:
            results[name].append(ito_residual(spec, traj.values, g, sigma=1.0)[0])
    rows = [[name, 1.0 / steps, res] for name, _ in cases for steps, res in zip(steps_list, results[name])]
    _write_csv(outdir / "ito_residual.csv", ["functional", "dt", "mean_residual"], rows)
    dts = np.array([1.0 / s for s in steps_list])
    checks = [Check("identity_residual_exact_zero", max(results["identity"]), 0.0)]
    for name in ("quadratic", "cylindrical"):
        # residual ~ dt^slope: slope is the log-log regression coefficient
        slope = np.polyfit(np.log(dts), np.log(np.maximum(results[name], 1e-300)), 1)[0]
        checks.append(Check(f"{name}_rate_slope", slope, 0.4, op=">="))
    checks.append(Check("cylindrical_final_residual", results["cylindrical"][-1], 1e-2))
    return {name: list(map(float, res)) for name, res in results.items()}, checks


def run_fejer_sweep(params, seed, workers, outdir):
    horizon = _p(params, "horizon", 1.0)
    max_index = _p(params, "max_index", 256, int)
    contraction_order = 64
    if max_index < contraction_order:
        raise ConfigError(f"parameter 'max_index' must be >= {contraction_order}, the order of the "
                          f"contraction check, got {max_index}")
    basis = FourierBasis(horizon, max_index)
    gram_err = float(np.abs(basis.gram_matrix() - np.eye(max_index + 1)).max())

    corpus = smooth_corpus(horizon)
    sweep = tuple(n for n in (4, 16, 64, 256) if n <= max_index)
    rows, final_errs, monotone = [], [], True
    bound_ratio = 0.0
    for name, path in corpus.items():
        errs = []
        for n in sweep:
            proj = fejer_project(path, n, basis)
            err = float(np.max(np.abs(proj.values - path.values)))
            errs.append(err)
            rows.append([name, n, err])
            bound_ratio = max(bound_ratio, float(np.max(np.abs(proj.values))) / float(np.max(np.abs(path.values))))
        monotone = monotone and all(b < a for a, b in zip(errs, errs[1:]))
        final_errs.append(errs[-1])
    _write_csv(outdir / "fejer_sweep.csv", ["path", "n", "sup_error"], rows)

    # contraction of the periodic part on rough paths
    rng = np.random.default_rng(seed)
    n_rough = _p(params, "n_rough", 100, int)
    n_nodes = 257
    grid_error = horizon / (n_nodes - 1)
    worst_excess = -np.inf
    for _ in range(n_rough):
        vals = np.cumsum(rng.normal(0.0, np.sqrt(grid_error), n_nodes))
        path = Path(horizon, vals)
        trend = linear_trend(path)
        residual = Path(horizon, path.values - trend.values)
        proj = fejer_project(path, contraction_order, basis)
        fejer_part = proj.values - trend.values
        excess = float(np.max(np.abs(fejer_part)) - np.max(np.abs(residual.values)))
        worst_excess = max(worst_excess, excess)

    dump = basis_dump_rows(basis, corpus["mode1"], 16)
    _write_csv(outdir / "fejer_basis_dump.csv", dump[0], dump[1])
    checks = [
        Check("gram_identity_error", gram_err, 1e-6),
        Check("fejer_contraction_excess", worst_excess, 10.0 * grid_error),
        Check("sweep_monotone", float(monotone), 1.0, op=">="),
        Check("sweep_final_error", max(final_errs), 1e-2),
        Check("uniform_bound", bound_ratio, 10.0),
    ]
    return {"gram_error": gram_err, "final_errors": final_errs}, checks


def basis_dump_rows(basis: FourierBasis, path: Path, n: int):
    xs = path.nodes
    proj = fejer_project(path, n, basis)
    header = ["x"] + [f"e_{i}" for i in range(min(n, 4) + 1)] + ["eta", "projection"]
    rows = []
    for j, x in enumerate(xs):
        row = [x] + [float(basis.evaluate(i, x)) for i in range(min(n, 4) + 1)]
        row += [float(path.values[j]), float(proj.values[j])]
        rows.append(row)
    return header, rows


EXPERIMENTS = {
    "markov-heat": (run_markov_heat, "quadratic-terminal heat benchmark against x^2 + (T - t)"),
    "markov-linear-driver": (run_markov_linear_driver, "linear driver against the exponential-discount closed form"),
    "markov-kinked-terminal": (run_markov_kinked_terminal, "smoothing pipeline on |x| terminal toward the folded-normal mean"),
    "ppde-lookback": (run_ppde_lookback, "running-maximum terminal against the reflection-principle oracle"),
    "comparison": (run_comparison, "order and compensator checks for tilted super/sub fields"),
    "sde-convergence": (run_sde_convergence, "coupled forward error under mollified coefficients"),
    "bsde-limit": (run_bsde_limit, "backward-solution convergence under vanishing driver perturbations"),
    "ito-residual": (run_ito_residual, "discrete functional Ito expansion defect rates"),
    "fejer-sweep": (run_fejer_sweep, "trigonometric projection: orthonormality, contraction, convergence"),
}


class ConfigError(ValueError):
    pass


def load_config(path: str) -> tuple[str, dict, int]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    if "experiment" not in parser:
        raise ConfigError("config needs an [experiment] section with a name")
    name = parser["experiment"].get("name")
    if name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigError(f"unknown experiment {name!r}; known: {known}")
    seed = _p(parser["experiment"], "seed", 2024, int)
    params = dict(parser["parameters"]) if "parameters" in parser else {}
    positive = {"n_paths": int, "n_steps": int, "max_index": int, "n_rough": int, "horizon": float,
                "slack": float, "steps": lambda raw: min(_int_list(raw))}
    for field, cast in positive.items():
        if field in params and not _p(params, field, None, cast) > 0:
            raise ConfigError(f"parameter {field!r} must be positive, got {params[field]}")
    if "tolerance" in params and not _p(params, "tolerance", None) >= 0:
        raise ConfigError(f"parameter 'tolerance' must be nonnegative, got {params['tolerance']}")
    return name, params, seed


def config_digest(name: str, params: dict, seed: int) -> str:
    canon = json.dumps({"experiment": name, "parameters": params, "seed": seed}, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def run(config_path: str, seed_override: int | None, workers: int, outdir: str) -> int:
    try:
        name, params, seed = load_config(config_path)
        if workers < 1:
            raise ConfigError(f"--threads must be positive, got {workers}")
    except (ConfigError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if seed_override is not None:
        seed = seed_override
    out = FsPath(outdir)
    out.mkdir(parents=True, exist_ok=True)
    runner, _ = EXPERIMENTS[name]
    started = time.time()
    try:
        metrics, checks = runner(params, seed, workers, out)
    except (ConfigError, BasisSizeError, DivergenceError) as exc:  # too few paths or diverging input is bad config
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.time() - started
    summary = {
        "experiment": name,
        "version": __version__,
        "seed": seed,
        "parameters": params,
        "config_hash": config_digest(name, params, seed),
        "metrics": metrics,
        "checks": [c.as_dict() for c in checks],
        "passed": all(c.passed for c in checks),
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(out / "timing.txt", "w") as fh:
        fh.write(f"{elapsed:.3f} s\n")
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: {c.observed:.6g} {c.op} {c.bound:.6g}")
    print(f"{name}: {'pass' if summary['passed'] else 'FAIL'} in {elapsed:.1f} s -> {out}")
    if not summary["passed"]:
        for c in checks:
            if not c.passed:
                print(f"tolerance failure: {c.name} observed {c.observed:.6g} "
                      f"not {c.op} {c.bound:.6g}", file=sys.stderr)
        return 1
    return 0


def list_experiments(as_json: bool) -> int:
    if as_json:
        payload = [{"name": name, "description": desc} for name, (_, desc) in sorted(EXPERIMENTS.items())]
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for name, (_, desc) in sorted(EXPERIMENTS.items()):
            print(f"{name} - {desc}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pathpde", description="PDE-via-backward-SDE experiment runner")
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("config")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--threads", type=int, default=_usable_cores(),
                       help="lanes of the forward pass (default: the usable cores)")
    run_p.add_argument("--out", default="pathpde_out")
    list_p = sub.add_parser("list", help="list available experiments")
    list_p.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.seed, args.threads, args.out)
    if args.command == "list":
        return list_experiments(args.json)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
