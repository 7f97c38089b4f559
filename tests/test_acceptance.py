"""Acceptance gate: every criterion at its stated scale and tolerance.

Each test prints one summary line (visible with ``pytest -s`` or in the
captured output of failures).  Scales follow the declared budgets; run
single-threaded unless the criterion is about worker counts.
"""

import json
import time
from pathlib import Path as FsPath

import numpy as np
import pytest

from pathpde.bsde import DriverSpec, RegressionBasisSpec, limit_experiment, solve_bsde
from pathpde.cli import main as cli_main
from pathpde.funcalc import CylindricalIto, PresentFunctional, ito_residual
from pathpde.paths import Grid, Path, sup_norm
from pathpde.sde import NoiseBundle, SdeSpec, coupled_sup_error, euler_markov
from pathpde.smoothing import (
    CylindricalFunctional,
    FourierBasis,
    Integrand,
    Mollifier,
    fejer_project,
    linear_trend,
    mollify,
    smooth_corpus,
)
from pathpde.solver import (
    ApproximationSchedule,
    ProblemSpec,
    SolverConfig,
    SupTerminal,
    comparison_experiment,
    evaluate_markov,
    evaluate_ppde,
)

ROOT2_OVER_PI = np.sqrt(2.0 / np.pi)


def _report(criterion, passed, detail):
    print(f"[acceptance {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def test_criterion_01_markov_heat():
    prob = ProblemSpec("markov", 0.0, 1.0, DriverSpec(None), lambda x: x * x, horizon=1.0)
    started = time.time()
    value, se = evaluate_markov(prob, 0.0, 0.0, SolverConfig(100_000, 100, seed=17))
    elapsed = time.time() - started
    err = abs(value - 1.0)
    _report("01 heat", err <= 0.01 and elapsed <= 30.0,
            f"u(0,0) = {value:.5f} (|err| = {err:.2e} <= 0.01), {elapsed:.1f} s <= 30 s")


def test_criterion_02_linear_driver():
    drv = DriverSpec(lambda t, s, y, z: -0.1 * y, lipschitz=0.1)
    prob = ProblemSpec("markov", 0.0, 1.0, drv, lambda x: x, horizon=1.0)
    worst = 0.0
    for x0 in (-1.0, 0.0, 1.0):
        for t0 in (0.0, 0.5):
            value, _ = evaluate_markov(prob, t0, x0, SolverConfig(100_000, 100, seed=31))
            exact = x0 * np.exp(-0.1 * (1.0 - t0))
            # 1% relative, with the same 1% as an absolute floor at x = 0
            excess = abs(value - exact) / max(abs(exact), 1.0)
            worst = max(worst, excess)
    _report("02 linear driver", worst <= 0.01, f"worst probe error {worst:.2e} <= 1e-2")


def test_criterion_03_lookback():
    prob = ProblemSpec("path", 0.0, 1.0, DriverSpec(None), SupTerminal(), horizon=1.0)
    eta0 = Path.constant(0.0, 1.0, 201)
    value, _ = evaluate_ppde(prob, 0.0, eta0, SolverConfig(200_000, 200, seed=23))
    rel = abs(value - ROOT2_OVER_PI) / ROOT2_OVER_PI
    rng = np.random.default_rng(23)
    exact = True
    for _ in range(10):
        eta = Path(1.0, np.cumsum(rng.normal(0.0, 0.1, 101)))
        got, _ = evaluate_ppde(prob, 1.0, eta, SolverConfig(100, 10, seed=23))
        exact = exact and got == float(np.max(eta.values))
    _report("03 lookback", rel <= 0.015 and exact,
            f"value {value:.5f} (rel err {rel:.2e} <= 1.5e-2), terminal exact: {exact}")


def test_criterion_04_kinked_pipeline():
    prob = ProblemSpec("markov", 0.0, 1.0, DriverSpec(None), lambda x: np.abs(x), horizon=1.0)
    sched = ApproximationSchedule((4, 8, 16, 32), SolverConfig(100_000, 100, seed=41))
    from pathpde.solver import strong_viscosity_pipeline

    report = strong_viscosity_pipeline(prob, sched, [(0.0, 0.0)])
    gaps = report.cauchy_gaps[:, 0]
    decreasing = bool(np.all(np.diff(gaps) < 0))
    rel = abs(report.values[-1, 0] - ROOT2_OVER_PI) / ROOT2_OVER_PI
    gap_text = " ".join(f"{g:.1e}" for g in gaps)
    _report("04 kinked pipeline", decreasing and rel <= 0.02,
            f"gaps [{gap_text}] decreasing: {decreasing}, final rel err {rel:.2e} <= 2e-2")


def test_criterion_05_fejer_suite():
    started = time.time()
    basis = FourierBasis(1.0, 256)
    gram_err = float(np.abs(basis.gram_matrix() - np.eye(257)).max())

    rng = np.random.default_rng(51)
    n_nodes = 257
    h = 1.0 / (n_nodes - 1)
    contraction = True
    for _ in range(100):
        eta = Path(1.0, np.cumsum(rng.normal(0.0, np.sqrt(h), n_nodes)))
        trend = linear_trend(eta)
        resid = np.max(np.abs(eta.values - trend.values))
        part = np.max(np.abs(fejer_project(eta, 64, basis).values - trend.values))
        contraction = contraction and part <= resid + 10.0 * h

    worst_final = 0.0
    for eta in smooth_corpus(1.0).values():
        err = sup_norm(Path(1.0, fejer_project(eta, 256, basis).values - eta.values))
        worst_final = max(worst_final, err)
    elapsed = time.time() - started
    ok = gram_err <= 1e-6 and contraction and worst_final <= 1e-2 and elapsed <= 10.0
    _report("05 fejer suite", ok,
            f"gram {gram_err:.1e} <= 1e-6, contraction: {contraction}, "
            f"final sup err {worst_final:.2e} <= 1e-2, {elapsed:.1f} s <= 10 s")


def test_criterion_06_mollifier_suite():
    mass_ok = all(abs(Mollifier(q, n).mass() - 1.0) <= 1e-6 for q in (1, 2, 3) for n in (1, 4))
    rng = np.random.default_rng(61)
    affine_err = 0.0
    g = lambda x: 1.7 * x - 0.3
    for n in (1, 4, 16):
        smoothed = mollify(g, 1, n)
        xs = rng.normal(size=20)
        affine_err = max(affine_err, float(np.abs(smoothed(xs) - g(xs)).max()))
    _report("06 mollifier suite", mass_ok and affine_err <= 1e-8,
            f"unit mass within 1e-6: {mass_ok}, affine reproduction {affine_err:.1e} <= 1e-8")


def test_criterion_07_comparison_principle():
    drv = DriverSpec(lambda t, s, y, z: -0.1 * y, lipschitz=0.1)
    prob = ProblemSpec("markov", 0.0, 1.0, drv, lambda x: x, horizon=1.0)
    rep = comparison_experiment(prob, 0.5, 0.0, 1.0, SolverConfig(400_000, 8, seed=71))
    viol = rep["ordering"]["violation_fraction"]
    frac_super = rep["k_super_nondecreasing_fraction"]
    frac_sub = rep["k_sub_nonincreasing_fraction"]
    ok = viol <= 1e-3 and frac_super >= 0.999 and frac_sub >= 0.999
    _report("07 comparison", ok,
            f"violations {viol:.1e} <= 1e-3, K signs {frac_super:.4f}/{frac_sub:.4f} >= 0.999")


def test_criterion_08_bsde_limit():
    g = Grid(0.0, 1.0, 64)
    n_paths = 30_000
    basis = RegressionBasisSpec("markov", 2)
    base = DriverSpec(lambda t, s, y, z: -0.1 * y, lipschitz=0.1)
    noise = NoiseBundle(81, n_paths, 64)
    dW = noise.increments(g.dt)
    traj = euler_markov(SdeSpec(0.0, 1.0), 1.0, g, dW)
    xi = traj.terminal()
    ns = (1, 4, 16, 64)
    drivers = [DriverSpec(lambda t, s, y, z, n=n: -0.1 * y + 1.0 / n, lipschitz=0.1) for n in ns]
    rows, _ = limit_experiment(drivers, base, [xi] * 4, xi, basis, [traj] * 4, traj, dW,
                               q=1.0, n_labels=ns)
    gaps = [r["z_gap_q"] for r in rows]
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    # solver noise floor: positional Z distance between independent-seed
    # solves of the unperturbed problem (its Z is deterministic here)
    noise2 = NoiseBundle(82, n_paths, 64)
    dW2 = noise2.increments(g.dt)
    traj2 = euler_markov(SdeSpec(0.0, 1.0), 1.0, g, dW2)
    sol1 = solve_bsde(base, xi, basis, traj, dW)
    sol2 = solve_bsde(base, traj2.terminal(), basis, traj2, dW2)
    floor = float((np.sum(np.abs(sol1.Z - sol2.Z), axis=(1, 2)) * g.dt).mean())
    ok = decreasing and gaps[-1] <= 2.0 * floor
    gap_text = " ".join(f"{g:.1e}" for g in gaps)
    _report("08 bsde limit", ok,
            f"z gaps [{gap_text}] strictly decreasing: {decreasing}, "
            f"final {gaps[-1]:.2e} <= 2 x floor {floor:.2e}")


def test_criterion_09_ito_residual():
    identity = PresentFunctional(
        lambda t, x: x, lambda t, x: np.zeros_like(x),
        lambda t, x: np.ones_like(x), lambda t, x: np.zeros_like(x),
    )
    quadratic = PresentFunctional(
        lambda t, x: x * x, lambda t, x: np.zeros_like(x),
        lambda t, x: 2.0 * x, lambda t, x: np.full_like(x, 2.0),
    )
    ig1 = Integrand(lambda u: np.asarray(u, dtype=float),
                    lambda u: np.ones_like(np.asarray(u, dtype=float)),
                    lambda u: np.zeros_like(np.asarray(u, dtype=float)))
    ig2 = Integrand(np.cos, lambda u: -np.sin(np.asarray(u, dtype=float)),
                    lambda u: -np.cos(np.asarray(u, dtype=float)))
    cyl = CylindricalIto(CylindricalFunctional(
        base=lambda t, F: t * F[:, 0] + 0.5 * F[:, 0] * F[:, 1],
        integrands=(ig1, ig2),
        base_t=lambda t, F: F[:, 0],
        base_grad=lambda t, F: np.stack([t + 0.5 * F[:, 1], 0.5 * F[:, 0]], axis=1),
        base_hess=lambda t, F: np.broadcast_to(np.array([[0.0, 0.5], [0.5, 0.0]]),
                                               (F.shape[0], 2, 2)),
    ))
    dts = (1e-2, 1e-3, 1e-4)
    res = {"identity": [], "quadratic": [], "cylindrical": []}
    for dt in dts:
        steps = int(round(1.0 / dt))
        g = Grid(0.0, 1.0, steps)
        nb = NoiseBundle(91, 1000, steps)
        paths = euler_markov(SdeSpec(0.0, 1.0), 0.0, g, nb.increments(g.dt)).values
        res["identity"].append(ito_residual(identity, paths, g, 1.0)[0])
        res["quadratic"].append(ito_residual(quadratic, paths, g, 1.0)[0])
        res["cylindrical"].append(ito_residual(cyl, paths, g, 1.0)[0])
    exact_zero = max(res["identity"]) == 0.0
    slopes = {
        name: np.polyfit(np.log(dts), np.log(res[name]), 1)[0]
        for name in ("quadratic", "cylindrical")
    }
    ok = exact_zero and all(s >= 0.4 for s in slopes.values())
    _report("09 ito residual", ok,
            f"identity exactly zero: {exact_zero}, slopes q={slopes['quadratic']:.2f} "
            f"c={slopes['cylindrical']:.2f} >= 0.4")


def test_criterion_10_sde_convergence():
    g = Grid(0.0, 1.0, 100)
    noise = NoiseBundle(101, 20_000, 100)
    kinked = lambda x: -np.abs(x)
    base = SdeSpec(lambda t, x: kinked(x), 1.0)
    errs = []
    for n in (2, 8, 32):
        b_n = mollify(kinked, 1, n)
        est, _ = coupled_sup_error(SdeSpec(lambda t, x, f=b_n: f(x), 1.0), base,
                                   0.0, g, noise)
        errs.append(est)
    zero, _ = coupled_sup_error(base, base, 0.0, g, noise)
    ok = errs[0] > errs[1] > errs[2] and zero == 0.0
    err_text = " ".join(f"{e:.1e}" for e in errs)
    _report("10 sde convergence", ok,
            f"coupled errors [{err_text}] decreasing, identical-spec coupling = {zero}")


def _run_cli(tmp_path, cfg_text, tag, threads):
    cfg = tmp_path / f"{tag}.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / f"{tag}-w{threads}"
    rc = cli_main(["run", str(cfg), "--threads", str(threads), "--out", str(out)])
    blobs = {}
    for p in sorted(out.iterdir()):
        if p.name != "timing.txt":
            blobs[p.name] = p.read_bytes()
    return rc, blobs


def test_criterion_11_determinism(tmp_path):
    heat_cfg = "[experiment]\nname = markov-heat\nseed = 7\n\n[parameters]\nn_paths = 20000\nn_steps = 50\n"
    look_cfg = ("[experiment]\nname = ppde-lookback\nseed = 7\n\n[parameters]\n"
                "n_paths = 20000\nn_steps = 50\ntolerance = 0.05\n")
    # the kinked pipeline runs the zero-driver shortcut on every rung; the
    # linear driver keeps the backward induction
    kinked_cfg = ("[experiment]\nname = markov-kinked-terminal\nseed = 7\n\n[parameters]\n"
                  "n_paths = 20000\nn_steps = 20\nindices = 4,8,16\ntolerance = 0.05\n")
    linear_cfg = ("[experiment]\nname = markov-linear-driver\nseed = 7\n\n[parameters]\n"
                  "n_paths = 20000\nn_steps = 20\ntolerance = 0.05\n")
    # default scale: the order checks need the full 400k x 8 to resolve
    comparison_cfg = "[experiment]\nname = comparison\nseed = 7\n\n[parameters]\n"
    # sde-convergence mollifies its drift through the shared mollifier rule
    sde_cfg = ("[experiment]\nname = sde-convergence\nseed = 7\n\n[parameters]\n"
               "n_paths = 2000\nn_steps = 50\n")
    limit_cfg = ("[experiment]\nname = bsde-limit\nseed = 7\n\n[parameters]\n"
                 "n_paths = 5000\nn_steps = 16\n")
    ito_cfg = ("[experiment]\nname = ito-residual\nseed = 7\n\n[parameters]\n"
               "n_paths = 200\nsteps = 100,1000\n")
    fejer_cfg = "[experiment]\nname = fejer-sweep\nseed = 7\n\n[parameters]\nn_rough = 20\n"
    ok = True
    for tag, cfg_text in (("heat", heat_cfg), ("lookback", look_cfg), ("kinked", kinked_cfg),
                          ("linear", linear_cfg), ("comparison", comparison_cfg),
                          ("sde", sde_cfg), ("limit", limit_cfg), ("ito", ito_cfg), ("fejer", fejer_cfg)):
        blobs = {}
        for threads in (1, 4, 8):
            rc, blob = _run_cli(tmp_path, cfg_text, tag, threads)
            ok = ok and rc == 0
            blobs[threads] = blob
        rc_again, blob_again = _run_cli(tmp_path, cfg_text, tag + "-rerun", 1)
        ok = ok and blobs[1] == blobs[4] == blobs[8]
        ok = ok and blobs[1] == blob_again and rc_again == 0
    _report("11 determinism", ok,
            "byte-identical CSV/JSON artifacts across reruns and 1/4/8 workers")
