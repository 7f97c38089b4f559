import json
from pathlib import Path as FsPath

import pytest

from pathpde.cli import EXPERIMENTS, Check, config_digest, list_experiments, load_config, main


def _write_config(tmp_path, name, seed=11, **params):
    lines = ["[experiment]", f"name = {name}", f"seed = {seed}", "", "[parameters]"]
    lines += [f"{k} = {v}" for k, v in params.items()]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    return cfg


def _artifact_bytes(outdir):
    out = {}
    for p in sorted(FsPath(outdir).iterdir()):
        if p.name == "timing.txt":  # wall clock is deliberately not deterministic
            continue
        out[p.name] = p.read_bytes()
    return out


def test_catalog_has_nine_experiments(capsys):
    assert list_experiments(as_json=False) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    assert len(lines) == 9
    assert any(ln.startswith("ppde-lookback") for ln in lines)


def test_catalog_json(capsys):
    assert list_experiments(as_json=True) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(e["name"] for e in payload) == sorted(EXPERIMENTS)


# markov-heat's relative error has sd sqrt(2 / n_paths) at x = 0, T = 1: at 500k paths 0.002, so its
# default tolerance of 0.01 is 5 sd (at 20k paths it was 1 sd, and a third of the seeds failed)
HEAT = {"n_paths": 500_000, "n_steps": 5}


def test_run_markov_heat_passes(tmp_path):
    cfg = _write_config(tmp_path, "markov-heat", **HEAT)
    rc = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["experiment"] == "markov-heat"
    assert summary["passed"] is True
    assert summary["config_hash"] == config_digest("markov-heat", {k: str(v) for k, v in HEAT.items()}, 11)
    assert "wall" not in summary and "elapsed" not in summary
    assert (tmp_path / "out" / "markov_heat.csv").exists()
    assert (tmp_path / "out" / "timing.txt").exists()


def test_unknown_experiment_exits_2(tmp_path):
    cfg = _write_config(tmp_path, "no-such-thing")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2


def test_missing_config_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "out")]) == 2


def test_config_without_an_experiment_section_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[parameters]\nn_paths = 100\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "config needs an [experiment] section" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("op", ["==", "<", "!="])
def test_a_check_knows_only_its_two_comparisons(op):
    with pytest.raises(ValueError, match=f"unknown comparison '{op}'"):
        Check("x", 1.0, 1.0, op)
    assert Check("x", 1.0, 1.0, "<=").passed and Check("x", 1.0, 1.0, ">=").passed


def test_list_command_and_no_command(capsys):
    assert main(["list", "--json"]) == 0
    assert sorted(e["name"] for e in json.loads(capsys.readouterr().out)) == sorted(EXPERIMENTS)
    assert main([]) == 2  # no command: the usage, and the exit status of a usage error
    assert "usage: pathpde" in capsys.readouterr().out


def test_malformed_config_reports_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[experiment]\nname = markov-heat\n\n[parameters]\nthis line has no equals\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "line" in err.lower()


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_nonpositive_threads_exits_2(tmp_path, capsys, threads):
    cfg = _write_config(tmp_path, "markov-heat", n_paths=1000, n_steps=10)
    assert main(["run", str(cfg), "--threads", threads, "--out", str(tmp_path / "out")]) == 2
    assert "config error: --threads" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_invalid_parameter_exits_2(tmp_path):
    cfg = _write_config(tmp_path, "markov-heat", n_paths=-5)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("key", ["n_paths", "seed"])
def test_unparsable_integer_exits_2(tmp_path, capsys, key):
    cfg = _write_config(tmp_path, "markov-heat", **{key: "abc"})
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


def test_unparsable_index_list_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "sde-convergence", n_paths=100, indices="2,x")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "indices" in capsys.readouterr().err


@pytest.mark.parametrize("indices", ["0,4", "-2,4", "4,4"])
def test_bad_smoothing_indices_exit_2(tmp_path, capsys, indices):
    cfg = _write_config(tmp_path, "markov-kinked-terminal", n_paths=1000, n_steps=10, indices=indices)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "smoothing indices" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize(
    "name, indices, need",
    [
        ("markov-kinked-terminal", "4,8", 3),
        ("markov-kinked-terminal", "32", 3),
        ("sde-convergence", "8", 2),
        ("bsde-limit", "4", 2),
    ],
)
def test_too_few_indices_for_the_monotonicity_check_exit_2(tmp_path, capsys, name, indices, need):
    # a check over fewer than two gaps or errors would hold whatever the solver did
    cfg = _write_config(tmp_path, name, n_paths=1000, n_steps=10, indices=indices)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"needs at least {need} indices" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("seed", ["-3", str(2**64)])
def test_a_seed_outside_64_bits_exits_2(tmp_path, capsys, seed):
    # numpy's generators reject a negative seed; the noise keys only a seed's low 64 bits
    cfg = _write_config(tmp_path, "fejer-sweep", seed=seed, n_rough=2)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: seed must lie in [0, 2^64), got {seed}" in err and "Traceback" not in err
    cfg = _write_config(tmp_path, "fejer-sweep", n_rough=2)
    assert main(["run", str(cfg), "--seed", seed, "--out", str(tmp_path / "out")]) == 2
    assert f"config error: --seed must lie in [0, 2^64), got {seed}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize(
    "name, indices",
    [
        pytest.param("sde-convergence", "0,2", id="sde-convergence"),
        pytest.param("bsde-limit", "0,2", id="bsde-limit"),
        pytest.param("sde-convergence", "4,2", id="sde-convergence-4,2"),
        pytest.param("bsde-limit", "2,2", id="bsde-limit-2,2"),
    ],
)
def test_index_below_one_exits_2(tmp_path, capsys, name, indices):
    cfg = _write_config(tmp_path, name, n_paths=1000, n_steps=10, indices=indices)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "indices" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("name", ["markov-heat", "markov-linear-driver"])
def test_too_few_paths_for_the_basis_exits_2(tmp_path, capsys, name):
    cfg = _write_config(tmp_path, name, n_paths=5, n_steps=10)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "well-posedness" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize(
    "name, key, value",
    [
        ("markov-heat", "horizon", "0"),
        ("markov-linear-driver", "horizon", "-1"),
        ("fejer-sweep", "horizon", "0"),
        ("ito-residual", "steps", "100,0"),
        ("ito-residual", "steps", "100"),
        ("ito-residual", "steps", "100,100"),
    ],
)
def test_nonpositive_horizon_or_steps_exits_2(tmp_path, capsys, name, key, value):
    cfg = _write_config(tmp_path, name, n_paths=1000, **{key: value})
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize(
    "name, key, value",
    [
        ("markov-heat", "tolerance", "-1"),
        ("ppde-lookback", "tolerance", "-0.015"),
        ("comparison", "slack", "-0.5"),
        ("comparison", "slack", "0"),
    ],
)
def test_a_bound_that_can_never_hold_exits_2(tmp_path, capsys, name, key, value):
    cfg = _write_config(tmp_path, name, n_paths=1000, n_steps=10, **{key: value})
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: parameter {key!r} must be" in err and "tolerance failure" not in err
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("key", ["x", "horizon"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_number_exits_2(tmp_path, capsys, key, value):
    cfg = _write_config(tmp_path, "markov-heat", n_paths=1000, n_steps=10, **{key: value})
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"parameter {key!r} must be finite" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_diverging_paths_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "markov-linear-driver", n_paths=1000, n_steps=10, horizon="1e300")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "config error: " in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("max_index", [2, 63])
def test_fejer_max_index_below_the_contraction_order_exits_2(tmp_path, capsys, max_index):
    cfg = _write_config(tmp_path, "fejer-sweep", max_index=max_index, n_rough=2)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "max_index" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_tolerance_failure_exits_1(tmp_path, capsys):
    cfg = _write_config(tmp_path, "markov-heat", n_paths=5000, n_steps=20, tolerance=1e-9)
    rc = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "tolerance failure" in err
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is False


def test_seed_override_changes_hash(tmp_path):
    cfg = _write_config(tmp_path, "markov-heat", **HEAT)
    assert main(["run", str(cfg), "--seed", "99", "--out", str(tmp_path / "a")]) == 0
    a = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert a["seed"] == 99


def test_rerun_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, "fejer-sweep", n_rough=20)
    assert main(["run", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", str(cfg), "--out", str(tmp_path / "b")]) == 0
    assert _artifact_bytes(tmp_path / "a") == _artifact_bytes(tmp_path / "b")


def test_worker_count_does_not_change_artifacts(tmp_path):
    cfg = _write_config(tmp_path, "markov-heat", **HEAT)
    outs = {}
    for w in (1, 4, 8):
        assert main(["run", str(cfg), "--threads", str(w), "--out", str(tmp_path / f"w{w}")]) == 0
        outs[w] = _artifact_bytes(tmp_path / f"w{w}")
    assert outs[1] == outs[4] == outs[8]


def test_load_config_reads_sections(tmp_path):
    cfg = _write_config(tmp_path, "bsde-limit", seed=3, n_paths=1000, indices="1,4")
    name, params, seed = load_config(str(cfg))
    assert name == "bsde-limit"
    assert seed == 3
    assert params["indices"] == "1,4"
