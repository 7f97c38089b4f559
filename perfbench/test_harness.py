"""The benchmark harness at smoke scale: time accounting, failure counting, output.

These run every workload through the same code as a full benchmark run,
at a size that takes seconds.  Run from the repository root:

    python3 -m pytest perfbench/test_harness.py
"""

import itertools
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

bench._import_library()

import layertrace  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_layer_times_add_up_to_the_traced_operation(name):
    result, _ = bench.measure(name, seed=3, seconds=0.0, trace=True, smoke=True)
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    attributed = sum(metrics[f"{label}_s"]["value"] for label in layertrace.SPAN_LABELS)
    total = attributed + metrics["trace.unattributed_s"]["value"]
    assert total == pytest.approx(metrics["trace.op_s"]["value"], rel=0.0, abs=1e-9)
    assert metrics["trace.unattributed_s"]["value"] < 0.05 * metrics["trace.op_s"]["value"]
    assert metrics["bsde.regressions"]["value"] > 0
    assert metrics["sde.path_steps"]["value"] > 0
    assert result["attempted"] == bench.MIN_OPS


def _broken(kind):
    """A lookback case whose operations fail in the way ``kind`` names."""

    def make_case(seed, smoke):
        case = workloads.lookback(seed, smoke)
        if kind == "check":
            return replace(case, check=lambda values: (False, 1.0))
        if kind == "raise":
            def op():
                raise RuntimeError("injected failure")
            return replace(case, op=op)
        drift = itertools.count()  # every operation returns a new value
        return replace(case, op=lambda: np.array([0.8 + 1e-12 * next(drift)]),
                       check=lambda values: (True, 0.0))

    return make_case


@pytest.mark.parametrize("kind, failed", [("check", 2), ("raise", 2), ("drift", 1)])
@pytest.mark.parametrize("trace", [False, True])
def test_failed_operations_are_counted(kind, failed, trace):
    result, summary = bench.measure("lookback", seed=3, seconds=0.0, trace=trace, smoke=True,
                                    setup_probes=1, make_case=_broken(kind))
    assert result["attempted"] == 2
    assert result["failed"] == failed
    assert result["correct"] is False
    assert summary["failed_ops"] == failed / 2


def test_command_prints_the_result_line():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "markov-driver", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert "machine " in out.stdout and "failed_ops" in out.stdout
