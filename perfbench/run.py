"""Solver benchmark: end-to-end and per-layer figures for pathpde.

Run from the repository root; the library is imported from ``src/``:

    python3 perfbench/run.py --workload lookback --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --all --seed 1          # every workload, one table
    python3 perfbench/run.py --all --smoke           # the same harness, seconds

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics (``op_s``, ``peak_rss_mb``, ``setup_s``);
``--trace 1`` reports the per-layer metrics of BENCHMARK.json.  The lines
before it give the machine facts, every operation, and a summary with
``rel_error`` and ``failed_ops``.  See README.md for the workloads and the
meaning of each metric.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("lookback", "markov-driver", "lookback-pipeline")
MIN_OPS = 2  # a run measures at least this many operations, then fills --seconds
SETUP_PROBES = 7  # fresh interpreters timed for setup_s, spread over the run; the median is reported
CHILD_TIMEOUT_S = 170

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))


def _import_library() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other pathpde."""
    if not (SRC / "pathpde" / "__init__.py").is_file():
        raise SystemExit(f"error: no pathpde sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pathpde

    if Path(pathpde.__file__).resolve().parent != (SRC / "pathpde").resolve():
        raise SystemExit(f"error: imported pathpde from {pathpde.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# machine facts


def _blas_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"blas": blas.get("name"), "blas_config": blas.get("openblas configuration"), "blas_threads": None}
    # the OpenBLAS library numpy loaded is the one its thread count matters for
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.split()[-1].lower()}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                facts["blas_threads"] = int(getter())
                return facts
    return facts


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    cpu_model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **_blas_facts(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(name: str, seed: int, smoke: bool) -> float:
    """Seconds for the imports and problem construction, in this interpreter."""
    start = time.perf_counter()
    _import_library()
    import workloads

    workloads.CASES[name](seed, smoke)
    return time.perf_counter() - start


def measure_setup(name: str, seed: int, smoke: bool) -> float:
    """Setup time of one fresh interpreter, which pays the imports anew."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _run_op(case, trace) -> dict:
    """One operation; a raised exception is recorded, not propagated."""
    gc.collect()
    if trace is not None:
        trace.reset()
        trace.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        values, error = case.op(), None
    except Exception as exc:  # a failing operation is counted in failed_ops
        values, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if trace is not None:
            trace.uninstall()
    record = {"traced": trace is not None, "wall_s": wall, "cpu_s": cpu, "values": values, "error": error}
    if trace is not None:
        record["self_s"] = dict(trace.self_s)
        record["rss_rise_kb"] = dict(trace.rss_rise_kb)
        record["counts"] = dict(trace.counts)
        record["missing"] = list(trace.missing)
    return record


def _judge(case, records: list[dict]) -> None:
    """Mark each record passed or failed: its own check, and bit-identical repeats."""
    reference = None
    for rec in records:
        rec["rel_error"] = None
        if rec["values"] is None:
            rec["ok"] = False
            continue
        passed, rec["rel_error"] = case.check(rec["values"])
        if reference is None:
            reference = rec["values"]
        elif rec["values"].tobytes() != reference.tobytes():
            passed = False
            rec["error"] = "values differ from the first operation at the same seed"
        rec["ok"] = bool(passed)


def _lower_median(values: list[float]) -> int:
    """Index of the lower median of ``values``."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
            setup_probes: int = SETUP_PROBES, make_case=None) -> tuple[dict, dict]:
    """Run one workload; returns (result, summary).

    ``result`` is the JSON object of the last output line.  ``summary``
    carries what the lines before it report: every operation, rel_error
    and failed_ops.  ``make_case`` replaces the workload's
    function from ``workloads.CASES`` (the harness's own tests use it to
    inject failures).
    """
    import layertrace
    import workloads

    make_case = make_case or workloads.CASES[name]
    probes_left = 0 if trace else setup_probes
    setup: list[float] = []
    if probes_left:
        setup.append(measure_setup(name, seed, smoke))
        probes_left -= 1
    case = make_case(seed, smoke)
    # a small-scale operation first, so lazy imports and first-call costs
    # are paid before timing; it also keeps the first traced operation's
    # high-water-mark rises about the workload, not the interpreter
    workloads.CASES[name](seed, True).op()

    tracer = layertrace.LayerTrace() if trace else None
    records: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(records) % 2 == 0  # traced first: it sees the RSS rises
        records.append(_run_op(case, tracer if traced else None))
        # setup probes between operations sample the host at several moments
        if probes_left:
            setup.append(measure_setup(name, seed, smoke))
            probes_left -= 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in records)
        if len(records) >= MIN_OPS and elapsed + typical > seconds:
            break
    setup.extend(measure_setup(name, seed, smoke) for _ in range(probes_left))
    _judge(case, records)

    failed = sum(not r["ok"] for r in records)
    # every repeat is bit-identical, so the first error stands for the run
    rel_error = next((r["rel_error"] for r in records if r["rel_error"] is not None), None)
    summary = {"workload": name, "seed": seed, "smoke": smoke, "records": records,
               "rel_error": rel_error, "failed_ops": failed / len(records)}
    if trace:
        metrics = _layer_metrics(case, records, rel_error)
    else:
        metrics = {
            "op_s": {"value": statistics.median(r["wall_s"] for r in records), "unit": "s"},
            "peak_rss_mb": {"value": _maxrss_mb(), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    return result, summary


def _layer_metrics(case, records: list[dict], rel_error: float | None) -> dict:
    """Per-layer metrics from the traced operations of one run."""
    import layertrace

    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    # one traced operation supplies every span, so the times add up exactly
    rep = traced[_lower_median([r["wall_s"] for r in traced])]
    first = traced[0]  # the high-water mark only rises in the first operation

    def m(value, unit):
        return {"value": value, "unit": unit}

    out = {f"{label}_s": m(rep["self_s"].get(label, 0.0), "s") for label in layertrace.SPAN_LABELS}
    out.update({key: m(rep["counts"].get(key, 0), unit) for key, unit in layertrace.COUNTS.items()})
    out.update({f"{layer}.rss_rise_mb": m(first["rss_rise_kb"].get(layer, 0) / 1024.0, "MB")
                for layer in layertrace.RSS_LAYERS})
    attributed = sum(rep["self_s"].values())
    traced_op = statistics.median(r["wall_s"] for r in traced)
    untraced_op = statistics.median(r["wall_s"] for r in untraced) if untraced else traced_op
    out["solver.bytes_per_path_step"] = m(_maxrss_mb() * 2**20 / (case.n_paths * (case.n_steps + 1)), "B")
    out["process.cpu_s"] = m(statistics.median(r["cpu_s"] for r in (untraced or traced)), "s")
    out["trace.op_s"] = m(rep["wall_s"], "s")
    out["trace.unattributed_s"] = m(rep["wall_s"] - attributed, "s")
    out["trace.overhead_s"] = m(traced_op - untraced_op, "s")
    out["solver.rel_error"] = m(rel_error, "1")
    return out


# ---------------------------------------------------------------------------
# output


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def _percentile_line(walls: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(walls)
    if n < 11:
        return f"(median of {n}; too few operations for a tail percentile)"
    return f"(median of {n}; p{100 * (n - 10) // n} {sorted(walls)[n - 11]:.6g} s)"


def print_report(result: dict, summary: dict, facts: dict) -> None:
    print("machine " + json.dumps(facts, sort_keys=True))
    for i, rec in enumerate(summary["records"], 1):
        status = "ok" if rec["ok"] else f"FAILED {rec['error'] or 'check'}"
        print(f"op {i} traced={int(rec['traced'])} wall_s={rec['wall_s']:.6g} cpu_s={rec['cpu_s']:.6g} "
              f"rel_error={_fmt(rec['rel_error'])} {status}")
        if rec.get("missing"):
            print(f"warning: trace points not found: {', '.join(rec['missing'])}")
    metrics = result["metrics"]
    line = [f"{summary['workload']} seed={summary['seed']}{' smoke' if summary['smoke'] else ''}:"]
    if "op_s" in metrics:
        walls = [r["wall_s"] for r in summary["records"] if not r["traced"]]
        line.append(f"op_s {_fmt(metrics['op_s']['value'])} s {_percentile_line(walls)};")
        line.append(f"peak_rss_mb {_fmt(metrics['peak_rss_mb']['value'])} MB;")
        line.append(f"setup_s {_fmt(metrics['setup_s']['value'])} s;")
    line.append(f"rel_error {_fmt(summary['rel_error'])} 1;")
    line.append(f"failed_ops {result['failed']}/{result['attempted']} = {_fmt(summary['failed_ops'])} share")
    print(" ".join(line))
    if "trace.op_s" in metrics:
        for key, val in metrics.items():
            print(f"  {key:28s} {_fmt(val['value'])} {val['unit']}")


def run_all(seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """Every workload in its own process, so one peak cannot hide another."""
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        if smoke:
            cmd.append("--smoke")
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(out.stdout)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        lines = out.stdout.strip().splitlines()
        rows[name] = {"result": json.loads(lines[-1]),
                      "summary": json.loads(next(ln for ln in lines if ln.startswith("summary "))[8:])}
    if not trace:
        print(f"\n{'workload':18s} {'op_s [s]':>10s} {'peak_rss_mb [MB]':>17s} {'setup_s [s]':>12s} "
              f"{'rel_error [1]':>14s} {'failed_ops [share]':>19s}")
        for name, row in rows.items():
            m = row["result"]["metrics"]
            print(f"{name:18s} {m['op_s']['value']:10.4g} {m['peak_rss_mb']['value']:17.5g} "
                  f"{m['setup_s']['value']:12.4g} {_fmt(row['summary']['rel_error']):>14s} "
                  f"{row['summary']['failed_ops']:19.4g}")
    print(json.dumps({name: row["result"] for name, row in rows.items()}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOADS)
    target.add_argument("--all", action="store_true", help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small-scale workloads, a few seconds each")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed, args.smoke)))
        return 0
    _import_library()
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace), args.smoke)
    result, summary = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print_report(result, summary, machine_facts(args.seed))
    print("summary " + json.dumps({k: summary[k] for k in ("workload", "seed", "rel_error", "failed_ops")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
