"""Outside-in layer trace of one operation.

Spans are recorded around calls into the library's layers (``sde``,
``smoothing``, ``bsde``, ``solver``) by wrappers installed on classes and
modules for the duration of one traced operation and removed afterwards.
Nothing is attached to instances, so no library object holds a wrapper and
no wrapper holds an array: a traced run keeps the untraced memory profile.

A span's self time is its duration minus the durations of the spans nested
inside it; the self times of all spans plus the time outside every span add
up to the operation's wall time.  Each span also records how far the
process high-water mark (``ru_maxrss``) rose while it was open, minus the
rise inside nested spans, summed per layer.
"""

from __future__ import annotations

import resource
import time
from collections import defaultdict
from typing import Callable

# span labels, reported as "<label>_s"; the layer is the part before the dot
SPAN_LABELS = (
    "sde.noise",
    "sde.euler",
    "sde.window",
    "smoothing.terminal",
    "bsde.features",
    "bsde.design",
    "bsde.state",
    "bsde.solve",
    "solver.bridge",
    "solver.self",
)
RSS_LAYERS = ("sde", "bsde", "solver")
COUNTS = {"sde.path_steps": "count", "bsde.regressions": "count", "bsde.design_bytes": "B"}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class LayerTrace:
    """Span recorder; ``install`` before a traced operation, ``uninstall`` after."""

    def __init__(self) -> None:
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.rss_rise_kb: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [label, start, nested_s, maxrss_at_start, nested_rise]

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        from pathpde import bsde, sde, solver

        self.missing = []
        points = [
            (sde.NoiseBundle, "uniforms", "sde.noise", None),
            (sde.NoiseBundle, "normals", "sde.noise", None),
            (sde.NoiseBundle, "increments", "sde.noise", None),
            (solver, "euler_markov", "sde.euler", _count_path_steps),
            (solver, "euler_path_dependent", "sde.euler", _count_path_steps),
            (sde.TrajectoryBatch, "window_values", "sde.window", None),
            (getattr(solver, "_LinearTerminalSmoother", None), "evaluate_batch", "smoothing.terminal", None),
            (solver, "make_features", "bsde.features", _wrap_provider),
            (solver, "solve_bsde", "bsde.solve", None),
            (getattr(bsde, "_Factor", None), "fit", None, _count_regression),
            (solver, "bridge_corrected_max", "solver.bridge", None),
            (solver, "evaluate_markov", "solver.self", None),
            (solver, "evaluate_ppde", "solver.self", None),
            (solver, "strong_viscosity_pipeline", "solver.self", None),
        ]
        for owner, name, label, hook in points:
            self.wrap(owner, name, label, hook)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def wrap(self, owner, name: str, label: str | None, hook: Callable | None) -> None:
        """Replace ``owner.name`` (a class or module attribute) by a recording wrapper."""
        if owner is None or name not in vars(owner):
            self.missing.append(f"{getattr(owner, '__name__', '?')}.{name}")
            return
        original = vars(owner)[name]
        if getattr(original, "_layer_trace", None) is self:
            return
        trace = self

        def wrapper(*args, **kwargs):
            if label is not None:
                trace._enter(label)
                try:
                    result = original(*args, **kwargs)
                finally:
                    trace._exit()
            else:
                result = original(*args, **kwargs)
            if hook is not None:
                hook(trace, result)
            return result

        wrapper._layer_trace = self
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapper)

    # -- spans --------------------------------------------------------------

    def _enter(self, label: str) -> None:
        self._stack.append([label, time.perf_counter(), 0.0, _maxrss_kb(), 0])

    def _exit(self) -> None:
        end = time.perf_counter()
        label, start, nested_s, rss0, nested_rise = self._stack.pop()
        duration = end - start
        rise = _maxrss_kb() - rss0
        self.self_s[label] += duration - nested_s
        self.rss_rise_kb[label.split(".")[0]] += rise - nested_rise
        if self._stack:
            self._stack[-1][2] += duration
            self._stack[-1][4] += rise


def _count_path_steps(trace: LayerTrace, traj) -> None:
    trace.counts["sde.path_steps"] += traj.values.shape[0] * (traj.values.shape[1] - 1)


def _count_regression(trace: LayerTrace, fitted) -> None:
    trace.counts["bsde.regressions"] += 1


def _count_design_bytes(trace: LayerTrace, design) -> None:
    trace.counts["bsde.design_bytes"] += design.nbytes


def _wrap_provider(trace: LayerTrace, provider) -> None:
    # the feature provider's class is known only once make_features returns
    cls = type(provider)
    trace.wrap(cls, "design_t", "bsde.design", _count_design_bytes)
    trace.wrap(cls, "state", "bsde.state", None)
