"""Probabilistic solvers for semilinear parabolic and path-dependent PDEs.

The library evaluates solutions of terminal-value PDE problems through
their backward-SDE representation: forward Monte Carlo simulation of the
state, regression-based backward induction for the value and gradient
processes, and a smoothing pipeline that approximates rough data by
sequences of regular problems whose values converge to the target.
"""

__version__ = "0.1.0"

from .paths import Grid, Path, WindowBatch  # noqa: F401
