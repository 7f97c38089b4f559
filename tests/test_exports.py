"""Every exported name of the package resolves."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path as FsPath
from typing import Callable, Iterator

import pytest

import pathpde

MODULES = sorted(m.name for m in pkgutil.iter_modules(pathpde.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"pathpde.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(FsPath(pathpde.__file__).read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported  # the package re-exports its core types
    for module, name in imported:
        source = importlib.import_module(f"pathpde.{module}")
        assert hasattr(source, name), f"pathpde.{module} has no {name}"
        assert getattr(pathpde, name) is getattr(source, name)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_helpers_never_referenced(sources: list[str]) -> list[str]:
    """Private functions, methods, classes and module-level constants that no source names.

    Private means named ``_x``, dunders excluded.  A reference is a Name
    read anywhere in the sources, an Attribute or an
    imported alias; the definition itself (a def, a class or the module-level
    assignment) does not count.
    """
    defined, used = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            defined.update(t.id for t in targets if isinstance(t, ast.Name) and _private(t.id))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _private(node.name):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Store):
                    used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(defined - used)


def test_no_private_helper_is_dead():
    sources = [p.read_text() for p in sorted(FsPath(pathpde.__file__).parent.glob("*.py"))]
    assert _private_helpers_never_referenced(sources) == []


def test_dead_helper_guard_flags_an_unreferenced_helper():
    source = "def _used():\n    pass\n\n\ndef _dead():\n    pass\n\n\nx = _used()\n"
    assert _private_helpers_never_referenced([source]) == ["_dead"]
    source = ("class _Used:\n    pass\n\n\nclass _DeadClass:\n    pass\n\n\n"
              "_LIMIT = 2\n_DEAD: int = 3\nx = _Used(_LIMIT)\n")
    assert _private_helpers_never_referenced([source]) == ["_DEAD", "_DeadClass"]


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but neither references nor lists in ``__all__``.

    A reference is a Name anywhere in the module (``np.foo`` names ``np``);
    ``from __future__`` imports are not names.
    """
    imported, used = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_no_module_imports_an_unused_name():
    # the package __init__ is left out: its imports are the package's namespace
    modules = [p for p in sorted(FsPath(pathpde.__file__).parent.glob("*.py")) if p.name != "__init__.py"]
    unused = {p.name: _unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_unused_import_guard_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom typing import Callable, Sequence\n"
        "from .paths import Grid, Path\n\n"
        "__all__ = ['Path']\n\n\ndef f(x: Callable) -> float:\n    return np.sum(x) + os.path.sep\n"
    )
    assert _unused_imports(source) == ["Grid", "Sequence"]


# Each private name that one module imports from another, with why it crosses.
PRIVATE_CROSSINGS = {
    ("cli", "sde", "_usable_cores"): "the --threads default is the noise layer's core count",
    ("solver", "bsde", "_check_basis_size"): "the basis-size guard runs before any noise is drawn",
    ("solver", "bsde", "_zero_driver_value"): "one traced regression per zero-driver evaluation (ROADMAP item 4)",
    ("solver", "sde", "_lanes"): "a forward pass, the lanes' one caller, deals them its blocks, whatever the driver",
    ("solver", "sde", "_trajectories"): "the pass of all paths views its step-major buffer as the Euler schemes do",
    ("solver", "sde", "_usable_cores"): "SolverConfig.workers defaults to the noise layer's core count",
    ("solver", "smoothing", "_convolve"): "mollified state coefficients use the one convolution evaluator",
    ("solver", "smoothing", "_mollifier_rule"): "mollified coefficients and drivers use the one quadrature rule",
}


def _private_imports(sources: dict[str, str]) -> set[tuple[str, str, str]]:
    """(importer, module, name) for each private name a module imports from a sibling."""
    found = set()
    for importer, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found.update((importer, node.module, alias.name) for alias in node.names if _private(alias.name))
    return found


def test_private_names_cross_modules_only_where_listed():
    sources = {p.stem: p.read_text() for p in sorted(FsPath(pathpde.__file__).parent.glob("*.py"))}
    assert _private_imports(sources) == set(PRIVATE_CROSSINGS)


def test_private_import_guard_flags_a_crossing():
    sources = {"solver": "from .sde import NoiseBundle, _generator\nfrom . import __version__\n",
               "cli": "from .solver import evaluate_markov\n"}
    assert _private_imports(sources) == {("solver", "sde", "_generator")}


def _scopes(source: str) -> Iterator[tuple[str | None, ast.AST]]:
    """Each top-level statement with its name (None if it has none), a class's members as Class.member."""
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                yield ".".join(filter(None, (top.name, getattr(node, "name", None)))), node
        else:
            yield getattr(top, "name", None), top


def _call_sites(sources: dict[str, str], matches: Callable[[ast.expr], bool]) -> list[tuple[str, str | None]]:
    """(module, scope) of each call whose callee ``matches``, scopes as ``_scopes`` names them."""
    return [(module, scope) for module, source in sources.items() for scope, top in _scopes(source)
            for node in ast.walk(top) if isinstance(node, ast.Call) and matches(node.func)]


def _named(name: str) -> Callable[[ast.expr], bool]:
    """A callee called ``name``, plain or as an attribute."""
    return lambda func: name in (getattr(func, "id", None), getattr(func, "attr", None))


def test_the_forward_pass_is_the_one_caller_of_the_lanes():
    # one parallel axis: the noise, the bridge maximum and the experiments run on their caller's thread
    sources = {p.stem: p.read_text() for p in sorted(FsPath(pathpde.__file__).parent.glob("*.py"))}
    assert _call_sites(sources, _named("_lanes")) == [("solver", "_terminal_samples")]
    source = "def f():\n    g(_lanes(1))\n\nx = sde._lanes(2)\n"
    assert _call_sites({"m": source}, _named("_lanes")) == [("m", "f"), ("m", None)]


def test_the_driver_and_a_step_s_state_are_read_by_the_induction_and_the_compensator_alone():
    # one backward walk per solve: the standard error's companion is summed inside the induction
    sources = {p.stem: p.read_text() for p in sorted(FsPath(pathpde.__file__).parent.glob("*.py"))}
    for callee in ("driver", "state"):
        assert _call_sites(sources, _named(callee)) == [("bsde", "solve_bsde"), ("bsde", "extract_compensator")]


def test_the_unit_gauss_legendre_rule_is_solved_in_one_place():
    # leggauss solves a dense eigenproblem: every rule is an affine copy of the one solved per node count
    sources = {p.stem: p.read_text() for p in sorted(FsPath(pathpde.__file__).parent.glob("*.py"))}
    assert _call_sites(sources, _named("leggauss")) == [("smoothing", "_unit_gauss_legendre")]


def test_each_draw_method_is_called_in_one_place():
    # one writer draws every noise block, normals or uniforms, and writes its step rows
    sources = {p.stem: p.read_text() for p in sorted(FsPath(pathpde.__file__).parent.glob("*.py"))}
    for draw in ("standard_normal", "random"):
        assert _call_sites(sources, _named(draw)) == [("sde", "NoiseBundle._rows")]


def _numpy_random(func: ast.expr) -> bool:
    """A callee in numpy's random module, spelled np.random.X or numpy.random.X."""
    return ast.unparse(func).startswith(("np.random.", "numpy.random."))


def _imports_numpy_random(node: ast.AST) -> bool:
    """An import that would let a module call numpy's random module under another spelling."""
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("numpy.random") or module == "numpy" and any(a.name == "random" for a in node.names)
    return isinstance(node, ast.Import) and any(a.name.startswith("numpy.random") for a in node.names)


# Each place that calls into numpy's random module, with why.  A simulation's
# noise has one source, a noise block's stream; the experiments' own random
# inputs in cli are the exemptions.
RANDOM_SITES = {
    ("sde", "NoiseBundle._generator"): "block j's SFC64 stream, seeded by SeedSequence(key, spawn_key=(j,))",
    ("cli", "run_ppde_lookback"): "an experiment input: the random-walk histories of the terminal check",
    ("cli", "run_fejer_sweep"): "an experiment input: the rough paths of the contraction check",
}


def test_the_noise_block_is_the_one_place_that_builds_a_bit_generator():
    sources = {p.stem: p.read_text() for p in sorted(FsPath(pathpde.__file__).parent.glob("*.py"))}
    assert set(_call_sites(sources, _numpy_random)) == set(RANDOM_SITES)
    # every use is spelled np.random.X, so the calls above are all of them
    assert not [node for source in sources.values() for node in ast.walk(ast.parse(source))
                if _imports_numpy_random(node)]
    imports = ("from numpy import random", "from numpy.random import SFC64", "import numpy.random", "import numpy")
    assert [_imports_numpy_random(ast.parse(line).body[0]) for line in imports] == [True, True, True, False]
    source = ("class B:\n    def g(self):\n        return np.random.Generator(np.random.PCG64(1))\n\n"
              "def f():\n    return np.random.default_rng(2)\n\nx = numpy.random.SFC64(3)\n")
    assert _call_sites({"m": source}, _numpy_random) == [("m", "B.g"), ("m", "B.g"), ("m", "f"), ("m", None)]


_NUMPY_ALONE = """
import importlib, importlib.abc, pkgutil, sys


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"{name} is refused", name=name)
        return None


sys.meta_path.insert(0, RefuseScipy())
sys.path.insert(0, sys.argv[1])
import numpy as np
import pathpde
for module in pkgutil.iter_modules(pathpde.__path__):
    importlib.import_module(f"pathpde.{module.name}")
from pathpde.paths import Path
from pathpde.solver import lookback_oracle

history = Path.from_function(lambda x: np.clip(-4.0 * (x + 0.25), 0.0, 1.0), 2.0, 1601)
print(repr(float(lookback_oracle(1.0, history, 2.0))))
assert "scipy" not in sys.modules
"""


def test_numpy_is_the_one_runtime_dependency():
    # a fresh interpreter that refuses scipy imports every module, cli
    # included, and evaluates the oracle at a positive gap (one, with tau 1)
    src = str(FsPath(pathpde.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run([sys.executable, "-c", _NUMPY_ALONE, src], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) == pytest.approx(1.1666309411753726, abs=1e-14)
