import numpy as np
import pytest

from pathpde.funcalc import (
    CylindricalIto,
    FunctionalSpec,
    PresentFunctional,
    horizontal_derivative,
    ito_residual,
    vertical_derivative,
)
from pathpde.paths import Grid, Path
from pathpde.sde import NoiseBundle, SdeSpec, euler_markov
from pathpde.smoothing import CylindricalFunctional, Integrand


def _brownian_paths(n_paths, n_steps, seed=5):
    g = Grid(0.0, 1.0, n_steps)
    nb = NoiseBundle(seed, n_paths, n_steps)
    return g, euler_markov(SdeSpec(0.0, 1.0), 0.0, g, nb.increments(g.dt)).values


def _cyl_example():
    ig1 = Integrand(
        phi=lambda u: np.asarray(u, dtype=float),
        dphi=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        d2phi=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
    )
    ig2 = Integrand(
        phi=np.cos,
        dphi=lambda u: -np.sin(np.asarray(u, dtype=float)),
        d2phi=lambda u: -np.cos(np.asarray(u, dtype=float)),
    )
    return CylindricalFunctional(
        base=lambda t, F: t * F[:, 0] + 0.5 * F[:, 0] * F[:, 1],
        integrands=(ig1, ig2),
        base_t=lambda t, F: F[:, 0],
        base_grad=lambda t, F: np.stack([t + 0.5 * F[:, 1], 0.5 * F[:, 0]], axis=1),
        base_hess=lambda t, F: np.broadcast_to(np.array([[0.0, 0.5], [0.5, 0.0]]), (F.shape[0], 2, 2)),
    )


# ---------------------------------------------------------------------------
# horizontal derivative


def test_horizontal_vanishes_for_present_only_functionals():
    u = lambda t, p: float(np.cos(p.values[-1]))
    eta = Path.from_function(lambda x: np.sin(5 * x), 1.0, 501)
    assert horizontal_derivative(u, 0.3, eta, eps=1e-2) == 0.0


def test_horizontal_of_lebesgue_integral_on_linear_path():
    # shifting the past of eta(x) = x trades mass at the right for left fill:
    # the limit is eta(0) - eta(-T) = 1
    u = lambda t, p: float(np.trapezoid(p.values, p.nodes))
    eta = Path.from_function(lambda x: x, 1.0, 4001)
    got = horizontal_derivative(u, 0.0, eta, eps=1e-3)
    assert got == pytest.approx(1.0, abs=5e-3)


def test_horizontal_cylindrical_matches_closed_form():
    cyl = _cyl_example()
    u = lambda t, p: cyl.value(t, p)
    rng = np.random.default_rng(8)
    t = 0.7
    for _ in range(5):
        c = rng.normal(0.0, 0.4, 4)
        eta = Path.from_function(
            lambda x: c[0] + c[1] * x + c[2] * x * x + c[3] * np.sin(3 * x), 1.0, 16_001
        )
        fd = horizontal_derivative(u, t, eta, eps=1e-4)
        exact = cyl.horizontal(t, eta)
        assert fd == pytest.approx(exact, abs=1e-3)


def test_horizontal_step_defaults_to_the_node_spacing():
    u = lambda t, p: float(np.trapezoid(p.values, p.nodes))
    eta = Path.from_function(lambda x: x * x, 1.0, 101)
    assert horizontal_derivative(u, 0.0, eta) == horizontal_derivative(u, 0.0, eta, eps=0.01)


def test_horizontal_warns_below_grid_resolution():
    u = lambda t, p: float(np.trapezoid(p.values, p.nodes))
    eta = Path.from_function(lambda x: x * x, 1.0, 101)
    with pytest.warns(UserWarning, match="node spacing"):
        horizontal_derivative(u, 0.0, eta, eps=1e-6)


# ---------------------------------------------------------------------------
# vertical derivatives


def test_vertical_exact_for_quadratic_present():
    u = lambda t, p: float(p.values[-1] ** 2)
    eta = Path.constant(1.5, 1.0)
    assert vertical_derivative(u, 0.0, eta, order=1) == pytest.approx(3.0, abs=1e-9)
    assert vertical_derivative(u, 0.0, eta, order=2) == pytest.approx(2.0, abs=1e-5)


def test_vertical_of_lebesgue_integral_is_node_weight():
    # the present bump touches one node, whose trapezoid weight is dx/2
    eta = Path.from_function(lambda x: np.cos(x), 1.0, 101)
    u = lambda t, p: float(np.trapezoid(p.values, p.nodes))
    dx = 1.0 / 100
    got = vertical_derivative(u, 0.0, eta, order=1)
    assert abs(got) <= dx / 2 + 1e-12


def test_vertical_product_rule_with_node_weight():
    eta = Path.from_function(lambda x: np.exp(x), 1.0, 201)
    integral = float(np.trapezoid(eta.values, eta.nodes))
    u = lambda t, p: float(p.values[-1] * np.trapezoid(p.values, p.nodes))
    dx = 1.0 / 200
    got = vertical_derivative(u, 0.0, eta, order=1)
    assert got == pytest.approx(integral, abs=eta.values[-1] * dx)


def test_vertical_rejects_bad_order():
    with pytest.raises(ValueError):
        vertical_derivative(lambda t, p: 0.0, 0.0, Path.constant(0.0, 1.0), order=3)


# ---------------------------------------------------------------------------
# Ito expansion checker


def test_ito_identity_functional_exact_zero():
    ident = PresentFunctional(
        lambda t, x: x,
        lambda t, x: np.zeros_like(x),
        lambda t, x: np.ones_like(x),
        lambda t, x: np.zeros_like(x),
    )
    for n_steps in (50, 500):
        g, paths = _brownian_paths(200, n_steps)
        mean_res, residuals = ito_residual(ident, paths, g, sigma=1.0)
        assert mean_res == 0.0
        assert np.all(residuals == 0.0)


def test_ito_quadratic_rate():
    quad = PresentFunctional(
        lambda t, x: x * x,
        lambda t, x: np.zeros_like(x),
        lambda t, x: 2.0 * x,
        lambda t, x: np.full_like(x, 2.0),
    )
    res = []
    for n_steps in (100, 1000, 10_000):
        g, paths = _brownian_paths(1000, n_steps)
        res.append(ito_residual(quad, paths, g, sigma=1.0)[0])
    slope = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(res), 1)[0]
    assert slope >= 0.4
    assert res[0] > res[1] > res[2]


def test_ito_cylindrical_rate_and_level():
    spec = CylindricalIto(_cyl_example())
    res = []
    for n_steps in (100, 1000, 10_000):
        g, paths = _brownian_paths(1000, n_steps)
        res.append(ito_residual(spec, paths, g, sigma=1.0)[0])
    assert res[0] > res[1] > res[2]
    assert res[-1] <= 1e-2


def test_ito_requires_derivative_callables():
    broken = FunctionalSpec(value=lambda t, x, s: x, ah=None, dv=None, dvv=None)
    g, paths = _brownian_paths(10, 10)
    with pytest.raises(ValueError, match="callable"):
        ito_residual(broken, paths, g)


def test_ito_steps_the_state_its_tracker_starts():
    # a cylindrical functional's state is its own FeatureTracker, started at the grid start
    cyl = _cyl_example()
    assert CylindricalIto(cyl).tracker == cyl.tracker
    starts, steps = [], []

    class Counter:
        def advance(self, u0, x0, u1, x1):
            steps.append((u0, u1))

    def tracker(x0, t0):
        starts.append((x0.copy(), t0))
        return Counter()

    spec = FunctionalSpec(value=lambda t, x, st: x, ah=lambda t, x, st: np.zeros_like(x),
                          dv=lambda t, x, st: np.ones_like(x), dvv=lambda t, x, st: np.zeros_like(x), tracker=tracker)
    g, paths = _brownian_paths(20, 8)
    assert ito_residual(spec, paths, g)[0] == 0.0
    assert len(starts) == 1 and np.array_equal(starts[0][0], paths[:, 0]) and starts[0][1] == 0.0
    assert steps == list(zip(g.times[:-1], g.times[1:]))


def _later_grid_residual():
    g = Grid(0.5, 1.0, 10)
    paths = euler_markov(SdeSpec(0.0, 1.0), 0.0, g, NoiseBundle(7, 5, 10).increments(g.dt)).values
    return ito_residual(CylindricalIto(_cyl_example()), paths, g)


_FUNCALC_INPUT_CHECKS = {
    "a zero horizontal step": (lambda: horizontal_derivative(lambda t, e: 0.0, 0.5, Path.constant(0.0, 1.0, 11), 0.0),
                               "eps must be positive"),
    "a negative vertical step": (lambda: vertical_derivative(lambda t, e: 0.0, 0.5, Path.constant(0.0, 1.0, 11), -1e-3),
                                 "eps must be positive"),
    "paths off the grid": (lambda: ito_residual(PresentFunctional(*[lambda t, x: x] * 4), np.zeros((3, 6)),
                                                Grid(0.0, 1.0, 4)),
                           "paths and grid disagree on the number of steps"),
    "a cylindrical start after 0": (_later_grid_residual, "a start time t0 > 0 requires the history path"),
}


@pytest.mark.parametrize("case", list(_FUNCALC_INPUT_CHECKS))
def test_input_checks_raise_value_errors(case):
    call, message = _FUNCALC_INPUT_CHECKS[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_ito_state_dependent_diffusion():
    # dX = 0.5 X dW: for U = x^2 the bracket term must use sigma(x)^2
    g = Grid(0.0, 1.0, 2000)
    nb = NoiseBundle(6, 500, 2000)
    sigma = lambda t, x: 0.5 * x
    traj = euler_markov(SdeSpec(0.0, sigma), 1.0, g, nb.increments(g.dt))
    quad = PresentFunctional(
        lambda t, x: x * x,
        lambda t, x: np.zeros_like(x),
        lambda t, x: 2.0 * x,
        lambda t, x: np.full_like(x, 2.0),
    )
    mean_res, _ = ito_residual(quad, traj.values, g, sigma=sigma)
    assert mean_res <= 5e-2
