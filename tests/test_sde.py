import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathpde.paths import Grid, Path, WindowBatch
from pathpde.sde import (
    DivergenceError,
    NoiseBundle,
    SdeSpec,
    bridge_corrected_max,
    bridge_refine,
    coupled_sup_error,
    euler_markov,
    euler_path_dependent,
    moment_check,
    trajectories_from_binary,
    trajectories_to_binary,
    trajectories_to_csv,
    value_buffer_size,
)
from pathpde.smoothing import CylindricalFunctional, Integrand, mollify

# frozen oracle: 1e7-path run of E[sup_{[0,1]} |W|^2] on the same 256-step grid
SUP_W_SQUARED_256 = 1.7430748122161719

ZERO = lambda t, x: np.zeros_like(x)
ONE = lambda t, x: np.ones_like(x)


def test_noise_block_regeneration_bit_identical():
    nb = NoiseBundle(seed=42, n_paths=1000, n_steps=37, d=2)
    full = nb.uniforms()
    parts = np.concatenate([nb.uniforms(0, 1), nb.uniforms(1, 450), nb.uniforms(450, 1000)])
    np.testing.assert_array_equal(full, parts)


@st.composite
def _bundles_and_cuts(draw):
    n_paths = draw(st.integers(1, 300))
    bundle = NoiseBundle(
        seed=draw(st.integers(0, 2**64 - 1)),
        n_paths=n_paths,
        n_steps=draw(st.integers(1, 40)),
        d=draw(st.integers(1, 3)),
        tag=draw(st.integers(0, 2**64 - 1)),
    )
    inner = draw(st.lists(st.integers(1, n_paths - 1), max_size=6)) if n_paths > 1 else []
    return bundle, [0, *sorted(set(inner)), n_paths]


@settings(max_examples=80, deadline=None)
@given(_bundles_and_cuts())
def test_property_noise_blocks_concatenate_to_the_one_call_arrays(case):
    # one stream per 256-path block: a path block's draws do not depend on
    # where the blocks are cut, whether a cut falls inside a noise block or
    # on its edge, nor on the word count n_steps * d of a path
    nb, cuts = case
    blocks = list(zip(cuts[:-1], cuts[1:]))
    dt = 0.05
    assert np.array_equal(np.concatenate([nb.uniforms(a, b) for a, b in blocks]), nb.uniforms())
    assert np.array_equal(np.concatenate([nb.increments(dt, a, b) for a, b in blocks]), nb.increments(dt))


def test_noise_mean_within_bound():
    nb = NoiseBundle(seed=7, n_paths=2000, n_steps=50)
    z = nb.increments(1.0 / 50)
    bound = 4.0 / np.sqrt(z.size) * np.sqrt(1.0 / 50)
    assert abs(z.mean()) <= bound


def test_noise_child_streams_differ():
    nb = NoiseBundle(seed=7, n_paths=10, n_steps=8)
    child = nb.child(1)
    assert not np.allclose(nb.uniforms(), child.uniforms())
    with pytest.raises(ValueError):
        nb.child(0)


def test_noise_keys_are_injective_in_seed_tag_and_block():
    # (seed 2^32 + 5, tag 1) and (seed 5, tag 2^32 + 1) flatten to the same 32-bit words as a tuple of
    # entropy; as one 128-bit key, spawned per block, they draw different streams on every block
    words = [np.random.SeedSequence(entropy).generate_state(4) for entropy in ((2**32 + 5, 1, 0), (5, 2**32 + 1, 0))]
    assert np.array_equal(*words)
    blocks = [slice(0, 256), slice(256, 512), slice(512, 700)]
    a = NoiseBundle(2**32 + 5, 700, 6, d=2, tag=1).uniforms()
    b = NoiseBundle(5, 700, 6, d=2, tag=2**32 + 1).uniforms()
    parent = NoiseBundle(5, 700, 6, d=2)
    p, c = parent.uniforms(), parent.child(1).uniforms()
    for j, block in enumerate(blocks):
        assert np.intersect1d(a[block], b[block]).size == 0
        assert np.intersect1d(p[block], c[block]).size == 0
        if j + 1 < len(blocks):  # neighbouring blocks of one bundle share no value
            assert np.intersect1d(p[block], p[blocks[j + 1]]).size == 0


def test_euler_zero_coefficients_constant():
    g = Grid(0.0, 1.0, 50)
    nb = NoiseBundle(1, 200, 50)
    traj = euler_markov(SdeSpec(0.0, 0.0), 1.5, g, nb.increments(g.dt))
    assert np.all(traj.values == 1.5)


def test_euler_brownian_terminal_variance():
    g = Grid(0.0, 1.0, 100)
    n_paths = 100_000
    nb = NoiseBundle(3, n_paths, 100)
    traj = euler_markov(SdeSpec(0.0, 1.0), 0.0, g, nb.increments(g.dt))
    xT = traj.terminal()
    var = xT.var(ddof=1)
    # chi-square spread of the sample variance: se = var * sqrt(2/(n-1))
    assert abs(var - 1.0) <= 3.0 * np.sqrt(2.0 / (n_paths - 1))
    assert abs(xT.mean()) <= 3.0 / np.sqrt(n_paths)
    assert abs((xT**2).mean() - 1.0) <= 3.0 * (xT**2).std(ddof=1) / np.sqrt(n_paths)


def test_euler_constant_drift_exact():
    g = Grid(0.5, 1.5, 64)
    nb = NoiseBundle(5, 100, 64)
    traj = euler_markov(SdeSpec(1.0, 0.0), 2.0, g, nb.increments(g.dt))
    np.testing.assert_allclose(traj.terminal(), 3.0, atol=1e-12)


def test_euler_vector_state_martingale():
    g = Grid(0.0, 1.0, 50)
    nb = NoiseBundle(11, 20_000, 50, d=2)
    traj = euler_markov(SdeSpec(lambda t, x: np.zeros_like(x), lambda t, x: np.ones_like(x)),
                        np.array([1.0, -1.0]), g, nb.increments(g.dt))
    means = traj.terminal().mean(axis=0)
    assert np.all(np.abs(means - [1.0, -1.0]) <= 3.0 / np.sqrt(20_000))


def test_euler_divergence_guard():
    g = Grid(0.0, 1.0, 20)
    nb = NoiseBundle(5, 10, 20)
    with pytest.raises(DivergenceError, match="path"):
        euler_markov(SdeSpec(lambda t, x: x * 1e13, 0.0), 1.0, g, nb.increments(g.dt))


@pytest.mark.parametrize("d", [1, 2])
def test_divergence_names_the_path_among_all_increments(d):
    # 4000 paths are 16 blocks of the noise; path 3500 lies in block 13, its last component diverges
    g = Grid(0.0, 1.0, 20)
    dW = NoiseBundle(5, 4000, 20, d=d).increments(g.dt)
    dW[3500, 3, d - 1] = np.inf
    with pytest.raises(DivergenceError, match="path 3500, step 4$"):
        euler_markov(SdeSpec(0.0, 1.0), np.zeros(d) if d > 1 else 0.0, g, dW)
    if d == 1:
        with pytest.raises(DivergenceError, match="path 3500, step 4$"):
            euler_path_dependent(SdeSpec(0.0, 1.0), Path.constant(0.0, 1.0, 21), g, dW)


@pytest.mark.parametrize("sigma", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("b", [0.0, 1.0, 0.3])
def test_constant_coefficients_step_as_their_callables(b, sigma):
    # constants take one add per step and one guard per block; callables the per-step recursion
    g = Grid(0.0, 1.0, 30)
    as_callables = SdeSpec(lambda t, x: b + 0 * x, lambda t, x: sigma + 0 * x)
    for x0, d in ((0.4, 1), (np.array([0.4, -1.0]), 2)):
        dW = NoiseBundle(60, 700, 30, d=d).increments(g.dt)
        got = euler_markov(SdeSpec(b, sigma), x0, g, dW).values
        assert np.array_equal(got, euler_markov(as_callables, x0, g, dW).values)
    # a path-dependent pass whose increments are the value buffer's own rows
    eta = Path.from_function(lambda x: 0.4 + 0.1 * np.sin(5.0 * x), 1.0, 31)
    buf = np.empty((31, 1, 700))
    dW = NoiseBundle(61, 700, 30).increments(g.dt, out=buf[1:])
    window = SdeSpec(lambda t, wb: b + 0 * wb.values[:, -1], lambda t, wb: sigma + 0 * wb.values[:, -1])
    ref = euler_path_dependent(window, eta, g, NoiseBundle(61, 700, 30).increments(g.dt)).values
    assert np.array_equal(euler_path_dependent(SdeSpec(b, sigma), eta, g, dW, out=buf).values, ref)


def test_a_signed_zero_start_steps_as_the_general_recursion():
    # X_0 + 0.0 turns x0 = -0.0 into +0.0, so the start row keeps -0.0 and no later row holds it
    g = Grid(0.0, 1.0, 12)
    for d in (1, 2):
        x0 = np.full(d, -0.0) if d > 1 else -0.0
        dW = NoiseBundle(62, 80, 12, d=d).increments(g.dt)
        for sigma in (0.0, 1.0):
            const = euler_markov(SdeSpec(0.0, sigma), x0, g, dW).values
            calls = euler_markov(SdeSpec(lambda t, x: 0.0 + 0 * x, lambda t, x: sigma + 0 * x), x0, g, dW).values
            assert np.array_equal(np.signbit(const), np.signbit(calls)) and np.array_equal(const, calls)
            assert np.all(np.signbit(const[:, 0])) and not np.any(np.signbit(const[:, 1:]) & (const[:, 1:] == 0))
            assert sigma != 0.0 or np.all(const == 0.0)


@pytest.mark.parametrize("x0, sigma", [(1e12 - 1.6, 1.0), (0.0, 1e300), (0.5, np.inf)])
def test_a_diverging_constant_block_names_the_path_of_the_per_step_guard(x0, sigma):
    # the block guard scans its rows only on failure; the overflow past the bad step is silent
    g = Grid(0.0, 1.0, 10)
    dW = NoiseBundle(41, 3000, 10).increments(g.dt)
    with pytest.raises(DivergenceError) as ref:
        euler_markov(SdeSpec(lambda t, x: 0.0 * x, lambda t, x: sigma + 0 * x), x0, g, dW)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as got:
            euler_markov(SdeSpec(0.0, sigma), x0, g, dW)
    assert (got.value.path, got.value.step) == (ref.value.path, ref.value.step)


def _cuts(n_paths, parts):
    """``parts`` ranges covering n_paths paths, cut inside the 256-path noise blocks."""
    cuts = np.linspace(0, n_paths, parts + 1).astype(int)
    return list(zip(cuts[:-1], cuts[1:]))


def _increments_in_ranges(nb, dt, parts):
    """The increments as ``parts`` lanes of a forward pass draw them: each range into its own
    columns of one step-major buffer."""
    rows = np.empty((nb.n_steps, nb.d, nb.n_paths))
    for p0, p1 in _cuts(nb.n_paths, parts):
        nb.increments(dt, p0, p1, out=rows[:, :, p0:p1])
    return rows.transpose(2, 0, 1)


def _euler_in_ranges(euler, spec, start, g, dW, parts):
    """Values of the paths stepped range by range, as the lanes of a forward pass step them."""
    return np.concatenate([euler(spec, start, g, dW[p0:p1]).values for p0, p1 in _cuts(dW.shape[0], parts)])


def test_euler_determinism_across_workers():
    # 5000 paths are 20 blocks of the noise; a lane steps its own range of them
    g = Grid(0.0, 1.0, 60)
    dW = NoiseBundle(9, 5000, 60).increments(g.dt)
    spec = SdeSpec(lambda t, x: -0.5 * x, 1.0)
    ref = euler_markov(spec, 0.3, g, dW).values
    for parts in (2, 3):
        np.testing.assert_array_equal(_euler_in_ranges(euler_markov, spec, 0.3, g, dW, parts), ref)


def _block_draws(nb, draw, p0=0, p1=None):
    """The reference draws: block j of 256 paths draws its path-major values with the generator
    method ``draw`` (numpy's ziggurat normals, or uniforms) on SFC64, seeded by the bundle's
    128-bit key spawned at j."""
    blocks = []
    for j in range(-(-nb.n_paths // 256)):
        gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(nb.seed | nb.tag << 64, spawn_key=(j,))))
        blocks.append(getattr(gen, draw)((min(256, nb.n_paths - 256 * j), nb.n_steps, nb.d)))
    return np.concatenate(blocks)[p0:p1]


def _block_normal_increments(nb, dt, p0=0, p1=None):
    return np.sqrt(dt) * _block_draws(nb, "standard_normal", p0, p1)


def test_increments_uniforms_and_the_bridge_read_the_keyed_block_streams():
    # d = 2 and a nonzero tag; the ranges start and end inside blocks of 256
    nb = NoiseBundle(2**40 + 9, 2400, 30, d=2, tag=7)
    for p0, p1 in ((0, 2400), (17, 300), (1234, 2134), (255, 257)):
        assert np.array_equal(nb.increments(0.02, p0, p1), _block_normal_increments(nb, 0.02, p0, p1))
        assert np.array_equal(nb.uniforms(p0, p1), np.maximum(_block_draws(nb, "random", p0, p1), 2.0**-54))
    # the bridge maximum of paths 1234..2133, path-major, in the bridge's order of operations
    walk = 0.1 * _block_draws(nb, "standard_normal", 0, 900)[:, :, 1]
    values = np.hstack([np.zeros((900, 1)), np.cumsum(walk, axis=1)])
    u = np.maximum(_block_draws(nb, "random", 1234, 2134)[:, :, 0], 2.0**-54)
    lo, hi = values[:, :-1], values[:, 1:]
    want = (np.sqrt(np.log(u) * (-2.0 * 0.7**2 * 0.02) + (hi - lo) ** 2) + hi + lo).max(axis=1) * 0.5
    assert np.array_equal(bridge_corrected_max(values, 0.02, 0.7, nb, offset=1234), want)


@pytest.mark.parametrize("d", [1, 3])
def test_increments_equal_at_any_worker_count(d):
    # 24 blocks of 256 paths, the first cut by p0 = 17; each lane of a forward pass draws its own ranges
    nb = NoiseBundle(10, 6001, 45, d=d, tag=3)
    ref = nb.increments(0.02, 17, 6001)
    assert np.array_equal(ref, _block_normal_increments(nb, 0.02, 17, 6001))
    for parts in (2, 3, 8):
        assert np.array_equal(_increments_in_ranges(nb, 0.02, parts)[17:], ref)
    rows = np.empty((45, d, 5984))
    got = nb.increments(0.02, 17, 6001, out=rows)
    assert np.shares_memory(got, rows) and np.array_equal(got, ref)
    assert nb.increments(0.02, 9, 9).shape == (0, 45, d)


def test_each_noise_block_regenerates_and_any_range_is_a_slice_of_the_one_call_array():
    # 1300 paths are five blocks of 256 and a last one of 20; the ranges cut blocks at either end
    for draw in (lambda nb, *r: nb.increments(0.1, *r), lambda nb, *r: nb.uniforms(*r)):
        full = draw(NoiseBundle(12, 1300, 30, d=2, tag=5))
        for j in range(6):
            block = draw(NoiseBundle(12, 1300, 30, d=2, tag=5), 256 * j, min(256 * j + 256, 1300))
            assert np.array_equal(block, full[256 * j : 256 * j + 256])
        for p0, p1 in ((5, 1299), (255, 257), (256, 512), (700, 701), (1024, 1300), (1299, 1300)):
            assert np.array_equal(draw(NoiseBundle(12, 1300, 30, d=2, tag=5), p0, p1), full[p0:p1])
        assert not np.array_equal(full[:256], draw(NoiseBundle(12, 1300, 30, d=2, tag=6))[:256])


def test_increment_moments_and_block_independence():
    # 1000 x 200 normals over four blocks: moments within four standard errors of N(0, 1)
    nb = NoiseBundle(seed=13, n_paths=1000, n_steps=200)
    z = nb.increments(1.0).ravel()
    n = z.size
    assert abs(z.mean()) <= 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) <= 4.0 * np.sqrt(2.0 / n)
    assert abs((z**4).mean() / z.var() ** 2 - 3.0) <= 4.0 * np.sqrt(24.0 / n)
    # neighbouring paths, within and across blocks, are uncorrelated at every step
    steps = nb.increments(1.0)[:, :, 0]
    lag = (steps[1:] * steps[:-1]).mean()
    assert abs(lag) <= 4.0 / np.sqrt(steps[1:].size)
    across = np.corrcoef(steps[255], steps[256])[0, 1]  # last path of block 0, first of block 1
    assert abs(across) <= 4.0 / np.sqrt(200)
    # the uniforms, per block too: mean 1/2, variance 1/12, and no lag or cross-block correlation
    u = nb.uniforms()[:, :, 0]
    assert abs(u.mean() - 0.5) <= 4.0 * np.sqrt(1.0 / 12.0 / u.size)
    assert abs(u.var() - 1.0 / 12.0) <= 4.0 * np.sqrt(1.0 / 180.0 / u.size)  # Var((U - 1/2)^2) = 1/180
    c = u - 0.5
    assert abs((c[1:] * c[:-1]).mean() * 12.0) <= 4.0 / np.sqrt(c[1:].size)
    assert abs(np.corrcoef(u[255], u[256])[0, 1]) <= 4.0 / np.sqrt(200)


def test_euler_rejects_increments_that_do_not_fit():
    g = Grid(0.0, 1.0, 10)
    eta = Path.constant(0.0, 1.0, 11)
    wrong_steps = NoiseBundle(22, 50, 11).increments(g.dt)
    with pytest.raises(ValueError, match="do not match"):
        euler_markov(SdeSpec(0.0, 1.0), 0.0, g, wrong_steps)
    with pytest.raises(ValueError, match="do not match"):
        euler_path_dependent(SdeSpec(0.0, 1.0), eta, g, wrong_steps)
    with pytest.raises(ValueError, match="state dimension 2"):
        euler_markov(SdeSpec(0.0, 1.0), np.array([0.0, 1.0]), g, NoiseBundle(22, 50, 10).increments(g.dt))
    with pytest.raises(ValueError, match="scalar"):
        euler_path_dependent(SdeSpec(0.0, 1.0), eta, g, NoiseBundle(22, 50, 10, d=2).increments(g.dt))


def test_euler_takes_its_size_from_the_increments():
    g = Grid(0.0, 1.0, 10)
    dW = NoiseBundle(23, 7, 10, d=2).increments(g.dt)
    traj = euler_markov(SdeSpec(0.0, 1.0), np.array([0.5, -0.5]), g, dW)
    assert traj.values.shape == (7, 11, 2)
    np.testing.assert_allclose(traj.values[:, 1:] - traj.values[:, :-1], dW, rtol=0, atol=1e-12)


def test_path_dependent_zero_coefficients_extend_history():
    eta = Path.from_function(lambda x: np.cos(x), 1.0, 101)
    g = Grid(0.0, 1.0, 100)
    nb = NoiseBundle(4, 50, 100)
    traj = euler_path_dependent(SdeSpec(0.0, 0.0), eta, g, nb.increments(g.dt))
    assert np.all(traj.values == eta.values[-1])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 30), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
       st.floats(-3.0, 3.0), st.booleans(), st.integers(0, 5))
def test_path_dependent_degenerate_matches_markov_bitwise(n_paths, n_steps, b, sigma, x0, given_out, slack):
    # constant coefficients: both schemes run the one recursion on the same rows
    g = Grid(0.0, 1.0, n_steps)
    size = value_buffer_size(n_steps, 1, n_paths) + slack
    out_pd, out_mk = (np.empty(size), np.empty(size)) if given_out else (None, None)
    dW = NoiseBundle(21, n_paths, n_steps).increments(g.dt)
    pd = euler_path_dependent(SdeSpec(b, sigma), Path.constant(x0, 1.0, 11), g, dW, out_pd)
    mk = euler_markov(SdeSpec(b, sigma), x0, g, dW, out_mk)
    assert np.array_equal(pd.values, mk.values)


def test_path_dependent_exponential_growth_via_pathwise_integral():
    # drift = present value (unit integrand against the window increments)
    one = Integrand(phi=lambda u: np.ones_like(np.asarray(u, dtype=float)),
                    dphi=lambda u: np.zeros_like(np.asarray(u, dtype=float)))
    b = CylindricalFunctional(base=lambda t, F: F[:, 0], integrands=(one,))
    eta = Path.constant(1.0, 1.0, 1001)
    g = Grid(0.0, 1.0, 1000)
    nb = NoiseBundle(6, 8, 1000)
    traj = euler_path_dependent(SdeSpec(b, 0.0), eta, g, nb.increments(g.dt))
    assert abs(traj.terminal()[0] - np.e) <= 5e-3


def test_path_dependent_window_callable_sees_rolling_slice():
    # drift = supremum of the look-back window: reachable only through the buffer
    b = lambda t, wb: wb.sup_norm()
    eta = Path.constant(1.0, 0.5, 51)
    g = Grid(0.0, 0.5, 50)
    nb = NoiseBundle(6, 4, 50)
    traj = euler_path_dependent(SdeSpec(b, 0.0), eta, g, nb.increments(g.dt))
    # deterministic: dX = sup dt with sup starting at 1 -> X grows like exp
    assert np.all(np.diff(traj.values, axis=1) > 0)
    assert traj.terminal()[0] == pytest.approx(np.exp(0.5), abs=5e-3)


@pytest.mark.parametrize("kind", ["cylindrical", "window"])
def test_path_dependent_determinism_across_workers(kind):
    # the window drift reads each block's own rolling buffer
    if kind == "cylindrical":
        one = Integrand(phi=lambda u: np.ones_like(np.asarray(u, dtype=float)),
                        dphi=lambda u: np.zeros_like(np.asarray(u, dtype=float)))
        b = CylindricalFunctional(base=lambda t, F: -0.5 * F[:, 0], integrands=(one,))
    else:
        b = lambda t, wb: -0.5 * wb.sup_norm()
    eta = Path.from_function(lambda x: np.sin(3.0 * x), 0.5, 51)
    g = Grid(0.0, 0.5, 50)
    dW = NoiseBundle(24, 3000, 50).increments(g.dt)  # 12 blocks of the noise
    ref = euler_path_dependent(SdeSpec(b, 1.0), eta, g, dW).values
    for parts in (2, 8):  # a lane steps its own range of the paths
        assert np.array_equal(_euler_in_ranges(euler_path_dependent, SdeSpec(b, 1.0), eta, g, dW, parts), ref)


def test_coupled_identical_specs_exactly_zero():
    g = Grid(0.0, 1.0, 50)
    nb = NoiseBundle(12, 2000, 50)
    spec = SdeSpec(lambda t, x: np.sin(x), 1.0)
    est, se = coupled_sup_error(spec, spec, 0.2, g, nb)
    assert est == 0.0


@pytest.mark.parametrize("d", [1, 3])
def test_coupled_draws_the_noise_once(monkeypatch, d):
    calls = []
    original = NoiseBundle.increments

    def spy(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(NoiseBundle, "increments", spy)
    g = Grid(0.0, 1.0, 20)
    nb = NoiseBundle(15, 3000, 20, d=d)
    est, _ = coupled_sup_error(SdeSpec(0.1, 1.0), SdeSpec(lambda t, x: -0.5 * x, 1.0), np.full(d, 0.3) if d > 1 else 0.3, g, nb)
    assert len(calls) == 1
    assert est > 0.0


def test_coupled_drift_gap_closed_form():
    # b_n = 1/n, b = 0, sigma common: gap is deterministic (T-t)/n, sup at T
    g = Grid(0.0, 1.0, 100)
    nb = NoiseBundle(13, 20_000, 100)
    n = 5.0
    est, se = coupled_sup_error(SdeSpec(1.0 / n, 1.0), SdeSpec(0.0, 1.0), 0.0, g, nb, p=2.0)
    assert est == pytest.approx((1.0 / n) ** 2, abs=max(3.0 * se, 1e-12))


def test_coupled_mollified_sequence_decreasing():
    g = Grid(0.0, 1.0, 100)
    nb = NoiseBundle(14, 20_000, 100)
    kinked = lambda x: -np.abs(x)
    base = SdeSpec(lambda t, x: kinked(x), 1.0)
    errs = []
    for n in (2, 8, 32):
        b_n = mollify(kinked, 1, n)
        est, _ = coupled_sup_error(SdeSpec(lambda t, x, f=b_n: f(x), 1.0), base, 0.0, g, nb)
        errs.append(est)
    assert errs[0] > errs[1] > errs[2] > 0.0


def test_moment_check_constant_history():
    eta = Path.constant(-2.0, 1.0, 51)
    g = Grid(0.0, 1.0, 50)
    nb = NoiseBundle(15, 100, 50)
    traj = euler_path_dependent(SdeSpec(0.0, 0.0), eta, g, nb.increments(g.dt))
    for p in (1.0, 2.0, 3.0):
        est, se = moment_check(traj, p)
        assert est == pytest.approx(2.0**p, abs=1e-12)
        assert se == 0.0


def test_moment_check_scaling_in_history_norm():
    g = Grid(0.0, 1.0, 50)
    nb = NoiseBundle(15, 64, 50)
    p = 2.0
    vals = []
    for c in (1.0, 2.0, 4.0):
        eta = Path.constant(c, 1.0, 51)
        traj = euler_path_dependent(SdeSpec(0.0, 0.0), eta, g, nb.increments(g.dt))
        vals.append(moment_check(traj, p)[0])
    assert vals[1] / vals[0] == pytest.approx(2.0**p, rel=1e-12)
    assert vals[2] / vals[0] == pytest.approx(4.0**p, rel=1e-12)


def test_moment_check_brownian_sup_against_frozen_oracle():
    g = Grid(0.0, 1.0, 256)
    n_paths = 100_000
    nb = NoiseBundle(16, n_paths, 256)
    traj = euler_markov(SdeSpec(0.0, 1.0), 0.0, g, nb.increments(g.dt))
    est, se = moment_check(traj, 2.0)
    assert abs(est - SUP_W_SQUARED_256) <= 4.0 * se
    # hard cap from the maximal inequality: E sup |W|^2 <= 4 E W_1^2
    assert est <= 4.0 * 1.02


def test_moment_growth_in_history_is_polynomial():
    # E sup |X|^p across growing history norms: log-log slope close to p
    g = Grid(0.0, 1.0, 50)
    nb = NoiseBundle(17, 20_000, 50)
    p = 2.0
    norms = np.array([1.0, 2.0, 4.0, 8.0])
    ests = []
    for c in norms:
        eta = Path.constant(c, 1.0, 51)
        traj = euler_path_dependent(SdeSpec(0.0, 1.0), eta, g, nb.increments(g.dt))
        ests.append(moment_check(traj, p)[0])
    slope = np.polyfit(np.log(norms), np.log(ests), 1)[0]
    assert slope <= p + 0.1


def test_strong_order_under_bridge_refinement():
    rate = 0.5  # theoretical strong order for these coefficients is 1/2
    spec = SdeSpec(lambda t, x: -x, lambda t, x: 0.4 * np.sin(x) + 1.0)
    n_paths = 5000
    errs = []
    for n_steps in (32, 64, 128):
        g = Grid(0.0, 1.0, n_steps)
        g2 = Grid(0.0, 1.0, 2 * n_steps)
        nb = NoiseBundle(18, n_paths, n_steps)
        dW = nb.increments(g.dt)
        mid = nb.child(1).increments(1.0)
        dW2 = bridge_refine(dW, g.dt, mid)
        coarse = euler_markov(spec, 1.0, g, dW)
        fine = euler_markov(spec, 1.0, g2, dW2)
        gap = np.abs(coarse.values - fine.values[:, ::2]).max(axis=1)
        errs.append(np.sqrt((gap**2).mean()))
    order = np.polyfit(np.log([1 / 32, 1 / 64, 1 / 128]), np.log(errs), 1)[0]
    assert order >= 0.4


def test_bridge_refine_halves_sum_to_parent():
    nb = NoiseBundle(19, 100, 16)
    dW = nb.increments(0.25)
    mid = nb.child(1).increments(1.0)
    fine = bridge_refine(dW, 0.25, mid)
    np.testing.assert_allclose(fine[:, 0::2] + fine[:, 1::2], dW, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.integers(1, 12), st.integers(1, 3), st.floats(1e-4, 2.0),
       st.integers(0, 2**32 - 1), st.data())
def test_property_bridge_refine_blocks_and_halves(n_paths, n_steps, d, dt, seed, data):
    nb = NoiseBundle(seed, n_paths, n_steps, d)
    dW = nb.increments(dt)
    mid = nb.child(1).increments(1.0)
    fine = bridge_refine(dW, dt, mid)
    p0 = data.draw(st.integers(0, n_paths - 1))
    p1 = data.draw(st.integers(p0 + 1, n_paths))
    assert np.array_equal(bridge_refine(dW[p0:p1], dt, mid[p0:p1]), fine[p0:p1])
    first, second = fine[:, 0::2], fine[:, 1::2]
    assert np.all(np.abs(first + second - dW) <= 2 * np.spacing(np.maximum(np.abs(dW), np.abs(first))))


def test_trajectory_dumps_roundtrip(tmp_path):
    g = Grid(0.0, 1.0, 4)
    nb = NoiseBundle(20, 3, 4)
    traj = euler_markov(SdeSpec(0.0, 1.0), 0.0, g, nb.increments(g.dt))
    csv_file = tmp_path / "traj.csv"
    trajectories_to_csv(traj, csv_file)
    lines = csv_file.read_text().splitlines()
    assert lines[0] == "path_id,step,time,value"
    assert len(lines) == 1 + 3 * 5
    bin_file = tmp_path / "traj.bin"
    trajectories_to_binary(traj, bin_file)
    back = trajectories_from_binary(bin_file)
    np.testing.assert_array_equal(back, traj.values)


# ---------------------------------------------------------------------------
# the step-major forward pass


def _euler_markov_path_major(spec, x0, grid, dW):
    """Reference Euler on path-major arrays, one whole-array update per step."""
    X = np.full(dW.shape[0], float(x0))
    out = np.empty((dW.shape[0], grid.n_steps + 1))
    out[:, 0] = X
    for k in range(grid.n_steps):
        t = grid.times[k]
        X = X + np.asarray(spec.b(t, X), dtype=float) * grid.dt + np.asarray(spec.sigma(t, X), dtype=float) * dW[:, k, 0]
        out[:, k + 1] = X
    return out


def _euler_path_path_major(cyl_b, window_sigma, eta, grid, dW):
    """Reference path Euler: cylindrical drift through a tracker, window diffusion."""
    n, dt = dW.shape[0], grid.dt
    m = int(round(eta.horizon / dt)) + 1
    xs = np.linspace(-eta.horizon, 0.0, m)
    buf = np.empty((n, m + grid.n_steps))
    buf[:, :m] = eta(xs)[None, :]
    X = np.full(n, float(eta.values[-1]))
    tracker = cyl_b.tracker(X, t0=grid.t_start, prefix=eta)
    out = np.empty((n, grid.n_steps + 1))
    out[:, 0] = X
    for k in range(grid.n_steps):
        s = grid.times[k]
        bv = np.asarray(cyl_b.base(s, tracker.features(s, X)), dtype=float)
        sv = np.asarray(window_sigma(s, WindowBatch(xs, buf[:, k : k + m])), dtype=float)
        X_new = X + bv * dt + sv * dW[:, k, 0]
        out[:, k + 1] = buf[:, m + k] = X_new
        tracker.advance(s, X, grid.times[k + 1], X_new)
        X = X_new
    return out


def test_increments_are_step_major_rows_of_the_path_major_normals():
    # 1500 paths of 50 x 2 normals span six blocks of the transposed write
    nb = NoiseBundle(seed=41, n_paths=1500, n_steps=50, d=2)
    dW = nb.increments(0.02)
    assert dW.shape == (1500, 50, 2)
    assert dW.transpose(1, 2, 0).flags.c_contiguous
    assert np.array_equal(dW, _block_normal_increments(nb, 0.02))


def test_euler_writes_the_step_major_buffer_it_is_given():
    g = Grid(0.0, 1.0, 30)
    dW = NoiseBundle(42, 300, 30).increments(g.dt)
    buf = np.empty((31, 300))
    traj = euler_markov(SdeSpec(ZERO, 1.0), 0.5, g, dW, out=buf)
    assert np.shares_memory(traj.values, buf) and traj.values.T.flags.c_contiguous
    path = euler_path_dependent(SdeSpec(0.0, 1.0), Path.constant(0.5, 1.0, 31), g, dW, out=buf)
    assert np.shares_memory(path.values, buf) and path.values.T.flags.c_contiguous
    vector = euler_markov(SdeSpec(0.0, 1.0), np.zeros(2), g, NoiseBundle(42, 300, 30, d=2).increments(g.dt))
    assert vector.values.shape == (300, 31, 2) and vector.values.transpose(1, 2, 0).flags.c_contiguous
    flat = np.empty(2 * 31 * 300)  # a larger buffer serves through its leading part
    vector = euler_markov(SdeSpec(0.0, 1.0), np.zeros(2), g, NoiseBundle(42, 300, 30, d=2).increments(g.dt), out=flat)
    assert np.shares_memory(vector.values, flat[: 31 * 2 * 300])
    traj = euler_markov(SdeSpec(ZERO, 1.0), 0.5, g, dW, out=flat)
    assert np.shares_memory(traj.values, flat[: 31 * 300]) and traj.values.T.flags.c_contiguous
    with pytest.raises(ValueError, match="value buffer"):
        euler_markov(SdeSpec(0.0, 1.0), 0.5, g, dW, out=np.empty((30, 300)))


@pytest.mark.parametrize("parts", [1, 3])
def test_euler_on_step_rows_equals_a_path_major_reference(parts):
    g = Grid(0.25, 1.0, 40)
    dW = _increments_in_ranges(NoiseBundle(43, 7000, 40), g.dt, parts)  # 28 blocks of the noise
    markov = SdeSpec(lambda t, x: np.sin(x) - t, lambda t, x: 1.0 + 0.2 * np.cos(x))
    got = euler_markov(markov, 0.3, g, dW).values
    assert np.array_equal(got, _euler_markov_path_major(markov, 0.3, g, np.ascontiguousarray(dW)))

    one = Integrand(phi=lambda u: np.ones_like(np.asarray(u, dtype=float)),
                    dphi=lambda u: np.zeros_like(np.asarray(u, dtype=float)))
    wave = Integrand(phi=np.sin, dphi=np.cos)
    cyl_b = CylindricalFunctional(base=lambda t, F: -0.5 * F[:, 0] + np.tanh(F[:, 1]), integrands=(one, wave))
    window_sigma = lambda t, wb: 1.0 + 0.1 * np.tanh(wb.values.mean(axis=1))
    eta = Path.from_function(lambda x: 0.3 * np.sin(4.0 * x), 0.75, 61)
    got = euler_path_dependent(SdeSpec(cyl_b, window_sigma), eta, g, dW).values
    assert np.array_equal(got, _euler_path_path_major(cyl_b, window_sigma, eta, g, np.ascontiguousarray(dW)))


def _euler_vector_path_major(spec, x0, grid, dW):
    """Reference vector Euler on path-major arrays, C-ordered (m, d) states."""
    X = np.broadcast_to(np.asarray(x0, dtype=float), (dW.shape[0], dW.shape[2])).copy()
    out = np.empty((dW.shape[0], grid.n_steps + 1, dW.shape[2]))
    out[:, 0] = X
    for k in range(grid.n_steps):
        t = grid.times[k]
        sig = np.asarray(spec.sigma(t, X), dtype=float)
        X = X + np.asarray(spec.b(t, X), dtype=float) * grid.dt + np.einsum("mij,mj->mi", sig, dW[:, k])
        out[:, k + 1] = X
    return out


@pytest.mark.parametrize("parts", [1, 3])
def test_vector_euler_on_step_rows_equals_a_path_major_reference(parts):
    # d = 9: numpy sums 9 or more columns of a row in an order that depends on the layout
    d = 9
    g = Grid(0.0, 1.0, 25)
    dW = _increments_in_ranges(NoiseBundle(49, 500, 25, d=d), g.dt, parts)  # 2 blocks of the noise

    def sigma(t, x):  # a full (m, d, d) matrix that reads the state
        s = np.empty((x.shape[0], d, d))
        s[...] = 0.3 * np.eye(d) + 0.05 * t
        s[:, 0, 1] += 0.1 * np.tanh(x[:, 2])
        s[:, 2, 0] -= 0.2 * np.sin(x.sum(axis=1))
        return s

    spec = SdeSpec(lambda t, x: -0.5 * x + np.cos(x[:, ::-1]), sigma)
    x0 = np.linspace(-0.4, 0.7, d)
    got = euler_markov(spec, x0, g, dW).values
    assert np.array_equal(got, _euler_vector_path_major(spec, x0, g, np.ascontiguousarray(dW)))


def test_a_one_by_one_start_is_a_vector_state():
    g = Grid(0.0, 1.0, 20)
    dW = NoiseBundle(50, 200, 20).increments(g.dt)
    spec = SdeSpec(lambda t, x: -x, 1.0)
    got = euler_markov(spec, np.full((1, 1), 0.3), g, dW, out=np.empty(21 * 200))
    assert got.values.shape == (200, 21, 1)
    assert np.array_equal(got.values, euler_markov(spec, np.array([0.3]), g, dW).values)


def _window_values_path_major(traj, k, xs):
    """Reference window cut, column by column on path-major values."""
    values = np.ascontiguousarray(traj.values)
    t0, dt, n_steps = traj.grid.t_start, traj.grid.dt, traj.grid.n_steps
    taus = traj.grid.times[k] + xs
    out = np.empty((values.shape[0], xs.size))
    pre_vals = traj.prefix(np.clip(taus - t0, -traj.prefix.horizon, 0.0))
    for j, tau in enumerate(taus):
        if tau <= t0:
            out[:, j] = pre_vals[j]
        else:
            pos = min(max((tau - t0) / dt, 0.0), n_steps)
            i0 = min(int(pos), n_steps - 1)
            w = pos - i0
            out[:, j] = (1.0 - w) * values[:, i0] + w * values[:, i0 + 1]
    out[:, -1] = values[:, k]
    return out


def test_windows_on_step_rows_equal_the_path_major_cut():
    # an interior k whose window reaches back into the history, on nodes off the grid
    eta = Path.from_function(lambda x: np.cos(5.0 * x), 1.0, 33)
    g = Grid(0.4, 1.4, 50)
    traj = euler_path_dependent(SdeSpec(0.0, 1.0), eta, g, NoiseBundle(44, 250, 50).increments(g.dt))
    xs = np.linspace(-1.0, 0.0, 37)
    for k in (0, 7, 23, 50):
        got = traj.window_values(k, xs)
        ref = _window_values_path_major(traj, k, xs)
        assert np.array_equal(got, ref)
        assert got.flags.c_contiguous  # one row per path
        # a terminal reducing rows adds them as on the path-major cut
        assert np.array_equal(np.abs(got).mean(axis=1), np.abs(ref).mean(axis=1))
    # a batch of many paths, cut in one piece
    traj = euler_path_dependent(SdeSpec(0.0, 1.0), eta, g, NoiseBundle(44, 5000, 50).increments(g.dt))
    xs = np.linspace(-1.0, 0.0, 51)
    assert np.array_equal(traj.window_values(31, xs), _window_values_path_major(traj, 31, xs))
    # an aligned window, at spacing dt and inside the grid, is a copy of the simulated steps 20..50
    xs = np.linspace(-0.6, 0.0, 31)
    got = traj.window_values(50, xs)
    assert np.array_equal(got, traj.values[:, 20:51]) and got.flags.c_contiguous


def test_aligned_windows_are_views_of_the_step_rows():
    eta = Path.from_function(lambda x: np.cos(5.0 * x), 1.0, 33)
    g = Grid(0.0, 1.0, 50)
    traj = euler_path_dependent(SdeSpec(0.0, 1.0), eta, g, NoiseBundle(45, 300, 50).increments(g.dt))
    for k, m in ((50, 51), (50, 11), (10, 11)):
        view = traj.step_window(k, np.linspace(-(m - 1) * g.dt, 0.0, m))
        assert np.shares_memory(view, traj.values) and view.T.flags.c_contiguous
        assert np.array_equal(view, traj.values[:, k - m + 1 : k + 1])
    # not aligned: a window reaching into the history, a spacing other than dt, other nodes
    assert traj.step_window(9, np.linspace(-0.2, 0.0, 11)) is None
    assert traj.step_window(50, np.linspace(-1.0, 0.0, 101)) is None
    assert traj.step_window(50, np.linspace(-1.0, 0.0, 51) ** 3) is None
    # a dt that does not divide the window's horizon
    g = Grid(0.0, 1.0, 30)
    traj = euler_path_dependent(SdeSpec(0.0, 1.0), eta, g, NoiseBundle(46, 300, 30).increments(g.dt))
    assert traj.step_window(30, np.linspace(-0.51, 0.0, 16)) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60), st.integers(0, 11), st.sampled_from([np.nan, np.inf, -np.inf, 2e12, -5e12]),
       st.sampled_from(["markov", "path"]))
def test_property_divergence_names_the_path_and_step(path, k, bad, scheme):
    g = Grid(0.0, 1.0, 12)
    dW = NoiseBundle(45, 61, 12).increments(g.dt)
    dW[path, k, 0] = bad  # the state at step k + 1 is the first bad one
    with pytest.raises(DivergenceError) as err:
        if scheme == "markov":
            euler_markov(SdeSpec(0.0, 1.0), 0.0, g, dW)
        else:
            euler_path_dependent(SdeSpec(0.0, 1.0), Path.constant(0.0, 1.0, 13), g, dW)
    assert (err.value.path, err.value.step) == (path, k + 1)
