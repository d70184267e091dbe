import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sirlevy as sl

from conftest import THETA_REF, X0_NUMBERS, X0_PROPORTIONS, make_dataset


def test_ode_linear_closed_form():
    # with beta ~ 0 the susceptible equation decouples:
    # X_t = birth/death + (X0 - birth/death) * exp(-death * t)
    p = sl.SirParams(birth=0.018, death=0.00042, gamma=0.07142, sigma=0.5)
    th = sl.ThetaParams(0.5, 1e-300, 0.0, 0.0)
    traj = sl.solve_ode("numbers", th, p, (2.3, 0.0, 0.25), 1.0, 1000)
    ratio = p.birth / p.death
    exact = ratio + (2.3 - ratio) * np.exp(-p.death * traj.times)
    assert np.abs(traj.states[:, 0] - exact).max() < 1e-10


def test_ode_no_infection_invariant_manifold():
    p = sl.numbers_defaults()
    traj = sl.solve_ode("numbers", THETA_REF, p, (2.3, 0.0, 0.25), 1.0, 500)
    assert np.all(traj.states[:, 1] == 0.0)
    exact_z = 0.25 * np.exp(-p.death * traj.times)
    assert np.abs(traj.states[:, 2] - exact_z).max() < 1e-10


def test_rk4_step_halving_error_ratio():
    p = sl.numbers_defaults()
    ref = sl.solve_ode("numbers", THETA_REF, p, X0_NUMBERS, 1.0, 102_400).states[-1]
    e_coarse = np.abs(sl.solve_ode("numbers", THETA_REF, p, X0_NUMBERS, 1.0, 200).states[-1] - ref).max()
    e_fine = np.abs(sl.solve_ode("numbers", THETA_REF, p, X0_NUMBERS, 1.0, 400).states[-1] - ref).max()
    assert e_coarse / e_fine == pytest.approx(16.0, rel=0.2)


def test_noiseless_sde_matches_ode_at_first_order():
    p = sl.numbers_defaults(eps=0.0)
    ref = sl.solve_ode("numbers", THETA_REF, p, X0_NUMBERS, 1.0, 100_000)
    errs = {}
    for substeps in (10, 20):
        noise = sl.LevyPathNoise(0, 1.0, 1.0, 3)
        traj = sl.simulate_sde("numbers", THETA_REF, p, X0_NUMBERS, 1.0, 100, noise, substeps=substeps)
        errs[substeps] = np.abs(traj.states - ref.states[:: 1000]).max()
    assert errs[10] < 1e-4
    assert errs[10] / errs[20] == pytest.approx(2.0, rel=0.25)


def test_small_noise_stays_near_deterministic_path():
    p0 = sl.numbers_defaults(eps=0.0)
    noise0 = sl.LevyPathNoise(0, 1.0, 1.0, 3)
    base = sl.simulate_sde("numbers", THETA_REF, p0, X0_NUMBERS, 1.0, 100, noise0).states
    p = sl.numbers_defaults(eps=0.001)
    close = 0
    n_seeds = 1000
    for seed in range(n_seeds):
        traj = make_dataset(seed=seed, eps=0.001)
        if np.all(np.abs(traj.states - base) <= 0.2 * np.abs(base)):
            close += 1
    assert close >= 0.95 * n_seeds


def test_proportions_conservation():
    p = sl.proportions_defaults(eps=0.3)
    for seed in range(100):
        noise = sl.LevyPathNoise(seed, 4.0, 1.0, 1)
        traj = sl.simulate_sde("proportions", THETA_REF, p, X0_PROPORTIONS, 1.0, 100, noise)
        assert np.abs(traj.states.sum(axis=1) - 1.0).max() <= 1e-10


@settings(max_examples=25, deadline=None)
@given(
    theta=st.tuples(
        st.floats(sl.PERIOD_FLOOR, 1.0), st.floats(1e-6, 2.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0)
    ),
    eps=st.floats(0.0, 0.9, exclude_max=True),
    paths=st.lists(st.tuples(st.integers(0, 2**64 - 1), st.floats(0.0, 8.0)), min_size=1, max_size=4),
)
def test_unclamped_proportions_paths_conserve_mass(theta, eps, paths):
    # the drift and both noise columns sum to zero, so only a clamp can move X + Y + Z
    theta = sl.ThetaParams(*theta)
    params = sl.proportions_defaults(eps=eps)

    def noises():
        return [sl.LevyPathNoise(seed, rate, 1.0, 1) for seed, rate in paths]

    batch = sl.simulate.simulate_many("proportions", theta, params, X0_PROPORTIONS, 1.0, 50, noises())
    assert not batch.failed.any()
    for p, noise in enumerate(noises()):
        traj = sl.simulate_sde("proportions", theta, params, X0_PROPORTIONS, 1.0, 50, noise)
        if traj.clamp_count == 0:
            assert np.abs(traj.states.sum(axis=1) - 1.0).max() <= 1e-10
        if batch.clamp_counts[p] == 0:
            assert np.abs(batch.states[p].sum(axis=1) - 1.0).max() <= 1e-10


def _reference_euler(model_tag, theta, params, s0, horizon, n_obs, noise, substeps):
    """Straightforward jump-adapted Euler loop used as an independent oracle.

    The noise and the jump are applied as the integrators apply them: the
    coefficient c = (eps*sigma)*X*Y*Z at the left or pre-jump state, then
    c times the increment or the mark, through the model's noise direction.
    """
    model = sl.get_model(model_tag)
    eps_sigma = params.eps * params.sigma
    base = np.linspace(0.0, horizon, n_obs * substeps + 1)
    grid = np.union1d(base, noise.jump_times[noise.jump_times <= horizon])
    dts = np.diff(grid)
    incs = noise.brownian_increments(dts)
    jumps = {float(t): m for t, m in zip(noise.jump_times, noise.jump_marks)}
    s = np.asarray(s0, dtype=float)
    out = [s.copy()]
    obs = set(base[::substeps][1:].tolist())
    for i in range(len(grid) - 1):
        t, dt = grid[i], dts[i]
        c = eps_sigma * s[0] * s[1] * s[2]
        s = s + dt * model.drift(t, s, theta, params) + model.direction @ (c * np.atleast_1d(incs[i]))
        s = np.maximum(s, 0.0)
        t_next = float(grid[i + 1])
        if t_next in jumps:
            c = eps_sigma * s[0] * s[1] * s[2]
            s = s + model.direction @ (c * np.atleast_1d(jumps[t_next]))
            s = np.maximum(s, 0.0)
        if t_next in obs:
            out.append(s.copy())
    return np.array(out)


def _reference_noises(dim):
    """Jumps of the law; and by hand, on a base node, on an observation node,
    two inside one base interval and then on its end node, and at the
    horizon, with a large mark on the first: one that forces a clamp, and
    one that moves components it leaves unclamped."""
    base = np.linspace(0.0, 1.0, 50 * 7 + 1)
    dt = base[1] - base[0]
    mark = [-0.1, 0.1, 0.0] if dim == 3 else [0.1]
    big = [-1024.0, 0.0, 0.0] if dim == 3 else [8192.0]
    moves = [-1000.0, 0.0, 1000.0] if dim == 3 else [-1000.0]
    times = [base[38], base[70], base[100] + 0.3 * dt, base[100] + 0.6 * dt, base[101], base[-1]]
    return [
        sl.LevyPathNoise(303, 4.0, 1.0, dim),
        _hand_noise(304, dim, 1.0, times, [big] + [mark] * 5),
        _hand_noise(305, dim, 1.0, times, [moves] + [mark] * 5),
    ]


@pytest.mark.parametrize("model_tag", ["numbers", "proportions"])
def test_integrator_matches_reference_euler_bitwise(model_tag):
    params = (sl.numbers_defaults if model_tag == "numbers" else sl.proportions_defaults)(eps=0.1)
    x0 = X0_NUMBERS if model_tag == "numbers" else X0_PROPORTIONS
    dim = sl.get_model(model_tag).driver_dim
    for noise_a, noise_b in zip(_reference_noises(dim), _reference_noises(dim)):
        assert noise_a.jump_count > 0
        traj = sl.simulate_sde(model_tag, THETA_REF, params, x0, 1.0, 50, noise_a, substeps=7)
        ref = _reference_euler(model_tag, THETA_REF, params, x0, 1.0, 50, noise_b, substeps=7)
        assert np.array_equal(traj.states, ref)
    assert traj.clamp_count > 0  # the hand-built path's large mark


def test_no_jumps_reduces_to_pure_diffusion_euler():
    params = sl.numbers_defaults(eps=0.01)
    noise_a = sl.LevyPathNoise(404, 1e-12, 1.0, 3)
    noise_b = sl.LevyPathNoise(404, 1e-12, 1.0, 3)
    assert noise_a.jump_count == 0
    traj = sl.simulate_sde("numbers", THETA_REF, params, X0_NUMBERS, 1.0, 100, noise_a)
    ref = _reference_euler("numbers", THETA_REF, params, X0_NUMBERS, 1.0, 100, noise_b, 10)
    assert np.array_equal(traj.states, ref)


def test_simulation_determinism():
    a = make_dataset(seed=11, eps=0.3)
    b = make_dataset(seed=11, eps=0.3)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_simulation_metadata_and_observation_grid():
    traj = make_dataset(seed=3, eps=0.01, lam=2)
    assert traj.times.size == 101
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0
    assert traj.spacing() == pytest.approx(0.01, rel=1e-12)
    assert traj.lam == 2 and traj.model == "numbers"
    assert traj.params.eps == 0.01


def test_nonfinite_state_raises():
    p = sl.SirParams(birth=0.0, death=0.0, gamma=1.0, sigma=1.0, eps=0.0)
    th = sl.ThetaParams(1.0, 1e6)  # explosive transmission
    noise = sl.LevyPathNoise(1, 1.0, 1.0, 3)
    with pytest.raises(sl.SimulationError):
        sl.simulate_sde("numbers", th, p, (1e200, 1e200, 0.0), 1.0, 10, noise)


@pytest.mark.parametrize("model_tag", ["numbers", "proportions"])
def test_nonfinite_step_and_jump_are_named_with_their_time(model_tag):
    params, x0, dim = _model_setup(model_tag)
    base = np.linspace(0.0, 1.0, 101)
    dt = base[1] - base[0]
    huge = [np.inf] * dim
    # an infinite mark fails its jump, inside a base interval or on a node
    for t in (base[20] + 0.5 * dt, base[40]):
        with pytest.raises(sl.SimulationError) as err:
            sl.simulate_sde(model_tag, THETA_REF, params, x0, 1.0, 10, _hand_noise(5000, dim, 1.0, [t], [huge]))
        assert err.value.time == t
        assert str(err.value) == f"non-finite state at jump t={t}"
    # explosive transmission fails the first step, a base step or a sub-step before a jump
    boom = sl.SirParams(birth=0.0, death=0.0, gamma=1.0, sigma=1.0, eps=0.0)
    th = sl.ThetaParams(1.0, 1e6)
    for times, t in (([], base[1]), ([0.0004], 0.0004)):
        noise = _hand_noise(5001, dim, 1.0, times, [[0.1] * dim] * len(times))
        with pytest.raises(sl.SimulationError) as err:
            sl.simulate_sde(model_tag, th, boom, (1e200, 1e200, 0.0), 1.0, 10, noise)
        assert err.value.time == t
        assert str(err.value) == f"non-finite state at t={t}"


def test_predict_ensemble_noiseless_equals_single_path():
    # with eps = 0 and no jump nodes the integration grid is fixed, so the
    # ensemble collapses to the one deterministic Euler path bit for bit
    p = sl.numbers_defaults(eps=0.0)
    mean = sl.predict_ensemble("numbers", THETA_REF, p, X0_NUMBERS, horizon=3.0, n_paths=10, seed=5, lam=0.0)
    noise = sl.LevyPathNoise(0, 0.0, 3.0, 3)
    single = sl.simulate_sde("numbers", THETA_REF, p, X0_NUMBERS, 3.0, 300, noise)
    assert np.array_equal(mean.states, single.states)
    fewer = sl.predict_ensemble("numbers", THETA_REF, p, X0_NUMBERS, horizon=3.0, n_paths=3, seed=99, lam=0.0)
    assert np.array_equal(mean.states, fewer.states)
    # with jumps, path 0's own jump times refine its grid: the mean is that path
    from sirlevy.simulate import _ensemble_noise

    mean = sl.predict_ensemble("numbers", THETA_REF, p, X0_NUMBERS, horizon=3.0, n_paths=10, seed=5)
    noise = _ensemble_noise(5, 0, 0, None, 3.0, 3)
    assert noise.jump_count > 0
    single = sl.simulate_sde("numbers", THETA_REF, p, X0_NUMBERS, 3.0, 300, noise)
    assert mean.states.tobytes() == single.states.tobytes()
    assert (mean.meta["n_paths"], mean.clamp_count) == (1, single.clamp_count)


def test_predict_ensemble_conserves_proportions():
    p = sl.proportions_defaults(eps=0.1)
    mean = sl.predict_ensemble("proportions", THETA_REF, p, X0_PROPORTIONS, horizon=2.0, n_paths=20, seed=9)
    assert np.abs(mean.states.sum(axis=1) - 1.0).max() <= 1e-10
    again = sl.predict_ensemble("proportions", THETA_REF, p, X0_PROPORTIONS, horizon=2.0, n_paths=20, seed=9)
    assert np.array_equal(mean.states, again.states)


def _model_setup(model_tag, eps=0.3):
    params = (sl.numbers_defaults if model_tag == "numbers" else sl.proportions_defaults)(eps=eps)
    x0 = X0_NUMBERS if model_tag == "numbers" else X0_PROPORTIONS
    return params, x0, sl.get_model(model_tag).driver_dim


def _hand_noise(seed, dim, noise_horizon, times, marks):
    """A noise path with the given jump skeleton and its own Brownian stream."""
    noise = sl.LevyPathNoise(seed, 0.0, noise_horizon, dim)
    noise.jump_times = np.asarray(times, dtype=float)
    noise.jump_marks = np.asarray(marks, dtype=float).reshape(len(times), dim)
    return noise


def _hand_noises(dim, horizon, n_obs, substeps):
    """No jumps; a jump on a base node; two jumps in one base interval; jumps
    past the horizon; a jump on the last node; a jump whose mark forces a clamp."""
    base = np.linspace(0.0, horizon, n_obs * substeps + 1)
    dt = base[1] - base[0]
    mark = [-0.1, 0.1, 0.0][:dim] if dim == 3 else [0.1]
    big = [-50.0, 0.0, 50.0] if dim == 3 else [1e4]
    specs = [
        ([], []),
        ([base[37]], [mark]),
        ([base[12] + 0.3 * dt, base[12] + 0.7 * dt, base[40] + 0.5 * dt], [mark, mark, mark]),
        ([0.5 * horizon + 0.1 * dt, horizon + 0.25, horizon + 0.5], [mark, mark, mark]),
        ([base[-1]], [mark]),
        ([base[20] + 0.5 * dt, base[60]], [big, big]),
    ]
    return [_hand_noise(1000 + i, dim, horizon + 1.0, t, m) for i, (t, m) in enumerate(specs)]


def _chunk_edge_noises(dim, horizon, n_obs, substeps, chunk):
    """Jumps inside two consecutive base intervals; inside the first and the last
    interval of one increment chunk of ``chunk`` intervals; inside the last
    interval of one chunk and the first of the next."""
    n_steps = n_obs * substeps
    base = np.linspace(0.0, horizon, n_steps + 1)
    dt = base[1] - base[0]
    mark = [-0.1, 0.1, 0.0][:dim] if dim == 3 else [0.1]
    chunk = min(chunk, n_steps)
    first = chunk * (n_steps // chunk // 2)  # a chunk in the middle, or the only one
    last = min(first + chunk, n_steps) - 1
    edge = first if first else last + 1  # the first interval of the next chunk
    specs = [
        [base[25] + 0.5 * dt, base[26] + 0.5 * dt],
        sorted([base[first] + 0.5 * dt, base[last] + 0.25 * dt, base[last] + 0.75 * dt]),
        [base[edge] - 0.5 * dt, base[edge] + 0.5 * dt],
    ]
    return [_hand_noise(1100 + i, dim, horizon + 1.0, t, [mark] * len(t)) for i, t in enumerate(specs)]


def _random_noises(dim, horizon, count):
    return [
        sl.LevyPathNoise(np.random.SeedSequence(entropy=77, spawn_key=(i,)), 1 + i % 4, horizon, dim)
        for i in range(count)
    ]


@pytest.mark.parametrize("sigma", [None, 100.0], ids=["default_sigma", "clamping_sigma"])
@pytest.mark.parametrize("budget", [None, 5, 204])
@pytest.mark.parametrize("model_tag", ["numbers", "proportions"])
def test_simulate_many_rows_equal_simulate_sde(monkeypatch, model_tag, budget, sigma):
    import sirlevy.simulate as sim

    # short increment chunks: jumps fall on and across chunk edges.  A batch
    # this small gets a full block's chunks, so the budget, given for these
    # 17 paths, is scaled to PATH_BLOCK paths: 5 makes chunks of one base
    # interval, 204 (3072 over a block of 256) of 4 (numbers) or 12 (proportions)
    horizon, n_obs, substeps = 1.0, 20, 4
    n_paths = 17
    if budget is not None:
        monkeypatch.setattr(sim, "INCREMENT_BUDGET", budget * sim.PATH_BLOCK // n_paths)
    params, x0, dim = _model_setup(model_tag)
    if sigma is not None:  # Brownian terms large enough to clamp inside the lockstep step
        params = replace(params, sigma=sigma)
    chunk = max(1, sim.INCREMENT_BUDGET // (max(n_paths, sim.PATH_BLOCK) * dim))

    def noises():
        return (
            _hand_noises(dim, horizon, n_obs, substeps)
            + _random_noises(dim, horizon, 8)
            + _chunk_edge_noises(dim, horizon, n_obs, substeps, chunk)
        )

    batch = sim.simulate_many(model_tag, THETA_REF, params, x0, horizon, n_obs, noises(), substeps)
    assert batch.states.shape == (n_paths, n_obs + 1, 3)
    assert not batch.failed.any()
    for p, noise in enumerate(noises()):
        traj = sl.simulate_sde(model_tag, THETA_REF, params, x0, horizon, n_obs, noise, substeps)
        assert np.array_equal(batch.states[p], traj.states), p
        assert batch.clamp_counts[p] == traj.clamp_count, p
        assert np.array_equal(batch.times, traj.times)
    if sigma is not None:
        assert batch.clamp_counts[6:].any()
        return
    assert batch.clamp_counts[5] > 0  # the forced clamp
    assert not batch.clamp_counts[6:].any()
    if model_tag == "proportions":
        # clamping breaks conservation; every path that did not clamp keeps it
        kept = batch.states[batch.clamp_counts == 0]
        assert len(kept) == n_paths - 1
        assert np.abs(kept.sum(axis=2) - 1.0).max() <= 1e-10


@pytest.mark.parametrize("model_tag", ["numbers", "proportions"])
def test_simulate_many_flags_the_paths_simulate_sde_rejects(model_tag):
    params, x0, dim = _model_setup(model_tag)
    huge = [np.inf] * dim
    specs = [([0.4], [huge]), ([0.205, 0.655], [huge, huge]), ([], [])]  # on a node; inside an interval

    def noises():
        return [_hand_noise(2000 + i, dim, 1.0, t, m) for i, (t, m) in enumerate(specs)]

    batch = sl.simulate.simulate_many(model_tag, THETA_REF, params, x0, 1.0, 10, noises())
    assert batch.failed.tolist() == [True, True, False]
    for p, noise in enumerate(noises()[:2]):
        with pytest.raises(sl.SimulationError) as err:
            sl.simulate_sde(model_tag, THETA_REF, params, x0, 1.0, 10, noise)
        assert batch.fail_times[p] == err.value.time
    last = sl.simulate_sde(model_tag, THETA_REF, params, x0, 1.0, 10, noises()[2])
    assert np.array_equal(batch.states[2], last.states)

    # explosive transmission: the first step fails, for the jumping path at its jump time
    boom = sl.SirParams(birth=0.0, death=0.0, gamma=1.0, sigma=1.0, eps=0.0)
    th = sl.ThetaParams(1.0, 1e6)
    x_big = (1e200, 1e200, 0.0)
    specs = [([0.0004], [[0.1] * dim]), ([], [])]
    batch = sl.simulate.simulate_many(model_tag, th, boom, x_big, 1.0, 10, noises())
    for p, noise in enumerate(noises()):
        with pytest.raises(sl.SimulationError) as err:
            sl.simulate_sde(model_tag, th, boom, x_big, 1.0, 10, noise)
        assert batch.fail_times[p] == err.value.time
    assert batch.fail_times.tolist() == [0.0004, 0.01]


def test_simulate_many_flags_a_base_step_that_overflows_to_inf():
    # eps*sigma*X*Y*Z overflows, so the first step takes each component to
    # +inf or -inf by the sign of its increment; paths whose increments are
    # all positive fail with no negative and no nan among their components
    params = sl.SirParams(birth=0.018, death=0.00042, gamma=0.07142, sigma=1e308, eps=0.5)
    x0 = (1e3, 1e3, 1e3)
    seeds = [
        s for s in range(4000, 4100) if (_hand_noise(s, 3, 1.0, [], []).fill_normals(np.empty((1, 3))) > 0.0).all()
    ]
    assert len(seeds) >= 3

    def noises():
        return [_hand_noise(s, 3, 1.0, [], []) for s in seeds[:3]]

    batch = sl.simulate.simulate_many("numbers", THETA_REF, params, x0, 1.0, 10, noises())
    for p, noise in enumerate(noises()):
        with pytest.raises(sl.SimulationError) as err:
            sl.simulate_sde("numbers", THETA_REF, params, x0, 1.0, 10, noise)
        assert batch.fail_times[p] == err.value.time == 0.01


@pytest.mark.parametrize("model_tag", ["numbers", "proportions"])
def test_both_integrators_reject_a_jump_at_time_zero(model_tag):
    # a jump at t = 0 has no pre-jump state; neither integrator may drop it
    # (or the jumps after it) silently
    params, x0, dim = _model_setup(model_tag)
    mark = [0.1] * dim
    with pytest.raises(ValueError, match="jump times must be positive"):
        sl.simulate_sde(model_tag, THETA_REF, params, x0, 1.0, 10, _hand_noise(3000, dim, 1.0, [0.0, 0.5], [mark, mark]))
    noises = [_hand_noise(3001, dim, 1.0, [], []), _hand_noise(3000, dim, 1.0, [0.0, 0.5], [mark, mark])]
    with pytest.raises(ValueError, match="jump times must be positive"):
        sl.simulate.simulate_many(model_tag, THETA_REF, params, x0, 1.0, 10, noises)


@pytest.mark.parametrize("model_tag", ["numbers", "proportions"])
def test_both_integrators_reject_jump_times_that_do_not_increase(model_tag):
    # two jumps at one time inside a base interval, and unsorted times: the
    # integrators would place them differently on the grid, so both refuse
    params, x0, dim = _model_setup(model_tag)
    mark = [-0.1, 0.1, 0.0] if dim == 3 else [0.1]
    for times, named in (([0.305, 0.305], "0.305 then 0.305"), ([0.7, 0.3], "0.7 then 0.3")):
        noise = _hand_noise(3100, dim, 1.0, times, [mark, mark])
        with pytest.raises(ValueError, match=f"strictly increasing, got {named}"):
            sl.simulate_sde(model_tag, THETA_REF, params, x0, 1.0, 10, noise)
        noises = [_hand_noise(3101, dim, 1.0, [], []), noise]
        with pytest.raises(ValueError, match=f"strictly increasing, got {named}"):
            sl.simulate.simulate_many(model_tag, THETA_REF, params, x0, 1.0, 10, noises)


def test_predict_ensemble_mean_does_not_depend_on_the_path_block(monkeypatch):
    import sirlevy.simulate as sim

    params, x0, _ = _model_setup("numbers", eps=0.1)
    whole = sim.predict_ensemble("numbers", THETA_REF, params, x0, horizon=1.0, n_paths=7, seed=4)
    monkeypatch.setattr(sim, "PATH_BLOCK", 3)
    blocks = sim.predict_ensemble("numbers", THETA_REF, params, x0, horizon=1.0, n_paths=7, seed=4)
    assert np.array_equal(whole.states, blocks.states)
    assert whole.clamp_count == blocks.clamp_count


def test_ensemble_noise_rate_is_sample_lambda_on_its_stream():
    from sirlevy.levy import stream
    from sirlevy.simulate import _ensemble_noise

    for path in range(12):
        for attempt in range(2):
            noise = _ensemble_noise(31, path, attempt, None, 1.0, 3)
            assert noise.rate == sl.sample_lambda(stream(31, path, attempt))
            assert noise.seed.spawn_key == (path, attempt, 0)
            assert _ensemble_noise(31, path, attempt, 2.5, 1.0, 1).rate == 2.5


_ANY_STATE = st.one_of(
    st.floats(0.0, 1e3), st.just(0.0), st.floats(-1.0, 0.0), st.sampled_from([np.nan, np.inf, 1e300])
)


_THETAS = st.tuples(
    st.floats(sl.PERIOD_FLOOR, 1.0),
    st.floats(1e-6, 2.0),
    st.integers(1, 2).flatmap(lambda order: st.lists(st.floats(0.0, 2.0), min_size=2 * order, max_size=2 * order)),
).map(lambda t: sl.ThetaParams(t[0], t[1], tuple(t[2][: len(t[2]) // 2]), tuple(t[2][len(t[2]) // 2 :])))


def _per_path_inputs(data, n_paths, pool, params, eps):
    """Each path's theta, drawn from ``pool`` so that paths share some, and
    params with the path's own eps from ``eps``."""
    thetas = [pool[data.draw(st.integers(0, len(pool) - 1))] for _ in range(n_paths)]
    return thetas, [replace(params, eps=data.draw(eps)) for _ in range(n_paths)]


@settings(max_examples=60, deadline=None)
@given(
    model_tag=st.sampled_from(["numbers", "proportions"]),
    theta=_THETAS,
    eps=st.floats(0.0, 1.0, exclude_max=True),
    sigma=st.floats(1e-3, 100.0),
    per_path=st.booleans(),
    data=st.data(),
)
def test_lockstep_step_is_the_float_step_bit_for_bit(model_tag, theta, eps, sigma, per_path, data):
    # two steps, so both state buffers serve; raw results, as neither clamps.
    # Orders 1 and 2 take the two forms of make_beta_fast.  The columns share
    # one theta and one params, or each has its own theta (some shared,
    # orders mixed) and its own eps, sigma and rates, birth and death -0.0
    # among them (the test below pins the constants that only -0.0 tells apart)
    from sirlevy.simulate import _betas, _euler_step, _lockstep

    model = sl.get_model(model_tag)
    params, _, dim = _model_setup(model_tag, eps)
    params = replace(params, sigma=sigma)
    n_paths = data.draw(st.integers(1, 6))
    if per_path:
        pool = [theta, data.draw(_THETAS), data.draw(_THETAS)]
        thetas, path_params = _per_path_inputs(data, n_paths, pool, params, st.floats(0.0, 1.0, exclude_max=True))
        rates = st.one_of(st.floats(0.0, 1.0), st.just(-0.0))
        path_params = [
            replace(
                p,
                sigma=data.draw(st.floats(1e-3, 100.0)),
                gamma=data.draw(st.floats(1e-3, 1.0)),
                birth=data.draw(rates),
                death=data.draw(rates),
            )
            for p in path_params
        ]
    else:
        thetas, path_params = [theta] * n_paths, [params] * n_paths

    def array(elements, rows):
        values = data.draw(st.lists(elements, min_size=rows * n_paths, max_size=rows * n_paths))
        return np.array(values).reshape(rows, n_paths)

    states = array(_ANY_STATE, 3)
    times = [data.draw(st.floats(0.0, 3.0)) for _ in range(2)]
    dts = [data.draw(st.floats(1e-6, 0.1)) for _ in range(2)]
    dws = [array(st.floats(-1.0, 1.0), dim) for _ in range(2)]

    state, step = _lockstep(model, path_params, n_paths)
    betas = _betas(thetas)(times)
    state[:] = states
    float_steps = [_euler_step(model, th, p) for th, p in zip(thetas, path_params)]
    expected = [tuple(col) for col in states.T.tolist()]
    with np.errstate(all="ignore"):
        for k, dw in enumerate(dws):
            state = step(betas[k], dts[k], dw if dim == 3 else dw[0])
            expected = [f(times[k], *s, dts[k], d) for f, s, d in zip(float_steps, expected, dw.T.tolist())]
            _assert_same_floats(state.T, np.array(expected))


@pytest.mark.parametrize("birth, death", [(0.0, -0.0), (-0.0, -0.0)])
def test_lockstep_keeps_constants_that_differ_only_in_the_sign_of_zero(birth, death):
    # paths whose birth or death is 0.0 and paths whose is -0.0 share no
    # constant: on signed-zero states some results differ in the sign of 0
    from sirlevy.simulate import _betas, _euler_step, _lockstep

    model = sl.get_model("numbers")
    params = replace(sl.numbers_defaults(eps=0.3), birth=0.0, death=0.0)
    signed = replace(params, birth=birth, death=death)
    values, increments = itertools.product([0.0, -0.0, 0.5], repeat=3), itertools.product([0.0, 1.0, -1.0], repeat=3)
    cases = list(itertools.product(values, increments))
    path_params = [params, signed] * len(cases)
    states = np.array([s for s, _ in cases for _ in range(2)]).T
    dw = np.array([d for _, d in cases for _ in range(2)]).T
    state, step = _lockstep(model, path_params, len(path_params))
    state[:] = states
    got = step(_betas([THETA_REF] * len(path_params))([0.1])[0], 0.01, dw)
    steps = [_euler_step(model, THETA_REF, p) for p in (params, signed)] * len(cases)
    expected = np.array([f(0.1, *s, 0.01, d) for f, s, d in zip(steps, states.T.tolist(), dw.T.tolist())])
    assert expected[0::2].tobytes() != expected[1::2].tobytes()  # the float steps do differ
    _assert_same_floats(got.T, expected)


def _assert_same_floats(got, expected):
    """Equal bit for bit, except that a nan's sign and payload, which IEEE 754
    leaves to the machine, may differ."""
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


_N_OBS, _SUBSTEPS = 8, 3  # 24 base intervals on [0, 1]


def _jump_specs(dim):
    """Jumps of one path as (interval, fraction, mark): on base node k when the
    fraction is 0, else inside interval k; intervals past the last one put the
    jump beyond the horizon.  Marks are the law's, large ones that force a
    clamp, infinite ones that make the jump fail, or huge finite ones after
    which a step fails (on the numbers model)."""
    marks = [list(m) for m in (sl.levy.MARKS_3D if dim == 3 else sl.levy.MARKS_1D)]
    marks += [[-50.0, 0.0, 50.0] if dim == 3 else [1e4], [np.inf] * dim, [1e200] * dim]
    n_steps = _N_OBS * _SUBSTEPS
    spec = st.tuples(
        st.integers(0, n_steps + 1), st.sampled_from([0.0, 0.25, 0.5, 0.75]), st.sampled_from(range(len(marks)))
    )
    return st.lists(spec, max_size=4).map(lambda specs: [(k, f, marks[m]) for k, f, m in specs])


def _spec_noise(seed, dim, specs):
    base = np.linspace(0.0, 1.0, _N_OBS * _SUBSTEPS + 1)
    dt = base[1] - base[0]
    jumps = {}
    for k, frac, mark in specs:
        t = (base[k] if k < base.size else 1.0 + k * dt) + frac * dt
        if t > 0.0:
            jumps.setdefault(t, mark)  # one jump per time
    times = sorted(jumps)
    return _hand_noise(seed, dim, 2.0, times, [jumps[t] for t in times])


@settings(max_examples=80, deadline=None)
@given(
    model_tag=st.sampled_from(["numbers", "proportions"]),
    eps=st.sampled_from([0.3, 0.001]),
    sigma=st.sampled_from([0.5, 100.0]),
    budget=st.integers(1, 300),
    data=st.data(),
)
@example(model_tag="numbers", eps=0.3, sigma=0.5, budget=204, data=None)
@example(model_tag="proportions", eps=0.3, sigma=100.0, budget=5, data=None)
def test_simulate_many_rows_equal_simulate_sde_on_random_noises(model_tag, eps, sigma, budget, data):
    # random increment chunks put the jumps on chunk edges as well as on nodes
    # and inside intervals; data=None runs the fixed cases of the tests above
    import sirlevy.simulate as sim

    block = 1  # the PATH_BLOCK of the call: these few paths take the budget's chunks
    params, x0, dim = _model_setup(model_tag, eps)
    params = replace(params, sigma=sigma)
    if data is None:
        horizon, n_obs, substeps = 1.0, 20, 4
        chunk = max(1, budget // (max(17, block) * dim))

        def noises():
            return (
                _hand_noises(dim, horizon, n_obs, substeps)
                + _random_noises(dim, horizon, 8)
                + _chunk_edge_noises(dim, horizon, n_obs, substeps, chunk)
            )

    else:
        horizon, n_obs, substeps = 1.0, _N_OBS, _SUBSTEPS
        specs = data.draw(st.lists(_jump_specs(dim), min_size=1, max_size=5))

        def noises():
            return [_spec_noise(3000 + i, dim, s) for i, s in enumerate(specs)]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "INCREMENT_BUDGET", budget)
        patch.setattr(sim, "PATH_BLOCK", block)
        batch = sim.simulate_many(model_tag, THETA_REF, params, x0, horizon, n_obs, noises(), substeps)
    for p, noise in enumerate(noises()):
        try:
            traj = sl.simulate_sde(model_tag, THETA_REF, params, x0, horizon, n_obs, noise, substeps)
        except sl.SimulationError as err:
            assert batch.fail_times[p] == err.time, p
            continue
        assert not batch.failed[p], p
        assert batch.states[p].tobytes() == traj.states.tobytes(), p
        assert batch.clamp_counts[p] == traj.clamp_count, p


@settings(max_examples=60, deadline=None)
@given(
    model_tag=st.sampled_from(["numbers", "proportions"]),
    sigma=st.sampled_from([0.5, 100.0]),
    budget=st.integers(1, 300),
    data=st.data(),
)
def test_simulate_many_rows_equal_simulate_sde_with_per_path_theta_and_eps(model_tag, sigma, budget, data):
    # each path its own theta (some shared, orders mixed) and its own eps;
    # PathBatch.trajectory gives simulate_sde's trajectory or raises its error,
    # so the failure's time and kind (step or jump) are compared too
    import sirlevy.simulate as sim

    params, x0, dim = _model_setup(model_tag)
    params = replace(params, sigma=sigma)
    specs = data.draw(st.lists(_jump_specs(dim), min_size=1, max_size=5))
    pool = [THETA_REF, data.draw(_THETAS), data.draw(_THETAS)]
    eps = st.sampled_from([0.0, 0.001, 0.3, 0.9])
    thetas, path_params = _per_path_inputs(data, len(specs), pool, params, eps)

    def noises():
        return [_spec_noise(3000 + i, dim, s) for i, s in enumerate(specs)]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "INCREMENT_BUDGET", budget)
        patch.setattr(sim, "PATH_BLOCK", 1)  # as in the test above
        batch = sim.simulate_many(model_tag, thetas, path_params, x0, 1.0, _N_OBS, noises(), _SUBSTEPS)
    for p, noise in enumerate(noises()):
        try:
            traj = sl.simulate_sde(model_tag, thetas[p], path_params[p], x0, 1.0, _N_OBS, noise, _SUBSTEPS)
        except sl.SimulationError as err:
            with pytest.raises(sl.SimulationError) as got:
                batch.trajectory(p)
            assert (str(got.value), got.value.time) == (str(err), err.time), p
            assert batch.fail_at_jump[p] == str(err).startswith("non-finite state at jump"), p
            continue
        row = batch.trajectory(p)
        assert row.states.tobytes() == traj.states.tobytes(), p
        assert row.times.tobytes() == traj.times.tobytes()
        assert (row.clamp_count, row.meta, row.lam, row.seed) == (traj.clamp_count, traj.meta, traj.lam, traj.seed), p
        assert (row.theta, row.params, row.model) == (traj.theta, traj.params, traj.model), p


@pytest.mark.parametrize("demographics", [dict(birth=0.018), dict(death=0.00042)])
def test_proportions_integrators_refuse_births_and_deaths(demographics):
    params = replace(sl.proportions_defaults(eps=0.1), **demographics)
    noise = sl.LevyPathNoise(1, 2.0, 1.0, 1)
    named = next(iter(demographics))
    with pytest.raises(ValueError, match=f"{named}="):
        sl.simulate_sde("proportions", THETA_REF, params, X0_PROPORTIONS, 1.0, 10, noise)
    # one path of the batch with demographics is enough
    mixed, noises = [sl.proportions_defaults(eps=0.1), params], [noise, sl.LevyPathNoise(2, 2.0, 1.0, 1)]
    with pytest.raises(ValueError, match=f"{named}="):
        sl.simulate_many("proportions", THETA_REF, mixed, X0_PROPORTIONS, 1.0, 10, noises)
    with pytest.raises(ValueError, match=f"{named}="):
        sl.solve_ode("proportions", THETA_REF, params, X0_PROPORTIONS, 1.0, 10)
    # the numbers model keeps its demographics
    sl.solve_ode("numbers", THETA_REF, replace(sl.numbers_defaults(), **demographics), X0_NUMBERS, 1.0, 10)
