import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import sirlevy as sl
from sirlevy import BoxConstraints, ContrastConfig, EstimatorConfig, SingularDesignError
from sirlevy.contrast import AlphaQuadratic, DegenerateWeightsError, alpha_profile
from sirlevy.estimator import _scan_lattice, pgd_quadratic

from conftest import THETA_REF, X0_NUMBERS, design_slope, make_dataset

PARAMS = sl.numbers_defaults()


def _certified_solve(gram, lin):
    """The normal-equations solution on floats where :func:`_certified_factor` certifies the gram, else None."""
    factor = sl.contrast._certified_factor(gram)
    return None if factor is None else sl.contrast._factor_solve(factor, lin)


def _toy_trajectory():
    # two observations, unit-product states at the left nodes so the weighted
    # form has weight exactly (sigma)^-2 = 4 there
    times = np.array([0.0, 0.5, 1.0])
    states = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.9, 0.8, 1.1]])
    return sl.Trajectory(times=times, states=states, model="numbers", params=PARAMS)


def test_residuals_frozen_toy_values():
    traj = _toy_trajectory()
    P = sl.residuals(traj, THETA_REF, PARAMS)
    expect = np.array(
        [
            [0.09785986499999999, -0.070729865, -0.0355],
            [-0.04959878456560437, -0.22327121543439557, 0.06450000000000009],
        ]
    )
    assert np.allclose(P, expect, rtol=1e-14, atol=0)


def test_contrast_plain_frozen_toy_value():
    traj = _toy_trajectory()
    cfg = ContrastConfig(form="plain", eps=1.0)
    assert sl.contrast_value(traj, THETA_REF, PARAMS, cfg) == pytest.approx(0.14461968410534792, rel=1e-14)
    # no config means the plain form at the params' eps
    default = ContrastConfig(form="plain", eps=PARAMS.eps)
    assert sl.contrast_value(traj, THETA_REF, PARAMS) == sl.contrast_value(traj, THETA_REF, PARAMS, default)


def test_contrast_weighted_is_plain_times_four_on_toy():
    traj = _toy_trajectory()
    plain = sl.contrast_value(traj, THETA_REF, PARAMS, ContrastConfig(form="plain", eps=1.0))
    weighted = sl.contrast_value(traj, THETA_REF, PARAMS, ContrastConfig(form="weighted", eps=1.0))
    assert weighted == pytest.approx(4.0 * plain, rel=1e-13)
    assert weighted == pytest.approx(0.5784787364213917, rel=1e-13)


def test_single_unit_residual_definition():
    times = np.array([0.0, 1.0])
    # infection-free corner state: the drift vanishes identically, so the
    # residual is exactly the increment
    states = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    p = sl.SirParams(birth=0.0, death=0.0, gamma=1.0, sigma=1.0)
    traj = sl.Trajectory(times=times, states=states, model="proportions", params=p)
    cfg = ContrastConfig(form="plain", eps=1.0)
    assert sl.contrast_value(traj, THETA_REF, p, cfg) == pytest.approx(1.0, abs=0)


def test_exact_euler_trajectory_has_zero_residuals():
    p = sl.numbers_defaults()
    n = 40
    dt = 1.0 / n
    s = np.asarray(X0_NUMBERS, dtype=float)
    states = [s.copy()]
    for k in range(n):
        s = s + dt * sl.drift_numbers(k * dt, s, THETA_REF, p)
        states.append(s.copy())
    traj = sl.Trajectory(times=np.linspace(0, 1, n + 1), states=np.array(states), model="numbers", params=p)
    P = sl.residuals(traj, THETA_REF, p)
    # zero up to one rounding of the state update per step
    bound = 4 * np.finfo(float).eps * np.abs(traj.states).max()
    assert np.abs(P).max() <= bound
    assert sl.contrast_value(traj, THETA_REF, p, ContrastConfig(form="plain", eps=1.0)) <= n * 9 * bound**2


def test_weighted_degenerate_flag_when_state_touches_zero():
    times = np.linspace(0, 1, 3)
    states = np.array([[1.0, 0.0, 1.0], [1.0, 0.5, 1.0], [1.0, 0.4, 1.0]])
    traj = sl.Trajectory(times=times, states=states, model="numbers", params=PARAMS)
    assert sl.contrast_value(traj, THETA_REF, PARAMS, ContrastConfig(form="weighted", eps=PARAMS.eps)) == 0.0
    with pytest.raises(DegenerateWeightsError):
        sl.contrast.weighted_coefficient("numbers", traj.states[:-1], PARAMS)
    grad = sl.contrast_gradient(traj, THETA_REF, PARAMS, ContrastConfig(form="weighted", eps=1.0))
    assert np.all(grad == 0.0)


def test_weighted_requires_numbers_model():
    traj = make_dataset(seed=1, eps=0.01, model="proportions")
    with pytest.raises(ValueError):
        sl.contrast_value(traj, THETA_REF, sl.proportions_defaults(), ContrastConfig(form="weighted", eps=0.01))


def test_irregular_grid_rejected():
    times = np.array([0.0, 0.3, 1.0])
    states = np.zeros((3, 3))
    traj = sl.Trajectory(times=times, states=states, model="numbers", params=PARAMS)
    with pytest.raises(ValueError):
        sl.residuals(traj, THETA_REF, PARAMS)


def test_gradient_matches_finite_differences(numbers_traj, numbers_params):
    cfg = ContrastConfig(form="weighted", eps=0.001)
    rng = np.random.default_rng(12)
    for _ in range(60):
        vec = np.array(
            [rng.uniform(0.05, 0.95), rng.uniform(0.1, 0.8), rng.uniform(0.0, 0.4), rng.uniform(0.0, 0.4)]
        )
        g = sl.contrast_gradient(numbers_traj, sl.ThetaParams.from_vector(vec), numbers_params, cfg)
        fd = np.zeros(4)
        for j in range(4):
            h = 1e-6 * max(1.0, abs(vec[j]))
            vp, vm = vec.copy(), vec.copy()
            vp[j] += h
            vm[j] -= h
            fd[j] = (
                sl.contrast_value(numbers_traj, sl.ThetaParams.from_vector(vp), numbers_params, cfg)
                - sl.contrast_value(numbers_traj, sl.ThetaParams.from_vector(vm), numbers_params, cfg)
            ) / (2 * h)
        assert np.linalg.norm(g - fd) <= 1e-6 * np.linalg.norm(fd)


def test_gradient_alpha_block_vanishes_at_linear_solution(numbers_traj, numbers_params):
    cfg = ContrastConfig(form="weighted", eps=0.001)
    vt = THETA_REF.period
    alpha = sl.linear_solve_alpha(numbers_traj, vt, numbers_params, cfg)
    th = sl.ThetaParams.from_vector(np.concatenate([[vt], alpha]))
    g = sl.contrast_gradient(numbers_traj, th, numbers_params, cfg)
    scale = np.abs(g).max() + abs(sl.contrast_value(numbers_traj, th, numbers_params, cfg))
    assert np.abs(g[1:]).max() <= 1e-8 * scale


def test_gradient_period_component_zero_without_oscillation(numbers_traj, numbers_params):
    th = sl.ThetaParams(0.4, 0.3, 0.0, 0.0)
    g = sl.contrast_gradient(numbers_traj, th, numbers_params, ContrastConfig(form="plain", eps=0.001))
    assert g[0] == 0.0


def test_linear_solve_self_consistency_noiseless():
    traj = make_dataset(seed=5, eps=0.0, substeps=10)
    cfg = ContrastConfig(form="weighted", eps=0.0)
    alpha = sl.linear_solve_alpha(traj, THETA_REF.period, sl.numbers_defaults(), cfg)
    assert np.abs(alpha - [THETA_REF.base, *THETA_REF.cos_coeffs, *THETA_REF.sin_coeffs]).max() <= 0.02


def test_linear_solve_singular_without_infections():
    times = np.linspace(0, 1, 11)
    states = np.tile([2.0, 0.0, 0.5], (11, 1))
    p = sl.numbers_defaults()
    traj = sl.Trajectory(times=times, states=states, model="numbers", params=p)
    with pytest.raises(SingularDesignError) as err:
        sl.linear_solve_alpha(traj, 0.3, p, ContrastConfig(form="plain", eps=1.0))
    assert "base" in str(err.value)


def test_linear_solve_rejects_a_nearly_collinear_full_rank_design():
    # a period thousands of times the horizon leaves the cosine column nearly
    # constant: the weighted design is full rank to an SVD, but its unit-norm
    # columns' condition number (about 1e7 at period 3000) is past the
    # normal-equations cutoff, so the unconstrained solve raises while the box
    # solve falls back to face enumeration
    traj = make_dataset(seed=1, eps=0.01)
    cfg = ContrastConfig(form="weighted", eps=0.01)
    profile = alpha_profile(traj, traj.params, cfg)
    box = BoxConstraints()
    lower, upper = box.alpha_bounds(1)

    def weighted_design(period):
        return sl.contrast._design_columns(profile.t, period, 1) * (profile.dt * np.sqrt(profile.vv))[:, None]

    assert np.linalg.matrix_rank(weighted_design(3000.0)) == 3
    with pytest.raises(SingularDesignError) as err:
        sl.linear_solve_alpha(traj, 3000.0, traj.params, cfg)
    assert "rank 2 < 3" in str(err.value)
    quad = profile.quadratic(3000.0)
    alpha, value = profile.solve(3000.0, box)
    assert np.array_equal(alpha, sl.contrast._enumerate_faces(quad.gram, quad.lin, lower, upper))
    assert value == quad.value(alpha)
    # well inside the cutoff (condition number about 1e3) the normal equations
    # agree with an SVD least-squares solve
    target = profile.rv / np.sqrt(profile.vv)
    reference = np.linalg.lstsq(weighted_design(30.0), target, rcond=None)[0]
    assert sl.linear_solve_alpha(traj, 30.0, traj.params, cfg) == pytest.approx(reference, rel=1e-8)


def test_linear_solve_satisfies_normal_equations(numbers_traj, numbers_params):
    cfg = ContrastConfig(form="weighted", eps=0.001)
    vt = 0.31
    alpha = sl.linear_solve_alpha(numbers_traj, vt, numbers_params, cfg)
    quad = sl.alpha_quadratic(numbers_traj, vt, numbers_params, cfg)
    resid = quad.gram @ alpha - quad.lin
    assert np.abs(resid).max() <= 1e-10 * max(1.0, np.abs(quad.lin).max())


def test_alpha_quadratic_agrees_with_contrast(numbers_traj, numbers_params):
    cfg = ContrastConfig(form="weighted", eps=0.001)
    rng = np.random.default_rng(3)
    quad = sl.alpha_quadratic(numbers_traj, 0.27, numbers_params, cfg)
    for _ in range(10):
        alpha = rng.uniform(0.0, 0.8, size=3)
        th = sl.ThetaParams(0.27, alpha[0], alpha[1], alpha[2])
        direct = sl.contrast_value(numbers_traj, th, numbers_params, cfg)
        assert quad.value(alpha) == pytest.approx(direct, rel=1e-12)


def test_degenerate_weights_error_from_profile():
    times = np.linspace(0, 1, 3)
    states = np.array([[1.0, 0.0, 1.0], [1.0, 0.5, 1.0], [1.0, 0.4, 1.0]])
    traj = sl.Trajectory(times=times, states=states, model="numbers", params=PARAMS)
    with pytest.raises(DegenerateWeightsError):
        alpha_profile(traj, PARAMS, ContrastConfig(form="weighted", eps=1.0))


def test_scale_equivariance_in_eps():
    traj = make_dataset(seed=9, eps=0.01)
    p = sl.numbers_defaults(eps=0.01)
    v1 = sl.contrast_value(traj, THETA_REF, p, ContrastConfig(form="weighted", eps=0.01))
    v2 = sl.contrast_value(traj, THETA_REF, p, ContrastConfig(form="weighted", eps=0.02))
    assert v1 == pytest.approx(4.0 * v2, rel=1e-12)
    a1 = sl.linear_solve_alpha(traj, 0.3, p, ContrastConfig(form="weighted", eps=0.01))
    a2 = sl.linear_solve_alpha(traj, 0.3, p, ContrastConfig(form="weighted", eps=0.02))
    assert np.allclose(a1, a2, rtol=1e-12)


def test_limit_of_contrast_difference_matches_asymptotic_objective():
    # noiseless fine-step data: the centered objective approaches the
    # integrated squared drift separation; the gap shrinks like 1/n and the
    # 2 percent band needs a dense observation grid
    traj = make_dataset(seed=13, eps=0.0, substeps=10, n_obs=1600)
    p = sl.numbers_defaults(eps=0.0)
    cfg = ContrastConfig(form="plain", eps=0.0)  # scale n, matching the n * sum form
    base_val = sl.contrast_value(traj, THETA_REF, p, cfg)
    rng = np.random.default_rng(21)
    for _ in range(12):
        th = sl.ThetaParams(
            rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.6), rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3)
        )
        phi = sl.contrast_value(traj, th, p, cfg) - base_val
        F = sl.asymptotic_contrast("numbers", th, THETA_REF, p, X0_NUMBERS)
        assert phi == pytest.approx(F, rel=0.02)


def test_weighted_nonnegative_and_zero_iff_residuals_zero(numbers_traj, numbers_params):
    cfg = ContrastConfig(form="weighted", eps=0.001)
    rng = np.random.default_rng(17)
    for _ in range(40):
        th = sl.ThetaParams(rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0), rng.uniform(0, 0.5), rng.uniform(0, 0.5))
        assert sl.contrast_value(numbers_traj, th, numbers_params, cfg) > 0.0


# ---------------------------------------------------------------------------
# exact box-constrained coefficient solve and the batched period scan


def _halves(draw, size, lo, hi):
    return np.array(draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)), dtype=float) / 2.0


@st.composite
def box_problems(draw):
    """A least-squares quadratic gram = B'B, lin = B'y and a box.

    Entries are small multiples of 1/2, so the grams are exact in floating
    point; fewer rows than coefficients, repeated or zero columns make them
    rank deficient.
    """
    q = draw(st.sampled_from([1, 3, 5]))
    rows = draw(st.integers(1, 2 * q))
    B = np.stack([_halves(draw, q, -4, 4) for _ in range(rows)])
    y = _halves(draw, rows, -6, 6)
    lower = _halves(draw, q, -4, 2)
    upper = lower + _halves(draw, q, 0, 4)
    scale = draw(st.sampled_from([1.0, 100.0, 1e8]))
    quad = AlphaQuadratic(gram=B.T @ B, lin=B.T @ y, const=float(y @ y), scale=scale, period=0.5, order=(q - 1) // 2)
    return quad, lower, upper


def _pg_map(quad, alpha, lower, upper) -> float:
    """Largest entry of the curvature-scaled projected-gradient map; 0 exactly at a box KKT point."""
    curv = quad.lipschitz()
    if curv <= 0.0:
        return 0.0  # zero gram: the least-squares lin is zero too, every point is optimal
    return float(np.abs(alpha - np.clip(alpha - quad.grad(alpha) / curv, lower, upper)).max())


def _value_slack(quad, *points) -> float:
    """Rounding allowance of AlphaQuadratic.value, which cancels large terms near the optimum."""
    terms = [quad.const] + [abs(2.0 * quad.lin @ a) + abs(a @ quad.gram @ a) for a in points]
    return 1e-12 * quad.scale * (1.0 + max(terms))


def _clipped_solve(quad, lower, upper) -> np.ndarray:
    try:
        raw = np.linalg.solve(quad.gram, quad.lin)
    except np.linalg.LinAlgError:
        raw = np.linalg.lstsq(quad.gram, quad.lin, rcond=None)[0]
    return np.clip(raw, lower, upper)


@settings(max_examples=200, deadline=None)
@given(box_problems())
def test_box_solve_satisfies_kkt(problem):
    quad, lower, upper = problem
    alpha = sl.contrast._enumerate_faces(quad.gram, quad.lin, lower, upper)
    assert np.all(alpha >= lower) and np.all(alpha <= upper)
    assert _pg_map(quad, alpha, lower, upper) <= 1e-9 * (1.0 + np.abs(alpha).max())


@settings(max_examples=100, deadline=None)
@given(box_problems())
def test_box_solve_beats_clipped_solve_and_pgd(problem):
    quad, lower, upper = problem
    alpha = sl.contrast._enumerate_faces(quad.gram, quad.lin, lower, upper)
    clipped = _clipped_solve(quad, lower, upper)
    pgd = pgd_quadratic(quad, lower, upper, start=clipped, max_iter=2000)
    slack = _value_slack(quad, alpha, clipped, pgd.alpha)
    assert quad.value(alpha) <= quad.value(clipped) + slack
    assert quad.value(alpha) <= pgd.value + slack


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(box_problems())
def test_box_solve_is_unconstrained_solve_when_interior(problem):
    quad, lower, upper = problem
    if np.linalg.matrix_rank(quad.gram) < quad.lin.size:
        return  # no unique unconstrained solve
    raw = np.linalg.solve(quad.gram, quad.lin)
    margin = min((raw - lower).min(), (upper - raw).min())
    if margin <= 1e-6:
        return  # not interior
    alpha = sl.contrast._enumerate_faces(quad.gram, quad.lin, lower, upper)
    assert np.allclose(alpha, raw, rtol=1e-9, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 5),
    eps=st.sampled_from([0.3, 0.01]),
    period=st.floats(0.02, 1.0),
    base=st.sampled_from([(1e-6, 2.0), (0.2, 0.25), (0.5, 1.0)]),
    osc=st.sampled_from([(0.0, 2.0), (0.0, 0.05), (0.1, 0.3)]),
)
def test_profile_solve_kkt_on_trajectories(seed, eps, period, base, osc):
    traj = make_dataset(seed=seed, eps=eps)
    cfg = ContrastConfig(form="weighted", eps=eps)
    box = BoxConstraints(base=base, osc=osc)
    lower, upper = box.alpha_bounds(1)
    alpha, value = alpha_profile(traj, traj.params, cfg).solve(period, box)
    quad = sl.alpha_quadratic(traj, period, traj.params, cfg)
    assert np.all(alpha >= lower) and np.all(alpha <= upper)
    assert value == quad.value(alpha)
    assert _pg_map(quad, alpha, lower, upper) <= 1e-9 * (1.0 + np.abs(alpha).max())
    clipped = _clipped_solve(quad, lower, upper)
    assert value <= quad.value(clipped) + _value_slack(quad, alpha, clipped)


def test_profile_solve_returns_least_squares_solution_when_interior(numbers_traj, numbers_params):
    cfg = ContrastConfig(form="weighted", eps=0.001)
    exact = sl.linear_solve_alpha(numbers_traj, THETA_REF.period, numbers_params, cfg)
    alpha, value = alpha_profile(numbers_traj, numbers_params, cfg).solve(THETA_REF.period, BoxConstraints())
    assert np.array_equal(alpha, exact)
    assert value == sl.alpha_quadratic(numbers_traj, THETA_REF.period, numbers_params, cfg).value(exact)


def test_profile_solve_handles_singular_design():
    # no infections: the transmission term vanishes, every coefficient is optimal
    times = np.linspace(0, 1, 11)
    states = np.tile([2.0, 0.0, 0.5], (11, 1))
    p = sl.numbers_defaults()
    traj = sl.Trajectory(times=times, states=states, model="numbers", params=p)
    box = BoxConstraints()
    cfg = ContrastConfig(form="plain", eps=1.0)
    alpha, value = alpha_profile(traj, p, cfg).solve(0.3, box)
    lower, upper = box.alpha_bounds(1)
    assert np.all(alpha >= lower) and np.all(alpha <= upper)
    quad = sl.alpha_quadratic(traj, 0.3, p, cfg)
    assert value == pytest.approx(quad.scale * quad.const, rel=1e-12)


def test_estimate_converges_when_cells_leave_the_box():
    traj = make_dataset(seed=0, eps=0.3)
    cfg = ContrastConfig(form="weighted", eps=0.3)
    box = BoxConstraints()
    lower, upper = box.alpha_bounds(1)
    res = sl.lsgd_estimate(traj, EstimatorConfig(), box, cfg, seed=0)
    outside = 0
    for cell in res.cells:
        if not cell.refined:
            alpha = sl.linear_solve_alpha(traj, cell.period, traj.params, cfg)
            outside += bool(np.any(alpha < lower) or np.any(alpha > upper))
    assert outside > 0
    assert res.converged


@pytest.mark.parametrize("seed,eps", [(1, 0.3), (4, 0.1), (7, 0.01), (11, 0.001)])
def test_batched_scan_matches_scalar_loop(seed, eps):
    traj = make_dataset(seed=seed, eps=eps)
    cfg = ContrastConfig(form="weighted", eps=eps)
    box = BoxConstraints()
    lower, upper = box.alpha_bounds(1)
    profile = alpha_profile(traj, traj.params, cfg)
    j = _scan_lattice(profile, box)
    _, values = profile.scan(j, lower, upper)
    best = None
    for i in j:
        value = profile.solve_clipped(1.0 / (i * profile.df), lower, upper)[1]
        if best is None or value < best[1]:
            best = (i, value)
    k = int(np.argmin(values))
    assert j[k] == best[0]
    assert values[k] == pytest.approx(best[1], rel=1e-12)


def test_batched_scan_matches_scalar_loop_on_singular_grams():
    # Y = 0 makes the transmission direction vanish: every gram is zero
    times = np.linspace(0, 1, 11)
    states = np.tile([2.0, 0.0, 0.5], (11, 1))
    p = sl.numbers_defaults()
    traj = sl.Trajectory(times=times, states=states, model="numbers", params=p)
    profile = alpha_profile(traj, p, ContrastConfig(form="plain", eps=1.0))
    lower, upper = BoxConstraints().alpha_bounds(1)
    j = np.arange(1, 21)
    alphas, values = profile.scan(j, lower, upper)
    for i, alpha, value in zip(j, alphas, values):
        ref_alpha, ref_value = profile.solve_clipped(1.0 / (i * profile.df), lower, upper)
        assert np.array_equal(alpha, ref_alpha)
        assert value == pytest.approx(ref_value, rel=1e-12)


def test_scan_solves_only_the_singular_rows_from_the_design():
    # at order 2 and n = 100 the lattice points j = 160..400 are 20 to 50 in
    # eighth steps; a harmonic of f = 25 or 50 lands on the sampling rate, a
    # sin column vanishes on the grid, and the FFT's moment gram is exactly singular
    j = np.arange(160, 401)
    lower, upper = BoxConstraints().alpha_bounds(2)
    for seed, eps in [(0, 0.3), (2, 0.3), (8, 0.01), (9, 0.01)]:
        traj = make_dataset(seed=seed, eps=eps)
        profile = alpha_profile(traj, traj.params, ContrastConfig(form="weighted", eps=eps), order=2)
        assert j[0] * profile.df == 20.0 and j[-1] * profile.df == 50.0
        gram, lin = profile._lattice_gram_lin(j)
        singular = np.zeros(j.size, dtype=bool)
        for i in range(j.size):
            try:
                np.linalg.solve(gram[i], lin[i])
            except np.linalg.LinAlgError:
                singular[i] = True
        assert j[singular].tolist() == [200, 400]
        alphas, values = profile.scan(j, lower, upper)
        for i, alpha in zip(j[singular], alphas[singular]):
            assert np.array_equal(alpha, profile.solve_clipped(1.0 / (i * profile.df), lower, upper)[0])
        rest_alphas, rest_values = profile.scan(j[~singular], lower, upper)
        assert np.array_equal(alphas[~singular], rest_alphas)
        assert np.array_equal(values[~singular], rest_values)


def _moment_scan_trajectory(order, n_obs, seed, model="numbers"):
    # a transmission of the fitted order, so every harmonic of the scan carries signal
    osc = [0.3 / k for k in range(1, order + 1)]
    theta = sl.ThetaParams(0.3, 0.6, tuple(osc), tuple(0.5 * x for x in osc))
    return make_dataset(seed=seed, eps=0.01, theta=theta, n_obs=n_obs, substeps=1, model=model)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("n_obs", [100, 37, 2])
def test_moment_gram_equals_the_design_gram(order, n_obs):
    traj = _moment_scan_trajectory(order, n_obs, seed=order + n_obs)
    profile = alpha_profile(traj, traj.params, ContrastConfig(form="weighted", eps=0.01), order=order)
    # every lattice point up to the Nyquist frequency, from the period 4KT down
    j = np.arange(1, 2 * order * n_obs + 1)
    gram, lin = profile._lattice_gram_lin(j)
    ref_gram, ref_lin = profile._gram_lin(sl.contrast._design_columns(profile.t, 1.0 / (j * profile.df), order))
    assert gram.shape == ref_gram.shape and lin.shape == ref_lin.shape
    assert np.array_equal(gram, np.swapaxes(gram, 1, 2))
    # rounding relative to the entries' scale: every gram entry is bounded by
    # dt^2 sum vv and every linear entry by dt sum |rv|; the design rounds the
    # phases, up to 2 pi 2K n / 2 radians at the Nyquist frequency
    assert np.abs(gram - ref_gram).max() <= 1e-12 * profile.dt**2 * profile.vv.sum()
    assert np.abs(lin - ref_lin).max() <= 1e-12 * profile.dt * np.abs(profile.rv).sum()


def _shifted(traj, t0):
    """The trajectory with its clock started at t0 instead of 0."""
    return sl.Trajectory(times=traj.times + t0, states=traj.states, model=traj.model, params=traj.params)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize(
    "model,n_obs,t0",
    [
        ("numbers", 100, 0.0),
        ("numbers", 1600, 0.0),
        ("proportions", 100, 0.0),
        ("proportions", 1600, 0.0),
        ("numbers", 100, 0.37),  # a grid that does not start at 0: the bins carry a phase
        ("proportions", 101, 0.0),  # an odd n
    ],
)
def test_fft_moments_equal_direct_sums(model, n_obs, t0, order):
    traj = _moment_scan_trajectory(order, n_obs, seed=n_obs + order, model=model)
    form = "weighted" if model == "numbers" else "plain"
    profile = alpha_profile(_shifted(traj, t0), None, ContrastConfig(form=form, eps=0.01), order=order)
    # every lattice point up to the Nyquist frequency 2Kn df; at n = 1600
    # every 11th and the last, to keep the direct sums small
    top = 2 * order * n_obs
    j = np.unique(np.r_[np.arange(1, top + 1, 1 if n_obs < 1000 else 11), top])
    gram, lin = profile._lattice_gram_lin(j)
    # direct sums sum_k w_k e^{ih 2 pi f_j t_k} over the grid's own times, a few rows at a time
    harmonic = np.arange(2 * order + 1)
    Z = np.empty((j.size, harmonic.size), dtype=complex)
    R = np.empty((j.size, order + 1), dtype=complex)
    for rows in np.array_split(np.arange(j.size), max(1, j.size // 64)):
        x = 2.0 * np.pi * np.multiply.outer(np.multiply.outer(j[rows] * profile.df, harmonic), profile.t)
        Z[rows], R[rows] = np.exp(1j * x) @ profile.vv, np.exp(1j * x[:, : order + 1]) @ profile.rv
    first_of, second_of = sl.contrast._product_to_sum(order)
    X = np.concatenate([Z.real, Z.imag, -Z.real, -Z.imag], axis=1)
    ref_gram = profile.dt**2 * (X[:, first_of] + X[:, second_of]) / 2.0
    ref_lin = profile.dt * np.concatenate([R.real, R.imag[:, 1:]], axis=1)
    # a gram entry is a half-sum of two vv moments, a linear entry one rv moment
    assert np.abs(gram - ref_gram).max() <= 1e-12 * profile.dt**2 * profile.vv.sum()
    assert np.abs(lin - ref_lin).max() <= 1e-12 * profile.dt * np.abs(profile.rv).sum()


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("n_obs", [100, 37])
def test_moment_scan_matches_scalar_loop(order, n_obs):
    traj = _moment_scan_trajectory(order, n_obs, seed=10 * order + n_obs)
    cfg = ContrastConfig(form="weighted", eps=0.01)
    box = BoxConstraints()
    lower, upper = box.alpha_bounds(order)
    profile = alpha_profile(traj, traj.params, cfg, order=order)
    j = _scan_lattice(profile, box)
    freqs = j * profile.df
    alphas, values = profile.scan(j, lower, upper)
    ref = [profile.solve_clipped(1.0 / f, lower, upper) for f in freqs]
    ref_values = np.array([value for _, value in ref])
    assert np.argmin(values) == np.argmin(ref_values)
    # the value cancels digits against scale * rr, as the scalar one does
    assert values.min() == pytest.approx(ref_values.min(), abs=1e-12 * profile.scale * profile.rr)
    # alphas to 1e-9 where the unit-diagonal gram is well conditioned and no
    # column is rounding noise (the sine columns vanish at the Nyquist frequency)
    well = 0
    for f, alpha, (ref_alpha, _) in zip(freqs, alphas, ref):
        gram = profile.quadratic(1.0 / f).gram
        diag = np.diag(gram)
        if np.linalg.eigvalsh(gram / np.sqrt(np.outer(diag, diag)))[0] > 1e-2 and diag.min() > 1e-3 * diag.max():
            np.testing.assert_allclose(alpha, ref_alpha, rtol=1e-9, atol=1e-9)
            well += 1
    assert well >= freqs.size // 2, (well, freqs.size)


@st.composite
def stacked_box_problems(draw):
    """Several least-squares quadratics of one size sharing one box, stacked: (gram, lin, lower, upper)."""
    q = draw(st.sampled_from([1, 3, 5]))
    lower = _halves(draw, q, -4, 2)
    upper = lower + _halves(draw, q, 0, 4)
    grams, lins = [], []
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(st.integers(1, 2 * q))
        B = np.stack([_halves(draw, q, -4, 4) for _ in range(rows)])
        y = _halves(draw, rows, -6, 6)
        grams.append(B.T @ B)
        lins.append(B.T @ y)
    return np.stack(grams), np.stack(lins), lower, upper


@settings(max_examples=200, deadline=None)
@given(stacked_box_problems())
def test_certified_box_solve_matches_face_enumeration(problem):
    gram, lin, lower, upper = problem
    fast = sl.contrast.solve_box(gram, lin, lower, upper)
    for i in range(lin.shape[0]):
        quad = AlphaQuadratic(gram=gram[i], lin=lin[i], const=0.0, scale=1.0, period=0.5, order=0)
        exact = sl.contrast._enumerate_faces(quad.gram, quad.lin, lower, upper)
        assert np.all(fast[i] >= lower) and np.all(fast[i] <= upper)
        assert _pg_map(quad, fast[i], lower, upper) <= 1e-9 * (1.0 + np.abs(fast[i]).max())
        slack = _value_slack(quad, fast[i], exact)
        assert abs(quad.value(fast[i]) - quad.value(exact)) <= slack
        # each row is solved as if alone
        assert np.array_equal(fast[i], sl.contrast.solve_box(gram[i : i + 1], lin[i : i + 1], lower, upper)[0])


def _count_enumerations(monkeypatch):
    calls = []
    real = sl.contrast._enumerate_faces
    monkeypatch.setattr(sl.contrast, "_enumerate_faces", lambda *a: calls.append(1) or real(*a))
    return calls


def test_box_solve_takes_the_certified_face_when_it_is_optimal(monkeypatch):
    # separable quadratic: clipping the unconstrained solution is the minimizer
    gram = np.diag([1.0, 2.0, 4.0])[None]
    lin = np.array([[3.0, -1.0, 2.0]])  # unconstrained solution (3, -0.5, 0.5)
    lower, upper = np.zeros(3), np.ones(3)
    calls = _count_enumerations(monkeypatch)
    alpha = sl.contrast.solve_box(gram, lin, lower, upper)[0]
    assert calls == []
    assert np.array_equal(alpha, [1.0, 0.0, 0.5])


def test_box_solve_enumerates_when_the_clipped_face_is_not_optimal(monkeypatch):
    # coupled coefficients: the unconstrained solution (1.5, -0.1) clips to the
    # vertex (1, 0), where the lower bound's multiplier has the wrong sign; the
    # minimizer is (1, 0.15) on an edge
    gram = np.array([[[1.0, 0.5], [0.5, 1.0]]])
    lin = np.array([[1.45, 0.65]])
    lower, upper = np.zeros(2), np.ones(2)
    calls = _count_enumerations(monkeypatch)
    alpha = sl.contrast.solve_box(gram, lin, lower, upper)[0]
    assert calls == [1]
    quad = AlphaQuadratic(gram=gram[0], lin=lin[0], const=0.0, scale=1.0, period=0.5, order=0)
    assert np.array_equal(alpha, sl.contrast._enumerate_faces(quad.gram, quad.lin, lower, upper))
    assert alpha == pytest.approx([1.0, 0.15], rel=1e-12)


@pytest.mark.parametrize("seed,eps", [(0, 0.3), (3, 0.1), (7, 0.01), (11, 0.001)])
def test_batched_cells_equal_scalar_solves(seed, eps):
    traj = make_dataset(seed=seed, eps=eps)
    cfg = ContrastConfig(form="weighted", eps=eps)
    box = BoxConstraints()
    profile = alpha_profile(traj, traj.params, cfg)
    res = sl.lsgd_estimate(traj, EstimatorConfig(), box, cfg, seed=seed)
    for cell in res.cells:
        if cell.refined:  # the period search's point, valued from the residuals
            continue
        alpha, value = profile.solve(cell.period, box)
        assert np.array_equal(cell.alpha, alpha)
        assert cell.value == value
    periods = np.random.default_rng(seed).uniform(0.02, 1.0, size=50)
    alphas, values = profile.solve_many(periods, box)
    for period, alpha, value in zip(periods, alphas, values):
        ref_alpha, ref_value = profile.solve(period, box)
        assert np.array_equal(alpha, ref_alpha)
        assert value == ref_value


@pytest.mark.parametrize("seed,eps", [(0, 0.3), (1, 0.3), (7, 0.001), (11, 0.001)])
def test_estimate_is_a_box_kkt_point_and_a_profile_minimum(seed, eps):
    traj = make_dataset(seed=seed, eps=eps)
    cfg = ContrastConfig(form="weighted", eps=eps)
    box = BoxConstraints()
    lower, upper = box.alpha_bounds(1)
    res = sl.lsgd_estimate(traj, EstimatorConfig(), box, cfg, seed=seed)
    period, alpha = res.theta.period, res.theta.to_vector()[1:]
    quad = sl.alpha_quadratic(traj, period, traj.params, cfg)
    assert np.all(alpha >= lower) and np.all(alpha <= upper)
    assert _pg_map(quad, alpha, lower, upper) <= 1e-9 * (1.0 + np.abs(alpha).max())
    profile = alpha_profile(traj, traj.params, cfg)
    for side in (1.0 - 1e-6, 1.0 + 1e-6):
        if box.period[0] <= period * side <= box.period[1]:
            assert profile.solve(period * side, box)[1] >= res.objective * (1.0 - 1e-10)


@pytest.mark.parametrize(
    "seed,eps,model,form,order",
    [
        (7, 0.01, "numbers", "weighted", 1),
        (3, 0.01, "proportions", "plain", 1),
        (0, 0.3, "numbers", "weighted", 1),
        (7, 0.01, "numbers", "weighted", 2),
    ],
)
def test_profile_slope_matches_finite_differences(seed, eps, model, form, order):
    # the eps 0.3, seed 0 dataset is the one whose minimizers leave the box
    traj = make_dataset(seed=seed, eps=eps, model=model)
    box = BoxConstraints()
    lower, upper = box.alpha_bounds(order)
    profile = alpha_profile(traj, traj.params, ContrastConfig(form=form, eps=eps), order=order)
    freqs = np.random.default_rng(seed).uniform(1.0, 50.0, size=24)
    alphas, values = profile.solve_many(1.0 / freqs, box)
    on_face = np.any((alphas <= lower) | (alphas >= upper), axis=1)
    assert on_face.any() and not on_face.all()
    for f, value in zip(freqs.tolist(), values):
        slope, moment_value = profile.expand(f, box)[:2]
        h = 1e-6 * f
        fd = (profile.solve(1.0 / (f + h), box)[1] - profile.solve(1.0 / (f - h), box)[1]) / (2.0 * h)
        assert abs(fd - slope) <= 1e-6 * (abs(slope) + value / f)
        # the moments' value is the design's to rounding
        assert moment_value == pytest.approx(value, rel=1e-10)


@functools.lru_cache(maxsize=None)
def _slope_profile(seed, eps, order):
    traj = make_dataset(seed=seed, eps=eps)
    return alpha_profile(traj, traj.params, ContrastConfig(form="weighted", eps=eps), order=order)


@settings(max_examples=120, deadline=None)
@given(
    data=st.sampled_from([(0, 0.3), (7, 0.01), (11, 0.001)]),  # (0, 0.3) leaves the box
    order=st.integers(1, 3),
    u=st.floats(0.0, 1.0),
)
def test_moment_slope_equals_the_design_slope(data, order, u):
    profile = _slope_profile(*data, order)
    box = BoxConstraints()
    f = 1.0 + 48.0 * u
    # the singular frequencies, where a harmonic lands on a multiple of the
    # Nyquist frequency 50, have a test of their own below
    assume(min(abs(h * f / 50.0 - round(h * f / 50.0)) for h in range(1, order + 1)) > 1e-9)
    slope, value = profile.expand(f, box)[:2]
    _, ref_values, ref_slopes = design_slope(profile, [f], box)
    assert abs(slope - ref_slopes[0]) <= 1e-9 * (abs(ref_slopes[0]) + ref_values[0] / f)
    assert value == pytest.approx(ref_values[0], rel=1e-10)
    # where the float branch is taken, the box solve on the same quadratic
    # ends in its first step (regular gram, solution in the box) at that point
    gram, lin, *_ = profile.moment_quadratic(f)
    alpha = _certified_solve(gram, lin)
    lower, upper = box.alpha_bounds(order)
    if alpha is not None and np.all((lower < alpha) & (alpha < upper)):
        step1, regular = sl.contrast._unconstrained(np.array([gram]), np.array([lin]))
        assert regular[0] and np.all((lower <= step1[0]) & (step1[0] <= upper))
        assert np.array_equal(sl.contrast.solve_box(np.array([gram]), np.array([lin]), lower, upper), step1)
        assert np.abs(np.array(alpha) - step1[0]).max() <= 1e-12 * (1.0 + np.abs(step1[0]).max())


@pytest.mark.parametrize("data", [(0, 0.3), (3, 0.1), (7, 0.01), (11, 0.001)])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_moment_slope_at_singular_frequencies_is_the_partial_at_a_minimizer(data, order):
    # n = 100 on [0, 1]: where a harmonic h <= K of f is a multiple of the
    # Nyquist frequency 50, sin_h vanishes on the grid and the gram is
    # singular, so the moments' quadratic goes to the box solve.  The
    # minimizer need not be unique there, and the profile has a kink whose
    # one-sided slopes are the least and the largest partial derivative in f
    # over the minimizers (Danskin): the design's minimizer and the moments'
    # may differ, and so may their slopes.  The moments' minimizer is a
    # minimizer of the design's quadratic too, and the slope is the design's
    # partial derivative there.
    profile = _slope_profile(*data, order)
    box = BoxConstraints()
    lower, upper = box.alpha_bounds(order)
    for f in sorted({50.0 * m / h for h in range(1, order + 1) for m in range(1, h + 1)}):
        gram, lin, *_ = profile.moment_quadratic(f)
        certified = _certified_solve(gram, lin)
        assert certified is None or not np.all((lower < certified) & (certified < upper))
        alpha = sl.contrast.solve_box(np.array([gram]), np.array([lin]), lower, upper)
        slope, value = profile.expand(f, box)[:2]
        _, ref_values, _ = design_slope(profile, [f], box)
        _, at_values, at_slopes = design_slope(profile, [f], box, alphas=alpha)
        assert value == pytest.approx(ref_values[0], rel=1e-10)
        assert at_values[0] == pytest.approx(ref_values[0], rel=1e-10)
        assert abs(slope - at_slopes[0]) <= 1e-9 * (abs(at_slopes[0]) + value / f)


@functools.lru_cache(maxsize=None)
def _curvature_frequencies(model, order):
    """A profile of each model and its frequencies in [1, 49] by kind: (profile, {"interior": [...], "active": [...]}).

    A frequency is interior where the moments' minimizer lies strictly inside
    the box (the float branch) and active where a coefficient sits on a bound;
    the singular frequencies, where a harmonic lands on a multiple of the
    Nyquist frequency 50, are left out.
    """
    seed, eps, form = (0, 0.3, "weighted") if model == "numbers" else (3, 0.01, "plain")
    traj = make_dataset(seed=seed, eps=eps, model=model)
    profile = alpha_profile(traj, traj.params, ContrastConfig(form=form, eps=eps), order=order)
    lower, upper = BoxConstraints().alpha_bounds(order)
    kinds = {"interior": [], "active": []}
    for f in np.linspace(1.0, 49.0, 241).tolist():
        if min(abs(h * f / 50.0 - round(h * f / 50.0)) for h in range(1, order + 1)) < 1e-3:
            continue
        gram, lin, *_ = profile.moment_quadratic(f)
        alpha = sl.contrast.solve_box(np.array([gram]), np.array([lin]), lower, upper)[0]
        kinds["interior" if np.all((lower < alpha) & (alpha < upper)) else "active"].append(f)
    return profile, kinds


def _active_pattern(profile, f, box):
    gram, lin, *_ = profile.moment_quadratic(f)
    lower, upper = box.alpha_bounds(profile.order)
    alpha = sl.contrast.solve_box(np.array([gram]), np.array([lin]), lower, upper)[0]
    return tuple((alpha <= lower) | (alpha >= upper))


@settings(max_examples=150, deadline=None)
@given(
    model=st.sampled_from(["numbers", "proportions"]),
    order=st.integers(1, 3),
    kind=st.sampled_from(["interior", "active"]),
    pick=st.floats(0.0, 1.0),
    shift=st.floats(-0.05, 0.05),
)
def test_profile_curvature_matches_central_differences_of_the_slope(model, order, kind, pick, shift):
    profile, kinds = _curvature_frequencies(model, order)
    freqs = kinds[kind]
    assert len(freqs) >= 3, (model, order, kind)
    f = freqs[min(int(pick * len(freqs)), len(freqs) - 1)] + shift
    box = BoxConstraints()
    h = 1e-6 * f
    # the profile is twice differentiable where the bounds' pattern holds on [f - h, f + h]
    pattern = _active_pattern(profile, f, box)
    assume(_active_pattern(profile, f - h, box) == pattern == _active_pattern(profile, f + h, box))
    slope, value, curvature = profile.expand(f, box)
    assume(np.isfinite(curvature))  # a free block that is not certified regular
    fd = (profile.expand(f + h, box)[0] - profile.expand(f - h, box)[0]) / (2.0 * h)
    assert abs(fd - curvature) <= 1e-4 * (abs(curvature) + abs(slope) / f + value / f**2)


@settings(max_examples=200, deadline=None)
@given(box_problems())
def test_certified_solve_only_solves_regular_grams(problem):
    quad, _, _ = problem
    alpha = _certified_solve(quad.gram.tolist(), quad.lin.tolist())
    solution, regular = sl.contrast._unconstrained(quad.gram[None], quad.lin[None])
    if alpha is not None:
        assert regular[0]
        np.testing.assert_allclose(alpha, solution[0], rtol=1e-9, atol=1e-9)
