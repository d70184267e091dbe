import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sirlevy as sl
from sirlevy import BoxConstraints, ContrastConfig, EstimatorConfig, SingularDesignError
from sirlevy.contrast import AlphaQuadratic, DegenerateWeightsError, alpha_profile
from sirlevy.estimator import _scan_frequencies, pgd_quadratic

from conftest import THETA_REF, X0_NUMBERS, make_dataset

PARAMS = sl.numbers_defaults()


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
    assert sl.contrast_plain(traj, THETA_REF, PARAMS, cfg) == pytest.approx(0.14461968410534792, rel=1e-14)


def test_contrast_weighted_is_plain_times_four_on_toy():
    traj = _toy_trajectory()
    plain = sl.contrast_plain(traj, THETA_REF, PARAMS, ContrastConfig(form="plain", eps=1.0))
    weighted, degenerate = sl.contrast_weighted(traj, THETA_REF, PARAMS, ContrastConfig(form="weighted", eps=1.0))
    assert not degenerate
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
    assert sl.contrast_plain(traj, THETA_REF, p, cfg) == pytest.approx(1.0, abs=0)


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
    assert sl.contrast_plain(traj, THETA_REF, p, ContrastConfig(form="plain", eps=1.0)) <= n * 9 * bound**2


def test_weighted_degenerate_flag_when_state_touches_zero():
    times = np.linspace(0, 1, 3)
    states = np.array([[1.0, 0.0, 1.0], [1.0, 0.5, 1.0], [1.0, 0.4, 1.0]])
    traj = sl.Trajectory(times=times, states=states, model="numbers", params=PARAMS)
    value, degenerate = sl.contrast_weighted(traj, THETA_REF, PARAMS)
    assert degenerate and value == 0.0
    grad = sl.contrast_gradient(traj, THETA_REF, PARAMS, ContrastConfig(form="weighted", eps=1.0))
    assert np.all(grad == 0.0)


def test_weighted_requires_numbers_model():
    traj = make_dataset(seed=1, eps=0.01, model="proportions")
    with pytest.raises(ValueError):
        sl.contrast_weighted(traj, THETA_REF, sl.proportions_defaults(), ContrastConfig(form="weighted", eps=0.01))


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
    assert np.array_equal(alpha, quad.minimize_box(lower, upper))
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
    base_val = sl.contrast_plain(traj, THETA_REF, p, cfg)
    rng = np.random.default_rng(21)
    for _ in range(12):
        th = sl.ThetaParams(
            rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.6), rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3)
        )
        phi = sl.contrast_plain(traj, th, p, cfg) - base_val
        F = sl.asymptotic_contrast("numbers", th, THETA_REF, p, X0_NUMBERS)
        assert phi == pytest.approx(F, rel=0.02)


def test_weighted_nonnegative_and_zero_iff_residuals_zero(numbers_traj, numbers_params):
    cfg = ContrastConfig(form="weighted", eps=0.001)
    rng = np.random.default_rng(17)
    for _ in range(40):
        th = sl.ThetaParams(rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0), rng.uniform(0, 0.5), rng.uniform(0, 0.5))
        val, degenerate = sl.contrast_weighted(numbers_traj, th, numbers_params, cfg)
        assert not degenerate and val > 0.0


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
    alpha = quad.minimize_box(lower, upper)
    assert np.all(alpha >= lower) and np.all(alpha <= upper)
    assert _pg_map(quad, alpha, lower, upper) <= 1e-9 * (1.0 + np.abs(alpha).max())


@settings(max_examples=100, deadline=None)
@given(box_problems())
def test_box_solve_beats_clipped_solve_and_pgd(problem):
    quad, lower, upper = problem
    alpha = quad.minimize_box(lower, upper)
    clipped = _clipped_solve(quad, lower, upper)
    pgd = pgd_quadratic(quad, lower, upper, EstimatorConfig(max_inner_iter=2000), start=clipped)
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
    alpha = quad.minimize_box(lower, upper)
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
    assert all(c.converged and c.iterations == 0 for c in res.cells)


@pytest.mark.parametrize("seed,eps", [(1, 0.3), (4, 0.1), (7, 0.01), (11, 0.001)])
def test_batched_scan_matches_scalar_loop(seed, eps):
    traj = make_dataset(seed=seed, eps=eps)
    cfg = ContrastConfig(form="weighted", eps=eps)
    box = BoxConstraints()
    lower, upper = box.alpha_bounds(1)
    est = EstimatorConfig(refine=False)
    cells = sl.lsgd_estimate(traj, est, box, cfg, seed=seed).cells
    freqs, _ = _scan_frequencies(traj, cells, est, box)
    profile = alpha_profile(traj, traj.params, cfg)
    _, values = profile.scan(1.0 / freqs, lower, upper)
    best = None
    for f in freqs:
        value = profile.solve_clipped(1.0 / f, lower, upper)[1]
        if best is None or value < best[1]:
            best = (f, value)
    k = int(np.argmin(values))
    assert freqs[k] == best[0]
    assert values[k] == pytest.approx(best[1], rel=1e-12)


def test_batched_scan_matches_scalar_loop_on_singular_grams():
    times = np.linspace(0, 1, 11)
    states = np.tile([2.0, 0.0, 0.5], (11, 1))
    p = sl.numbers_defaults()
    traj = sl.Trajectory(times=times, states=states, model="numbers", params=p)
    profile = alpha_profile(traj, p, ContrastConfig(form="plain", eps=1.0))
    lower, upper = BoxConstraints().alpha_bounds(1)
    periods = np.linspace(0.05, 1.0, 7)
    alphas, values = profile.scan(periods, lower, upper)
    for period, alpha, value in zip(periods, alphas, values):
        ref_alpha, ref_value = profile.solve_clipped(period, lower, upper)
        assert np.array_equal(alpha, ref_alpha)
        assert value == pytest.approx(ref_value, rel=1e-12)


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
        exact = quad.minimize_box(lower, upper)
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
    assert np.array_equal(alpha, quad.minimize_box(lower, upper))
    assert alpha == pytest.approx([1.0, 0.15], rel=1e-12)


@pytest.mark.parametrize("seed,eps", [(0, 0.3), (3, 0.1), (7, 0.01), (11, 0.001)])
def test_batched_cells_equal_scalar_solves(seed, eps):
    traj = make_dataset(seed=seed, eps=eps)
    cfg = ContrastConfig(form="weighted", eps=eps)
    box = BoxConstraints()
    profile = alpha_profile(traj, traj.params, cfg)
    res = sl.lsgd_estimate(traj, EstimatorConfig(refine=False), box, cfg, seed=seed)
    for cell in res.cells:
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
