import numpy as np
import pytest

import sirlevy as sl
import sirlevy.theory as theory_mod
from sirlevy.theory import LimitSampler, _quadrature_weights

from conftest import THETA_REF, X0_NUMBERS, X0_PROPORTIONS

PARAMS = sl.numbers_defaults()


def test_information_matrix_symmetric_and_positive():
    info = sl.information_matrix("numbers", THETA_REF, PARAMS, X0_NUMBERS)
    assert np.abs(info.matrix - info.matrix.T).max() <= 1e-12
    assert info.min_eigenvalue() > 0.0


def test_information_matrix_singular_without_oscillation():
    th = sl.ThetaParams(THETA_REF.period, THETA_REF.base, 0.0, 0.0)
    info = sl.information_matrix("numbers", th, PARAMS, X0_NUMBERS)
    assert np.all(info.matrix[0] == 0.0) and np.all(info.matrix[:, 0] == 0.0)
    assert info.min_eigenvalue() == pytest.approx(0.0, abs=1e-15)


def test_information_matrix_quadrature_step_halving():
    a = sl.information_matrix("numbers", THETA_REF, PARAMS, X0_NUMBERS, n_quad=2000).matrix
    b = sl.information_matrix("numbers", THETA_REF, PARAMS, X0_NUMBERS, n_quad=4000).matrix
    assert np.abs(a - b).max() / np.abs(a).max() <= 1e-6


def test_weighted_information_matrix():
    info = sl.information_matrix("numbers", THETA_REF, PARAMS, X0_NUMBERS, weighted=True)
    assert np.abs(info.matrix - info.matrix.T).max() <= 1e-12
    assert info.min_eigenvalue() > 0.0
    with pytest.raises(ValueError):
        sl.information_matrix("proportions", THETA_REF, sl.proportions_defaults(), (0.8, 0.1, 0.1), weighted=True)
    with pytest.raises(sl.DegenerateWeightsError):
        sl.information_matrix("numbers", THETA_REF, PARAMS, (2.3, 0.0, 0.25), weighted=True)


def test_asymptotic_contrast_zero_at_truth_positive_elsewhere():
    assert sl.asymptotic_contrast("numbers", THETA_REF, THETA_REF, PARAMS, X0_NUMBERS) == 0.0
    rng = np.random.default_rng(2)
    for _ in range(100):
        th = sl.ThetaParams(
            rng.uniform(0.05, 1.0), rng.uniform(0.1, 0.8), rng.uniform(0.0, 0.4), rng.uniform(0.0, 0.4)
        )
        if np.abs(th.to_vector() - THETA_REF.to_vector()).max() < 1e-6:
            continue
        assert sl.asymptotic_contrast("numbers", th, THETA_REF, PARAMS, X0_NUMBERS) > 0.0


def test_asymptotic_contrast_shares_one_read_only_theta0_path():
    # calls with equal inputs agree, and the value is the integral on a fresh
    # solve bit for bit; the one-solve count is pinned by the next test
    th = sl.ThetaParams(0.3, 0.5, 0.2, 0.1)
    s0 = (2.1, 0.23, 0.3)  # a path no other test solves
    value = sl.asymptotic_contrast("numbers", th, THETA_REF, PARAMS, s0)
    assert sl.asymptotic_contrast(sl.NUMBERS, th, THETA_REF, PARAMS, np.array(s0)) == value
    path = sl.solve_ode("numbers", THETA_REF, PARAMS, s0, 1.0, 2000)
    t, xy = path.times, path.states[:, 0] * path.states[:, 1]
    dbeta = sl.beta_eval(t, th) - sl.beta_eval(t, THETA_REF)
    assert value == float(np.sum(2.0 * (xy * dbeta) ** 2 * _quadrature_weights(t)))


def test_one_drift_path_serves_the_matrix_the_samplers_and_the_contrast(monkeypatch):
    # one (model, theta0, params, s0, grid) is one ODE solve, whatever form
    # s0 and the model take, and the arrays the readers share are read-only
    solves = []
    solve = theory_mod.solve_ode

    def counting(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(theory_mod, "solve_ode", counting)
    info = sl.information_matrix("numbers", THETA_REF, PARAMS, X0_NUMBERS)
    plain = LimitSampler(sl.NUMBERS, THETA_REF, PARAMS, np.array(X0_NUMBERS))
    weighted = LimitSampler("numbers", THETA_REF, PARAMS, list(X0_NUMBERS), weighted=True)
    value = sl.asymptotic_contrast("numbers", sl.ThetaParams(0.3, 0.5, 0.2, 0.1), THETA_REF, PARAMS, X0_NUMBERS)
    assert len(solves) == 1
    assert plain.info.matrix.tobytes() == info.matrix.tobytes()
    assert weighted.info.weighted and value > 0.0
    shared = theory_mod._drift_path("numbers", THETA_REF, PARAMS, X0_NUMBERS, theory_mod.DEFAULT_QUAD_STEPS)
    assert len(solves) == 1 and len(shared) == 5
    for a in shared:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_asymptotic_contrast_base_shift_closed_form():
    delta = 0.05
    th = sl.ThetaParams(THETA_REF.period, THETA_REF.base + delta, THETA_REF.cos_coeffs, THETA_REF.sin_coeffs)
    F = sl.asymptotic_contrast("numbers", th, THETA_REF, PARAMS, X0_NUMBERS)
    path = sl.solve_ode("numbers", THETA_REF, PARAMS, X0_NUMBERS, 1.0, 4000)
    xy2 = (path.states[:, 0] * path.states[:, 1]) ** 2
    closed = delta**2 * 2.0 * np.trapezoid(xy2, path.times)
    assert F == pytest.approx(closed, rel=1e-6)


def test_limit_sampler_zero_without_noise_sources():
    sampler = LimitSampler("numbers", THETA_REF, PARAMS, X0_NUMBERS, n_grid=500)
    z = sampler.sample(3, lam=0.0, include_brownian=False)
    assert np.all(z == 0.0)


def test_limit_sampler_deterministic():
    sampler = LimitSampler("numbers", THETA_REF, PARAMS, X0_NUMBERS, n_grid=500)
    assert np.array_equal(sampler.sample(17), sampler.sample(17))


def test_limit_sampler_brownian_mean_and_covariance():
    sampler = LimitSampler("numbers", THETA_REF, PARAMS, X0_NUMBERS)
    draws = sampler.sample_many(10_000, seed=11, include_jumps=False)
    se = draws.std(axis=0) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0)) <= 3 * se)
    emp = np.cov(draws.T)
    quad = sampler.brownian_covariance()
    assert np.linalg.norm(emp - quad) <= 0.10 * np.linalg.norm(quad)


def test_limit_sampler_rejects_singular_information():
    flat = sl.ThetaParams(THETA_REF.period, THETA_REF.base, 0.0, 0.0)
    with pytest.raises(sl.EstimationError):
        LimitSampler("numbers", flat, PARAMS, X0_NUMBERS, n_grid=500)


def test_rate_experiment_rejects_zero_eps():
    with pytest.raises(ValueError):
        sl.rate_experiment("numbers", THETA_REF, PARAMS, X0_NUMBERS, [0.01, 0.0], replications=2)


def test_rate_experiment_small_run():
    res = sl.rate_experiment(
        "numbers",
        THETA_REF,
        PARAMS,
        X0_NUMBERS,
        [0.01, 0.001],
        replications=8,
        seed=3,
        substeps=1,
        limit_draws=200,
        n_grid=500,
    )
    assert res.failures == {0.01: 0, 0.001: 0}
    assert res.scaled[0.01].shape == (8, 4)
    assert np.all(np.isfinite(res.scaled[0.001]))
    assert res.limit_draws.shape == (200, 4)
    pv = res.location_pvalues(0.001)
    assert pv.shape == (4,) and np.all((pv >= 0) & (pv <= 1))
    iqr = res.iqr(0.001)
    assert np.all(iqr > 0)


@pytest.mark.parametrize("weighted", [False, True])
def test_limit_sampler_information_matrix_is_information_matrix(weighted):
    sampler = LimitSampler("numbers", THETA_REF, PARAMS, X0_NUMBERS, n_grid=500, weighted=weighted)
    info = sl.information_matrix("numbers", THETA_REF, PARAMS, X0_NUMBERS, weighted=weighted, n_quad=500)
    assert sampler.info.matrix.tobytes() == info.matrix.tobytes()


@pytest.mark.parametrize("tag, weighted", [("numbers", False), ("numbers", True), ("proportions", False)])
def test_limit_sampler_coef_equals_the_per_model_formulas(tag, weighted):
    # kappa*v*grads with v = (-X*Y, X*Y, 0) on the 3-dimensional driver;
    # 3*X*Y*kappa*grads on the scalar one, (-1, 2, -1) contracted with v
    params, s0 = (PARAMS, X0_NUMBERS) if tag == "numbers" else (sl.proportions_defaults(), X0_PROPORTIONS)
    sampler = LimitSampler(tag, THETA_REF, params, s0, n_grid=200, weighted=weighted)
    path = sl.solve_ode(tag, THETA_REF, params, s0, 1.0, 200)
    grads = sl.beta_grad(path.times, THETA_REF)
    xy = path.states[:, 0] * path.states[:, 1]
    c = sl.noise_coeff_numbers(path.states, params)
    kappa = 1.0 / c if weighted else c
    if tag == "numbers":
        v = np.stack([-xy, xy, np.zeros_like(xy)], axis=-1)
        expected = kappa[:, None, None] * v[:, :, None] * grads[:, None, :]
    else:
        expected = ((3.0 * xy * kappa)[:, None] * grads)[:, None, :]
    assert sampler.coef.shape == expected.shape
    assert sampler.coef.tobytes() == expected.tobytes()


def _simpson_weights_pairwise(times):
    """Composite Simpson weights added pair by pair, trapezoid on an odd last interval."""
    n = times.size - 1
    h = (times[-1] - times[0]) / n
    w = np.zeros(times.size)
    for j in range(n // 2):
        w[2 * j] += h / 3.0
        w[2 * j + 1] += 4.0 * h / 3.0
        w[2 * j + 2] += h / 3.0
    if n % 2 == 1:
        w[-2] += 0.5 * h
        w[-1] += 0.5 * h
    return w


@pytest.mark.parametrize("n", range(1, 10))
def test_quadrature_weights_equal_the_pairwise_sum(n):
    times = np.linspace(0.0, 1.3, n + 1)
    assert _quadrature_weights(times).tobytes() == _simpson_weights_pairwise(times).tobytes()
