import numpy as np
import pytest

import sirlevy as sl
from sirlevy.theory import LimitSampler, SingularWeightError

from conftest import THETA_REF, X0_NUMBERS

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
    with pytest.raises(SingularWeightError):
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


def test_sample_limit_rv_wrapper():
    a = sl.sample_limit_rv("numbers", THETA_REF, PARAMS, X0_NUMBERS, seed=5, n_grid=500)
    b = sl.sample_limit_rv("numbers", THETA_REF, PARAMS, X0_NUMBERS, seed=5, n_grid=500)
    assert np.array_equal(a, b) and a.shape == (4,)


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
