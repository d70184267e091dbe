import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sirlevy as sl
import sirlevy.theory as theory_mod
from sirlevy.theory import LimitSampler, RateResult, _median_and_quartiles, _quadrature_weights

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


# floats for the order statistics: any finite or infinite value, and the edge
# values again so that ties, subnormals and overflowing sums come often
_EDGES = [0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
_order_floats = st.one_of(st.floats(allow_nan=False, width=64), st.sampled_from(_EDGES + [math.inf, -math.inf]))


def _numpy_order_statistics(values, axis=None):
    """np.median and np.percentile(values, [75, 25]), the calls the report and RateResult.iqr made."""
    with np.errstate(all="ignore"):  # inf - inf and overflowing sums warn in numpy, not in floats
        return np.median(values, axis=axis), *np.percentile(values, [75, 25], axis=axis)


def _same_bits(got, expected) -> bool:
    return np.asarray(got, dtype=np.float64).tobytes() == np.asarray(expected, dtype=np.float64).tobytes()


@settings(max_examples=400, deadline=None)
@given(
    values=st.lists(_order_floats, min_size=1, max_size=12),
    zero=st.sampled_from([0.0, -0.0]),
    nan_at=st.none() | st.integers(0, 12),
)
@example(values=[-0.0], zero=-0.0, nan_at=None)
@example(values=[0.0, 0.0], zero=-0.0, nan_at=None)
@example(values=[0.0, 0.0, 1.0], zero=-0.0, nan_at=None)
@example(values=[math.inf], zero=0.0, nan_at=None)
@example(values=[1.7976931348623157e308, 1.7976931348623157e308], zero=0.0, nan_at=None)
@example(values=[-1.7976931348623157e308, 1.7976931348623157e308, 1.0], zero=0.0, nan_at=None)
@example(values=[5e-324, 5e-324, -5e-324, 2.2250738585072014e-308], zero=0.0, nan_at=None)
@example(values=[1.0, 2.0, 3.0, 4.0, math.inf], zero=0.0, nan_at=None)
@example(values=[1.0], zero=0.0, nan_at=0)
def test_median_and_quartiles_are_numpys_bit_for_bit(values, zero, nan_at):
    # one sign for every zero of a sample: between tied 0.0 and -0.0, numpy's
    # partition order picks the sign (the next test)
    values = [zero if v == 0.0 else v for v in values]
    if nan_at is not None:
        values.insert(min(nan_at, len(values)), math.nan)
    got = _median_and_quartiles(values)
    assert all(type(v) is float for v in got)
    assert _same_bits(got, _numpy_order_statistics(values)), (values, got)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0]), min_size=1, max_size=12))
def test_median_and_quartiles_differ_from_numpy_only_in_the_sign_of_a_tied_zero(values):
    got = _median_and_quartiles(values)
    expected = _numpy_order_statistics(values)
    assert list(got) == [float(v) for v in expected]
    for g, e in zip(got, expected):
        assert g == 0.0 or _same_bits(g, e), (values, got)


@settings(max_examples=200, deadline=None)
@given(
    rows=hnp.arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 4)), elements=_order_floats),
    zero=st.sampled_from([0.0, -0.0]),
    failed=st.lists(st.integers(0, 8), max_size=3),
)
def test_rate_result_iqr_is_numpys_bit_for_bit(rows, zero, failed):
    rows = np.where(rows == 0.0, zero, rows)
    failed = sorted({i for i in failed if i < rows.shape[0] - 1})  # one replication at least survives
    rows[failed, 0] = np.nan
    result = RateResult(theta0=THETA_REF, eps_list=[0.01], scaled={0.01: rows}, failures={0.01: len(failed)})
    kept = np.delete(rows, failed, axis=0)
    _, q75, q25 = _numpy_order_statistics(kept, axis=0)
    with np.errstate(all="ignore"):
        expected = q75 - q25
    got = result.iqr(0.01)
    assert got.dtype == np.float64 and got.shape == (rows.shape[1],)
    assert _same_bits(got, expected), (kept, got, expected)
