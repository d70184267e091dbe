import numpy as np
import pytest

import sirlevy as sl
from sirlevy.models import drift_beta_split, make_drift_fast

from conftest import THETA_REF, X0_NUMBERS, X0_PROPORTIONS

PARAMS_N = sl.numbers_defaults()
PARAMS_P = sl.proportions_defaults()


def test_drift_numbers_at_origin_is_birth_only():
    d = sl.drift_numbers(0.3, (0.0, 0.0, 0.0), THETA_REF, PARAMS_N)
    assert np.allclose(d, [0.018, 0.0, 0.0], atol=0)


def test_drift_numbers_reference_state():
    # frozen by direct arithmetic on the printed equations
    d = sl.drift_numbers(0.0, X0_NUMBERS, THETA_REF, PARAMS_N)
    expect = [-0.07617798200999999, 0.07956238200999999, 0.0134648]
    assert np.allclose(d, expect, rtol=1e-14, atol=0)


def test_drift_numbers_zero_transmission_decouples():
    th = sl.ThetaParams(0.5, 1e-300, 0.0, 0.0)
    s = (1.7, 0.4, 0.2)
    d = sl.drift_numbers(0.9, s, th, PARAMS_N)
    p = PARAMS_N
    expect = [p.birth - p.death * 1.7, -(p.death + p.gamma) * 0.4, p.gamma * 0.4 - p.death * 0.2]
    assert np.allclose(d, expect, rtol=1e-12)


def test_drift_proportions_disease_free_fixed_point():
    assert np.all(sl.drift_proportions(0.1, (1.0, 0.0, 0.0), THETA_REF, PARAMS_P) == 0.0)


def test_drift_proportions_reference_state():
    d = sl.drift_proportions(0.0, X0_PROPORTIONS, THETA_REF, PARAMS_P)
    expect = [-0.012243404502, 0.007244004502, 0.0049994]
    assert np.allclose(d, expect, rtol=1e-14, atol=0)


def test_drift_proportions_components_sum_to_zero():
    rng = np.random.default_rng(5)
    states = rng.uniform(0.0, 1.0, size=(10_000, 3))
    d = sl.drift_proportions(0.3, states, THETA_REF, PARAMS_P)
    scale = np.abs(d).max(axis=1) + 1e-300
    assert (np.abs(d.sum(axis=1)) / scale).max() <= 1e-14


def test_models_agree_without_demographics():
    rng = np.random.default_rng(6)
    p0 = sl.SirParams(birth=0.0, death=0.0, gamma=0.07142, sigma=0.5)
    for _ in range(100):
        s = rng.uniform(0.0, 2.0, size=3)
        t = rng.uniform(0.0, 1.0)
        dn = sl.drift_numbers(t, s, THETA_REF, p0)
        dp = sl.drift_proportions(t, s, THETA_REF, p0)
        assert np.allclose(dn, dp, rtol=1e-14, atol=0)


def test_noise_coeff_numbers():
    assert sl.noise_coeff_numbers((0.0, 1.0, 2.0), PARAMS_N) == 0.0
    assert sl.noise_coeff_numbers((1.0, 1.0, 1.0), PARAMS_N) == pytest.approx(0.5, abs=0)
    assert sl.noise_coeff_numbers(X0_NUMBERS, PARAMS_N) == pytest.approx(0.0546250, abs=1e-15)


def test_noise_coeff_proportions():
    v = sl.PROPORTIONS.noise_matrix(X0_PROPORTIONS, PARAMS_P)[..., 0]
    assert np.allclose(v, [-0.0031570, 0.0063140, -0.0031570], atol=1e-15)
    assert np.all(sl.PROPORTIONS.noise_matrix((0.5, 0.0, 0.5), PARAMS_P) == 0.0)
    rng = np.random.default_rng(7)
    states = rng.uniform(0.0, 1.0, size=(10_000, 3))
    vs = sl.PROPORTIONS.noise_matrix(states, PARAMS_P)[..., 0]
    assert np.all(vs.sum(axis=1) == 0.0)  # exact cancellation of (-1, 2, -1)


def test_beta_split_reconstructs_drift():
    rng = np.random.default_rng(8)
    for tag, params in (("numbers", PARAMS_N), ("proportions", PARAMS_P)):
        s = rng.uniform(0.0, 2.0, size=(50, 3))
        t = rng.uniform(0.0, 1.0, size=50)
        g, v = drift_beta_split(tag, s, params)
        beta = sl.beta_eval(t, THETA_REF)
        full = sl.get_model(tag).drift(t, s, THETA_REF, params)
        assert np.allclose(g + beta[:, None] * v, full, rtol=1e-13, atol=1e-16)


def test_noise_matrix_shapes():
    m_n = sl.get_model("numbers").noise_matrix(X0_NUMBERS, PARAMS_N)
    assert m_n.shape == (3, 3)
    assert np.allclose(m_n, 0.0546250 * np.eye(3))
    m_p = sl.get_model("proportions").noise_matrix(X0_PROPORTIONS, PARAMS_P)
    assert m_p.shape == (3, 1)
    assert np.allclose(m_p[:, 0], [-0.0031570, 0.0063140, -0.0031570])


def test_state_validation():
    sl.get_model("proportions").validate_state((0.5, 0.3, 0.2))
    with pytest.raises(ValueError):
        sl.get_model("proportions").validate_state((0.5, 0.3, 0.3))
    with pytest.raises(ValueError):
        sl.get_model("numbers").validate_state((-0.1, 0.3, 0.3))


def test_param_validation():
    with pytest.raises(ValueError):
        sl.SirParams(gamma=0.0)
    with pytest.raises(ValueError):
        sl.SirParams(eps=1.0)
    with pytest.raises(ValueError):
        sl.get_model("something")


@pytest.mark.parametrize("model_tag", ["numbers", "proportions"])
@pytest.mark.parametrize(
    "theta", [THETA_REF, sl.ThetaParams(0.4, 0.3, (0.1, 0.05), (0.02, 0.12))], ids=["order1", "order2"]
)
def test_scalar_drift_matches_model_drift(model_tag, theta):
    model = sl.get_model(model_tag)
    params = PARAMS_N if model_tag == "numbers" else PARAMS_P
    fast = make_drift_fast(model, theta, params)
    rng = np.random.default_rng(5)
    for _ in range(500):
        t = float(rng.uniform(0.0, 3.0))
        state = rng.uniform(0.0, 4.0, size=3)
        expect = model.drift(t, state, theta, params)
        got = np.array(fast(t, *state.tolist()))
        assert np.allclose(got, expect, rtol=1e-14, atol=0), (t, state)


def test_noise_direction_is_read_only_and_sets_the_noise():
    rng = np.random.default_rng(3)
    states = rng.uniform(0.0, 2.0, size=(40, 3))
    states[0, 1] = 0.0
    c = sl.noise_coeff_numbers(states, PARAMS_P)
    column = sl.PROPORTIONS.noise_matrix(states, PARAMS_P)[..., 0]
    assert column.tobytes() == np.stack([-c, 2.0 * c, -c], axis=-1).tobytes()
    for model, dim in ((sl.NUMBERS, 3), (sl.PROPORTIONS, 1)):
        assert model.direction.shape == (3, dim) and model.driver_dim == dim
        with pytest.raises(ValueError):
            model.direction[0, 0] = 5.0
        m = model.noise_matrix(states, PARAMS_N)
        assert m.shape == (40, 3, dim)
        assert np.array_equal(m[7], model.noise_matrix(states[7], PARAMS_N))
