"""The weighted form's one rule, read by the contrast, the estimator and the limit theory."""

import numpy as np
import pytest

import sirlevy as sl
from sirlevy import ContrastConfig, EstimatorConfig
from sirlevy.contrast import DegenerateWeightsError, alpha_profile, weighted_coefficient
from sirlevy.estimator import EstimationError
from sirlevy.theory import LimitSampler, _quadrature_weights

from conftest import THETA_REF, X0_NUMBERS, X0_PROPORTIONS, make_dataset

PARAMS = sl.numbers_defaults()
PROP_PARAMS = sl.proportions_defaults(eps=0.01)
WEIGHTED = ContrastConfig(form="weighted", eps=0.01)

# every entry point that reads the weighted form, called on the proportions model
ON_PROPORTIONS = {
    "contrast_value": lambda traj: sl.contrast_value(traj, THETA_REF, PROP_PARAMS, WEIGHTED),
    "default_params": lambda traj: sl.contrast_value(traj, THETA_REF, cfg=WEIGHTED),
    "contrast_gradient": lambda traj: sl.contrast_gradient(traj, THETA_REF, PROP_PARAMS, WEIGHTED),
    "alpha_profile": lambda traj: alpha_profile(traj, PROP_PARAMS, WEIGHTED),
    "lsgd_estimate": lambda traj: sl.lsgd_estimate(traj, EstimatorConfig(cells=4), cfg=WEIGHTED),
    "information_matrix": lambda traj: sl.information_matrix(
        "proportions", THETA_REF, PROP_PARAMS, X0_PROPORTIONS, weighted=True, n_quad=200
    ),
    "LimitSampler": lambda traj: LimitSampler(
        "proportions", THETA_REF, PROP_PARAMS, X0_PROPORTIONS, n_grid=200, weighted=True
    ),
}


@pytest.fixture(scope="module")
def proportions_traj():
    return make_dataset(seed=1, eps=0.01, model="proportions")


@pytest.mark.parametrize("entry", sorted(ON_PROPORTIONS))
def test_weighted_form_on_proportions_raises_value_error(entry, proportions_traj):
    with pytest.raises(ValueError, match="population-numbers model"):
        ON_PROPORTIONS[entry](proportions_traj)


def test_weighted_coefficient_is_the_noise_coefficient():
    states = make_dataset(seed=3, eps=0.01).states
    c = weighted_coefficient("numbers", states, PARAMS)
    assert c.tobytes() == sl.noise_coeff_numbers(states, PARAMS).tobytes()
    with pytest.raises(DegenerateWeightsError):
        weighted_coefficient("numbers", np.vstack([states, [1.0, 0.0, 1.0]]), PARAMS)


def test_degenerate_path_raises_one_class_in_the_theory():
    with pytest.raises(DegenerateWeightsError):
        sl.information_matrix("numbers", THETA_REF, PARAMS, (2.3, 0.0, 0.25), weighted=True)
    with pytest.raises(DegenerateWeightsError):
        LimitSampler("numbers", THETA_REF, PARAMS, (2.3, 0.0, 0.25), n_grid=200, weighted=True)


def _degenerate_trajectory():
    times = np.linspace(0, 1, 3)
    states = np.array([[1.0, 0.0, 1.0], [1.0, 0.5, 1.0], [1.0, 0.4, 1.0]])
    return sl.Trajectory(times=times, states=states, model="numbers", params=PARAMS)


def test_degenerate_path_keeps_each_entry_points_outcome():
    traj = _degenerate_trajectory()
    cfg = ContrastConfig(form="weighted", eps=1.0)
    assert sl.contrast_value(traj, THETA_REF, PARAMS, cfg) == 0.0
    with pytest.raises(DegenerateWeightsError):
        weighted_coefficient("numbers", traj.states[:-1], PARAMS)
    assert np.all(sl.contrast_gradient(traj, THETA_REF, PARAMS, cfg) == 0.0)
    # the form comes from the config: a plain one gives the nonzero plain value
    assert sl.contrast_value(traj, THETA_REF, PARAMS, ContrastConfig(form="plain", eps=1.0)) > 0.0
    with pytest.raises(DegenerateWeightsError):
        alpha_profile(traj, PARAMS, cfg)
    message = "weighted objective is identically zero (degenerate noise weights); cannot estimate"
    with pytest.raises(EstimationError, match=message.replace("(", r"\(").replace(")", r"\)")):
        sl.lsgd_estimate(traj, EstimatorConfig(cells=4), cfg=cfg)


def test_estimate_defaults_params_and_cfg_as_the_contrast_does():
    traj = make_dataset(seed=5, eps=0.01)
    explicit = sl.lsgd_estimate(traj, cfg=ContrastConfig(form="plain", eps=traj.params.eps), params=traj.params)
    defaulted = sl.lsgd_estimate(traj)
    assert defaulted.theta.to_vector().tobytes() == explicit.theta.to_vector().tobytes()
    assert defaulted.objective == explicit.objective
    bare = sl.Trajectory(times=traj.times, states=traj.states, model=traj.model)
    with pytest.raises(ValueError, match="params not given"):
        sl.lsgd_estimate(bare)


def test_weighted_information_matrix_divides_by_the_coefficient():
    info = sl.information_matrix("numbers", THETA_REF, PARAMS, X0_NUMBERS, weighted=True, n_quad=200)
    path = sl.solve_ode("numbers", THETA_REF, PARAMS, X0_NUMBERS, 1.0, 200)
    xy = path.states[:, 0] * path.states[:, 1]
    grads = sl.beta_grad(path.times, THETA_REF)
    weight = 2.0 * xy**2 / sl.noise_coeff_numbers(path.states, PARAMS) ** 2
    expected = np.einsum("t,ti,tj->ij", weight * _quadrature_weights(path.times), grads, grads)
    assert info.weighted and info.matrix.tobytes() == expected.tobytes()


def test_degenerate_weights_name_the_first_vanishing_node():
    states = np.array([[1.0, 0.5, 1.0], [0.0, 0.5, 0.0], [1.0, 0.4, 0.0], [1.0, 0.3, 1.0]])
    traj = sl.Trajectory(times=np.linspace(0, 1.5, 4), states=states, model="numbers", params=PARAMS)
    with pytest.raises(EstimationError) as err:
        sl.lsgd_estimate(traj, EstimatorConfig(cells=4), cfg=WEIGHTED)
    where = "sigma*X*Y*Z vanishes first at node 1, t=0.5, where X = 0 and Z = 0"
    assert str(err.value).endswith(f"; cannot estimate: {where}")
    # a product that underflows with no zero component
    traj.states[1] = (1e-200, 1e-200, 1.0)
    with pytest.raises(EstimationError, match="node 1, t=0.5, where X\\*Y\\*Z underflows to 0"):
        sl.lsgd_estimate(traj, EstimatorConfig(cells=4), cfg=WEIGHTED)
