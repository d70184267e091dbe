import numpy as np
import pytest

import sirlevy as sl
from sirlevy.contrast import _design_columns, _quad_values

# constants shared across the suite: the reference parameter point of the
# bundled studies and the two standard initial states
THETA_REF = sl.REFERENCE_THETA
X0_NUMBERS = (2.3, 0.19, 0.25)
X0_PROPORTIONS = (0.82, 0.07, 0.11)


def make_dataset(seed=0, eps=0.001, theta=None, model="numbers", substeps=10, n_obs=100, lam=None):
    """One synthetic trajectory with the standard constants."""
    theta = theta or THETA_REF
    params = (sl.numbers_defaults if model == "numbers" else sl.proportions_defaults)(eps=eps)
    x0 = X0_NUMBERS if model == "numbers" else X0_PROPORTIONS
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(0,))))
    rate = lam if lam is not None else sl.sample_lambda(rng)
    noise = sl.LevyPathNoise(
        np.random.SeedSequence(entropy=seed, spawn_key=(1,)),
        rate,
        1.0,
        sl.get_model(model).driver_dim,
    )
    return sl.simulate_sde(model, theta, params, x0, 1.0, n_obs, noise, substeps=substeps)


def design_slope(profile, freqs, box, alphas=None):
    """The profile's exact solves at the periods 1/freqs and its slope in the frequency, from the design.

    Returns (alphas (F, q), values (F,), slopes (F,)); the alphas and values
    equal :meth:`AlphaProfile.solve_many`'s bit for bit.  Given ``alphas``,
    the values and slopes are the design's at those coefficients.  By the envelope
    (Danskin) theorem the slope of V(f) = min_a Q(f, a) over a box that does
    not depend on f is the partial derivative of Q in f at the minimizer a,

        dV/df = 2 scale dt * sum_i (D a)_i (dt vv_i (C a)_i - rv_i),

    with D the frequency derivative of the design C and i the grid nodes.
    This is the reference for :meth:`AlphaProfile.expand`, which reads the
    same quantities from trig moments.
    """
    C = _design_columns(profile.t, 1.0 / np.asarray(freqs, dtype=float), profile.order)
    if alphas is None:
        alphas, values = profile._solve_design(C, box)
    else:
        gram, lin = profile._gram_lin(C)
        values = _quad_values(gram, lin, profile.rr, profile.scale, alphas)
    # dC/df = (0, -2 pi k t sin(...), 2 pi k t cos(...))
    K = profile.order
    rate = 2.0 * np.pi * np.multiply.outer(profile.t, np.arange(1.0, K + 1.0))
    D = np.concatenate([np.zeros_like(C[..., :1]), -rate * C[..., K + 1 :], rate * C[..., 1 : K + 1]], axis=-1)
    col = alphas[:, :, None]
    beta = (C @ col)[:, :, 0]  # the fitted transmission per node
    dbeta = (D @ col)[:, None, :, 0]
    misfit = (profile.dt * profile.vv * beta - profile.rv)[:, :, None]
    slopes = 2.0 * profile.scale * profile.dt * (dbeta @ misfit)[:, 0, 0]
    return alphas, values, slopes


@pytest.fixture(scope="session")
def numbers_traj():
    return make_dataset(seed=7, eps=0.001)


@pytest.fixture(scope="session")
def numbers_params():
    return sl.numbers_defaults(eps=0.001)


def brent_search(profile, box, lo, hi):
    """The reference period search on [lo, hi]: (frequency, profile evaluations).

    Brent's method (scipy's ``brentq``) on the profile's slope when the slope
    is negative at ``lo`` and positive at ``hi``; otherwise the end of lower
    value.  The estimator's safeguarded Newton search finds the same zero.
    """
    from scipy.optimize import brentq

    from sirlevy.estimator import _SEARCH_XTOL

    (slope_lo, value_lo, _), (slope_hi, value_hi, _) = profile.expand(lo, box), profile.expand(hi, box)
    if not slope_lo < 0.0 < slope_hi:
        return (lo if value_lo <= value_hi else hi), 2
    root, info = brentq(lambda f: profile.expand(f, box)[0], lo, hi, xtol=_SEARCH_XTOL * hi, full_output=True)
    return float(root), info.function_calls
