"""The package's Brent search against scipy.optimize.brentq, and a scipy-free import path."""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.optimize import brentq

import sirlevy as sl
import sirlevy.estimator as est_mod
from sirlevy.estimator import EstimationError, _brentq

from conftest import THETA_REF, X0_NUMBERS

XTOLS = (1e-12, 1e-9, 1e-6, 1e-3, 1e-12 * 15.0)  # the last as the estimator forms it: 1e-12 times the bracket top


def _assert_same_as_scipy(f, a, b, xtol):
    root, info = brentq(f, a, b, xtol=xtol, full_output=True)
    got, calls = _brentq(f, a, f(a), b, f(b), xtol)
    assert type(got) is float
    assert got.hex() == float(root).hex()
    assert calls == info.function_calls


def _bracket(f, rng, lo, hi):
    """A random sub-interval of [lo, hi] with a sign change of f, or None."""
    for _ in range(50):
        a, b = np.sort(rng.uniform(lo, hi, 2))
        a, b = float(a), float(b)
        if a < b and f(a) * f(b) < 0.0:
            return a, b
    return None


def _random_functions(rng, count):
    """Half random polynomials of degree 1 to 7, half shifted sines and cosines of a polynomial."""
    made = []
    while len(made) < count:
        coef = rng.normal(size=rng.integers(2, 9)).tolist()
        if len(made) % 2 == 0:
            f = lambda x, c=coef: float(np.polyval(c, x))  # noqa: E731
        else:
            w, phi, shift = float(rng.uniform(0.5, 20.0)), float(rng.uniform(0, 6.3)), float(rng.uniform(-0.9, 0.9))
            f = lambda x, c=coef[:3], w=w, phi=phi, s=shift: math.sin(w * x + phi) + s * math.cos(np.polyval(c, x))  # noqa: E731
        bracket = _bracket(f, rng, -3.0, 3.0)
        if bracket is not None:
            made.append((f, *bracket))
    return made


def test_brentq_equals_scipy_on_random_functions():
    rng = np.random.default_rng(20250809)
    functions = _random_functions(rng, 1200)
    for k, (f, a, b) in enumerate(functions):
        _assert_same_as_scipy(f, a, b, XTOLS[k % len(XTOLS)])


@pytest.mark.parametrize("xtol", XTOLS)
def test_brentq_equals_scipy_on_simple_roots(xtol):
    _assert_same_as_scipy(lambda x: x**3 - 2.0, 0.0, 4.0, xtol)
    _assert_same_as_scipy(lambda x: math.cos(x) - x, -1.0, 3.0, xtol)
    _assert_same_as_scipy(lambda x: math.exp(x) - 10.0, -5.0, 30.0, xtol)


def test_brentq_returns_a_zero_end_after_two_calls():
    assert _brentq(lambda x: x, 0.0, 0.0, 1.0, 1.0, 1e-12) == (0.0, 2)
    assert _brentq(lambda x: x - 1.0, 0.0, -1.0, 1.0, 0.0, 1e-12) == (1.0, 2)


def test_brentq_raises_estimation_error_where_scipy_fails():
    with pytest.raises(EstimationError):
        _brentq(lambda x: x, 1.0, 1.0, 2.0, 2.0, 1e-12)  # no sign change
    with pytest.raises(EstimationError):
        _brentq(lambda x: math.nan, -1.0, -1.0, 1.0, 1.0, 1e-12)
    with pytest.raises(EstimationError):
        _brentq(lambda x: x, -1.0, -math.inf, 1.0, 1.0, 1e-12)
    # a sign step gives the secant no slope to use: from 1e300 down to 1 takes about 1,000 halvings
    f = lambda x: 1.0 if x > 1.0 else -1.0  # noqa: E731
    _, info = brentq(f, -1e300, 1e300, full_output=True, disp=False)
    assert not info.converged and info.function_calls == 102
    with pytest.raises(EstimationError, match="did not converge"):
        _brentq(f, -1e300, f(-1e300), 1e300, f(1e300), 2e-12)


def test_brentq_equals_scipy_on_the_sweep_slopes(tmp_path, monkeypatch):
    """Brent's method on the period brackets of criterion 4's sweep (10 datasets per eps) against scipy.

    The estimator hands a bracket to Brent's method only where Newton's
    steps fail, so every scan bracket of the sweep is searched here directly.
    """
    brackets = []
    search = est_mod._newton_search

    def recorded(profile, box, lo, hi, start):
        brackets.append((profile, box, lo, hi))
        return search(profile, box, lo, hi, start)

    monkeypatch.setattr(est_mod, "_newton_search", recorded)
    cfg = sl.RunConfig(seed=20250809, n_datasets=10)
    records = sl.experiments.generate_datasets(cfg, str(tmp_path))
    assert len(records) == 40
    sl.experiments.batch_estimate(records, cfg, str(tmp_path))
    assert len(brackets) == 40
    searched = 0
    for profile, box, lo, hi in brackets:
        fa, fb = profile.slope(lo, box)[0], profile.slope(hi, box)[0]
        if not fa < 0.0 < fb:
            continue

        def slope(x, profile=profile, box=box):
            return profile.slope(x, box)[0]

        xtol = est_mod._SEARCH_XTOL * hi
        root, calls = _brentq(slope, lo, fa, hi, fb, xtol)
        ref, info = brentq(slope, lo, hi, xtol=xtol, full_output=True)
        assert root.hex() == float(ref).hex()
        assert calls == info.function_calls
        searched += 1
    assert searched >= 20


def test_nan_slope_becomes_a_failure_row(monkeypatch):
    """A period search that meets a NaN slope fails its replication instead of the run, on both routes.

    The evaluator gives NaN everywhere but at the bracket's two ends: Newton's
    first step meets it and hands the search to Brent's method, whose ends
    are finite and whose first step meets it again.
    """
    ends, routes = set(), []
    route = ["newton"]
    newton, envelope, expand = est_mod._newton_search, est_mod._envelope_search, sl.contrast.AlphaProfile.expand

    def newton_spy(profile, box, lo, hi, start):
        ends.clear()
        ends.update((lo, hi))
        route[0] = "newton"
        return newton(profile, box, lo, hi, start)

    def envelope_spy(profile, box, lo, hi):
        route[0] = "brent"
        return envelope(profile, box, lo, hi)

    def nan_inside(profile, f, box):
        slope, value, curvature = expand(profile, f, box)
        if f in ends:
            return slope, value, curvature
        routes.append(route[0])
        return slope * math.nan, value, curvature

    monkeypatch.setattr(est_mod, "_newton_search", newton_spy)
    monkeypatch.setattr(est_mod, "_envelope_search", envelope_spy)
    monkeypatch.setattr(sl.contrast.AlphaProfile, "expand", nan_inside)
    res = sl.rate_experiment(
        "numbers", THETA_REF, sl.numbers_defaults(), X0_NUMBERS, [0.001], replications=3, seed=3,
        substeps=1, limit_draws=0,
    )
    assert routes == ["newton", "brent"] * 3
    assert res.failures == {0.001: 3}
    assert np.isnan(res.scaled[0.001]).all()


def test_import_and_estimate_load_no_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = textwrap.dedent(
        """
        import sys
        import sirlevy, sirlevy.cli
        from sirlevy import ContrastConfig, EstimatorConfig, numbers_defaults, REFERENCE_THETA
        from sirlevy.levy import LevyPathNoise
        from sirlevy.simulate import simulate_sde
        from sirlevy.estimator import lsgd_estimate
        import numpy as np
        params = numbers_defaults(eps=0.001)
        noise = LevyPathNoise(np.random.SeedSequence(1), 2, 1.0, 3)
        traj = simulate_sde("numbers", REFERENCE_THETA, params, (2.3, 0.19, 0.25), 1.0, 100, noise)
        result = lsgd_estimate(traj, EstimatorConfig(), cfg=ContrastConfig("weighted", 0.001), seed=1)
        assert result.refine_iterations > 2, result.refine_iterations
        print(sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy.")))
        """
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
