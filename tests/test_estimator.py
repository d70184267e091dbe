import math

import numpy as np
import pytest

import sirlevy as sl
from sirlevy import BoxConstraints, ContrastConfig, EstimationError, EstimatorConfig
from sirlevy.contrast import alpha_profile
from sirlevy.estimator import _scan_lattice, default_alpha_init

from conftest import THETA_REF, brent_search, make_dataset

CFG_W = ContrastConfig(form="weighted", eps=0.001)


def test_box_validation():
    with pytest.raises(ValueError):
        BoxConstraints(period=(0.5, 0.2))
    with pytest.raises(ValueError):
        BoxConstraints(period=(1e-5, 1.0))


def test_pgd_stops_immediately_at_linear_solution(numbers_traj, numbers_params):
    vt = THETA_REF.period
    alpha = sl.linear_solve_alpha(numbers_traj, vt, numbers_params, CFG_W)
    sol = sl.pgd_alpha(numbers_traj, vt, numbers_params, CFG_W, start=alpha)
    assert sol.converged
    assert sol.iterations <= 1


def test_pgd_matches_linear_solution_from_cold_start(numbers_traj, numbers_params):
    vt = THETA_REF.period
    exact = sl.linear_solve_alpha(numbers_traj, vt, numbers_params, CFG_W)
    sol = sl.pgd_alpha(numbers_traj, vt, numbers_params, CFG_W)
    assert sol.converged
    assert np.abs(sol.alpha - exact).max() <= 1e-6


def test_pgd_objective_never_increases():
    rng = np.random.default_rng(31)
    for i in range(20):
        traj = make_dataset(seed=100 + i, eps=float(rng.choice([0.3, 0.01])))
        vt = float(rng.uniform(0.05, 1.0))
        cfg = ContrastConfig(form="weighted", eps=traj.params.eps)
        sol = sl.pgd_alpha(traj, vt, traj.params, cfg)
        diffs = np.diff(sol.history)
        assert np.all(diffs <= 0.0)


def test_pgd_respects_bounds():
    traj = make_dataset(seed=55, eps=0.3)
    box = BoxConstraints(base=(0.2, 0.25), osc=(0.0, 0.05))
    cfg = ContrastConfig(form="weighted", eps=0.3)
    sol = sl.pgd_alpha(traj, 0.9, traj.params, cfg, box=box)
    lo, hi = box.alpha_bounds(1)
    assert np.all(sol.alpha >= lo) and np.all(sol.alpha <= hi)


def test_single_cell_without_refinement_is_one_least_squares_solve(numbers_traj, numbers_params):
    # a period box of one point leaves the period search nothing to move
    box = BoxConstraints(period=(THETA_REF.period, THETA_REF.period))
    res = sl.lsgd_estimate(numbers_traj, EstimatorConfig(cells=1), box, CFG_W, seed=3, params=numbers_params)
    assert len(res.cells) == 1 and res.cells[0].period == THETA_REF.period
    vt = res.cells[0].period
    exact = sl.linear_solve_alpha(numbers_traj, vt, numbers_params, CFG_W)
    assert np.allclose(res.theta.to_vector()[1:], exact, rtol=1e-12)
    quad = sl.alpha_quadratic(numbers_traj, vt, numbers_params, CFG_W)
    # the reported objective is valued from the residuals; the quadratic's
    # expansion cancels digits against its constant
    assert res.objective == sl.contrast_value(numbers_traj, res.theta, numbers_params, CFG_W)
    assert res.objective == pytest.approx(quad.value(exact), rel=1e-10)


def test_estimate_recovers_reference_parameters():
    traj = make_dataset(seed=2, eps=0.001, substeps=1)
    res = sl.lsgd_estimate(traj, EstimatorConfig(), BoxConstraints(), CFG_W, seed=8)
    err = np.abs(res.theta.to_vector() - THETA_REF.to_vector())
    assert err[0] < 0.005
    assert err[1:].max() < 0.01
    assert res.converged


def test_estimate_result_invariants():
    traj = make_dataset(seed=4, eps=0.1)
    cfg = ContrastConfig(form="weighted", eps=0.1)
    res = sl.lsgd_estimate(traj, EstimatorConfig(cells=12), BoxConstraints(), cfg, seed=1)
    box = BoxConstraints()
    assert box.contains(res.theta.to_vector())
    table_min = min(c.value for c in res.cells)
    assert res.objective == pytest.approx(table_min, rel=1e-12)
    direct = sl.contrast_value(traj, res.theta, traj.params, cfg)
    assert res.objective == pytest.approx(direct, rel=1e-10)
    assert len(res.cells) == 12
    assert [c.index for c in res.cells] == list(range(1, 13))


def test_estimate_deterministic_given_seed():
    traj = make_dataset(seed=21, eps=0.01)
    cfg = ContrastConfig(form="weighted", eps=0.01)
    a = sl.lsgd_estimate(traj, EstimatorConfig(), BoxConstraints(), cfg, seed=33)
    b = sl.lsgd_estimate(traj, EstimatorConfig(), BoxConstraints(), cfg, seed=33)
    assert np.array_equal(a.theta.to_vector(), b.theta.to_vector())
    assert a.objective == b.objective


def test_estimation_error_when_weights_degenerate():
    times = np.linspace(0, 1, 4)
    states = np.array([[1.0, 0.0, 1.0], [1.0, 0.5, 1.0], [1.0, 0.4, 1.0], [1.0, 0.3, 1.0]])
    p = sl.numbers_defaults(eps=0.01)
    traj = sl.Trajectory(times=times, states=states, model="numbers", params=p)
    with pytest.raises(EstimationError):
        sl.lsgd_estimate(traj, EstimatorConfig(), BoxConstraints(), ContrastConfig(form="weighted", eps=0.01), seed=0)


def test_plain_contrast_estimation_on_proportions():
    traj = make_dataset(seed=6, eps=0.001, model="proportions", substeps=1)
    cfg = ContrastConfig(form="plain", eps=0.001)
    res = sl.lsgd_estimate(traj, EstimatorConfig(), BoxConstraints(), cfg, seed=10)
    err = np.abs(res.theta.to_vector() - THETA_REF.to_vector())
    assert err[0] < 0.005 and err[1:].max() < 0.01


def test_default_alpha_start_matches_convention():
    assert np.allclose(default_alpha_init(), [0.51, 0.31, 0.21])
    assert np.allclose(default_alpha_init(2), [0.51, 0.31, 0.31, 0.21, 0.21])


def test_estimator_behavior_with_fine_generation_grid():
    """Estimating on data from a 10x finer grid keeps a small one-step model
    bias; this documents its measured size rather than hiding it."""
    errs = []
    for seed in range(10):
        traj = make_dataset(seed=seed, eps=0.0, substeps=10, theta=THETA_REF)
        res = sl.lsgd_estimate(traj, EstimatorConfig(), BoxConstraints(), ContrastConfig(form="weighted", eps=0.0), seed=seed)
        errs.append(np.abs(res.theta.to_vector() - THETA_REF.to_vector()).max())
    # phase rotation of the oscillation pair dominates: about
    # amp * pi * spacing / period ~ 0.013 for the reference point
    assert np.median(errs) < 0.02


def test_period_search_stops_at_a_sign_change_of_the_profile_slope(monkeypatch):
    # criterion 5's datasets
    import sirlevy.estimator as estimator

    searches = []
    real = estimator._newton_search

    def spy(profile, box, lo, hi, start):
        f_star, evaluations = real(profile, box, lo, hi, start)
        searches.append((profile, lo, hi, f_star))
        return f_star, evaluations

    monkeypatch.setattr(estimator, "_newton_search", spy)
    box = BoxConstraints()
    for s in range(6):
        traj = make_dataset(seed=5000 + s, eps=0.001, substeps=1)
        res = sl.lsgd_estimate(traj, EstimatorConfig(), box, CFG_W, seed=s)
        assert 1 <= res.refine_iterations <= 20
        profile, lo, hi, f_star = searches[-1]
        assert lo < f_star < hi
        assert res.theta.period == pytest.approx(1.0 / f_star, rel=1e-15)
        # the search's evaluator changes sign across the root
        assert profile.expand(f_star * (1.0 - 1e-9), box)[0] < 0.0 < profile.expand(f_star * (1.0 + 1e-9), box)[0]


def _search_frequencies(monkeypatch, out, brent):
    """(lo, hi, frequency) of each period search on criterion 5's datasets and the benchmark sweep's 40.

    With ``brent`` the search is replaced by the reference, Brent's method on the same bracket.
    """
    import sirlevy.estimator as estimator

    searches = []
    newton = estimator._newton_search

    def search(profile, box, lo, hi, start):
        f_star, evaluations = brent_search(profile, box, lo, hi) if brent else newton(profile, box, lo, hi, start)
        searches.append((lo, hi, f_star))
        return f_star, evaluations

    monkeypatch.setattr(estimator, "_newton_search", search)
    for s in range(50):
        traj = make_dataset(seed=5000 + s, eps=0.001, substeps=1)
        sl.lsgd_estimate(traj, EstimatorConfig(), BoxConstraints(), CFG_W, seed=s)
    cfg = sl.RunConfig(seed=20250809, n_datasets=10)
    records = sl.experiments.generate_datasets(cfg, str(out))
    assert len(records) == 40
    sl.experiments.batch_estimate(records, cfg, str(out))
    monkeypatch.setattr(estimator, "_newton_search", newton)
    return searches


def test_newton_search_finds_the_brent_frequency(monkeypatch, tmp_path):
    import sirlevy.estimator as estimator

    newton = _search_frequencies(monkeypatch, tmp_path / "newton", brent=False)
    brent = _search_frequencies(monkeypatch, tmp_path / "brent", brent=True)
    assert len(newton) == len(brent) == 90
    for (lo, hi, f_newton), (lo_brent, hi_brent, f_brent) in zip(newton, brent):
        assert (lo, hi) == (lo_brent, hi_brent)
        assert abs(f_newton - f_brent) <= estimator._SEARCH_XTOL * hi


def test_search_finds_the_interior_minimum_of_full_sweep_dataset_106():
    """``sweep --full`` eps 0.1 dataset 106, rebuilt alone: both scan-bracket ends slope down.

    Newton's steps fail there; the search keeps their bracket, whose
    positive slope closes a sign change with a negative one, and finds the
    interior minimum at objective 308.8408857 that the end rule skipped
    (308.8409104, a cell's).
    """
    from sirlevy.experiments import HORIZON, sample_true_theta
    from sirlevy.levy import LevyPathNoise, sample_lambda, seed_sequence, stream

    cfg = sl.RunConfig(n_datasets=1000)
    draw = stream(0, 106, 0)
    theta, lam = sample_true_theta(draw), sample_lambda(draw)
    params = cfg.params(0.1)
    noise = LevyPathNoise(seed_sequence(0, 106, 1), lam, HORIZON, 3)
    traj = sl.simulate_sde("numbers", theta, params, cfg.x0, HORIZON, cfg.n_obs, noise, cfg.substeps)
    res = sl.lsgd_estimate(traj, cfg.estimator(), BoxConstraints(), cfg.contrast(0.1), seed=stream(0, 106, 7), params=params)
    assert res.objective <= 308.840886
    assert res.theta.period == pytest.approx(0.391236, abs=1e-6)


class _FakeProfile:
    """A profile with an analytic ``expand`` in x = f - root: slope(x), value(x), curvature(x); it logs each frequency."""

    def __init__(self, root, slope, value, curvature):
        self.root, self.parts, self.calls = root, (slope, value, curvature), []

    def expand(self, f, box):
        self.calls.append(f)
        x = f - self.root
        return tuple(float(part(x)) for part in self.parts)

    def value(self, f):
        return float(self.parts[1](f - self.root))


_ATAN = (math.atan, lambda x: x * math.atan(x) - 0.5 * math.log1p(x * x), lambda x: 1.0 / (1.0 + x * x))
_SEARCH_CASES = {
    # (slope, value, curvature), (lo, hi, start) in x, the minimizer in x
    # Newton's first step from x = 2 lands at -3.5, outside [-3, 3]
    "step_leaves_bracket": (_ATAN, (-3.0, 3.0, 2.0), 0.0),
    # x = 0.2 lies between the local maximum at 0 and the minimum at 1
    "curvature_not_positive": (
        (lambda x: x**3 - x, lambda x: x**4 / 4 - x * x / 2, lambda x: 3 * x * x - 1), (-0.5, 2.0, 0.2), 1.0,
    ),
    # the curvature is not certified for x > 0.5
    "curvature_nan": ((_ATAN[0], _ATAN[1], lambda x: math.nan if x > 0.5 else _ATAN[2](x)), (-3.0, 3.0, 1.0), 0.0),
    # Newton's steps shrink by about 2/3 from x = 10, and still run after six evaluations
    "newton_cap": (
        (lambda x: x + x**3, lambda x: x * x / 2 + x**4 / 4, lambda x: 1 + 3 * x * x), (-1.0, 20.0, 10.0), 0.0,
    ),
    # both ends slope down (as in dataset 106) around the minimum at 0, the lowest point, and a maximum at 1.9
    "ends_share_sign": (
        (
            lambda x: -x * (x - 1.9),
            lambda x: -(x**3 / 3 - 0.95 * x * x),
            lambda x: -(2 * x - 1.9),
        ),
        (-1.3, 2.0, 1.0),
        0.0,
    ),
}


@pytest.mark.parametrize("case", list(_SEARCH_CASES))
def test_newton_search_safeguards_return_the_sign_change(case):
    import sirlevy.estimator as estimator

    parts, (lo, hi, start), minimizer = _SEARCH_CASES[case]
    root = 5.0  # the frequencies are x + 5
    profile = _FakeProfile(root, *parts)
    f_star, evaluations = estimator._newton_search(profile, None, root + lo, root + hi, root + start)
    assert evaluations == len(profile.calls) <= 60
    assert abs(f_star - (root + minimizer)) <= estimator._SEARCH_XTOL * (root + hi)
    best = min(profile.value(f) for f in profile.calls)
    assert profile.value(f_star) <= best + 1e-12 * abs(best)
    # an end is evaluated only where no slope before it has closed its side
    ends = [k for k, f in enumerate(profile.calls) if f in (root + lo, root + hi)]
    slopes = [parts[0](f - root) for f in profile.calls[: ends[0] if ends else None]]
    assert (root + lo in profile.calls) == (not any(s < 0.0 for s in slopes))
    assert (root + hi in profile.calls) == (not any(s > 0.0 for s in slopes))


def test_newton_search_without_a_sign_change_returns_the_lowest_evaluated_point():
    import sirlevy.estimator as estimator

    # the profile falls across [0, 4] with zero curvature, so Newton cannot step and the end hi wins
    profile = _FakeProfile(0.0, lambda x: -1.0 - 0.1 * x, lambda x: -x - 0.05 * x * x, lambda x: 0.0)
    f_star, evaluations = estimator._newton_search(profile, None, 0.0, 4.0, 1.0)
    assert (f_star, evaluations) == (4.0, 2)
    assert profile.calls == [1.0, 4.0]


def test_newton_search_fails_on_non_finite_values_and_at_its_cap():
    import sirlevy.estimator as estimator

    for slope, value in ((lambda x: math.nan, lambda x: x * x), (lambda x: x, lambda x: math.inf)):
        with pytest.raises(EstimationError, match="non-finite"):
            estimator._newton_search(_FakeProfile(0.0, slope, value, lambda x: 1.0), None, -1.0, 1.0, 0.5)
    # a sign step without curvature: bisection from a bracket of width 1e300 needs about 1,000 halvings
    step = _FakeProfile(0.0, lambda x: 1.0 if x > 0.5 else -1.0, lambda x: abs(x - 0.5), lambda x: math.nan)
    with pytest.raises(EstimationError, match="did not converge"):
        estimator._newton_search(step, None, -1e300, 1.0, 0.7)
    assert len(step.calls) == estimator._SEARCH_MAXITER


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("seed,eps", [(0, 0.3), (1, 0.3), (7, 0.01), (11, 0.001)])
def test_cells_and_located_period_in_one_batch_equal_separate_solves(seed, eps, order):
    import sirlevy.estimator as estimator

    traj = make_dataset(seed=seed, eps=eps)
    box = BoxConstraints()
    profile = alpha_profile(traj, traj.params, ContrastConfig(form="weighted", eps=eps), order=order)
    periods = np.random.default_rng(seed).uniform(box.period[0], box.period[1], 20).tolist()
    f_star, _ = estimator._locate_frequency(profile, box)
    located = 1.0 / f_star
    alphas, values = profile.solve_many(periods + [located], box)
    cell_alphas, cell_values = profile.solve_many(periods, box)
    alpha, value = profile.solve(located, box)
    assert alphas.tobytes() == np.vstack([cell_alphas, alpha]).tobytes()
    assert values.tobytes() == np.append(cell_values, value).tobytes()


def _lattice_reference(n_obs, horizon, period_box, order=1):
    """The lattice points by brute force: every j df, df = 1/(4KT), in the period box and below n/(2T)."""
    dt = horizon / n_obs
    df = 1.0 / (4.0 * order * n_obs * dt)
    top = 2 * order * n_obs - 1  # one lattice point below the Nyquist frequency
    return [j for j in range(1, 2 * top) if 1.0 / period_box[1] <= j * df <= 1.0 / period_box[0] and j <= top]


@pytest.mark.parametrize(
    "n_obs,horizon,period_box",
    [
        (100, 1.0, (1e-3, 1.0)),  # the Nyquist frequency caps the box
        (120, 0.95, (1e-3, 1.0)),  # the top period 1 falls between lattice points
        (100, 1.0, (0.13, 0.87)),  # both ends inside the range
        (10, 1.0, (0.07, 0.62)),  # the Nyquist frequency 5 below the box's top 1/0.07
        (37, 1.0, (0.21, 0.21)),  # a one-point box off the lattice: no scan
    ],
)
def test_scan_lattice_is_every_lattice_point_in_range(n_obs, horizon, period_box):
    states = np.tile([2.0, 0.2, 0.3], (n_obs + 1, 1))
    traj = sl.Trajectory(times=np.linspace(0.0, horizon, n_obs + 1), states=states, model="numbers")
    profile = alpha_profile(traj, sl.numbers_defaults(), ContrastConfig(form="plain", eps=0.01))
    assert profile.df == pytest.approx(1.0 / (4.0 * horizon), rel=1e-12)
    j = _scan_lattice(profile, BoxConstraints(period=period_box))
    assert j.tolist() == _lattice_reference(n_obs, horizon, period_box)
    if period_box == (0.21, 0.21):
        assert j.size == 0


def test_a_period_box_of_one_lattice_point_scans_it_alone():
    n_obs = 40
    traj = make_dataset(seed=3, eps=0.01, n_obs=n_obs)
    profile = alpha_profile(traj, traj.params, CFG_W)
    box = BoxConstraints(period=(0.25, 0.25))  # f = 4 = 16 df
    assert _scan_lattice(profile, box).tolist() == [16]
    res = sl.lsgd_estimate(traj, EstimatorConfig(), box, CFG_W, seed=0)
    assert res.theta.period == 0.25
    assert box.contains(res.theta.to_vector())


@pytest.mark.parametrize("order", [2, 3])
def test_scan_lattice_spacing_is_a_quarter_cycle_of_the_highest_harmonic(order):
    n_obs, horizon, period_box = 100, 1.0, (0.13, 0.87)
    states = np.tile([2.0, 0.2, 0.3], (n_obs + 1, 1))
    traj = sl.Trajectory(times=np.linspace(0.0, horizon, n_obs + 1), states=states, model="numbers")
    profile = alpha_profile(traj, sl.numbers_defaults(), ContrastConfig(form="plain", eps=0.01), order=order)
    assert profile.df == pytest.approx(1.0 / (4.0 * order * horizon), rel=1e-12)
    j = _scan_lattice(profile, BoxConstraints(period=period_box))
    assert j.tolist() == _lattice_reference(n_obs, horizon, period_box, order)


@pytest.mark.parametrize("seed,eps", [(2, 0.3), (5, 0.1), (8, 0.01), (13, 0.001)])
def test_scan_lattice_on_estimates_runs_to_the_nyquist_frequency(seed, eps):
    traj = make_dataset(seed=seed, eps=eps)
    profile = alpha_profile(traj, traj.params, ContrastConfig(form="weighted", eps=eps))
    j = _scan_lattice(profile, BoxConstraints())
    # periods 1 down to just above 2 dt, a quarter cycle across the horizon
    # apart; the Nyquist frequency 1 / (2 dt) is the next lattice point
    assert j.tolist() == list(range(4, 2 * traj.n_intervals))
    assert j[0] * profile.df == 1.0 and (j[-1] + 1) * profile.df == 0.5 / profile.dt
