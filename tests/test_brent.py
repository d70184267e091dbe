"""A NaN slope in the period search becomes a failure row; a scipy-free import path and a lean cold start."""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np

import sirlevy as sl
import sirlevy.estimator as est_mod

from conftest import THETA_REF, X0_NUMBERS


def test_nan_slope_becomes_a_failure_row(monkeypatch):
    """A period search that meets a NaN slope inside its bracket fails its replication instead of the run.

    The evaluator gives NaN everywhere but at the bracket's two ends, so
    Newton's first step meets it, and the search raises at once.
    """
    ends, met = set(), []
    newton, expand = est_mod._newton_search, sl.contrast.AlphaProfile.expand

    def newton_spy(profile, box, lo, hi, start):
        ends.clear()
        ends.update((lo, hi))
        return newton(profile, box, lo, hi, start)

    def nan_inside(profile, f, box):
        slope, value, curvature = expand(profile, f, box)
        if f in ends:
            return slope, value, curvature
        met.append(f)
        return slope * math.nan, value, curvature

    monkeypatch.setattr(est_mod, "_newton_search", newton_spy)
    monkeypatch.setattr(sl.contrast.AlphaProfile, "expand", nan_inside)
    res = sl.rate_experiment(
        "numbers", THETA_REF, sl.numbers_defaults(), X0_NUMBERS, [0.001], replications=3, seed=3,
        substeps=1, limit_draws=0,
    )
    assert len(met) == 3
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


def test_cold_start_loads_no_masked_arrays_pool_or_logging():
    """Importing, simulating, estimating and a one-worker batch load only the modules they run."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = textwrap.dedent(
        """
        import sys
        import tempfile
        import sirlevy as sl
        import sirlevy.cli
        import numpy as np
        params = sl.numbers_defaults(eps=0.01)
        x0 = (2.3, 0.19, 0.25)
        noise = sl.LevyPathNoise(np.random.SeedSequence(1), 2, 1.0, 3)
        traj = sl.simulate_sde("numbers", sl.REFERENCE_THETA, params, x0, 1.0, 100, noise)
        noises = [sl.LevyPathNoise(np.random.SeedSequence(k), 2, 1.0, 3) for k in range(2)]
        sl.simulate_many("numbers", sl.REFERENCE_THETA, params, x0, 1.0, 100, noises)
        sl.lsgd_estimate(traj, sl.EstimatorConfig(), cfg=sl.ContrastConfig("weighted", 0.01), seed=1)
        sl.solve_ode("numbers", sl.REFERENCE_THETA, params, x0, 1.0, 100)
        sl.information_matrix("numbers", sl.REFERENCE_THETA, params, x0)
        cfg = sl.RunConfig(eps_list=(0.01,), n_datasets=2, seed=3, cells=6, jobs=1)
        with tempfile.TemporaryDirectory() as out:
            records = sl.generate_datasets(cfg, out)
            rows = sl.batch_estimate(records, cfg, out)
        assert len(records) == 2 and len(rows) == 1, (records, rows)
        unused = ("numpy.ma", "multiprocessing", "concurrent.futures", "logging", "scipy")
        print(sorted(k for k in sys.modules if k in unused or k.startswith(tuple(m + "." for m in unused))))
        """
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_sweep_report_and_rate_study_load_no_masked_arrays():
    """A one-worker generate, estimate and report, then a rate study's IQRs, leave numpy.ma unloaded."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = textwrap.dedent(
        """
        import sys
        import tempfile
        import sirlevy as sl
        cfg = sl.RunConfig(eps_list=(0.3, 0.01), n_datasets=2, seed=3, cells=6, jobs=1)
        with tempfile.TemporaryDirectory() as out:
            records = sl.generate_datasets(cfg, out)
            sl.batch_estimate(records, cfg, out)
            report = sl.emit_reports(out)
        params = sl.numbers_defaults()
        result = sl.rate_experiment(
            "numbers", sl.REFERENCE_THETA, params, cfg.x0, (0.01, 0.001), replications=5, seed=2, limit_draws=20
        )
        ratio = result.iqr_ratio(0.01, 0.001)
        assert len(report["medians_l2"]) == 2 and ratio.shape == (4,), (report, ratio)
        print(sorted(k for k in sys.modules if k == "numpy.ma" or k.startswith("numpy.ma.")))
        """
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
