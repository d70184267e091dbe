"""The estimator fits theta0's Fourier order, and the CLI checks its inputs before writing.

The ``theory`` and ``predict`` verbs estimate at the order of ``--theta0``;
``theory`` reads the config's ``cells``; a config's ``x0``, a ``--theta0``
outside the parameter box, a singular information matrix, no replications
and fewer than one worker are rejected before any file is written.
"""

import csv
import os

import numpy as np
import pytest

import sirlevy as sl
import sirlevy.theory as theory_mod
from sirlevy.cli import main as cli_main

from conftest import THETA_REF, X0_NUMBERS

# REFERENCE_THETA with small second harmonics
THETA_ORDER2 = "0.26836304,0.15114833,0.0621514,0.01,0.096762,0.01"


def _write_config(path, **values):
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in values.items():
            fh.write(f"{key}={val}\n")
    return str(path)


def _rows(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_theory_runs_at_the_order_of_theta0(tmp_path):
    out = tmp_path / "theory"
    assert cli_main(["theory", "--theta0", THETA_ORDER2, "--replications", "4", "--seed", "2", "--out", str(out)]) == 0
    names = sorted(n for n in os.listdir(out) if n.startswith("scaled_errors_eps_"))
    assert names == ["scaled_errors_eps_0.001.csv", "scaled_errors_eps_0.01.csv"]
    for name in names:
        assert {len(row) for row in _rows(out / name)} == {6}
    assert np.loadtxt(out / "information_matrix.csv", delimiter=",").shape == (6, 6)


def test_predict_table_carries_the_order_of_theta0(tmp_path):
    out = tmp_path / "predict"
    assert cli_main(["predict", "--theta0", THETA_ORDER2, "--seed", "3", "--out", str(out)]) == 0
    header, *rows = _rows(out / "parameter_table.csv")
    assert header == ["row", "period", "base", "cos1", "cos2", "sin1", "sin2"]
    assert [row[0] for row in rows] == ["true", "estimate_eps_0.3", "estimate_eps_0.001"]
    assert {len(row) for row in rows} == {7}
    assert [float(v) for v in rows[0][1:]] == [float(v) for v in THETA_ORDER2.split(",")]


def _record_simulations(monkeypatch) -> list:
    """Record every call theory makes to either integrator; the calls still run."""
    simulated = []
    for name in ("simulate_sde", "simulate_many"):
        simulate = getattr(theory_mod, name)

        def recording(*args, _simulate=simulate, _name=name, **kwargs):
            simulated.append(_name)
            return _simulate(*args, **kwargs)

        monkeypatch.setattr(theory_mod, name, recording)
    return simulated


def test_rate_experiment_rejects_an_estimator_of_another_order_before_simulating(monkeypatch):
    simulated = _record_simulations(monkeypatch)
    theta2 = sl.ThetaParams.from_vector([float(v) for v in THETA_ORDER2.split(",")])
    for theta0, est in ((theta2, sl.EstimatorConfig()), (THETA_REF, sl.EstimatorConfig(order=2))):
        with pytest.raises(ValueError, match="order"):
            sl.rate_experiment(
                "numbers", theta0, sl.numbers_defaults(), X0_NUMBERS, [0.01], replications=1, est=est, limit_draws=0
            )
    assert simulated == []


def test_theory_estimates_with_the_configs_cells(tmp_path, monkeypatch):
    seen = []
    estimate = theory_mod.lsgd_estimate

    def recording(*args, **kwargs):
        result = estimate(*args, **kwargs)
        seen.append(len(result.cells))
        return result

    monkeypatch.setattr(theory_mod, "lsgd_estimate", recording)
    cfg = _write_config(tmp_path / "cells.cfg", cells=5)
    args = ["theory", "--config", cfg, "--eps", "0.01", "--replications", "2", "--out", str(tmp_path / "t")]
    assert cli_main(args) == 0
    assert seen == [5, 5]


def test_box_contains_takes_the_order_from_the_vector():
    box = sl.BoxConstraints()
    vec = np.array([float(v) for v in THETA_ORDER2.split(",")])
    assert box.contains(vec)
    assert box.contains(vec[:4])
    vec[4] = -0.1
    assert not box.contains(vec)


def test_period_floor_is_closed():
    sl.ThetaParams(sl.PERIOD_FLOOR, 0.5).validate()
    with pytest.raises(ValueError):
        sl.ThetaParams(0.5 * sl.PERIOD_FLOOR, 0.5).validate()


@pytest.mark.parametrize("verb", ["predict", "theory"])
def test_theta0_outside_the_box_writes_nothing(tmp_path, capsys, verb):
    out = tmp_path / verb
    extra = ["--eps", "0.01", "--replications", "1"] if verb == "theory" else []
    assert cli_main([verb, "--theta0", "1.5,0.5,0.1,0.1", "--out", str(out), *extra]) == 1
    assert "period must lie in" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "model,x0",
    [("proportions", (0.5, 0.3, 0.3)), ("numbers", (2.3, 0.19))],
    ids=["proportions-sum-1.1", "numbers-two-components"],
)
@pytest.mark.parametrize("verb", ["sweep", "theory"])
def test_bad_x0_exits_before_writing(tmp_path, capsys, model, x0, verb):
    with pytest.raises(ValueError) as err:
        sl.get_model(model).validate_state(x0)
    values = dict(model=model, x0=",".join(map(str, x0)), n_datasets=2)
    if model == "proportions":
        values.update(birth=0, death=0)
    cfg = _write_config(tmp_path / "bad.cfg", **values)
    out = tmp_path / verb
    extra = ["--eps", "0.01", "--replications", "1"] if verb == "theory" else []
    assert cli_main([verb, "--config", cfg, "--out", str(out), *extra]) == 1
    assert str(err.value) in capsys.readouterr().err
    assert not out.exists()


def test_theory_singular_theta0_fails_before_simulating_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # no oscillation: the limit law is undefined, which the verb finds before its first replication
    simulated = _record_simulations(monkeypatch)
    out = tmp_path / "theory"
    assert cli_main(["theory", "--theta0", "0.26836304,0.15114833,0,0", "--replications", "3", "--out", str(out)]) == 1
    assert "information matrix is singular" in capsys.readouterr().err
    assert simulated == []
    assert not out.exists()


def test_theory_zero_replications_writes_nothing(tmp_path, capsys):
    out = tmp_path / "theory"
    assert cli_main(["theory", "--replications", "0", "--out", str(out)]) == 1
    assert "replications must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_zero_jobs_flag_is_rejected_before_writing(tmp_path, capsys):
    # a config's jobs=0 is one case of test_run_config_rejects_counts_below_one
    cfg = _write_config(tmp_path / "jobs.cfg", n_datasets=2)
    out = tmp_path / "sweep"
    assert cli_main(["sweep", "--config", cfg, "--out", str(out), "--jobs", "0"]) == 1
    assert "jobs must be at least 1" in capsys.readouterr().err
    assert not out.exists()
