import csv
import hashlib
import os

import numpy as np
import pytest

import sirlevy as sl
from sirlevy.cli import main as cli_main
from sirlevy.experiments import (
    RunConfig,
    load_keyvalues,
    load_trajectory,
    save_trajectory,
)

from conftest import THETA_REF, make_dataset


def _tree_hash(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for fn in sorted(filenames):
            path = os.path.join(dirpath, fn)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def test_sample_true_theta_law():
    rng = np.random.default_rng(1)
    bases, amps = [], []
    for _ in range(10_000):
        th = sl.sample_true_theta(rng)
        assert sl.PERIOD_FLOOR <= th.period <= 1.0
        assert 0.1 <= th.base <= 0.8
        amp = np.hypot(th.cos_coeffs[0], th.sin_coeffs[0])
        assert amp <= th.base + 1e-12  # transmission rate stays nonnegative
        bases.append(th.base)
        amps.append(amp)
    assert np.mean(bases) == pytest.approx(0.45, abs=0.01)


def test_trajectory_round_trip_exact(tmp_path):
    traj = make_dataset(seed=3, eps=0.01)
    path = tmp_path / "traj.csv"
    meta = tmp_path / "traj.meta"
    save_trajectory(traj, str(path), str(meta))
    back = load_trajectory(str(path), str(meta))
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.states, traj.states)
    assert back.theta == traj.theta
    assert back.params == traj.params
    assert back.lam == traj.lam
    assert back.model == traj.model


def test_config_round_trip_lossless(tmp_path):
    cfg = RunConfig(
        model="numbers",
        eps_list=(0.3, 0.007, 1e-3),
        n_datasets=17,
        seed=123456789,
        gamma=0.07142,
        x0=(2.3, 0.19, 0.25),
        cells=13,
        contrast_form="weighted",
    )
    path = tmp_path / "config.txt"
    cfg.save(str(path))
    assert RunConfig.load(str(path)) == cfg


def test_config_load_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.txt"
    RunConfig(n_datasets=7).save(str(path))
    assert RunConfig.load(str(path)).n_datasets == 7
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("n_dataset=1000\nsede=3\n")
    with pytest.raises(ValueError, match="n_dataset, sede"):
        RunConfig.load(str(path))


@pytest.mark.parametrize("jobs", [1, 2])
def test_corrupt_dataset_becomes_failure_row(tmp_path, jobs):
    cfg = RunConfig(eps_list=(0.01,), n_datasets=4, seed=3, cells=6, jobs=jobs)
    out = str(tmp_path)
    records = sl.generate_datasets(cfg, out)
    with open(records[1].path, "w", encoding="utf-8") as fh:
        fh.write("t,X,Y,Z\n0.0,2.3,not-a-number,0.25\n")
    paths = sl.batch_estimate(records, cfg, out)
    with open(paths[0.01]) as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["dataset"]) for r in rows] == [0, 1, 2, 3]
    bad = rows[1]
    assert bad["error"].startswith("ValueError: ")
    assert bad["converged"] == "false" and bad["est_period"] == "nan"
    assert float(bad["true_period"]) == records[1].theta0.period
    for row in rows[:1] + rows[2:]:
        assert row["error"] == ""
        assert np.isfinite(float(row["est_period"]))


def test_proportions_config_forces_plain_contrast():
    cfg = RunConfig.proportions_defaults(n_datasets=2)
    assert cfg.contrast_form == "plain"
    assert cfg.birth == 0.0 and cfg.death == 0.0
    cfg2 = RunConfig(model="proportions", contrast_form="weighted")
    assert cfg2.contrast_form == "plain"


def test_generate_estimate_report_deterministic(tmp_path):
    cfg = RunConfig(eps_list=(0.3, 0.01), n_datasets=4, seed=7, cells=8)
    trees = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        records = sl.generate_datasets(cfg, out)
        assert len(records) == 8
        sl.batch_estimate(records, cfg, out)
        report = sl.emit_reports(out)
        assert set(report["medians_l2"]) == {0.3, 0.01}
        trees.append(_tree_hash(out))
    assert trees[0] == trees[1]


def test_dataset_metadata_complete(tmp_path):
    cfg = RunConfig(eps_list=(0.01,), n_datasets=2, seed=11, cells=6)
    records = sl.generate_datasets(cfg, str(tmp_path))
    meta = load_keyvalues(records[0].meta_path)
    for key in ("model", "theta0_period", "theta0_base", "theta0_cos1", "theta0_sin1", "lambda", "eps", "sigma"):
        assert key in meta
    assert float(meta["lambda"]) in (1, 2, 3, 4)
    th = records[0].theta0
    assert np.hypot(th.cos_coeffs[0], th.sin_coeffs[0]) <= th.base


def test_parallel_estimation_matches_serial(tmp_path):
    cfg1 = RunConfig(eps_list=(0.01,), n_datasets=6, seed=5, cells=8, jobs=1)
    out1 = str(tmp_path / "serial")
    records = sl.generate_datasets(cfg1, out1)
    sl.batch_estimate(records, cfg1, out1)

    cfg2 = RunConfig(eps_list=(0.01,), n_datasets=6, seed=5, cells=8, jobs=3)
    out2 = str(tmp_path / "parallel")
    records2 = sl.generate_datasets(cfg2, out2)
    sl.batch_estimate(records2, cfg2, out2)

    with open(os.path.join(out1, "results_eps_0.01.csv")) as fh:
        serial = fh.read()
    with open(os.path.join(out2, "results_eps_0.01.csv")) as fh:
        parallel = fh.read()
    assert serial == parallel


def test_results_csv_columns(tmp_path):
    cfg = RunConfig(eps_list=(0.1,), n_datasets=3, seed=2, cells=6)
    out = str(tmp_path)
    records = sl.generate_datasets(cfg, out)
    paths = sl.batch_estimate(records, cfg, out)
    with open(paths[0.1]) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == [
        "dataset",
        "true_period",
        "est_period",
        "true_base",
        "est_base",
        "true_cos1",
        "est_cos1",
        "true_sin1",
        "est_sin1",
        "objective",
        "converged",
        "error",
    ]
    assert len(rows) == 3
    assert [r[0] for r in rows] == ["0", "1", "2"]


def test_emit_reports_requires_inputs(tmp_path):
    with pytest.raises(FileNotFoundError) as err:
        sl.emit_reports(str(tmp_path / "nowhere"))
    assert "config.txt" in str(err.value)
    cfg = RunConfig(eps_list=(0.1, 0.01), n_datasets=2, seed=3, cells=6)
    out = str(tmp_path / "partial")
    sl.generate_datasets(cfg, out)
    with pytest.raises(FileNotFoundError) as err:
        sl.emit_reports(out)
    assert "results_eps_0.1" in str(err.value)


def test_summary_medians_match_independent_recomputation(tmp_path):
    cfg = RunConfig(eps_list=(0.1,), n_datasets=5, seed=9, cells=8)
    out = str(tmp_path)
    records = sl.generate_datasets(cfg, out)
    sl.batch_estimate(records, cfg, out)
    sl.emit_reports(out)

    with open(os.path.join(out, "results_eps_0.1.csv")) as fh:
        reader = csv.DictReader(fh)
        rows = [r for r in reader if not r["error"]]
    med = np.median([abs(float(r["est_period"]) - float(r["true_period"])) for r in rows])
    with open(os.path.join(out, "summary.csv")) as fh:
        summary = list(csv.DictReader(fh))
    assert len(summary) == 1
    assert float(summary[0]["median_abs_period"]) == pytest.approx(med, rel=1e-12)
    assert int(summary[0]["n"]) == 5


def test_summary_rows_follow_config_order(tmp_path):
    cfg = RunConfig(eps_list=(0.3, 0.01), n_datasets=2, seed=13, cells=6)
    out = str(tmp_path)
    records = sl.generate_datasets(cfg, out)
    sl.batch_estimate(records, cfg, out)
    sl.emit_reports(out)
    with open(os.path.join(out, "summary.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["eps"]) for r in rows] == [0.3, 0.01]


def test_prediction_study_outputs(tmp_path):
    cfg = RunConfig(eps_list=(0.3, 0.001), seed=21, cells=8)
    out = sl.prediction_study(THETA_REF, cfg, str(tmp_path), eps_values=(0.3, 0.001), n_paths=5)
    with open(out["table"]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row", "period", "base", "cos1", "sin1"]
    assert rows[1][0] == "true"
    assert [r[0] for r in rows[2:]] == ["estimate_eps_0.3", "estimate_eps_0.001"]
    assert np.allclose([float(v) for v in rows[1][1:]], THETA_REF.to_vector())
    det = load_trajectory(out["deterministic"])
    assert det.times[-1] == pytest.approx(3.0)
    ens = load_trajectory(out["ensembles"][0.001])
    assert ens.states.shape == det.states.shape


def test_prediction_tracks_truth_at_small_noise(tmp_path):
    # a converged small-noise estimate predicts the true drift-only path on
    # the forward window within a few percent sup-norm
    cfg = RunConfig(eps_list=(0.001,), seed=31, cells=20, substeps=1)
    out = sl.prediction_study(THETA_REF, cfg, str(tmp_path), eps_values=(0.001,), n_paths=40)
    det = load_trajectory(out["deterministic"])
    ens = load_trajectory(out["ensembles"][0.001])
    rel = np.abs(ens.states - det.states) / np.abs(det.states)
    assert rel.max() <= 0.05
    est = out["estimates"][0.001].to_vector()
    assert np.abs(est - THETA_REF.to_vector()).max() < 0.01


def test_full_flag_restores_paper_scale(tmp_path):
    from sirlevy.cli import build_parser, _load_config

    cfg_path = str(tmp_path / "c.txt")
    RunConfig(n_datasets=100).save(cfg_path)
    args = build_parser().parse_args(["generate", "--config", cfg_path, "--full", "--out", "x"])
    assert _load_config(args).n_datasets == 1000
    args = build_parser().parse_args(["generate", "--config", cfg_path, "--out", "x"])
    assert _load_config(args).n_datasets == 100


def test_predict_ensemble_retries_failed_paths(monkeypatch):
    import sirlevy.simulate as sim

    calls = {"n": 0}
    real = sim.simulate_sde

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise sl.SimulationError("injected failure", time=0.5)
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, "simulate_sde", flaky)
    p = sl.proportions_defaults(eps=0.01)
    mean = sim.predict_ensemble("proportions", THETA_REF, p, (0.82, 0.07, 0.11), horizon=1.0, n_paths=3, seed=1)
    assert calls["n"] == 4  # one retry with a fresh sub-seed, then 3 successes
    assert np.all(np.isfinite(mean.states))


def test_cli_sweep_report_and_errors(tmp_path, capsys):
    out = str(tmp_path / "run")
    cfg_path = str(tmp_path / "config.txt")
    RunConfig(eps_list=(0.3, 0.01), n_datasets=3, cells=6).save(cfg_path)
    code = cli_main(["sweep", "--config", cfg_path, "--seed", "4", "--out", out])
    captured = capsys.readouterr()
    assert code == 0
    assert "consistency verdict" in captured.out
    assert os.path.exists(os.path.join(out, "summary.csv"))

    code = cli_main(["report", "--out", str(tmp_path / "missing")])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


def test_cli_predict_and_theory(tmp_path, capsys):
    out = str(tmp_path / "pred")
    code = cli_main(["predict", "--out", out, "--seed", "3", "--eps", "0.01"])
    assert code == 0
    assert os.path.exists(os.path.join(out, "parameter_table.csv"))

    out2 = str(tmp_path / "theory")
    code = cli_main(["theory", "--out", out2, "--seed", "3", "--eps", "0.01", "--replications", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert os.path.exists(os.path.join(out2, "information_matrix.csv"))
    assert os.path.exists(os.path.join(out2, "scaled_errors_eps_0.01.csv"))
    assert "min eigenvalue" in captured.out


def test_cli_estimate_reads_the_trees_own_config(tmp_path, capsys):
    # a proportions tree: the default config would ask for the weighted form
    cfg_path = str(tmp_path / "proportions.txt")
    RunConfig.proportions_defaults(eps_list=(0.01,), n_datasets=2, cells=6).save(cfg_path)
    out = str(tmp_path / "tree")
    assert cli_main(["generate", "--config", cfg_path, "--out", out]) == 0
    code = cli_main(["estimate", "--out", out])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    with open(os.path.join(out, "results_eps_0.01.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 and all(row["error"] == "" for row in rows)


def test_cli_config_overrides_apply_to_the_trees_config(tmp_path):
    from sirlevy.cli import _load_config, build_parser

    out = str(tmp_path / "tree")
    os.makedirs(out)
    cfg = RunConfig.proportions_defaults(eps_list=(0.01,), n_datasets=2, cells=6, seed=3)
    cfg.save(os.path.join(out, "config.txt"))
    args = build_parser().parse_args(["estimate", "--out", out, "--seed", "9", "--jobs", "2"])
    cfg = _load_config(args, tree=out)
    assert (cfg.model, cfg.cells, cfg.seed, cfg.jobs) == ("proportions", 6, 9, 2)


def test_eps_levels_keep_their_exact_value(tmp_path):
    cfg = RunConfig(eps_list=(0.3, 0.00012345678), n_datasets=2, seed=5, cells=6)
    out = str(tmp_path / "tree")
    cfg_path = str(tmp_path / "config.txt")
    cfg.save(cfg_path)
    assert cli_main(["generate", "--config", cfg_path, "--out", out]) == 0
    with open(os.path.join(out, "datasets.csv"), encoding="utf-8") as fh:
        assert {row["eps"] for row in csv.DictReader(fh)} == {"0.3", "0.00012345678"}
    records = sl.experiments.load_records(out)
    assert sorted({r.eps for r in records}) == [0.00012345678, 0.3]
    assert cli_main(["estimate", "--out", out]) == 0
    for tag in ("0.3", "0.000123457"):
        assert os.path.exists(os.path.join(out, f"results_eps_{tag}.csv"))
    assert cli_main(["report", "--out", out]) == 0
    report = sl.emit_reports(out)
    assert set(report["medians_l2"]) == {0.3, 0.00012345678}


def test_batch_estimate_writes_every_level_with_records(tmp_path):
    cfg = RunConfig(eps_list=(0.3, 0.01), n_datasets=1, seed=2, cells=6)
    out = str(tmp_path / "tree")
    records = sl.generate_datasets(cfg, out)
    # estimate with a config that lists only one of the levels
    paths = sl.batch_estimate(records, RunConfig(eps_list=(0.3,), n_datasets=1, seed=2, cells=6), out)
    assert sorted(paths) == [0.01, 0.3]


def test_default_eps_levels_keep_their_index_text(tmp_path):
    out = str(tmp_path / "tree")
    sl.generate_datasets(RunConfig(n_datasets=1, seed=1, cells=6), out)
    with open(os.path.join(out, "datasets.csv"), encoding="utf-8") as fh:
        assert [row["eps"] for row in csv.DictReader(fh)] == ["0.3", "0.1", "0.01", "0.001"]


@pytest.mark.parametrize(
    "eps_list,named",
    [((0.001, 0.0010000001), "0.0010000001"), ((0.3, 1.0), "1.0"), ((-0.1,), "-0.1"), ((float("nan"),), "nan")],
)
def test_run_config_rejects_bad_eps_levels(eps_list, named):
    with pytest.raises(ValueError, match=named):
        RunConfig(eps_list=eps_list)
