import csv
import dataclasses
import hashlib
import logging
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sirlevy as sl
from sirlevy.cli import main as cli_main
from sirlevy.experiments import (
    RunConfig,
    load_keyvalues,
    load_trajectory,
    save_trajectory,
)

from conftest import THETA_REF, make_dataset


def _tree_hash(root, skip=()):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for fn in sorted(filenames):
            path = os.path.join(dirpath, fn)
            if os.path.relpath(path, root) in skip:
                continue
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


# every float64 but NaN: subnormals, the largest finite values, infinities and -0.0 included
_any_float = st.floats(allow_nan=False, width=64)
_nonnegative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_positive = _nonnegative.filter(lambda x: x > 0.0)


@st.composite
def _sidecar_trajectories(draw):
    n = draw(st.integers(2, 6))  # load_trajectory rejects files with fewer than two rows
    floats = st.lists(_any_float, min_size=n, max_size=n)
    order = draw(st.integers(1, 2))
    coeffs = st.tuples(*[_any_float] * order)
    return sl.Trajectory(
        times=draw(floats),
        states=np.column_stack([draw(floats) for _ in range(3)]),
        model=draw(st.sampled_from(["numbers", "proportions"])),
        theta=sl.ThetaParams(draw(_any_float), draw(_any_float), draw(coeffs), draw(coeffs)),
        params=sl.SirParams(
            birth=draw(_nonnegative),
            death=draw(_nonnegative),
            gamma=draw(_positive),
            sigma=draw(_positive),
            eps=draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
        ),
        seed=draw(st.integers(0, 2**128)),
        lam=draw(_any_float),
        clamp_count=draw(st.integers(0, 10**6)),
    )


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(traj=_sidecar_trajectories())
@example(
    traj=sl.Trajectory(
        times=[-0.0, 5e-324, 2.2250738585072014e-308],
        states=[[1.7976931348623157e308, -0.0, 0.1], [np.inf, -np.inf, 1e-310], [0.0, -5e-324, 1.0 / 3.0]],
        model="numbers",
        theta=sl.ThetaParams(-0.0, 5e-324, (1.7976931348623157e308,), (-1e-310,)),
        params=sl.SirParams(birth=5e-324, death=0.0, gamma=1.7976931348623157e308, sigma=1e-310, eps=0.1 + 0.2),
        seed=2**128,
        lam=-0.0,
        clamp_count=3,
    )
)
def test_trajectory_and_sidecar_round_trip_bit_for_bit(tmp_path, traj):
    path = tmp_path / "traj.csv"
    meta = tmp_path / "traj.meta"
    save_trajectory(traj, str(path), str(meta))
    back = load_trajectory(str(path), str(meta))
    assert np.array_equal(_bits(back.times), _bits(traj.times))
    assert np.array_equal(_bits(back.states), _bits(traj.states))
    assert np.array_equal(_bits(back.theta.to_vector()), _bits(traj.theta.to_vector()))
    p, q = back.params, traj.params
    assert np.array_equal(
        _bits([p.birth, p.death, p.gamma, p.sigma, p.eps]), _bits([q.birth, q.death, q.gamma, q.sigma, q.eps])
    )
    assert _bits(back.lam) == _bits(traj.lam)
    assert back.seed == traj.seed and type(back.seed) is int
    assert (back.model, back.clamp_count) == (traj.model, traj.clamp_count)


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


def test_config_load_accepts_the_retired_inner_solver_key_only_as_linear(tmp_path):
    # trees written while the estimator had a PGD inner solver record inner_solver=linear
    path = tmp_path / "config.txt"
    RunConfig(n_datasets=7, cells=9).save(str(path))
    current = RunConfig.load(str(path))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("inner_solver=linear\n")
    assert RunConfig.load(str(path)) == current
    text = path.read_text(encoding="utf-8").replace("inner_solver=linear", "inner_solver=pgd")
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="inner_solver"):
        RunConfig.load(str(path))


@pytest.mark.parametrize(
    "name,value",
    [
        ("cells", 0),
        ("order", 0),
        ("n_obs", 0),
        ("substeps", 0),
        ("n_datasets", 0),
        ("n_datasets", -3),
        ("jobs", 0),
        ("contrast_form", "weigthed"),
    ],
)
def test_run_config_rejects_counts_below_one(tmp_path, capsys, name, value):
    with pytest.raises(ValueError, match=name):
        RunConfig(**{name: value})
    path = tmp_path / "config.txt"
    RunConfig().save(str(path))
    text = path.read_text(encoding="utf-8")
    text = "".join(f"{name}={value}\n" if line.startswith(f"{name}=") else line for line in text.splitlines(True))
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=name):
        RunConfig.load(str(path))
    out = tmp_path / "run"
    assert cli_main(["sweep", "--config", str(path), "--out", str(out)]) == 1
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("failed_eps", [0.01, 0.1, 0.3])
def test_consistency_verdict_fails_when_a_level_has_no_estimate(tmp_path, failed_eps):
    cfg = RunConfig(eps_list=(0.3, 0.1, 0.01), n_datasets=2, seed=0, cells=6)
    out = str(tmp_path)
    records = sl.generate_datasets(cfg, out)
    sl.batch_estimate(records, cfg, out)
    assert sl.emit_reports(out)["consistency_pass"]
    for record in records:
        if record.eps == failed_eps:
            with open(record.path, "w", encoding="utf-8") as fh:
                fh.write("t,X,Y,Z\n")
    # estimate reads the edited files; the generated records hold the trajectories as simulated
    sl.batch_estimate(sl.load_records(out), cfg, out)
    report = sl.emit_reports(out)
    assert np.isnan(report["medians_l2"][failed_eps])
    assert not report["consistency_pass"]
    verdict = load_keyvalues(report["verdict"])
    assert verdict["verdict"] == "FAIL"
    if failed_eps != 0.1:
        assert verdict["ratio_largest_to_smallest"] == "nan"


@pytest.mark.parametrize("jobs", [1, 2])
def test_corrupt_dataset_becomes_failure_row(tmp_path, jobs):
    cfg = RunConfig(eps_list=(0.01,), n_datasets=4, seed=3, cells=6, jobs=jobs)
    out = str(tmp_path)
    records = sl.generate_datasets(cfg, out)
    with open(records[1].path, "w", encoding="utf-8") as fh:
        fh.write("t,X,Y,Z\n0.0,2.3,not-a-number,0.25\n")
    paths = sl.batch_estimate(sl.load_records(out), cfg, out)
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


def test_failure_row_logs_its_traceback_at_debug(tmp_path, caplog):
    caplog.set_level(logging.DEBUG, logger="sirlevy.experiments")
    cfg = RunConfig(eps_list=(0.01,), n_datasets=2, seed=3, cells=6)
    out = str(tmp_path)
    records = sl.generate_datasets(cfg, out)
    with open(records[1].path, "w", encoding="utf-8") as fh:
        fh.write("t,X,Y,Z\n0.0,2.3,not-a-number,0.25\n")
    paths = sl.batch_estimate(sl.load_records(out), cfg, out)
    with open(paths[0.01]) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["error"] == "" and rows[1]["error"].startswith("ValueError: ")
    logged = [r for r in caplog.records if r.name == "sirlevy.experiments"]
    assert len(logged) == 1
    (record,) = logged
    assert record.levelno == logging.DEBUG and record.getMessage() == "dataset 1 at eps 0.01 failed"
    assert record.exc_info is not None and record.exc_info[0] is ValueError


@pytest.mark.parametrize("n_rows", [0, 1])
def test_short_trajectory_file_is_rejected_by_name(tmp_path, n_rows):
    traj = make_dataset(seed=3, eps=0.01)
    path = tmp_path / "short.csv"
    save_trajectory(sl.Trajectory(traj.times[:n_rows], traj.states[:n_rows], "numbers"), str(path))
    with pytest.raises(ValueError, match=f"{path} has {n_rows} data rows"):
        load_trajectory(str(path))


def test_short_trajectory_files_become_failure_rows(tmp_path):
    cfg = RunConfig(eps_list=(0.01,), n_datasets=3, seed=3, cells=6)
    out = str(tmp_path)
    records = sl.generate_datasets(cfg, out)
    for record, text in zip(records[:2], ("t,X,Y,Z\n", "t,X,Y,Z\n0.0,2.3,0.19,0.25\n")):
        with open(record.path, "w", encoding="utf-8") as fh:
            fh.write(text)
    paths = sl.batch_estimate(sl.load_records(out), cfg, out)
    with open(paths[0.01]) as fh:
        rows = list(csv.DictReader(fh))
    for row, record in zip(rows[:2], records[:2]):
        assert row["error"].startswith("ValueError: "), row["error"]
        assert record.path in row["error"]
    assert rows[2]["error"] == ""


_ROWS = "0.0,2.3,0.19,0.25\n0.5,2.2,0.2,0.26\n"
# malformed trajectory files and a fragment of the error each raises; the short files have their own tests
_MALFORMED = {
    "empty": ("", "is empty"),
    "other header": ("t,S,I,R\n" + _ROWS, "unexpected trajectory header 't,S,I,R'"),
    "non-numeric cell": ("t,X,Y,Z\n0.0,2.3,x,0.25\n0.5,2.2,0.2,0.26\n", "could not convert string 'x'"),
    "quoted cell": ('t,X,Y,Z\n0.0,"2.3",0.19,0.25\n0.5,2.2,0.2,0.26\n', "could not convert string '\"2.3\"'"),
    "comment line": ("t,X,Y,Z\n# note\n" + _ROWS, "could not convert string '# note'"),
    "blank line": ("t,X,Y,Z\n0.0,2.3,0.19,0.25\n\n0.5,2.2,0.2,0.26\n", "blank line at line 3"),
    "trailing blank line": ("t,X,Y,Z\n" + _ROWS + "\n", "blank line at line 4"),
    "blank body": ("t,X,Y,Z\n\n\n", "blank line at line 2"),
    "fifth cell": ("t,X,Y,Z\n0.0,2.3,0.19,0.25\n0.5,2.2,0.2,0.26,7\n", "columns changed from 4 to 5"),
    "five cells a row": ("t,X,Y,Z\n0.0,2.3,0.19,0.25,7\n0.5,2.2,0.2,0.26,7\n", "has 5 cells a row"),
    "three cells a row": ("t,X,Y,Z\n0.0,2.3,0.19\n0.5,2.2,0.2\n", "has 3 cells a row"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_trajectory_file_is_rejected_by_name(tmp_path, case):
    text, fragment = _MALFORMED[case]
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" must not reach the caller
        with pytest.raises(ValueError) as err:
            load_trajectory(str(path))
    assert str(path) in str(err.value) and fragment in str(err.value), str(err.value)


def test_malformed_trajectory_files_become_failure_rows(tmp_path):
    cases = sorted(_MALFORMED)
    cfg = RunConfig(eps_list=(0.01,), n_datasets=len(cases) + 1, n_obs=10, seed=3, cells=4)
    records = sl.generate_datasets(cfg, str(tmp_path))
    for record, case in zip(records, cases):
        with open(record.path, "w", encoding="utf-8") as fh:
            fh.write(_MALFORMED[case][0])
    sl.batch_estimate(sl.load_records(str(tmp_path)), cfg, str(tmp_path))
    rows = _estimate_rows(str(tmp_path))
    for row, record, case in zip(rows, records, cases):
        error = row["error"]
        assert error.startswith("ValueError: ") and record.path in error and _MALFORMED[case][1] in error, case
    assert rows[-1]["error"] == ""


def _estimate_rows(out):
    rows = []
    for name in sorted(os.listdir(out)):
        if name.startswith("results_"):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                rows.extend(csv.DictReader(fh))
    return rows


def test_estimate_with_another_models_config_writes_mismatch_rows(tmp_path, capsys):
    out = str(tmp_path / "tree")
    RunConfig(eps_list=(0.01,), n_datasets=2, seed=1, cells=6).save(str(tmp_path / "numbers.txt"))
    assert cli_main(["generate", "--config", str(tmp_path / "numbers.txt"), "--out", out]) == 0
    RunConfig.proportions_defaults(eps_list=(0.01,), n_datasets=2, seed=1, cells=6).save(str(tmp_path / "prop.txt"))
    assert cli_main(["estimate", "--config", str(tmp_path / "prop.txt"), "--out", out]) == 0
    capsys.readouterr()
    rows = _estimate_rows(out)
    assert len(rows) == 2
    for row in rows:
        error = row["error"]
        assert error.startswith("ValueError: ") and "differs from the config" in error, error
        # the proportions defaults change the model, birth and death; gamma, sigma and eps agree
        for field in ("model numbers (config proportions)", "birth 0.018 (config 0.0)", "death 0.00042 (config 0.0)"):
            assert field in error, error
        for field in ("gamma", "sigma", "eps"):
            assert field not in error.split("config in ", 1)[1], error
        assert row["est_base"] == "nan" and row["converged"] == "false"


@pytest.mark.parametrize("route", ["memory", "files"])
def test_records_estimated_under_another_sigma_are_failure_rows(tmp_path, route):
    cfg = RunConfig(eps_list=(0.3, 0.01), n_datasets=2, seed=1, cells=6)
    out = str(tmp_path)
    generated = sl.generate_datasets(cfg, out)
    records = generated if route == "memory" else sl.load_records(out)
    assert all((r.trajectory is not None) == (route == "memory") for r in records)
    paths = sl.batch_estimate(records, dataclasses.replace(cfg, sigma=0.25), out)
    for eps, path in paths.items():
        with open(path, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        level = [r for r in records if r.eps == eps]
        assert [int(row["dataset"]) for row in rows] == [r.dataset_id for r in level] == [0, 1]
        for row, record in zip(rows, level):
            source = record.path if route == "memory" else f"sidecar {record.meta_path}"
            expected = f"ValueError: the dataset {source} differs from the config in sigma 0.5 (config 0.25)"
            assert row["error"] == expected
            estimates = [row[key] for key in row if key.startswith("est_")] + [row["objective"]]
            assert estimates == ["nan"] * 5 and row["converged"] == "false"


@pytest.mark.parametrize("jobs", [1, 2])
def test_generated_records_estimate_as_their_files(tmp_path, jobs):
    # generate_datasets hands each trajectory over in memory; load_records reads the same tree back
    cfg = RunConfig.proportions_defaults(eps_list=(0.3, 0.001), n_datasets=3, seed=6, cells=6, jobs=jobs)
    out = str(tmp_path / "tree")
    generated = sl.generate_datasets(cfg, out)
    loaded = sl.load_records(out)
    assert generated == loaded  # the trajectory takes no part in the comparison
    for g, r in zip(generated, loaded):
        assert r.trajectory is None and "trajectory" not in repr(g)
        back = load_trajectory(g.path, g.meta_path)
        assert g.trajectory.times.tobytes() == back.times.tobytes()
        assert g.trajectory.states.tobytes() == back.states.tobytes()
    results = []
    for name, records in (("memory", generated), ("files", loaded)):
        paths = sl.batch_estimate(records, cfg, str(tmp_path / name))
        results.append({eps: Path(path).read_bytes() for eps, path in paths.items()})
    assert results[0] == results[1]
    assert sl.DatasetRecord(0, 0.3, None, "a.csv", "a.meta").trajectory is None


def test_sidecar_without_model_or_constants_is_no_mismatch(tmp_path):
    cfg = RunConfig(eps_list=(0.01,), n_datasets=3, seed=1, cells=6)
    out = str(tmp_path)
    records = sl.generate_datasets(cfg, out)
    reference = sl.batch_estimate(records, cfg, out)[0.01]
    with open(reference, encoding="utf-8") as fh:
        expected = fh.read()
    # dataset 0 loses the recorded model and constants, dataset 1 its model and eps lines
    for record, dropped in zip(records[:2], (("model", "birth", "death", "gamma", "sigma", "eps"), ("model", "eps"))):
        meta = load_keyvalues(record.meta_path)
        for key in dropped:
            del meta[key]
        sl.experiments.save_keyvalues(meta, record.meta_path)
    # dataset 2 records another sigma
    meta = load_keyvalues(records[2].meta_path)
    meta["sigma"] = "0.25"
    sl.experiments.save_keyvalues(meta, records[2].meta_path)
    with open(sl.batch_estimate(sl.load_records(out), cfg, out)[0.01], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[:3] == expected.splitlines()[:3]
    error = next(csv.DictReader(lines[:1] + lines[3:]))["error"]
    assert error == f"ValueError: the dataset sidecar {records[2].meta_path} differs from the config in sigma 0.25 (config 0.5)"


def test_sidecar_with_partial_constants_is_rejected_by_name(tmp_path):
    cfg = RunConfig(eps_list=(0.01,), n_datasets=3, seed=1, cells=6)
    out = str(tmp_path)
    records = sl.generate_datasets(cfg, out)
    # dataset 0 loses sigma, dataset 1 death and gamma; dataset 2 stays whole
    for record, dropped in zip(records[:2], (("sigma",), ("death", "gamma"))):
        meta = load_keyvalues(record.meta_path)
        for key in dropped:
            del meta[key]
        sl.experiments.save_keyvalues(meta, record.meta_path)
        with pytest.raises(ValueError) as err:
            load_trajectory(record.path, record.meta_path)
        assert record.meta_path in str(err.value)
        for key in ("death", "gamma", "sigma"):
            assert (key in str(err.value)) == (key in dropped), (key, str(err.value))
    with open(sl.batch_estimate(sl.load_records(out), cfg, out)[0.01], encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for row, record in zip(rows[:2], records[:2]):
        assert row["error"].startswith("ValueError: sidecar "), row["error"]
        assert record.meta_path in row["error"]
        assert row["converged"] == "false"
    assert rows[2]["error"] == ""


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(*[st.floats(width=64)] * 4), min_size=1, max_size=8))
@example(
    rows=[
        (-0.0, 5e-324, np.nan, np.inf),
        (-np.inf, -np.nan, 1.7976931348623157e308, 2.2250738585072014e-308),
        (0.1 + 0.2, -1e-310, 1.0 / 3.0, 0.0),
    ]
)
def test_trajectory_csv_rows_are_fmt_of_each_value(tmp_path, rows):
    # any float64, nan and inf included: each row is _fmt of its four values
    from sirlevy.experiments import _fmt

    values = np.array(rows, dtype=np.float64)
    traj = sl.Trajectory(times=values[:, 0], states=values[:, 1:], model="numbers")
    path = tmp_path / "traj.csv"
    save_trajectory(traj, str(path))
    expected = "t,X,Y,Z\n" + "".join(
        f"{_fmt(t)},{_fmt(x)},{_fmt(y)},{_fmt(z)}\n" for t, (x, y, z) in zip(traj.times, traj.states)
    )
    assert path.read_bytes() == expected.encode()


def test_failed_datasets_keep_the_error_rows_of_simulate_sde(tmp_path, monkeypatch):
    # dataset 0 jumps by a huge finite mark on a base node, so the base step
    # after the jump overflows; dataset 1 jumps by an infinite mark inside an
    # interval; dataset 2 keeps its seeded noise.  Both levels fail alike
    import sirlevy.experiments as ex
    from sirlevy.levy import seed_sequence, stream

    base = np.linspace(0.0, 1.0, 101)  # 10 observations x 10 substeps
    skeletons = {0: ([base[30]], [[1e200] * 3]), 1: ([base[50] + 0.004], [[np.inf] * 3])}
    seeded = ex.LevyPathNoise

    def hand_noise(seed, rate, horizon, dim):
        noise = seeded(seed, rate, horizon, dim)
        times, marks = skeletons.get(seed.spawn_key[0], (noise.jump_times, noise.jump_marks))
        noise.jump_times, noise.jump_marks = np.array(times, dtype=float), np.array(marks, dtype=float)
        return noise

    monkeypatch.setattr(ex, "LevyPathNoise", hand_noise)
    cfg = RunConfig(eps_list=(0.3, 0.01), n_datasets=3, n_obs=10, seed=4)
    records = sl.generate_datasets(cfg, str(tmp_path))

    expected = [["eps", "dataset", "file", "error"]]
    for eps in cfg.eps_list:
        for i in range(cfg.n_datasets):
            draw_rng = stream(cfg.seed, i, 0)
            theta0 = sl.sample_true_theta(draw_rng, cfg.order)
            noise = hand_noise(seed_sequence(cfg.seed, i, 1), sl.sample_lambda(draw_rng), 1.0, 3)
            try:
                traj = sl.simulate_sde(cfg.model, theta0, cfg.params(eps), cfg.x0, 1.0, cfg.n_obs, noise, cfg.substeps)
            except sl.SimulationError as err:
                expected.append([repr(eps), str(i), "FAILED", str(err)])
                continue
            name = f"eps_{eps:g}/dataset_{i:05d}.csv"
            save_trajectory(traj, str(tmp_path / "expected.csv"))
            assert (tmp_path / name).read_bytes() == (tmp_path / "expected.csv").read_bytes()
            expected.append([repr(eps), str(i), name, ""])
    with open(tmp_path / "datasets.csv", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == expected
    errors = [row[3] for row in expected[1:]]
    assert errors == ["non-finite state at t=0.31", "non-finite state at jump t=0.504", ""] * 2
    assert [(r.eps, r.dataset_id) for r in records] == [(0.3, 2), (0.01, 2)]


def test_proportions_config_forces_plain_contrast():
    cfg = RunConfig.proportions_defaults(n_datasets=2)
    assert cfg.contrast_form == "plain"
    assert cfg.birth == 0.0 and cfg.death == 0.0
    cfg2 = RunConfig(model="proportions", contrast_form="weighted")
    assert cfg2.contrast_form == "plain"


def test_proportions_config_takes_the_models_study_values(tmp_path):
    cfg = RunConfig(model="proportions")
    assert cfg == RunConfig.proportions_defaults()
    assert (cfg.birth, cfg.death, cfg.x0, cfg.contrast_form) == (0.0, 0.0, sl.PROPORTIONS_X0, "plain")
    assert cfg.params(0.3) == sl.proportions_defaults(0.3)
    assert RunConfig().params(0.3) == sl.numbers_defaults(0.3)
    assert (RunConfig().x0, RunConfig().contrast_form) == (sl.NUMBERS_X0, "weighted")
    path = tmp_path / "config.txt"
    path.write_text("model=proportions\n", encoding="utf-8")
    assert RunConfig.load(str(path)) == cfg


@pytest.mark.parametrize(
    "fields,named",
    [
        (dict(model="proportions", birth=0.018), "birth=0.018"),
        (dict(model="proportions", death=0.00042), "death=0.00042"),
        (dict(gamma=0.0), "gamma and sigma must be positive"),
        (dict(model="proportions", sigma=0.0), "gamma and sigma must be positive"),
        (dict(seed=-1), "seed must be nonnegative"),
        (dict(x0=(1.0, 2.0)), "x0: state must have 3 components"),
        (dict(model="proportions", x0=(0.5, 0.25, 0.125, 0.125)), "x0: state must have 3 components"),
    ],
)
def test_run_config_refuses_bad_values_before_writing(tmp_path, capsys, fields, named):
    with pytest.raises(ValueError, match=named):
        RunConfig(**fields)
    path = tmp_path / "config.txt"
    lines = [f"{key}={','.join(map(str, value)) if isinstance(value, tuple) else value}\n" for key, value in fields.items()]
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=named) as err:
        RunConfig.load(str(path))
    assert str(path) in str(err.value)
    for verb in ("sweep", "predict", "theory"):
        out = tmp_path / verb
        assert cli_main([verb, "--config", str(path), "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


def test_config_file_refuses_a_weighted_form_on_proportions(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("model=proportions\ncontrast_form=weighted\n", encoding="utf-8")
    with pytest.raises(ValueError, match="contrast_form=weighted") as err:
        RunConfig.load(str(path))
    assert str(path) in str(err.value)
    path.write_text("model=proportions\ncontrast_form=plain\n", encoding="utf-8")
    assert RunConfig.load(str(path)).contrast_form == "plain"
    path.write_text("model=numbers\ncontrast_form=weighted\n", encoding="utf-8")
    assert RunConfig.load(str(path)).contrast_form == "weighted"


def test_proportions_tree_with_births_is_refused_by_estimate_and_report(tmp_path, capsys):
    out = str(tmp_path / "tree")
    cfg = RunConfig.proportions_defaults(eps_list=(0.3, 0.01), n_datasets=2, cells=4, n_obs=10)
    sl.batch_estimate(sl.generate_datasets(cfg, out), cfg, out)
    # a tree written while an unset birth rate defaulted to the numbers model's
    config = os.path.join(out, "config.txt")
    with open(config, encoding="utf-8") as fh:
        text = fh.read().replace("birth=0\n", "birth=0.018\n")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(text)
    for verb in ("estimate", "report"):
        assert cli_main([verb, "--out", out]) == 1
        err = capsys.readouterr().err
        assert config in err and "birth=0.018" in err, err


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


@st.composite
def small_sweep_configs(draw):
    """A small sweep config: model, order 1-3, one or two eps levels and the cell count."""
    model = draw(st.sampled_from(["numbers", "proportions"]))
    eps = draw(st.lists(st.sampled_from([0.3, 0.1, 0.01, 0.001]), min_size=1, max_size=2, unique=True))
    fields = dict(
        eps_list=tuple(sorted(eps, reverse=True)),
        n_datasets=2,
        order=draw(st.integers(1, 3)),
        cells=draw(st.integers(1, 20)),
        seed=draw(st.integers(0, 2**16)),
    )
    return RunConfig.proportions_defaults(**fields) if model == "proportions" else RunConfig(**fields)


@settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=small_sweep_configs())
def test_sweep_trees_match_across_worker_counts(tmp_path_factory, cfg):
    root = tmp_path_factory.mktemp("jobs")
    cfg.save(str(root / "run.cfg"))
    trees = []
    for jobs in (1, 2):
        out = str(root / f"jobs{jobs}")
        assert cli_main(["sweep", "--config", str(root / "run.cfg"), "--jobs", str(jobs), "--out", out]) == 0
        assert sorted(n for n in os.listdir(out) if n.startswith("results_eps_")) == sorted(
            f"results_eps_{eps:g}.csv" for eps in cfg.eps_list
        )
        trees.append(_tree_hash(out, skip={"config.txt"}))  # the config records the worker count
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


def _ensemble_path_noise(seed, path, attempt, horizon, dim):
    """The noise predict_ensemble draws for one path at one attempt."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(path, attempt))
    rate = int(np.random.Generator(np.random.Philox(ss)).integers(1, 5))
    return sl.LevyPathNoise(ss.spawn(1)[0], rate, horizon, dim)


def _nan_increments_for(monkeypatch, failing):
    """Brownian normals turn NaN on the noises whose (path, attempt) spawn key satisfies ``failing``.

    Both integrators draw through ``fill_normals``, so both see the fault.
    """
    real = sl.LevyPathNoise.fill_normals

    def patched(self, out):
        real(self, out)
        key = getattr(self.seed, "spawn_key", ())
        if failing(tuple(key[:2])):
            out[:] = np.nan
        return out

    monkeypatch.setattr(sl.LevyPathNoise, "fill_normals", patched)


def test_predict_ensemble_retries_failed_paths(monkeypatch):
    # path 0 fails at attempt 0 through its noise: it is rerun with attempt 1,
    # and the mean is the path-order mean of the per-path integrator
    _nan_increments_for(monkeypatch, lambda key: key == (0, 0))
    p = sl.proportions_defaults(eps=0.01)
    x0 = (0.82, 0.07, 0.11)
    mean = sl.predict_ensemble("proportions", THETA_REF, p, x0, horizon=1.0, n_paths=3, seed=1)
    total = None
    for path, attempt in [(0, 1), (1, 0), (2, 0)]:
        noise = _ensemble_path_noise(1, path, attempt, 1.0, 1)
        states = sl.simulate_sde("proportions", THETA_REF, p, x0, 1.0, 100, noise).states
        total = states.copy() if total is None else total + states
    assert np.array_equal(mean.states, total / 3)
    with pytest.raises(sl.SimulationError):
        sl.simulate_sde("proportions", THETA_REF, p, x0, 1.0, 100, _ensemble_path_noise(1, 0, 0, 1.0, 1))

    # a path that fails on every attempt raises
    monkeypatch.undo()
    _nan_increments_for(monkeypatch, lambda key: key[:1] == (1,))
    with pytest.raises(sl.SimulationError):
        sl.predict_ensemble("proportions", THETA_REF, p, x0, horizon=1.0, n_paths=3, seed=1, max_retries=2)

    # at eps == 0 path 0 alone is simulated, and retried as any path is
    monkeypatch.undo()
    _nan_increments_for(monkeypatch, lambda key: key == (0, 0))
    p0 = sl.proportions_defaults(eps=0.0)
    mean = sl.predict_ensemble("proportions", THETA_REF, p0, x0, horizon=1.0, n_paths=3, seed=1)
    single = sl.simulate_sde("proportions", THETA_REF, p0, x0, 1.0, 100, _ensemble_path_noise(1, 0, 1, 1.0, 1))
    assert mean.states.tobytes() == single.states.tobytes()
    monkeypatch.undo()
    _nan_increments_for(monkeypatch, lambda key: key[:1] == (0,))
    with pytest.raises(sl.SimulationError, match="ensemble path 0 reached a non-finite state on all 3 attempts"):
        sl.predict_ensemble("proportions", THETA_REF, p0, x0, horizon=1.0, n_paths=3, seed=1, max_retries=2)


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


def test_cli_estimate_rejects_a_config_of_another_order(tmp_path, capsys):
    # an order-1 tree estimated with an order-2 config: the rows would hold
    # fewer fields than the header names, so nothing is written and the run fails
    cfg = RunConfig(eps_list=(0.01,), n_datasets=2, cells=6)
    out = str(tmp_path / "tree")
    cfg.save(str(tmp_path / "order1.txt"))
    assert cli_main(["generate", "--config", str(tmp_path / "order1.txt"), "--out", out]) == 0
    RunConfig(eps_list=(0.01,), n_datasets=2, cells=6, order=2).save(str(tmp_path / "order2.txt"))
    capsys.readouterr()
    code = cli_main(["estimate", "--config", str(tmp_path / "order2.txt"), "--out", out])
    err = capsys.readouterr().err
    assert code == 1
    assert "Fourier order 1" in err and "order 2" in err
    assert not any(name.startswith("results_") for name in os.listdir(out))


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


@pytest.mark.parametrize("eps_values,named", [((0.001, 0.0010000001), "0.0010000001"), ((0.3, 1.0), "1.0")])
def test_prediction_study_rejects_bad_eps_levels(tmp_path, capsys, eps_values, named):
    out = tmp_path / "pred"
    with pytest.raises(ValueError, match=named):
        sl.prediction_study(THETA_REF, RunConfig(cells=6), str(out), eps_values=eps_values, n_paths=2)
    assert not out.exists()
    code = cli_main(["predict", "--out", str(out), "--eps", ",".join(map(repr, eps_values))])
    assert code != 0
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "eps_arg,named", [("0.01,0.0100000001", "0.0100000001"), ("0.01,1.5", "1.5"), ("0.01,0", "0.0")]
)
def test_cli_theory_rejects_bad_eps_levels_before_writing(tmp_path, capsys, eps_arg, named):
    # two levels sharing a file tag would overwrite one scaled-errors file, and
    # a level checked late would leave the information matrix behind
    out = tmp_path / "theory"
    code = cli_main(["theory", "--out", str(out), "--seed", "2", "--eps", eps_arg, "--replications", "2"])
    assert code == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


# float64 in [0, 1), subnormals and -0.0 included, with distinct file tags
_eps_levels = st.lists(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True), min_size=1, max_size=3, unique_by=lambda e: f"{e:g}"
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(eps_list=_eps_levels, seed=st.integers(0, 2**32))
@example(eps_list=[-0.0, 5e-324, 0.1 + 0.2], seed=0)
def test_dataset_index_round_trips_eps_and_theta_bit_for_bit(tmp_path_factory, eps_list, seed):
    out = str(tmp_path_factory.mktemp("tree"))
    cfg = RunConfig(eps_list=tuple(eps_list), n_obs=2, n_datasets=2, substeps=1, cells=1, seed=seed)
    written = sl.generate_datasets(cfg, out)
    loaded = sl.load_records(out)
    assert len(loaded) == len(written) > 0
    for a, b in zip(loaded, written):
        assert (a.dataset_id, a.path, a.meta_path) == (b.dataset_id, b.path, b.meta_path)
        assert _bits(a.eps) == _bits(b.eps)
        assert np.array_equal(_bits(a.theta0.to_vector()), _bits(b.theta0.to_vector()))


@pytest.fixture(scope="module")
def one_dataset_tree(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("one"))
    cfg = RunConfig(eps_list=(0.01,), n_datasets=1, seed=4, cells=4)
    return cfg, sl.generate_datasets(cfg, out)[0]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(theta=st.tuples(*[_any_float] * 4))
@example(theta=(-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2))
def test_results_csv_round_trips_theta_bit_for_bit(tmp_path_factory, one_dataset_tree, theta):
    cfg, record = one_dataset_tree
    theta0 = sl.ThetaParams.from_vector(theta)
    record = sl.DatasetRecord(record.dataset_id, record.eps, theta0, record.path, record.meta_path)
    row = sl.experiments._estimate_one((record.path, record.meta_path, record.dataset_id, record.eps, theta0, cfg))[2]
    path = sl.batch_estimate([record], cfg, str(tmp_path_factory.mktemp("results")))[record.eps]
    with open(path, encoding="utf-8") as fh:
        (back,) = csv.DictReader(fh)
    assert back["error"] == ""
    names = ["period", "base", "cos1", "sin1"]
    true_back = [float(back[f"true_{name}"]) for name in names]
    est_back = [float(back[f"est_{name}"]) for name in names] + [float(back["objective"])]
    assert np.array_equal(_bits(true_back), _bits(theta))
    assert np.array_equal(_bits(est_back), _bits(row[2:10:2] + [row[9]]))
