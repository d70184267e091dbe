"""The pipeline's contract, checked over small random configs through the CLI verbs.

Each run exits 0, or exits 1 with one ``error:`` line and no output path.
After a sweep, each (eps, dataset) appears exactly once: as a FAILED row of
the dataset index with its reason, or as one results row.  Every estimate
lies in the box, and a proportions tree records no births or deaths.
"""

import csv
import os

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sirlevy as sl
from sirlevy.cli import main as cli_main

_OPTIONAL = {
    "birth": ["0", "0.018"],
    "death": ["0", "0.00042"],
    "gamma": ["0", "0.07142", "1.5"],
    "sigma": ["0", "0.5"],
    "contrast_form": ["plain", "weighted"],
    # the study states of both models, and a numbers state where the weighted form's coefficient vanishes
    "x0": ["2.3,0.19,0.25", "0.82,0.07,0.11", "1,0.5,0"],
}


@st.composite
def config_lines(draw):
    """A small config file's lines: each optional key is left out or set to a sampled value."""
    lines = {
        "model": draw(st.sampled_from(["numbers", "proportions"])),
        "eps_list": ",".join(
            map(repr, draw(st.lists(st.sampled_from([0.3, 0.1, 0.01, 0.0]), min_size=1, max_size=2, unique=True)))
        ),
        "n_obs": draw(st.integers(2, 12)),
        "n_datasets": draw(st.integers(1, 2)),
        "substeps": draw(st.integers(1, 3)),
        "cells": draw(st.integers(1, 4)),
        "order": draw(st.integers(1, 2)),
        "seed": draw(st.integers(0, 2**16)),
    }
    for key, values in _OPTIONAL.items():
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            lines[key] = value
    return lines


def _run(capsys, argv, out):
    """Run one verb; assert it exits 0, or 1 with one error line and no output path."""
    code = cli_main(argv + ["--out", out])
    err = capsys.readouterr().err
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert not os.path.exists(out), f"{argv} failed with {err!r} and left {out}"
    else:
        assert code == 0, (argv, code, err)
    return code


def _rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _check_sweep_tree(out):
    cfg = sl.RunConfig.load(os.path.join(out, "config.txt"))
    names = ["period", "base"] + [f"{kind}{k}" for kind in ("cos", "sin") for k in range(1, cfg.order + 1)]
    box = sl.BoxConstraints()
    seen = []
    for row in _rows(os.path.join(out, "datasets.csv")):
        if row["file"] == "FAILED":
            assert row["error"], row
            seen.append((float(row["eps"]), int(row["dataset"])))
    for eps in cfg.eps_list:
        path = os.path.join(out, f"results_eps_{eps:g}.csv")
        for row in _rows(path) if os.path.exists(path) else []:
            seen.append((eps, int(row["dataset"])))
            if not row["error"]:
                assert box.contains([float(row[f"est_{name}"]) for name in names]), row
    assert sorted(seen) == sorted((eps, i) for eps in cfg.eps_list for i in range(cfg.n_datasets))
    if cfg.model == "proportions":
        sidecars = [os.path.join(d, f) for d, _, files in os.walk(out) for f in files if f.endswith(".meta")]
        for path in [os.path.join(out, "config.txt"), *sidecars]:
            recorded = sl.experiments.load_keyvalues(path)
            assert float(recorded["birth"]) == float(recorded["death"]) == 0.0, path


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=config_lines(), verb=st.sampled_from(["predict", "theory"]))
# a proportions config that leaves birth and death unset, and a zero recovery rate
@example(lines={"model": "proportions", "x0": "0.82,0.07,0.11", "n_datasets": 1, "n_obs": 5}, verb="predict")
@example(lines={"model": "numbers", "gamma": "0", "n_datasets": 1, "n_obs": 5}, verb="predict")
def test_cli_verbs_keep_the_pipeline_contract(tmp_path_factory, capsys, lines, verb):
    root = tmp_path_factory.mktemp("contract")
    config = str(root / "run.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key}={value}\n" for key, value in lines.items())
    out = str(root / "sweep")
    if _run(capsys, ["sweep", "--config", config], out) == 0:
        _check_sweep_tree(out)
    extra = ["--replications", "2", "--eps", "0.01"] if verb == "theory" else []
    out = str(root / verb)
    if _run(capsys, [verb, "--config", config, *extra], out) == 0 and verb == "predict":
        table = _rows(os.path.join(out, "parameter_table.csv"))
        estimates = [[float(v) for k, v in row.items() if k != "row"] for row in table[1:]]
        assert all(sl.BoxConstraints().contains(vec) for vec in estimates), table
