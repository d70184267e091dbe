"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

    python3 bench/smoke.py
    python3 -m pytest -q bench/smoke.py

Each run must pass its output checks, print every metric BENCHMARK.json
names with that metric's unit, and, when traced, show nonzero counts on the
layers the workload is meant to exercise.  The file name keeps the repo's
own test collection from picking it up.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# per-layer counts that must be nonzero on each workload, even at smoke size
EXERCISED = {
    "sweep-numbers": [
        "estimator.pgd_iters",
        "contrast.scan_solves",
        "contrast.value_calls",
        "experiments.generate_busy_s",
        "experiments.estimate_busy_s",
        "experiments.report_busy_s",
        "experiments.bytes_written",
    ],
    "predict-proportions": [
        "simulate.sde_steps",
        "simulate.sde_us_per_step",
        "levy.paths",
        "levy.busy_s",
        "experiments.io_busy_s",
    ],
    "theory-numbers": [
        "simulate.ode_steps",
        "simulate.ode_us_per_step",
        "theory.info_busy_s",
        "theory.sampler_init_s",
        "theory.limit_draws",
        "contrast.linear_solves",
        "estimator.estimates",
    ],
}


def run(workload: str, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--trace", str(trace), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def check_workload(workload: str, spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, stdout = run(workload, trace)
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        named = {m["name"]: m["unit"] for m in spec[key]}
        assert set(result["metrics"]) == set(named), set(result["metrics"]) ^ set(named)
        for name, unit in named.items():
            metric = result["metrics"][name]
            assert metric["unit"] == unit, (name, metric)
            assert isinstance(metric["value"], (int, float)), (name, metric)
            assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in stdout.splitlines()), name
        if trace:
            zero = [n for n in EXERCISED[workload] if not result["metrics"][n]["value"]]
            assert not zero, f"{workload}: zero counts on {zero}"


def test_smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(EXERCISED)
    for workload in EXERCISED:
        check_workload(workload, spec)


if __name__ == "__main__":
    test_smoke()
    print("smoke: all workloads passed")
