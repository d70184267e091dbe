"""The three benchmark workloads, each the work behind one ``sirlevy`` verb.

A workload runs from one seed, times its units, checks its outputs and
returns an :class:`Outcome`.  Every call into the package goes through a
module attribute (``sl.experiments.generate_datasets``, not
``sl.generate_datasets``), so the traced run sees it.  Sizes come from
:func:`sizes`; they are fixed for a given ``--seconds``, so accuracy never
depends on how fast the machine is.
"""

from __future__ import annotations

import csv
import filecmp
import os
import time
from dataclasses import dataclass, field

import numpy as np

# criterion 4's seed; datasets 0-9 of its study hold two eps = 0.3 tail datasets
SWEEP_SEED = 20250809
# ensemble paths per eps: simulate_sde + LevyPathNoise then take about 80% of a typical study
PREDICT_PATHS = 250
PREDICT_EPS = (0.3, 0.001)
THEORY_EPS = (0.01, 0.001)
THEORY_LIMIT_DRAWS = 2000
# Below this many replications per eps the IQR-ratio check fails by chance:
# resampling 400 replications per eps, it failed in 0.4% of draws at 100
# and 5% at 50.  Smoke runs are smaller and skip it.
IQR_MIN_REPLICATIONS = 120
CONSERVATION_TOL = 1e-10


@dataclass
class Outcome:
    total_s: float  # wall time of the whole workload pass, checks excluded
    unit_s: list[float]  # wall time of each workload unit
    estimate_s: list[float]  # latency of each lsgd_estimate call
    accuracy: dict[str, float]  # deterministic for a given seed
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)  # printed, unbounded


@dataclass(frozen=True)
class Size:
    datasets: int  # sweep-numbers: datasets per eps level
    studies: int  # predict-proportions: prediction studies
    paths: int  # predict-proportions: ensemble paths per eps
    replications: int  # theory-numbers: replications per eps
    limit_draws: int  # theory-numbers: limit-law draws


def sizes(seconds: int, smoke: bool = False) -> Size:
    """Work per run, fixed by ``--seconds``; 30 takes about 30 s per workload on a 2-core x86 box."""
    if smoke:
        return Size(datasets=1, studies=1, paths=4, replications=10, limit_draws=50)
    scale = seconds / 30.0
    return Size(
        datasets=max(10, round(10 * scale)),
        studies=max(2, round(5 * scale)),
        paths=PREDICT_PATHS,
        replications=max(IQR_MIN_REPLICATIONS, round(120 * scale)),
        limit_draws=THEORY_LIMIT_DRAWS,
    )


class Probe:
    """Thin hooks kept in untraced runs too: estimate latency and output checks.

    It wraps ``lsgd_estimate`` where experiments and theory look it up,
    ``predict_ensemble`` where prediction_study looks it up, and
    ``simulate_sde`` where experiments and predict_ensemble look it up.  The
    cost is two clock reads per estimate or ensemble and one sum per
    simulated path.
    """

    def __init__(self, sl, patches, box):
        self.latency: list[float] = []
        self.ensemble_s: list[float] = []
        self.thetas: list[np.ndarray] = []
        self.conservation = False  # check |X+Y+Z-1| on every simulated path
        self.worst_sum_gap = 0.0
        self._box = box
        estimate = sl.experiments.lsgd_estimate
        ensemble = sl.experiments.predict_ensemble
        simulate = sl.simulate.simulate_sde

        def timed_estimate(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = estimate(*args, **kwargs)
            finally:
                self.latency.append(time.perf_counter() - start)
            self.thetas.append(result.theta.to_vector())
            return result

        def timed_ensemble(*args, **kwargs):
            start = time.perf_counter()
            mean = ensemble(*args, **kwargs)
            self.ensemble_s.append(time.perf_counter() - start)
            return mean

        def checked_simulate(*args, **kwargs):
            traj = simulate(*args, **kwargs)
            if self.conservation:
                gap = float(np.abs(traj.states.sum(axis=1) - 1.0).max())
                self.worst_sum_gap = max(self.worst_sum_gap, gap)
            return traj

        for mod in (sl.experiments, sl.theory):
            patches.set(mod, "lsgd_estimate", timed_estimate)
        patches.set(sl.experiments, "predict_ensemble", timed_ensemble)
        for mod in (sl.experiments, sl.simulate):
            patches.set(mod, "simulate_sde", checked_simulate)

    def reset(self) -> None:
        self.latency.clear()
        self.ensemble_s.clear()
        self.thetas.clear()

    def check_estimates(self) -> list[str]:
        bad = [
            i
            for i, vec in enumerate(self.thetas)
            if not (np.all(np.isfinite(vec)) and self._box.contains(vec))
        ]
        return [f"estimate {i} is non-finite or outside BoxConstraints" for i in bad[:5]]


def _tree_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def _missing(paths) -> list[str]:
    return [f"missing output file {os.path.basename(p)}" for p in paths if not os.path.isfile(p)]


# ---------------------------------------------------------------------------
# sweep-numbers: generate_datasets -> batch_estimate -> emit_reports


def sweep_numbers(sl, seed: int, size: Size, work: str, probe: Probe, counts, repeat: bool) -> Outcome:
    """Default RunConfig (numbers, weighted, four eps levels, 20 cells) at ``size.datasets``.

    The datasets and the line-search cell draws are always those of
    criterion 4's study.  Both decide how many PGD iterations the eps = 0.3
    tail takes, and with them the run time: drawing only the cells from
    ``seed`` moved the sweep from 34 s to 52 s over three seeds.  So ``seed``
    only shuffles the order in which the datasets are estimated, which must
    not change any output.  The unit is the whole sweep.
    """
    ex = sl.experiments
    cfg = sl.RunConfig(seed=SWEEP_SEED, n_datasets=size.datasets)
    out = os.path.join(work, "sweep")
    probe.reset()
    start = time.perf_counter()
    records = ex.generate_datasets(cfg, out)
    order = np.random.default_rng(seed).permutation(len(records))
    paths = ex.batch_estimate([records[i] for i in order], cfg, out)
    report = ex.emit_reports(out)
    total = time.perf_counter() - start
    counts["experiments.bytes_written"] += _tree_bytes(out)

    problems = probe.check_estimates()
    estimate_s = list(probe.latency)
    if len(estimate_s) != len(records):
        problems.append(f"{len(estimate_s)} estimates for {len(records)} datasets")
    files = [os.path.join(out, n) for n in ("config.txt", "datasets.csv", "summary.csv", "consistency_verdict.txt")]
    for eps in cfg.eps_list:
        files.append(os.path.join(out, f"results_eps_{eps:g}.csv"))
        files.append(os.path.join(out, f"scatter_eps_{eps:g}.csv"))
    problems += _missing(files)

    attempted = cfg.n_datasets * len(cfg.eps_list)
    failed = attempted - len(records)  # simulations that failed
    for path in paths.values():
        with open(path, encoding="utf-8") as fh:
            failed += sum(1 for row in csv.DictReader(fh) if row["error"])

    # repetition: the smallest-eps datasets again, in reverse order, must
    # reproduce their results file, hence l2_err_median, bit for bit
    eps_min = min(cfg.eps_list)
    if repeat:
        again = os.path.join(work, "sweep_again")
        ex.batch_estimate([records[i] for i in order[::-1] if records[i].eps == eps_min], cfg, again)
        name = f"results_eps_{eps_min:g}.csv"
        if not filecmp.cmp(os.path.join(out, name), os.path.join(again, name), shallow=False):
            problems.append(f"{name} differs between repetitions")

    accuracy = {
        "l2_err_median": float(report["medians_l2"][eps_min]),
        "consistency_ratio": float(report["ratio"]),
    }
    return Outcome(
        total_s=total,
        unit_s=[total],
        estimate_s=estimate_s,
        accuracy=accuracy,
        attempted=attempted,
        failed=failed,
        problems=problems,
    )


# ---------------------------------------------------------------------------
# predict-proportions: prediction_study


def study_seed(seed: int, k: int) -> int:
    """Seed of study k, independent across both arguments."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(1, np.uint32)[0])


def _read_states(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1)[:, 1:4]


def _one_study(sl, seed: int, size: Size, out: str):
    cfg = sl.RunConfig.proportions_defaults(seed=seed)
    start = time.perf_counter()
    result = sl.experiments.prediction_study(
        sl.REFERENCE_THETA, cfg, out, eps_values=PREDICT_EPS, n_paths=size.paths
    )
    return time.perf_counter() - start, result


def predict_proportions(sl, seed: int, size: Size, work: str, probe: Probe, counts, repeat: bool) -> Outcome:
    """``size.studies`` prediction studies, proportions model, plain objective.

    The unit is one forward ensemble, the prediction itself.  A whole study
    also holds the eps = 0.3 fit, whose PGD tail hit anywhere from none to
    several studies of a run: over 10 seeds the median study time spread 0.35.
    """
    theta0 = sl.REFERENCE_THETA.to_vector()
    probe.reset()
    probe.conservation = True
    probe.worst_sum_gap = 0.0
    study_s, errs, gaps, problems = [], [], [], []
    for k in range(size.studies):
        out = os.path.join(work, f"study_{k}")
        elapsed, result = _one_study(sl, study_seed(seed, k), size, out)
        study_s.append(elapsed)
        counts["experiments.bytes_written"] += _tree_bytes(out)
        files = [result["table"], result["deterministic"], *result["ensembles"].values()]
        problems += _missing(files)
        det = _read_states(result["deterministic"])
        for path in files[1:]:
            gap = float(np.abs(_read_states(path).sum(axis=1) - 1.0).max())
            probe.worst_sum_gap = max(probe.worst_sum_gap, gap)
        ens = _read_states(result["ensembles"][min(PREDICT_EPS)])
        gaps.append(float(np.abs(ens - det).max() / np.abs(det).max()))
        errs.append(float(np.linalg.norm(result["estimates"][min(PREDICT_EPS)].to_vector() - theta0)))
    problems += probe.check_estimates()
    if probe.worst_sum_gap > CONSERVATION_TOL:
        problems.append(f"max |X+Y+Z-1| = {probe.worst_sum_gap:.3e} exceeds {CONSERVATION_TOL}")
    estimate_s = list(probe.latency)
    unit_s = list(probe.ensemble_s)

    # repetition: the quickest study again must reproduce its files bit for bit
    if repeat:
        k = int(np.argmin(study_s))
        again = os.path.join(work, "study_again")
        _one_study(sl, study_seed(seed, k), size, again)
        first = os.path.join(work, f"study_{k}")
        for name in sorted(os.listdir(first)):
            if not filecmp.cmp(os.path.join(first, name), os.path.join(again, name), shallow=False):
                problems.append(f"study file {name} differs between repetitions")
    probe.conservation = False

    accuracy = {
        "l2_err_median": float(np.median(errs)),
        "ensemble_gap": float(np.median(gaps)),
    }
    return Outcome(
        total_s=sum(study_s),
        unit_s=unit_s,
        estimate_s=estimate_s,
        accuracy=accuracy,
        attempted=size.studies,
        failed=0,
        problems=problems,
        extra={"study_s_p50": (float(np.median(study_s)), "s")},
    )


# ---------------------------------------------------------------------------
# theory-numbers: the work of the `sirlevy theory` verb


def theory_numbers(sl, seed: int, size: Size, work: str, probe: Probe, counts, repeat: bool) -> Outcome:
    """The work of the ``sirlevy theory`` verb at REFERENCE_THETA, from ``seed``.

    information_matrix, then rate_experiment with criterion 8's settings
    (weighted, substeps=1), then the Brownian limit covariance.  The unit is
    one replication's estimate.  A few replications per run fall into the PGD
    tail, and how many depends on the seed: over 10 seeds the whole run's
    time spread 0.2, the median estimate's 0.06.
    """
    th = sl.theory
    cfg = sl.RunConfig(seed=seed)
    theta0 = sl.REFERENCE_THETA
    params = cfg.params(0.0)
    rate_args = (cfg.model, theta0, params, cfg.x0, THEORY_EPS)
    probe.reset()
    start = time.perf_counter()
    info = th.information_matrix(cfg.model, theta0, params, cfg.x0, weighted=False)
    result = th.rate_experiment(
        *rate_args,
        replications=size.replications,
        seed=seed,
        contrast_form=cfg.contrast_form,
        substeps=1,
        limit_draws=size.limit_draws,
    )
    cov = th.LimitSampler(cfg.model, theta0, params, cfg.x0).brownian_covariance()
    elapsed = time.perf_counter() - start
    estimate_s = list(probe.latency)

    out = os.path.join(work, "theory")
    os.makedirs(out)
    files = {"information_matrix.csv": info.matrix, "limit_draws.csv": result.limit_draws, "brownian_covariance.csv": cov}
    for eps in THEORY_EPS:
        files[f"scaled_errors_eps_{eps:g}.csv"] = result.scaled[eps]
    for name, arr in files.items():
        np.savetxt(os.path.join(out, name), arr, delimiter=",", fmt="%.17g")
    counts["experiments.bytes_written"] += _tree_bytes(out)

    problems = probe.check_estimates() + _missing(os.path.join(out, n) for n in files)
    ratio = result.iqr_ratio(*THEORY_EPS)
    if size.replications >= IQR_MIN_REPLICATIONS and not np.all((ratio >= 0.5) & (ratio <= 2.0)):
        problems.append(f"IQR ratios {np.round(ratio, 3)} outside [0.5, 2]")
    if not (np.all(np.isfinite(cov)) and np.allclose(cov, cov.T) and np.linalg.eigvalsh(cov).min() > 0):
        problems.append("Brownian limit covariance is not finite symmetric positive definite")

    # repetition: replication r draws from spawn keys (eps index, r, .), so a
    # shorter rerun must reproduce the leading rows bit for bit
    if repeat:
        head = min(5, size.replications)
        again = th.rate_experiment(*rate_args, replications=head, seed=seed, substeps=1, limit_draws=0)
        for eps in THEORY_EPS:
            if again.scaled[eps].tobytes() != result.scaled[eps][:head].tobytes():
                problems.append(f"scaled errors at eps={eps:g} differ between repetitions")

    eps = min(THEORY_EPS)
    rows = result.scaled[eps]
    rows = rows[~np.isnan(rows).any(axis=1)]
    accuracy = {
        "l2_err_median": float(np.median(eps * np.linalg.norm(rows, axis=1))),
        "iqr_ratio_min": float(ratio.min()),
        "iqr_ratio_max": float(ratio.max()),
    }
    return Outcome(
        total_s=elapsed,
        unit_s=estimate_s,
        estimate_s=estimate_s,
        accuracy=accuracy,
        attempted=size.replications * len(THEORY_EPS),
        failed=sum(result.failures.values()),
        problems=problems,
    )


WORKLOADS = {
    "sweep-numbers": sweep_numbers,
    "predict-proportions": predict_proportions,
    "theory-numbers": theory_numbers,
}
