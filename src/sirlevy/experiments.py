"""End-to-end simulation studies: data generation, batch estimation, reports.

All persistence lives here.  Trajectories go to CSV (header ``t,X,Y,Z``, 17
significant digits, exact float64 round-trip) with a flat ``key=value``
sidecar carrying the generating parameters; run configuration uses the same
flat text format.  Every other table is written by :func:`_write_csv` and
read by :func:`_read_csv`.

A dataset reaches its results row by one route, its trajectory held from
generation or read by :func:`load_trajectory`, the estimate stage's one
sidecar reader: one check against the config, then the estimate.  Any
failure on the way is that dataset's failure row; the batch goes on.

Every random draw descends from the single master seed through named spawn
keys, so a rerun with the same seed and config reproduces every output file
byte for byte, independent of worker scheduling.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .contrast import ContrastConfig, alpha_column_names
from .estimator import BoxConstraints, EstimatorConfig, lsgd_estimate
from .levy import LevyPathNoise, sample_lambda, seed_sequence, stream
from .models import SirParams, get_model
from .simulate import (
    PATH_BLOCK,
    SimulationError,
    Trajectory,
    predict_ensemble,
    simulate_many,
    simulate_sde,
    solve_ode,
)
from .theory import HORIZON, _median_and_quartiles
from .transmission import PERIOD_FLOOR, ThetaParams

FLOAT_FMT = "{:.17g}"
_ROW_FMT = "%.17g,%.17g,%.17g,%.17g\n"  # a trajectory CSV row: t, X, Y, Z in FLOAT_FMT

# parameter point exercised by the bundled prediction studies and tests
REFERENCE_THETA = ThetaParams(0.26836304, 0.15114833, 0.0621514, 0.096762)
PREDICT_HORIZON = 3.0  # a prediction study forecasts on [0, PREDICT_HORIZON] from a fit on [0, HORIZON]


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return FLOAT_FMT.format(float(x))
    return str(x)


# ---------------------------------------------------------------------------
# flat key=value + trajectory CSV persistence


def save_keyvalues(mapping: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, val in mapping.items():
            fh.write(f"{key}={_fmt(val)}\n")


def load_keyvalues(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def _write_csv(path: str, header, rows) -> None:
    """One table: the header, then each row's cells as ``_fmt`` writes them, quoted where CSV needs it."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _read_csv(path: str) -> list[dict[str, str]]:
    """The rows of a table written by :func:`_write_csv`, each keyed by the header's names."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def save_trajectory(traj: Trajectory, path: str, meta_path: str | None = None) -> None:
    """The trajectory CSV and, given ``meta_path``, its sidecar of generating parameters."""
    # one format per row writes what _fmt writes for each float
    rows = zip(traj.times.tolist(), *traj.states.T.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,X,Y,Z\n")
        fh.writelines([_ROW_FMT % row for row in rows])
    if meta_path is None:
        return
    meta: dict = {"model": traj.model}
    if traj.theta is not None:
        th = traj.theta
        meta["theta0_period"] = th.period
        meta["theta0_base"] = th.base
        for k, (c, s) in enumerate(zip(th.cos_coeffs, th.sin_coeffs), start=1):
            meta[f"theta0_cos{k}"] = c
            meta[f"theta0_sin{k}"] = s
    if traj.lam is not None:
        meta["lambda"] = traj.lam
    if traj.seed is not None:
        meta["seed"] = traj.seed
    if traj.params is not None:
        p = traj.params
        meta.update(birth=p.birth, death=p.death, gamma=p.gamma, sigma=p.sigma, eps=p.eps)
    meta["clamp_count"] = traj.clamp_count
    for key, val in traj.meta.items():
        meta[f"meta_{key}"] = val
    save_keyvalues(meta, meta_path)


def _theta_from_meta(meta: dict[str, str]) -> ThetaParams | None:
    if "theta0_period" not in meta:
        return None
    cos, sin = [], []
    k = 1
    while f"theta0_cos{k}" in meta:
        cos.append(float(meta[f"theta0_cos{k}"]))
        sin.append(float(meta[f"theta0_sin{k}"]))
        k += 1
    return ThetaParams(float(meta["theta0_period"]), float(meta["theta0_base"]), tuple(cos), tuple(sin))


_CONSTANTS = ("birth", "death", "gamma", "sigma", "eps")  # the constants a sidecar records, in SirParams order


def load_trajectory(path: str, meta_path: str | None = None) -> Trajectory:
    """The trajectory at ``path``, its rows parsed by one ``np.loadtxt``, with what its sidecar records.

    A malformed file raises ValueError naming it: empty, another header, a
    blank line, fewer than two rows, a cell not a number, or not four cells.
    Given ``meta_path``, the sidecar must exist (opening it raises, naming
    it) and record ``model``; one that records ``birth`` records every
    constant, so no value is invented.  Without a sidecar the trajectory
    records no constants, under the numbers model.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"trajectory file {path} is empty")
    if lines[0] != "t,X,Y,Z":
        raise ValueError(f"unexpected trajectory header {lines[0]!r} in {path}")
    body = lines[1:]
    # np.loadtxt skips blank lines, and warns on a body of nothing else
    if "" in body:
        raise ValueError(f"trajectory file {path} has a blank line at line {body.index('') + 2}")
    if len(body) < 2:
        # a trajectory needs one interval; fewer rows are an empty or truncated file
        raise ValueError(f"trajectory file {path} has {len(body)} data rows; at least 2 are needed")
    try:
        arr = np.loadtxt(body, delimiter=",", ndmin=2, comments=None)
    except ValueError as err:
        raise ValueError(f"trajectory file {path}: {err}") from None
    if arr.shape[1] != 4:
        raise ValueError(f"trajectory file {path} has {arr.shape[1]} cells a row; t,X,Y,Z needs 4")
    if meta_path is None:
        return Trajectory(times=arr[:, 0], states=arr[:, 1:4], model="numbers")
    meta = load_keyvalues(meta_path)
    if "model" not in meta:
        raise ValueError(f"sidecar {meta_path} records no model")
    params = None
    if "birth" in meta:
        missing = [name for name in _CONSTANTS if name not in meta]
        if missing:
            raise ValueError(f"sidecar {meta_path} records birth but not {', '.join(missing)}")
        try:
            params = SirParams(*(float(meta[name]) for name in _CONSTANTS))
        except ValueError as err:
            raise ValueError(f"sidecar {meta_path}: {err}") from None
    return Trajectory(
        times=arr[:, 0],
        states=arr[:, 1:4],
        model=meta["model"],
        theta=_theta_from_meta(meta),
        params=params,
        seed=int(meta["seed"]) if "seed" in meta else None,
        lam=float(meta["lambda"]) if "lambda" in meta else None,
        clamp_count=int(meta.get("clamp_count", 0)),
    )


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation study needs; round-trips through flat text.

    The constants, ``x0`` and ``contrast_form`` left unset (None) take the
    model's study values.  Construction checks the whole config, params and
    ``x0`` included, so every verb refuses a bad one before it writes a file.
    """

    model: str = "numbers"
    eps_list: tuple[float, ...] = (0.3, 0.1, 0.01, 0.001)
    n_obs: int = 100
    n_datasets: int = 100  # desk scale; --full restores 1000
    substeps: int = 10
    birth: float | None = None
    death: float | None = None
    gamma: float | None = None
    sigma: float | None = None
    x0: tuple[float, float, float] | None = None
    cells: int = 20
    contrast_form: str | None = None
    order: int = 1
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        model = get_model(self.model)
        study = {name: getattr(model.constants, name) for name in ("birth", "death", "gamma", "sigma")}
        study.update(x0=model.x0, contrast_form=model.contrast_form)
        for name, value in study.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        _check_eps_levels(self.eps_list)
        try:
            model.validate_state(self.x0)
        except ValueError as err:
            raise ValueError(f"x0: {err}") from None
        for name in ("n_obs", "n_datasets", "substeps", "cells", "order", "jobs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")
        model.validate_params(self.params(0.0))
        # checked before the coercion below, which would hide a misspelled form on proportions
        try:
            ContrastConfig(form=self.contrast_form)
        except ValueError as err:
            raise ValueError(f"contrast_form: {err}") from None
        if self.model == "proportions" and self.contrast_form != "plain":
            # the proportional model's noise matrix is rank one
            object.__setattr__(self, "contrast_form", "plain")

    @classmethod
    def proportions_defaults(cls, **overrides) -> "RunConfig":
        return cls(model="proportions", **overrides)

    def params(self, eps: float) -> SirParams:
        return SirParams(birth=self.birth, death=self.death, gamma=self.gamma, sigma=self.sigma, eps=eps)

    def estimator(self) -> EstimatorConfig:
        return EstimatorConfig(cells=self.cells, order=self.order)

    def contrast(self, eps: float) -> ContrastConfig:
        return ContrastConfig(form=self.contrast_form, eps=eps)

    def save(self, path: str) -> None:
        mapping = {}
        for f in fields(self):
            val = getattr(self, f.name)
            if isinstance(val, tuple):
                mapping[f.name] = ",".join(_fmt(v) for v in val)
            else:
                mapping[f.name] = val
        save_keyvalues(mapping, path)

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        """The config a file records, refusing an explicit weighted form on proportions; every error names the file."""
        raw = load_keyvalues(path)
        # trees written while the estimator had a second inner solver record the exact one
        legacy = raw.pop("inner_solver", "linear")
        if legacy != "linear":
            raise ValueError(f"config key inner_solver in {path} must be 'linear', the only solver; got {legacy!r}")
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys in {path}: {', '.join(unknown)}")
        if raw.get("model") == "proportions" and raw.get("contrast_form") == "weighted":
            raise ValueError(f"contrast_form=weighted in {path}: the weighted form needs the population-numbers model")
        default = cls()
        kwargs = {}
        for key, text in raw.items():
            # each value parses as the type of the default config's field
            kind = type(getattr(default, key))
            try:
                kwargs[key] = tuple(float(v) for v in text.split(",")) if kind is tuple else kind(text)
            except ValueError as err:
                raise ValueError(f"config key {key} in {path}: {err}") from None
        try:
            return cls(**kwargs)
        except ValueError as err:
            raise ValueError(f"config {path}: {err}") from None


@dataclass
class DatasetRecord:
    """One generated dataset: its id, noise level, true parameter and files.

    ``trajectory`` is the path :func:`generate_datasets` has just simulated
    and written to ``path`` and its sidecar ``meta_path``.  A record from
    :func:`load_records` holds none; :func:`batch_estimate` then reads it
    with :func:`load_trajectory`.  Either way the one trajectory is checked
    against the config and estimated.
    """

    dataset_id: int
    eps: float
    theta0: ThetaParams
    path: str
    meta_path: str
    trajectory: Trajectory | None = field(default=None, compare=False, repr=False)


def sample_true_theta(rng: np.random.Generator, order: int = 1) -> ThetaParams:
    """True-parameter sampler of the simulation studies.

    period ~ U(0, 1) clamped above the evaluation floor, base ~ U(0.1, 0.8),
    each oscillation coefficient ~ U(0, base / sqrt(2)) so the transmission
    rate stays nonnegative.
    """
    period = max(float(rng.uniform(0.0, 1.0)), PERIOD_FLOOR)
    base = float(rng.uniform(0.1, 0.8))
    hi = base / np.sqrt(2.0)
    cos = tuple(float(rng.uniform(0.0, hi)) for _ in range(order))
    sin = tuple(float(rng.uniform(0.0, hi)) for _ in range(order))
    return ThetaParams(period, base, cos, sin)


def _eps_tag(eps: float) -> str:
    """Directory and file-name tag of a noise level (6 significant digits)."""
    return f"{eps:g}"


def _check_eps_levels(eps_values) -> None:
    """Raise ValueError unless every level lies in [0, 1) and no two share a file tag."""
    bad = [eps for eps in eps_values if not 0.0 <= eps < 1.0]
    if bad:
        raise ValueError(f"eps values must lie in [0, 1): {', '.join(map(repr, bad))}")
    by_tag: dict[str, list[float]] = {}
    for eps in eps_values:
        by_tag.setdefault(_eps_tag(eps), []).append(eps)
    clash = [group for group in by_tag.values() if len(group) > 1]
    if clash:
        names = "; ".join(", ".join(map(repr, group)) for group in clash)
        raise ValueError(f"eps values share an output file tag: {names}")


def _eps_exact(eps: float) -> str:
    """The noise level as the dataset index stores it: the shortest exact round-trip."""
    return repr(float(eps))


def generate_datasets(cfg: RunConfig, out_dir: str) -> list[DatasetRecord]:
    """Simulate n_datasets trajectories per eps; persist CSV + sidecar + index.

    The datasets are simulated in lockstep, each with its own theta and eps:
    a :func:`simulate_many` call takes a run of datasets at every eps level,
    at most PATH_BLOCK paths, and each row is bit-identical to
    ``simulate_sde`` on the same noise.  Each record holds the trajectory
    it wrote, which :func:`batch_estimate` estimates without reading it back.  Records and index rows come in eps
    level order, then dataset order.  A dataset whose simulation fails is
    skipped (recorded in the index as FAILED, with ``simulate_sde``'s error
    message) and generation continues.
    """
    model = get_model(cfg.model)
    os.makedirs(out_dir, exist_ok=True)
    cfg.save(os.path.join(out_dir, "config.txt"))
    dim = model.driver_dim
    # dataset i shares its true parameters and driving noise across the eps
    # sweep (common random numbers), so per-level medians compare like with
    # like at desk scale; each path still needs a noise of its own, as a
    # noise's Brownian stream is used up as it is drawn
    drawn = []
    for i in range(cfg.n_datasets):
        draw_rng = stream(cfg.seed, i, 0)
        drawn.append((sample_true_theta(draw_rng, cfg.order), sample_lambda(draw_rng)))
    levels = []
    for eps in cfg.eps_list:
        eps_dir = os.path.join(out_dir, f"eps_{_eps_tag(eps)}")
        os.makedirs(eps_dir, exist_ok=True)
        levels.append((eps, cfg.params(eps), eps_dir))
    # a call takes a run of datasets at every level, so each theta's beta is built once
    per_call = max(1, PATH_BLOCK // len(levels))
    index_rows = {}  # by (level, dataset), the index's order
    records = {}
    for start in range(0, cfg.n_datasets, per_call):
        block = [(li, i) for li in range(len(levels)) for i in range(start, min(start + per_call, cfg.n_datasets))]
        thetas = [drawn[i][0] for _, i in block]
        params = [levels[li][1] for li, _ in block]
        noises = [LevyPathNoise(seed_sequence(cfg.seed, i, 1), drawn[i][1], HORIZON, dim) for _, i in block]
        batch = simulate_many(model, thetas, params, cfg.x0, HORIZON, cfg.n_obs, noises, cfg.substeps)
        for p, (li, i) in enumerate(block):
            eps, _, eps_dir = levels[li]
            try:
                traj = batch.trajectory(p)
            except SimulationError as err:
                index_rows[li, i] = [_eps_exact(eps), i, "FAILED", str(err)]
                continue
            path = os.path.join(eps_dir, f"dataset_{i:05d}.csv")
            meta_path = os.path.join(eps_dir, f"dataset_{i:05d}.meta")
            save_trajectory(traj, path, meta_path)
            records[li, i] = DatasetRecord(i, eps, thetas[p], path, meta_path, traj)
            index_rows[li, i] = [_eps_exact(eps), i, os.path.relpath(path, out_dir), ""]
    index = [index_rows[key] for key in sorted(index_rows)]
    _write_csv(os.path.join(out_dir, "datasets.csv"), ["eps", "dataset", "file", "error"], index)
    return [records[key] for key in sorted(records)]


def load_records(out_dir: str) -> list[DatasetRecord]:
    """Rebuild dataset records from a generated output tree, each with the true parameter its sidecar records.

    A sidecar that cannot be opened leaves ``theta0`` None; the estimate names it in a failure row.
    """
    index_path = os.path.join(out_dir, "datasets.csv")
    if not os.path.exists(index_path):
        raise FileNotFoundError(f"no dataset index at {index_path}")
    records = []
    for row in _read_csv(index_path):
        if row["file"] == "FAILED":
            continue
        path = os.path.join(out_dir, row["file"])
        meta_path = os.path.splitext(path)[0] + ".meta"
        try:
            theta0 = _theta_from_meta(load_keyvalues(meta_path))
        except OSError:
            theta0 = None
        records.append(DatasetRecord(int(row["dataset"]), float(row["eps"]), theta0, path, meta_path))
    return records


def _check_recorded(record: DatasetRecord, traj: Trajectory, cfg: RunConfig, params: SirParams) -> None:
    """Raise ValueError naming each model or constant ``traj`` records other than ``cfg`` at ``params``.

    A trajectory without params records no constants, and none is checked.
    """
    differ = []
    if traj.model != cfg.model:
        differ.append(f"model {traj.model} (config {cfg.model})")
    if traj.params is not None:
        for name in _CONSTANTS:
            recorded, wanted = getattr(traj.params, name), getattr(params, name)
            if recorded != wanted:
                differ.append(f"{name} {recorded!r} (config {wanted!r})")
    if differ:
        raise ValueError(f"the dataset sidecar {record.meta_path} differs from the config in " + "; ".join(differ))


def _estimate_one(task: tuple[DatasetRecord, RunConfig]) -> tuple[float, int, list]:
    """One results row of ``task``, a (record, cfg) pair; any failure, loading included, is a row naming its class.

    The record's trajectory is estimated as it is or, where the record holds
    none, read by :func:`load_trajectory` from its CSV and sidecar.  A
    dataset recording another model or other constants than the config's is
    a failure row too, rather than a fit under the wrong model.
    """
    record, cfg = task
    dataset_id, eps = record.dataset_id, record.eps
    params = cfg.params(eps)
    # common random numbers across the sweep here too: the line-search cell
    # draws for dataset i are shared between eps levels
    est_rng = stream(cfg.seed, dataset_id, 7)
    true_vec = record.theta0.to_vector() if record.theta0 is not None else np.full(2 + 2 * cfg.order, np.nan)
    try:
        traj = record.trajectory if record.trajectory is not None else load_trajectory(record.path, record.meta_path)
        _check_recorded(record, traj, cfg, params)
        result = lsgd_estimate(traj, cfg.estimator(), BoxConstraints(), cfg.contrast(eps), seed=est_rng, params=params)
        est_vec = result.theta.to_vector()
        row = [dataset_id]
        for tv, ev in zip(true_vec, est_vec):
            row.extend([tv, ev])
        row.extend([result.objective, result.converged, ""])
    except Exception as err:  # the batch goes on; the row records the failure
        import logging  # loaded on the failure path only, the one place that logs

        logging.getLogger(__name__).debug("dataset %d at eps %r failed", dataset_id, eps, exc_info=True)
        row = [dataset_id]
        for tv in true_vec:
            row.extend([tv, float("nan")])
        row.extend([float("nan"), False, f"{type(err).__name__}: {err}"])
    return eps, dataset_id, row


def _parameter_names(order: int) -> list[str]:
    """Names of the parameter vector's entries, in ``ThetaParams.to_vector`` order."""
    return ["period", *alpha_column_names(order)]


def _result_header(order: int) -> list[str]:
    cols = ["dataset"]
    for name in _parameter_names(order):
        cols.extend([f"true_{name}", f"est_{name}"])
    cols.extend(["objective", "converged", "error"])
    return cols


def batch_estimate(records: list[DatasetRecord], cfg: RunConfig, out_dir: str) -> dict[float, str]:
    """Estimate every dataset; one results CSV per eps that has records, rows ordered by dataset id.

    Each record is one (record, cfg) task of :func:`_estimate_one`: its
    trajectory, held or read from its files, is checked against ``cfg`` and
    estimated, and a dataset that fails either is a failure row.  At
    ``cfg.jobs > 1`` the records go to the workers whole.  A record whose true
    parameter has another Fourier order than ``cfg.order`` raises
    ``ValueError`` before anything is written: its results row would not
    match the header's columns.
    """
    for r in records:
        if r.theta0 is not None and r.theta0.order != cfg.order:
            raise ValueError(
                f"dataset {r.dataset_id} has a true parameter of Fourier order {r.theta0.order}, "
                f"but the config estimates at order {cfg.order}"
            )
    os.makedirs(out_dir, exist_ok=True)
    tasks = [(r, cfg) for r in records]
    if cfg.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only where a pool runs

        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            outcomes = list(pool.map(_estimate_one, tasks, chunksize=8))
    else:
        outcomes = [_estimate_one(t) for t in tasks]

    by_eps: dict[float, list] = {}
    for eps, dataset_id, row in outcomes:
        by_eps.setdefault(eps, []).append((dataset_id, row))
    paths = {}
    for eps, outcome in by_eps.items():
        paths[eps] = os.path.join(out_dir, f"results_eps_{_eps_tag(eps)}.csv")
        _write_csv(paths[eps], _result_header(cfg.order), [row for _, row in sorted(outcome, key=lambda t: t[0])])
    return paths


def _sample_prediction_x0(rng: np.random.Generator, model_tag: str) -> tuple[float, float, float]:
    if model_tag == "numbers":
        return (float(rng.uniform(1, 4)), float(rng.uniform(0.1, 2)), float(rng.uniform(0.1, 1)))
    # uniform point of the probability simplex
    gaps = np.sort(rng.uniform(0.0, 1.0, size=2))
    return (float(gaps[0]), float(gaps[1] - gaps[0]), float(1.0 - gaps[1]))


def prediction_study(
    theta0: ThetaParams,
    cfg: RunConfig,
    out_dir: str,
    eps_values: tuple[float, ...] = (0.3, 0.001),
    n_paths: int = 100,
) -> dict:
    """Estimate at each eps from fresh data, then compare forward ensembles.

    Writes a parameter comparison table (one true row, one row per eps), the
    drift-only path of the true parameter on the prediction window, and the
    ``n_paths``-path ensemble mean for each estimate, all from one freshly
    drawn initial state, the estimates at theta0's Fourier order.  The eps
    levels are checked as ``RunConfig`` checks its own: each in [0, 1), and
    no two sharing an output file tag.
    """
    _check_eps_levels(eps_values)
    os.makedirs(out_dir, exist_ok=True)
    model = get_model(cfg.model)
    est = EstimatorConfig(cells=cfg.cells, order=theta0.order)
    estimates: dict[float, ThetaParams] = {}
    for ei, eps in enumerate(eps_values):
        params = cfg.params(eps)
        rng = stream(cfg.seed, 50, ei)
        fit_x0 = _sample_prediction_x0(rng, model.tag)
        lam = sample_lambda(rng)
        noise = LevyPathNoise(seed_sequence(cfg.seed, 51, ei), lam, HORIZON, model.driver_dim)
        traj = simulate_sde(model, theta0, params, fit_x0, HORIZON, cfg.n_obs, noise, cfg.substeps)
        result = lsgd_estimate(
            traj,
            est,
            BoxConstraints(),
            cfg.contrast(eps),
            seed=stream(cfg.seed, 52, ei),
            params=params,
        )
        estimates[eps] = result.theta

    table_path = os.path.join(out_dir, "parameter_table.csv")
    table = [["true", *theta0.to_vector()]]
    table += [[f"estimate_eps_{_eps_tag(eps)}", *estimates[eps].to_vector()] for eps in eps_values]
    _write_csv(table_path, ["row", *_parameter_names(theta0.order)], table)

    pred_rng = stream(cfg.seed, 53)
    pred_x0 = _sample_prediction_x0(pred_rng, model.tag)
    n_pred_obs = max(1, round(cfg.n_obs * PREDICT_HORIZON))
    det = solve_ode(model, theta0, cfg.params(0.0), pred_x0, PREDICT_HORIZON, n_pred_obs)
    det_path = os.path.join(out_dir, "deterministic_true.csv")
    save_trajectory(det, det_path)
    ensemble_paths = {}
    for ei, eps in enumerate(eps_values):
        mean = predict_ensemble(
            model,
            estimates[eps],
            cfg.params(eps),
            pred_x0,
            horizon=PREDICT_HORIZON,
            n_obs=n_pred_obs,
            n_paths=n_paths,
            seed=int(seed_sequence(cfg.seed, 54, ei).generate_state(1, np.uint32)[0]),
            substeps=cfg.substeps,
        )
        path = os.path.join(out_dir, f"ensemble_eps_{_eps_tag(eps)}.csv")
        save_trajectory(mean, path)
        ensemble_paths[eps] = path
    return {
        "estimates": estimates,
        "table": table_path,
        "deterministic": det_path,
        "ensembles": ensemble_paths,
        "x0": pred_x0,
    }


def emit_reports(out_dir: str) -> dict:
    """Per-eps error summaries, the consistency-trend verdict, scatter CSVs.

    Expects the directory produced by generate/estimate (config.txt plus
    results_eps_*.csv); raises FileNotFoundError naming whatever is missing.
    Medians and interquartile ranges come from
    ``theory._median_and_quartiles``: numpy's values, without ``numpy.ma``.
    """
    cfg_path = os.path.join(out_dir, "config.txt")
    if not os.path.exists(cfg_path):
        raise FileNotFoundError(f"missing {cfg_path}; run generation first")
    cfg = RunConfig.load(cfg_path)
    missing = []
    result_paths = {}
    for eps in cfg.eps_list:
        path = os.path.join(out_dir, f"results_eps_{_eps_tag(eps)}.csv")
        if os.path.exists(path):
            result_paths[eps] = path
        else:
            missing.append(path)
    if missing:
        raise FileNotFoundError(f"missing results files: {', '.join(missing)}")

    names = _parameter_names(cfg.order)
    summary_rows = []
    medians_l2 = {}
    for eps in cfg.eps_list:
        rows = _read_csv(result_paths[eps])
        estimated = [row for row in rows if not row["error"]]
        errs = {name: [] for name in names}
        l2 = []
        for row in estimated:
            sq = 0.0
            for name in names:
                diff = float(row[f"est_{name}"]) - float(row[f"true_{name}"])
                errs[name].append(abs(diff))
                sq += diff * diff
            l2.append(np.sqrt(sq))
        med_l2 = _median_and_quartiles(l2)[0] if l2 else float("nan")
        medians_l2[eps] = med_l2
        srow = {"eps": eps, "n": len(l2), "failed": len(rows) - len(estimated), "median_l2": med_l2}
        for name in names:
            med, q75, q25 = _median_and_quartiles(errs[name]) if errs[name] else (float("nan"),) * 3
            srow[f"median_abs_{name}"] = med
            srow[f"iqr_abs_{name}"] = q75 - q25
        summary_rows.append(srow)

        scatter_path = os.path.join(out_dir, f"scatter_eps_{_eps_tag(eps)}.csv")
        scatter = [[name, row[f"true_{name}"], row[f"est_{name}"]] for row in estimated for name in names]
        _write_csv(scatter_path, ["parameter", "true", "estimate"], scatter)

    summary_path = os.path.join(out_dir, "summary.csv")
    keys = list(summary_rows[0])
    _write_csv(summary_path, keys, [[srow[k] for k in keys] for srow in summary_rows])

    # consistency trend: medians ordered by decreasing eps must not increase,
    # and the largest-to-smallest ratio must reach 5x
    eps_sorted = sorted(cfg.eps_list, reverse=True)
    meds = [medians_l2[e] for e in eps_sorted]
    non_increasing = all(a >= b or np.isnan(a) or np.isnan(b) for a, b in zip(meds, meds[1:]))
    ratio = meds[0] / meds[-1] if meds[-1] != 0.0 else float("inf")
    # a level without a single estimate cannot show the trend
    verdict = non_increasing and ratio >= 5.0 and not np.isnan(meds).any()
    verdict_path = os.path.join(out_dir, "consistency_verdict.txt")
    with open(verdict_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"non_increasing={_fmt(non_increasing)}\n")
        fh.write(f"ratio_largest_to_smallest={_fmt(ratio)}\n")
        fh.write(f"verdict={'PASS' if verdict else 'FAIL'}\n")
    return {
        "summary": summary_path,
        "verdict": verdict_path,
        "medians_l2": medians_l2,
        "consistency_pass": bool(verdict),
        "ratio": float(ratio),
    }
