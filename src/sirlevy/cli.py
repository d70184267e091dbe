"""Command-line entry points for the simulation studies.

Verbs: ``generate`` (datasets), ``estimate`` (batch estimation over a
generated tree), ``sweep`` (generate + estimate + report), ``predict``
(prediction study), ``theory`` (rate experiment and information matrix),
``report`` (summaries over existing results).  All randomness flows from
``--seed``; rerunning any verb with the same seed and config reproduces the
output tree byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .experiments import (
    REFERENCE_THETA,
    RunConfig,
    batch_estimate,
    emit_reports,
    generate_datasets,
    load_records,
    prediction_study,
)
from .theory import information_matrix, rate_experiment
from .transmission import ThetaParams


def _load_config(args, tree: str | None = None) -> RunConfig:
    """``--config`` if given, else the ``config.txt`` of ``tree`` if it has one, else the defaults."""
    path = args.config
    if path is None and tree is not None and os.path.exists(os.path.join(tree, "config.txt")):
        path = os.path.join(tree, "config.txt")
    cfg = RunConfig.load(path) if path else RunConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "jobs", None):
        overrides["jobs"] = args.jobs
    if getattr(args, "full", False):
        overrides["n_datasets"] = 1000
    if overrides:
        from dataclasses import replace

        cfg = replace(cfg, **overrides)
    return cfg


def _parse_theta(text: str) -> ThetaParams:
    return ThetaParams.from_vector(np.array([float(v) for v in text.split(",")]))


def cmd_generate(args) -> int:
    cfg = _load_config(args)
    records = generate_datasets(cfg, args.out)
    print(f"generated {len(records)} datasets under {args.out}")
    return 0


def cmd_estimate(args) -> int:
    # the generated tree records the configuration its datasets came from
    cfg = _load_config(args, tree=args.out)
    records = load_records(args.out)
    paths = batch_estimate(records, cfg, args.out)
    for eps in sorted(paths, reverse=True):
        print(f"eps={eps:g}: {paths[eps]}")
    return 0


def cmd_report(args) -> int:
    report = emit_reports(args.out)
    print(f"summary: {report['summary']}")
    print(f"consistency verdict: {'PASS' if report['consistency_pass'] else 'FAIL'} "
          f"(largest/smallest median ratio {report['ratio']:.2f})")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    records = generate_datasets(cfg, args.out)
    print(f"generated {len(records)} datasets")
    batch_estimate(records, cfg, args.out)
    return cmd_report(args)


def cmd_predict(args) -> int:
    cfg = _load_config(args)
    theta0 = _parse_theta(args.theta0) if args.theta0 else REFERENCE_THETA
    eps_values = tuple(float(v) for v in args.eps.split(",")) if args.eps else (0.3, 0.001)
    out = prediction_study(theta0, cfg, args.out, eps_values=eps_values)
    print(f"parameter table: {out['table']}")
    for eps, path in out["ensembles"].items():
        print(f"ensemble eps={eps:g}: {path}")
    return 0


def cmd_theory(args) -> int:
    cfg = _load_config(args)
    theta0 = _parse_theta(args.theta0) if args.theta0 else REFERENCE_THETA
    os.makedirs(args.out, exist_ok=True)
    info = information_matrix(cfg.model, theta0, cfg.params(0.0), cfg.x0, weighted=False)
    info_path = os.path.join(args.out, "information_matrix.csv")
    np.savetxt(info_path, info.matrix, delimiter=",", fmt="%.17g")
    print(f"information matrix ({info_path}); min eigenvalue {info.min_eigenvalue():.6g}")

    eps_values = tuple(float(v) for v in args.eps.split(",")) if args.eps else (0.01, 0.001)
    result = rate_experiment(
        cfg.model,
        theta0,
        cfg.params(0.0),
        cfg.x0,
        eps_values,
        replications=args.replications,
        seed=cfg.seed,
        contrast_form=cfg.contrast_form,
        n_obs=cfg.n_obs,
        substeps=cfg.substeps,
    )
    for eps in eps_values:
        path = os.path.join(args.out, f"scaled_errors_eps_{eps:g}.csv")
        np.savetxt(path, result.scaled[eps], delimiter=",", fmt="%.17g")
        print(f"eps={eps:g}: IQR per component {np.array2string(result.iqr(eps), precision=4)}")
    if result.limit_draws is not None:
        np.savetxt(os.path.join(args.out, "limit_draws.csv"), result.limit_draws, delimiter=",", fmt="%.17g")
    if len(eps_values) >= 2:
        ratio = result.iqr_ratio(eps_values[0], eps_values[-1])
        print(f"IQR ratio {eps_values[0]:g}/{eps_values[-1]:g}: {np.array2string(ratio, precision=3)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sirlevy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, jobs=False):
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        p.add_argument("--out", default="runs", help="output directory")
        if jobs:
            p.add_argument("--jobs", type=int, default=None, help="worker processes")
            p.add_argument("--full", action="store_true", help="paper-scale dataset count (1000)")

    p = sub.add_parser("generate", help="simulate and persist datasets")
    common(p, jobs=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("estimate", help="batch-estimate a generated tree")
    common(p, jobs=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="generate + estimate + report")
    common(p, jobs=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="summaries and verdict over existing results")
    common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("predict", help="prediction study on [0, 3]")
    common(p)
    p.add_argument("--theta0", default=None, help="comma-separated true parameters")
    p.add_argument("--eps", default=None, help="comma-separated eps values (default 0.3,0.001)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("theory", help="rate experiment and information matrix")
    common(p)
    p.add_argument("--theta0", default=None, help="comma-separated true parameters")
    p.add_argument("--eps", default=None, help="comma-separated eps values (default 0.01,0.001)")
    p.add_argument("--replications", type=int, default=50)
    p.set_defaults(func=cmd_theory)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # one diagnostic line, nonzero exit
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
