"""sirlevy benchmark: one workload from one seed, checked, with named metrics.

    python3 bench/run.py --workload sweep-numbers --seed 20250809 --seconds 30 --trace 0

``--trace 0`` runs the workload once with tracing off and prints the
end-to-end metrics.  ``--trace 1`` runs it untraced and then traced on the
same inputs, prints the per-layer table and metrics, writes the spans under
``.bench_out/`` and reports the tracing overhead.  ``--smoke`` shrinks every
size to a few seconds of work.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is nonzero when any output check fails.

Everything runs in this one process with one BLAS thread and ``jobs=1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

import spans
import warmup

DEFAULT_SEED = 20250809  # criterion 4's seed
HELD_OUT_SEED = 7  # kept for re-checking a gain claim on a seed not used while writing it
SETUP_SAMPLES = 3  # this process plus two fresh child processes
OUT_DIR = os.path.join(warmup.ROOT, ".bench_out")

# the end_to_end metrics of BENCHMARK.json
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "l2_err_median")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us") or name.endswith("_us_per_step"):
        return "us"
    if name.endswith("ratio") or name.endswith("share"):
        return "1"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def provenance() -> dict:
    import numpy as np
    import scipy

    def git(*args):
        try:
            done = subprocess.run(
                ["git", *args], cwd=warmup.ROOT, capture_output=True, text=True, timeout=30, check=True
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip()

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD") or "unknown (not a git checkout)",
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in warmup.BLAS_THREAD_VARS},
    }


def child_setups(n: int) -> list[float]:
    """Set-up seconds of ``n`` fresh interpreters, one after another."""
    out = []
    for _ in range(n):
        done = subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(__file__), "warmup.py")],
            cwd=warmup.ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def run_pass(sl, name, seed, size, work, traced):
    """One pass of the workload; returns (outcome, tracer or None)."""
    import workloads

    patches = spans.Patches()
    tracer = spans.Tracer() if traced else None
    counts = tracer.counts if traced else {"experiments.bytes_written": 0}
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if traced:
            spans.instrument(sl, tracer, patches)
        probe = workloads.Probe(sl, patches, sl.BoxConstraints())
        # the traced pass is itself the repetition of the untraced one
        outcome = workloads.WORKLOADS[name](sl, seed, size, work, probe, counts, repeat=not traced)
    finally:
        patches.undo()
        shutil.rmtree(work, ignore_errors=True)
    return outcome, tracer


def end_to_end(workload: str, outcome, setups) -> dict[str, tuple[float, str]]:
    """Metric -> (value, unit): the bounded END_TO_END ones first, then the rest.

    The rest are named by the issue but carry no bound: they are zero on a
    healthy run, or spread more between seeds than any bound allows (see
    bench/README.md).
    """
    import numpy as np

    est = np.asarray(outcome.estimate_s)
    out = {
        "wall_s": (statistics.median(outcome.unit_s), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "l2_err_median": (outcome.accuracy["l2_err_median"], "1"),
    }
    out["failed_share"] = (outcome.failed / outcome.attempted, "1")
    out.update(outcome.extra)
    if workload != "predict-proportions":
        out["estimates_per_s"] = (est.size / est.sum(), "1/s")
        out["estimate_s_p50"] = (float(np.quantile(est, 0.5)), "s")
        out["estimate_s_p75"] = (float(np.quantile(est, 0.75)), "s")
    for key, value in outcome.accuracy.items():
        out.setdefault(key, (value, "1"))
    out["estimates"] = (est.size, "count")
    out["units"] = (len(outcome.unit_s), "count")
    out["total_s"] = (outcome.total_s, "s")
    return out


def print_metrics(metrics: dict[str, tuple[float, str]]) -> None:
    for key, (value, unit) in metrics.items():
        print(f"  {key:<30} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="sweep-numbers, predict-proportions or theory-numbers")
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})"
    )
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args(argv)

    warmup.pin_blas()
    try:
        sl, own_setup = warmup.set_up()
    except (FileNotFoundError, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    setups = [own_setup] + child_setups(SETUP_SAMPLES - 1)
    size = workloads.sizes(args.seconds, args.smoke)
    prov = provenance()
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"size {size}")
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    work = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")

    outcome, _ = run_pass(sl, args.workload, args.seed, size, work, traced=False)
    problems = list(outcome.problems)
    e2e = end_to_end(args.workload, outcome, setups)
    print(f"workload {args.workload}, seed {args.seed}: end-to-end (first {len(END_TO_END)} bounded)")
    print_metrics(e2e)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "provenance": prov}
    metrics = {k: e2e[k] for k in END_TO_END}

    if args.trace:
        traced, tracer = run_pass(sl, args.workload, args.seed, size, work, traced=True)
        problems += traced.problems
        if traced.accuracy != outcome.accuracy:
            problems.append(f"accuracy differs between passes: {outcome.accuracy} vs {traced.accuracy}")
        layer = spans.layer_metrics(tracer)
        layer["trace_overhead_share"] = (traced.total_s - outcome.total_s) / outcome.total_s
        print("spans: name, calls, total s, self s")
        for span_name, calls, total, own in tracer.table():
            print(f"  {span_name:<24} {calls:>9} {total:>12.4f} {own:>12.4f}")
        print("per-layer")
        metrics = {k: (v, layer_unit(k)) for k, v in layer.items()}
        print_metrics(metrics)
        print(f"tracing overhead: traced pass {traced.total_s:.3f} s, untraced pass {outcome.total_s:.3f} s")
        spans_path = os.path.join(OUT_DIR, f"spans-{tag}.json")
        tracer.write(spans_path, record)
        print(f"spans written to {spans_path}")
        record["layer_table"] = tracer.table()

    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    record["problems"] = problems
    with open(os.path.join(OUT_DIR, f"run-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    failed = outcome.failed + len(problems)
    result = {
        "correct": not problems and outcome.failed == 0,
        "attempted": outcome.attempted + len(problems),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
