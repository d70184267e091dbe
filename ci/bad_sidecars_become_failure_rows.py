"""``sirlevy estimate`` turns a bad sidecar into one failure row and estimates the rest.

Generates the default numbers config at 4 datasets, copies the tree, and in
the copy deletes one dataset's sidecar and strips the ``model`` line from
another's.  At ``--jobs 1`` and ``--jobs 2``, ``sirlevy estimate`` must exit
0 on both trees.  In the copy each bad dataset must be one failure row whose
error names its sidecar, and every other line of every results file must
equal the untouched tree's byte for byte.  Exits 1 on a failed run or a
difference.

Run from the repository root: ``PYTHONPATH=src python ci/bad_sidecars_become_failure_rows.py``.
"""

import csv
import glob
import os
import shutil
import subprocess
import sys
import tempfile

CONFIG = "model=numbers\nn_datasets=4\nseed=20250809\n"
MISSING = os.path.join("eps_0.3", "dataset_00001.meta")  # deleted
NO_MODEL = os.path.join("eps_0.01", "dataset_00002.meta")  # loses its model line


def _estimate(tree: str, jobs: str) -> bool:
    verb = [sys.executable, "-m", "sirlevy.cli", "estimate", "--jobs", jobs, "--out", tree]
    return subprocess.run(verb, stdout=subprocess.DEVNULL).returncode == 0


def _bad_rows(clean: str, bad: str) -> list[str]:
    """Each way the copy's results differ from the contract; empty when they meet it."""
    problems = []
    expected = {os.path.join(bad, MISSING), os.path.join(bad, NO_MODEL)}
    named = set()
    for path in sorted(glob.glob(os.path.join(clean, "results_eps_*.csv"))):
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            want = fh.read().splitlines()
        with open(os.path.join(bad, name), encoding="utf-8") as fh:
            got = fh.read().splitlines()
        if len(got) != len(want) or got[0] != want[0]:
            problems.append(f"{name}: {len(got)} lines against {len(want)}, or another header")
            continue
        for line, row, ref in zip(got[1:], csv.DictReader(got), want[1:]):
            sidecars = [meta for meta in expected if meta in row["error"]]
            if sidecars and row["converged"] == "false":
                named.update(sidecars)
            elif line != ref:
                problems.append(f"{name} dataset {row['dataset']}: {row['error'] or 'estimate'} differs")
    problems += [f"no failure row names {meta}" for meta in sorted(expected - named)]
    return problems


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as work:
        config = os.path.join(work, "numbers.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(CONFIG)
        for jobs in ("1", "2"):
            clean = os.path.join(work, jobs, "clean")
            bad = os.path.join(work, jobs, "bad")
            verb = [sys.executable, "-m", "sirlevy.cli", "generate", "--config", config, "--out", clean]
            if subprocess.run(verb, stdout=subprocess.DEVNULL).returncode:
                return 1
            shutil.copytree(clean, bad)
            os.remove(os.path.join(bad, MISSING))
            meta = os.path.join(bad, NO_MODEL)
            with open(meta, encoding="utf-8") as fh:
                lines = [line for line in fh if not line.startswith("model=")]
            with open(meta, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(lines)
            for tree in (clean, bad):
                print(f"== --jobs {jobs}: estimate {os.path.basename(tree)}", flush=True)
                if not _estimate(tree, jobs):
                    print(f"--jobs {jobs}: estimate exited nonzero on the {os.path.basename(tree)} tree", flush=True)
                    return 1
            problems = _bad_rows(clean, bad)
            for problem in problems:
                print(f"--jobs {jobs}: {problem}", flush=True)
            verdict = "break the contract" if problems else "are failure rows"
            print(f"--jobs {jobs}: bad sidecars {verdict}", flush=True)
            failed += bool(problems)
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main())
