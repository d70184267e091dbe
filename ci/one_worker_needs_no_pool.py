"""A one-worker sweep and the theory verb run without the process pool's modules.

Runs ``sirlevy sweep --jobs 1`` on a 4-dataset config and
``sirlevy theory --seed 2 --replications 10`` twice: as shipped, and with
``sys.modules['concurrent.futures']`` and ``sys.modules['multiprocessing']``
set to ``None``, so that importing either raises.  The two trees must match
(``diff -r -x config.txt``); exits 1 on a failed run or a difference.

Run from the repository root: ``PYTHONPATH=src python ci/one_worker_needs_no_pool.py``.
"""

import os
import subprocess
import sys
import tempfile

CONFIG = "model=numbers\nn_datasets=4\nseed=20250809\n"
WITHOUT_POOL = (
    "import sys, runpy; "
    "sys.modules['concurrent.futures'] = sys.modules['multiprocessing'] = None; "
    "runpy.run_module('sirlevy.cli', run_name='__main__')"
)


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        config = os.path.join(work, "jobs1.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(CONFIG)
        for tag, cli in (("with", ["-m", "sirlevy.cli"]), ("without", ["-c", WITHOUT_POOL])):
            for verb in (
                ["sweep", "--config", config, "--jobs", "1", "--out", os.path.join(work, tag, "sweep")],
                ["theory", "--seed", "2", "--replications", "10", "--out", os.path.join(work, tag, "theory")],
            ):
                print(f"== {verb[0]} {tag} the pool's modules", flush=True)
                if subprocess.run([sys.executable, *cli, *verb]).returncode:
                    return 1
        diff = subprocess.run(["diff", "-r", "-x", "config.txt", os.path.join(work, "with"), os.path.join(work, "without")])
    print("trees match" if diff.returncode == 0 else "trees differ")
    return int(diff.returncode != 0)


if __name__ == "__main__":
    sys.exit(main())
