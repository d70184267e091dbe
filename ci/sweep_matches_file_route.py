"""``sirlevy sweep`` estimates in memory what ``generate``, ``estimate`` and ``report`` read from files.

For the default numbers config at 4 datasets and the CI proportions config,
at ``--jobs 1`` and ``--jobs 2``, runs ``sweep`` into one tree and
``generate``, ``estimate`` and ``report`` into another, all on the same
config file.  The sweep hands each trajectory over in memory, the verbs
read it back from its CSV and sidecar; the two trees must match
(``diff -r``).  Exits 1 on a failed run or a difference.

Run from the repository root: ``PYTHONPATH=src python ci/sweep_matches_file_route.py``.
"""

import os
import subprocess
import sys
import tempfile

CONFIGS = {
    "numbers": "model=numbers\nn_datasets=4\nseed=20250809\n",
    "proportions": "model=proportions\nbirth=0\ndeath=0\nx0=0.82,0.07,0.11\nn_datasets=4\nseed=5\n",
}


def main() -> int:
    differ = 0
    with tempfile.TemporaryDirectory() as work:
        for name, text in CONFIGS.items():
            config = os.path.join(work, f"{name}.cfg")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(text)
            for jobs in ("1", "2"):
                sweep = os.path.join(work, name, jobs, "sweep")
                files = os.path.join(work, name, jobs, "files")
                runs = [["sweep", "--config", config, "--jobs", jobs, "--out", sweep]]
                runs += [[verb, "--config", config, "--jobs", jobs, "--out", files] for verb in ("generate", "estimate")]
                runs += [["report", "--out", files]]
                for verb in runs:
                    print(f"== {name} --jobs {jobs}: {verb[0]}", flush=True)
                    if subprocess.run([sys.executable, "-m", "sirlevy.cli", *verb], stdout=subprocess.DEVNULL).returncode:
                        return 1
                diff = subprocess.run(["diff", "-r", sweep, files])
                print(f"{name} --jobs {jobs}: trees {'match' if diff.returncode == 0 else 'differ'}", flush=True)
                differ += diff.returncode != 0
    return int(differ > 0)


if __name__ == "__main__":
    sys.exit(main())
