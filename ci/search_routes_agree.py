"""The period search against the reference search on the default sweep's 400 datasets.

Every dataset is estimated twice: as shipped, and with each period search
replaced by ``brent_search`` from ``tests/conftest.py`` (Brent's method on
the scan bracket, or the end of lower value where the slopes at its ends
share a sign).  Every estimated parameter must agree to 1e-9 relative, with
no failure row.  Prints how many searches left Newton's free steps for the
safeguarded ones, and the largest relative difference; exits 1 on a miss.

Run from the repository root: ``PYTHONPATH=src python ci/search_routes_agree.py``.
"""

import csv
import glob
import math
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))

import sirlevy as sl  # noqa: E402
import sirlevy.estimator as est_mod  # noqa: E402
from conftest import brent_search  # noqa: E402

BOUND = 1e-9
DATASETS = 400


def rows(out):
    """The results rows of a sweep tree by (file, dataset)."""
    table = {}
    for path in sorted(glob.glob(os.path.join(out, "results_eps_*.csv"))):
        with open(path, encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                table[(os.path.basename(path), row["dataset"])] = row
    return table


def main() -> int:
    cfg = sl.RunConfig()
    newton, expand = est_mod._newton_search, sl.contrast.AlphaProfile.expand
    evaluated, left = [], []

    def recorded(profile, f, box):
        slope, value, curvature = expand(profile, f, box)
        evaluated.append((f, slope, curvature))
        return slope, value, curvature

    def counted(profile, box, lo, hi, start):
        evaluated.clear()
        found = newton(profile, box, lo, hi, start)
        # Newton's free steps: at most _NEWTON_MAXITER evaluations, each at the Newton step from the one before
        free = len(evaluated) <= est_mod._NEWTON_MAXITER and all(
            0.0 < c < math.inf and x1 == x0 - s / c for (x0, s, c), (x1, _, _) in zip(evaluated, evaluated[1:])
        )
        left.append(not free)
        return found

    with tempfile.TemporaryDirectory() as work:
        records = sl.experiments.generate_datasets(cfg, os.path.join(work, "data"))
        sl.contrast.AlphaProfile.expand, est_mod._newton_search = recorded, counted
        try:
            sl.experiments.batch_estimate(records, cfg, os.path.join(work, "shipped"))
            est_mod._newton_search = lambda profile, box, lo, hi, start: brent_search(profile, box, lo, hi)
            sl.experiments.batch_estimate(records, cfg, os.path.join(work, "reference"))
        finally:
            sl.contrast.AlphaProfile.expand, est_mod._newton_search = expand, newton
        a, b = rows(os.path.join(work, "shipped")), rows(os.path.join(work, "reference"))
    names = [n for n in next(iter(a.values())) if n.startswith("est_")]
    worst, where, failed = 0.0, None, 0
    for key in a:
        failed += bool(a[key]["error"] or b[key]["error"])
        for n in names:
            x, y = float(a[key][n]), float(b[key][n])
            rel = abs(x - y) / abs(y) if y else abs(x)
            if not rel <= worst:
                worst, where = rel, (*key, n)
    print(f"{len(a)} estimates, {sum(left)} searches left Newton's free steps, {failed} failure rows")
    print(f"largest relative difference {worst:.3g} at {where}")
    return int(not (len(a) == len(b) == DATASETS and failed == 0 and worst <= BOUND))


if __name__ == "__main__":
    sys.exit(main())
