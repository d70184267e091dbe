"""Set-up of one benchmark process: imports plus a warm-up, timed together.

Run as a script it sets up a fresh interpreter and prints the seconds taken,
which lets the benchmark repeat its set-up in child processes and report the
median.  The warm-up inputs are fixed, not drawn from the workload seed, so
set-up time is comparable across seeds.
"""

from __future__ import annotations

import os
import sys
import time

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def pin_blas() -> None:
    """One BLAS thread; must run before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread limit was set")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_package():
    """Import sirlevy from this checkout's ``src``; raise if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "sirlevy", "__init__.py")):
        raise FileNotFoundError(f"no sirlevy package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import sirlevy

    if os.path.dirname(os.path.abspath(sirlevy.__file__)) != os.path.join(SRC, "sirlevy"):
        raise ImportError(f"imported sirlevy from {sirlevy.__file__}, not from {SRC}")
    return sirlevy


def warm_up(sl) -> None:
    """One call along each layer on fixed small inputs."""
    import numpy as np

    theta = sl.REFERENCE_THETA
    params = sl.numbers_defaults(eps=0.001)
    noise = sl.levy.LevyPathNoise(np.random.SeedSequence(1), 2, 1.0, 3)
    traj = sl.simulate.simulate_sde("numbers", theta, params, sl.NUMBERS_X0, 1.0, 100, noise)
    sl.estimator.lsgd_estimate(
        traj, sl.EstimatorConfig(), sl.BoxConstraints(), sl.ContrastConfig("weighted", 0.001), seed=1
    )
    sl.simulate.solve_ode("numbers", theta, params, sl.NUMBERS_X0, 1.0, 50)
    sl.theory.information_matrix("numbers", theta, params, sl.NUMBERS_X0, n_quad=50)


def set_up():
    """Import and warm up; returns (package, seconds)."""
    start = time.perf_counter()
    sl = import_package()
    warm_up(sl)
    return sl, time.perf_counter() - start


if __name__ == "__main__":
    pin_blas()
    print(repr(set_up()[1]))
