"""Sampling of the driving noise: Brownian increments plus compound-Poisson jumps.

The mark law, the rate law and the seeding of every random stream are decided
here alone, for the simulated data, the prediction ensembles and the limit law.

The jump part is a compound Poisson process of total rate ``lam`` whose marks
come from a two-point law.  For the 3-dimensional driver the marks are

    (-0.1, 0.1, 0.0)  with probability 2/3   (mass moves X -> Y)
    ( 0.0, -0.1, 0.1) with probability 1/3   (mass moves Y -> Z)

Both have Euclidean norm sqrt(0.02) > 0.1, so every jump clears the
large-jump threshold 0.1 and there is no compensated small-jump part.

The scalar driver reuses the same total rate with jump effects drawn
uniformly from {-0.1, +0.1}: the per-component magnitude 0.1 and the rate are
kept, which is the natural scalar reduction of the vector mark law.  The
large-jump classification is inherited from the vector law (all marks clear
the threshold strictly), so neither driver ever produces a compensated
small-jump term.

A jump rate that is not fixed is drawn uniformly from {1, 2, 3, 4} by
:func:`sample_lambda`.  Every random stream is a Philox generator on a
``SeedSequence`` that :func:`seed_sequence` alone builds from a master seed
and a spawn key; :func:`stream` is the generator on it.  A whole noise path
is a pure function of (seed, lam, horizon, dim): the jump skeleton is drawn
eagerly, then the remaining generator state serves the Brownian part on
demand, in call order.  :meth:`LevyPathNoise.fill_normals` is its one draw:
it fills rows of standard normals, one row per interval, and consecutive
fills continue the stream, so a run of intervals can be drawn in one call or
in pieces with the same values.  The increments are those normals times the
square root of each interval's length.
"""

from __future__ import annotations

import numpy as np

LARGE_JUMP_THRESHOLD = 0.1

MARKS_3D = np.array([[-0.1, 0.1, 0.0], [0.0, -0.1, 0.1]])
MARK_WEIGHTS_3D = np.array([2.0 / 3.0, 1.0 / 3.0])

MARKS_1D = np.array([[-0.1], [0.1]])
MARK_WEIGHTS_1D = np.array([0.5, 0.5])


def _cdf(weights: np.ndarray) -> np.ndarray:
    """The distribution function ``Generator.choice`` builds from ``p``."""
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


_MARK_CDF = {3: _cdf(MARK_WEIGHTS_3D), 1: _cdf(MARK_WEIGHTS_1D)}


def sample_lambda(rng: np.random.Generator) -> int:
    """Jump rate drawn uniformly from {1, 2, 3, 4}."""
    return int(rng.integers(1, 5))


def _make_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    # Philox is counter-based: cheap to spawn in bulk and stable across runs
    return np.random.Generator(np.random.Philox(seed))


def seed_sequence(seed, *key) -> np.random.SeedSequence:
    """The seed sequence of spawn key ``key`` under the master seed ``seed``."""
    return np.random.SeedSequence(entropy=seed, spawn_key=key)


def stream(seed, *key) -> np.random.Generator:
    """The random stream of spawn key ``key`` under the master seed ``seed``."""
    return _make_rng(seed_sequence(seed, *key))


def draw_jumps(rng: np.random.Generator, rate: float, horizon: float, dim: int):
    """Jumps of one compound-Poisson path on (0, horizon]: (times, marks).

    Draws, in this order, the Poisson(rate * horizon) count, the count's
    uniform times (unsorted) and their marks from the two-point law of the
    ``dim``-dimensional driver; marks has shape (count, dim).
    """
    count = int(rng.poisson(rate * horizon))
    times = rng.uniform(0.0, horizon, size=count)
    return times, (MARKS_3D if dim == 3 else MARKS_1D)[_mark_index(rng, count, dim)]


def _mark_index(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Indices of ``count`` marks of the ``dim``-dimensional driver.

    This is numpy's own algorithm for ``rng.choice(2, size=count, p=weights)``,
    one uniform per mark searched in the weights' distribution function, with
    that function built once: the same indices and the same stream state
    after, without the call's checks of ``p``.
    """
    return _MARK_CDF[dim].searchsorted(rng.random(count), side="right")


class LevyPathNoise:
    """One realization of the driving noise on (0, horizon].

    Jump times and marks are fixed at construction; the Brownian part is
    drawn on demand, as raw normals by :meth:`fill_normals` or as increments
    by :meth:`brownian_increments`, which scales those normals.  It is
    deterministic given the seed and the number of intervals requested so far.
    """

    def __init__(self, seed, rate: float, horizon: float, dim: int):
        if dim not in (1, 3):
            raise ValueError(f"driver dimension must be 1 or 3, got {dim}")
        if horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if rate < 0.0:
            raise ValueError(f"jump rate must be nonnegative, got {rate}")
        self.seed = seed
        self.rate = float(rate)
        self.horizon = float(horizon)
        self.dim = int(dim)
        self._rng = _make_rng(seed)

        while True:
            times, marks = draw_jumps(self._rng, self.rate, self.horizon, self.dim)
            times = np.sort(times)
            # ties or a time of exactly 0.0 have probability ~2^-50; redraw rather
            # than carry a skeleton outside (0, horizon) or not strictly
            # increasing.  A redraw spends the rejected skeleton's marks draw too.
            if times.size == 0 or (times[0] > 0.0 and np.all(np.diff(times) > 0.0)):
                break
        self.jump_times = times
        self.jump_marks = marks

    @property
    def jump_count(self) -> int:
        return len(self.jump_times)

    def fill_normals(self, out: np.ndarray) -> np.ndarray:
        """Fill ``out``, a C-contiguous (n, dim) array, with the path's next n rows
        of standard normals, and return it.

        This is the one draw of the Brownian stream: fills of n and then m rows
        equal one fill of n + m rows, and row i times sqrt(dt_i) is the
        increment over an interval of length dt_i.
        """
        if out.ndim != 2 or out.shape[1] != self.dim or not out.flags.c_contiguous:
            raise ValueError(f"need a C-contiguous (n, {self.dim}) array, got shape {out.shape}")
        return self._rng.standard_normal(out=out)

    def brownian_increments(self, dts: np.ndarray) -> np.ndarray:
        """Batch of per-interval increments: the next ``dts.size`` rows of
        :meth:`fill_normals` times sqrt(dts); identical to sequential single draws."""
        dts = np.asarray(dts, dtype=float)
        if np.any(dts <= 0.0):
            raise ValueError("all interval lengths must be positive")
        return self.fill_normals(np.empty((dts.size, self.dim))) * np.sqrt(dts)[:, None]
