"""Deterministic objects of the small-noise limit theory plus Monte-Carlo checks.

Everything here lives on the drift-only path: the information matrix is the
Gram matrix of the drift's parameter sensitivities along that path, the
asymptotic objective measures drift separation between two parameter points,
and the limit sampler draws the random variable that the noise-rescaled
estimation error approaches (a stochastic integral of the sensitivities
against the driving noise, premultiplied by the inverse information matrix).
One solve of that path per (model, theta, params, s0, grid), cached and
read-only, feeds all three: :func:`information_matrix` is the one builder of
the matrix, and :class:`LimitSampler` and :func:`asymptotic_contrast` read
the same solve.

The weighted forms read sigma*X*Y*Z from :func:`contrast.weighted_coefficient`
and fail as it does, with :class:`contrast.DegenerateWeightsError` where the
coefficient vanishes.

Only :meth:`RateResult.location_pvalues` uses scipy (``scipy.stats``), and it
imports it when called, so the rest of the module runs on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .contrast import ContrastConfig, weighted_coefficient
from .estimator import BoxConstraints, EstimationError, EstimatorConfig, lsgd_estimate
from .levy import LevyPathNoise, _make_rng, draw_jumps, sample_lambda, seed_sequence, stream
from .models import SirParams, drift_beta_split, get_model, noise_coeff_numbers
from .simulate import (
    SimulationError,
    simulate_many,
    simulate_sde,  # noqa: F401  (bench/spans.py instruments it at this module)
    solve_ode,
)
from .transmission import ThetaParams, beta_eval, beta_grad

DEFAULT_QUAD_STEPS = 2000
HORIZON = 1.0  # the observation window [0, HORIZON] of the data, the estimator and the limit law


def _quadrature_weights(times: np.ndarray) -> np.ndarray:
    """Composite Simpson weights on a uniform grid (trapezoid on the last
    interval when the interval count is odd).  The oscillatory integrands here
    need the fourth-order rule for step-halving agreement at the default grid."""
    n = times.size - 1
    h = (times[-1] - times[0]) / n
    w = np.zeros(times.size)
    end = n - n % 2  # the last node of the Simpson pairs
    w[0:end:2] += h / 3.0
    w[1:end:2] += 4.0 * h / 3.0
    w[2 : end + 1 : 2] += h / 3.0
    if n % 2 == 1:
        w[-2] += 0.5 * h
        w[-1] += 0.5 * h
    return w


@dataclass
class InfoMatrix:
    matrix: np.ndarray
    theta: ThetaParams
    weighted: bool

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix).min())


def _drift_path(model, theta: ThetaParams, params: SirParams, s0, n_grid: int):
    """Times, states, beta gradient (n+1, p), X*Y and Simpson weights along the
    drift-only path on [0, HORIZON], solved once per (model, theta, params, s0,
    grid) and shared read-only by every object of the limit theory."""
    s0 = tuple(np.asarray(s0, dtype=float).tolist())
    return _solved_path(solve_ode, get_model(model).tag, theta, params, s0, n_grid)


@lru_cache(maxsize=8)
def _solved_path(solve, tag: str, theta: ThetaParams, params: SirParams, s0: tuple, n_grid: int):
    """:func:`_drift_path` by ``solve``; the solver is part of the key, so a
    wrapped ``solve_ode`` (a counting test, a tracing pass) gets its own solve."""
    path = solve(get_model(tag), theta, params, s0, HORIZON, n_grid)
    t, states = path.times, path.states
    shared = t, states, beta_grad(t, theta), states[:, 0] * states[:, 1], _quadrature_weights(t)
    for a in shared:
        a.flags.writeable = False
    return shared


def information_matrix(
    model,
    theta: ThetaParams,
    params: SirParams,
    s0,
    weighted: bool = False,
    n_quad: int = DEFAULT_QUAD_STEPS,
) -> InfoMatrix:
    """Gram matrix of drift parameter-sensitivities along the drift-only path.

    Plain form integrates (d_i b)' (d_j b); the weighted form inserts the
    inverse diffusion matrix, which for the numbers model divides by
    (sigma*X*Y*Z)^2 and requires the path to stay off the coordinate planes.
    """
    model = get_model(model)
    _, states, grads, xy, quad = _drift_path(model, theta, params, s0, n_quad)
    weight = 2.0 * xy**2  # |v|^2 with v = (-X*Y, X*Y, 0)
    if weighted:
        weight = weight / weighted_coefficient(model.tag, states, params) ** 2
    matrix = np.einsum("t,ti,tj->ij", weight * quad, grads, grads)
    return InfoMatrix(matrix=matrix, theta=theta, weighted=weighted)


def asymptotic_contrast(
    model,
    theta: ThetaParams,
    theta0: ThetaParams,
    params: SirParams,
    s0,
) -> float:
    """Integrated squared drift separation along the theta0 path; zero iff drifts agree."""
    t, _, _, xy, quad = _drift_path(model, theta0, params, s0, DEFAULT_QUAD_STEPS)
    dbeta = beta_eval(t, theta) - beta_eval(t, theta0)
    integrand = 2.0 * (xy * dbeta) ** 2
    return float(np.sum(integrand * quad))


class LimitSampler:
    """Draws of the limit of the noise-rescaled estimation error.

    The integrand coefficients are frozen on a fine drift-only grid at
    construction; each draw then simulates Brownian increments (left-point
    Ito sums) and compound-Poisson jumps along that grid and premultiplies by
    the inverse information matrix.  The drivers here have no marks below the
    large-jump threshold, so there is no compensated small-jump term; a driver
    with small jumps would need an extra centered-integral contribution.
    """

    def __init__(
        self,
        model,
        theta0: ThetaParams,
        params: SirParams,
        s0,
        n_grid: int = DEFAULT_QUAD_STEPS,
        weighted: bool = False,
    ):
        model = get_model(model)
        self.info = information_matrix(model, theta0, params, s0, weighted, n_grid)
        if abs(np.linalg.det(self.info.matrix)) < 1e-300:
            raise EstimationError("information matrix is singular; the limit is undefined")
        # the integrand reads the drift-only path the matrix was built on
        t, states, grads, _, _ = _drift_path(model, theta0, params, s0, n_grid)
        if weighted:
            kappa = 1.0 / weighted_coefficient(model.tag, states, params)
        else:
            kappa = noise_coeff_numbers(states, params)
        # per-node (driver_dim, p) coefficient of the driving increments: the
        # beta-direction v = (-X*Y, X*Y, 0) seen through the model's noise direction
        _, v = drift_beta_split(model.tag, states, params)  # (n+1, 3)
        coef = kappa[:, None, None] * (v @ model.direction)[:, :, None] * grads[:, None, :]
        self.coef = coef  # (n_grid + 1, driver_dim, p)
        self.dt = float(t[1] - t[0])
        self.dim = model.driver_dim
        self.p = grads.shape[1]

    def _interp_coef(self, tau: float) -> np.ndarray:
        pos = tau / self.dt
        i = min(int(pos), self.coef.shape[0] - 2)
        frac = pos - i
        return (1.0 - frac) * self.coef[i] + frac * self.coef[i + 1]

    def sample_raw(
        self,
        seed,
        lam: float | None = None,
        include_brownian: bool = True,
        include_jumps: bool = True,
    ) -> np.ndarray:
        """One draw of the stochastic integral before the information-matrix solve."""
        rng = _make_rng(seed)
        out = np.zeros(self.p)
        if include_brownian:
            dB = rng.standard_normal((self.coef.shape[0] - 1, self.dim)) * np.sqrt(self.dt)
            out += np.einsum("td,tdp->p", dB, self.coef[:-1])
        if include_jumps:
            rate = sample_lambda(rng) if lam is None else lam
            taus, marks = draw_jumps(rng, rate, HORIZON, self.dim)
            for tau, mark in zip(taus, marks):
                out += mark @ self._interp_coef(tau)
        return out

    def sample(self, seed, lam=None, include_brownian=True, include_jumps=True) -> np.ndarray:
        raw = self.sample_raw(seed, lam, include_brownian, include_jumps)
        return np.linalg.solve(self.info.matrix, raw)

    def sample_many(self, n_draws: int, seed, lam=None, include_brownian=True, include_jumps=True) -> np.ndarray:
        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        out = np.empty((n_draws, self.p))
        for i, child in enumerate(root.spawn(n_draws)):
            out[i] = self.sample(child, lam, include_brownian, include_jumps)
        return out

    def brownian_covariance(self) -> np.ndarray:
        """Quadrature of the limit covariance of the Brownian-only part.

        Ito isometry gives Cov = I^{-1} J I^{-1} with J the quadrature of the
        integrand's Gram matrix.
        """
        J = self.dt * np.einsum("tdp,tdq->pq", self.coef[:-1], self.coef[:-1])
        inv = np.linalg.inv(self.info.matrix)
        return inv @ J @ inv


def _lerp(a: float, b: float, t: float) -> float:
    """numpy's linear interpolation from ``a`` to ``b``: a + d*t below t = 0.5, b - d*(1 - t) from there."""
    d = b - a
    return a + d * t if t < 0.5 else b - d * (1.0 - t)


def _median_and_quartiles(values) -> tuple[float, float, float]:
    """The median, 75th and 25th percentiles of ``values``, as np.median and np.percentile give them.

    This computes on the sorted floats, so a report loads no ``numpy.ma``
    (numpy's median NaN check imports it).  The median is numpy's mean of
    the middle value, or of the middle pair for an even count: summed from
    +0.0, then divided by the count.  The percentiles are numpy's linear
    method: the index (n - 1) * q, then :func:`_lerp` between its
    neighbours, both the last value where the index reaches it, with the
    weight numpy gives them there.  Any NaN gives NaN for all three.  The
    results equal numpy's bit for bit, except where 0.0 and -0.0 tie at
    the positions read: numpy's zero then takes the sign of whichever one
    its partition put there.  No values raise IndexError, as in numpy.
    """
    s = [float(v) for v in values]
    if any(math.isnan(v) for v in s):
        return math.nan, math.nan, math.nan
    s.sort()
    n = len(s)
    mid = n // 2
    median = (0.0 + s[mid - 1] + s[mid]) / 2.0 if n % 2 == 0 else 0.0 + s[mid]

    def percentile(q: float) -> float:
        v = (n - 1) * q
        if v >= n - 1:
            return _lerp(s[-1], s[-1], v + 1.0)
        i = math.floor(v)
        return _lerp(s[i], s[i + 1], v - i)

    return median, percentile(0.75), percentile(0.25)


@dataclass
class RateResult:
    """Scaled estimation errors (theta_hat - theta0) / eps per noise level."""

    theta0: ThetaParams
    eps_list: list[float]
    scaled: dict[float, np.ndarray]  # eps -> (replications, p), NaN rows for failures
    failures: dict[float, int]
    limit_draws: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def iqr(self, eps: float) -> np.ndarray:
        """Per component, the interquartile range of the replications that did not fail."""
        rows = self.scaled[eps]
        rows = rows[~np.isnan(rows).any(axis=1)]
        quartiles = [_median_and_quartiles(col)[1:] for col in rows.T.tolist()]
        return np.array([q75 - q25 for q75, q25 in quartiles], dtype=float)

    def iqr_ratio(self, eps_a: float, eps_b: float) -> np.ndarray:
        return self.iqr(eps_a) / self.iqr(eps_b)

    def location_pvalues(self, eps: float) -> np.ndarray:
        """Per-component two-sample rank test of scaled errors against limit draws.

        The package's one use of scipy, imported here so that nothing else loads it.
        """
        from scipy import stats

        if self.limit_draws is None:
            raise ValueError("no limit draws were recorded")
        rows = self.scaled[eps]
        rows = rows[~np.isnan(rows).any(axis=1)]
        return np.array(
            [stats.mannwhitneyu(rows[:, j], self.limit_draws[:, j]).pvalue for j in range(rows.shape[1])]
        )


def rate_eps_levels(eps_list) -> list[float]:
    """The rate experiment's noise levels as floats; eps <= 0 is rejected, the errors being scaled by 1 / eps."""
    eps_list = [float(e) for e in eps_list]
    if any(e <= 0.0 for e in eps_list):
        bad = ", ".join(repr(e) for e in eps_list if e <= 0.0)
        raise ValueError(f"eps values must be positive; the eps = 0 row is excluded: {bad}")
    return eps_list


def rate_experiment(
    model,
    theta0: ThetaParams,
    params: SirParams,
    s0,
    eps_list,
    replications: int,
    seed: int = 0,
    est: EstimatorConfig | None = None,
    contrast_form: str = "weighted",
    n_obs: int = 100,
    substeps: int = 10,
    limit_draws: int = 2000,
    n_grid: int = DEFAULT_QUAD_STEPS,
) -> RateResult:
    """Generate-estimate loops per eps; record (theta_hat - theta0) / eps.

    Each eps level's replications are simulated in lockstep, in one
    :func:`simulate_many` call, each row bit-identical to ``simulate_sde``
    on the same noise; replication r draws its rate, noise and estimator
    stream from spawn keys (eps index, r, 0..2), so a shorter run
    reproduces the leading rows.  eps = 0 and fewer than one replication
    are rejected.  The estimator fits theta0's Fourier order; an ``est`` of
    another order is rejected before anything is simulated, and so is a
    singular information matrix when limit draws are asked for.  Each
    replication and each limit draw takes a drawn jump rate
    (:func:`levy.sample_lambda`).  Failures, a path's non-finite state
    included, are recorded as NaN rows and counted, never fatal.  Limit
    draws matching the chosen objective form are attached for
    distributional comparison.
    """
    model = get_model(model)
    eps_list = rate_eps_levels(eps_list)
    est = est or EstimatorConfig(order=theta0.order)
    if est.order != theta0.order:
        raise ValueError(f"estimator order {est.order} differs from theta0's Fourier order {theta0.order}")
    if replications < 1:
        raise ValueError(f"replications must be at least 1, got {replications!r}")
    sampler = None
    if limit_draws > 0:
        sampler = LimitSampler(model, theta0, params, s0, n_grid=n_grid, weighted=(contrast_form == "weighted"))
    theta_vec = theta0.to_vector()
    p = theta_vec.size
    dim = model.driver_dim

    scaled: dict[float, np.ndarray] = {}
    failures: dict[float, int] = {}
    for ei, eps in enumerate(eps_list):
        run_params = params.with_eps(eps)
        cfg = ContrastConfig(form=contrast_form, eps=eps)
        noises = [
            LevyPathNoise(seed_sequence(seed, ei, r, 1), sample_lambda(stream(seed, ei, r, 0)), HORIZON, dim)
            for r in range(replications)
        ]
        batch = simulate_many(model, theta0, run_params, s0, HORIZON, n_obs, noises, substeps)
        rows = np.full((replications, p), np.nan)
        fails = 0
        for r in range(replications):
            try:
                traj = batch.trajectory(r)
                result = lsgd_estimate(traj, est, BoxConstraints(), cfg, seed=stream(seed, ei, r, 2), params=run_params)
                rows[r] = (result.theta.to_vector() - theta_vec) / eps
            except (EstimationError, SimulationError, np.linalg.LinAlgError):
                fails += 1
        scaled[eps] = rows
        failures[eps] = fails

    draws = None if sampler is None else sampler.sample_many(limit_draws, seed=seed_sequence(seed, 999))
    return RateResult(
        theta0=theta0,
        eps_list=eps_list,
        scaled=scaled,
        failures=failures,
        limit_draws=draws,
        meta={"contrast_form": contrast_form, "n_obs": n_obs, "replications": replications},
    )
