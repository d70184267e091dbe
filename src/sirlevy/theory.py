"""Deterministic objects of the small-noise limit theory plus Monte-Carlo checks.

Everything here lives on the drift-only path: the information matrix is the
Gram matrix of the drift's parameter sensitivities along that path, the
asymptotic objective measures drift separation between two parameter points,
and the limit sampler draws the random variable that the noise-rescaled
estimation error approaches (a stochastic integral of the sensitivities
against the driving noise, premultiplied by the inverse information matrix).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .contrast import ContrastConfig
from .estimator import BoxConstraints, EstimationError, EstimatorConfig, lsgd_estimate
from .levy import MARK_WEIGHTS_1D, MARK_WEIGHTS_3D, MARKS_1D, MARKS_3D, LevyPathNoise, sample_lambda
from .models import SirParams, get_model, noise_coeff_numbers
from .simulate import SimulationError, Trajectory, simulate_sde, solve_ode
from .transmission import ThetaParams, beta_eval, beta_grad

DEFAULT_QUAD_STEPS = 2000


class SingularWeightError(RuntimeError):
    """Weighted quadrature along a path touching a zero state component."""


def _quadrature_weights(times: np.ndarray) -> np.ndarray:
    """Composite Simpson weights on a uniform grid (trapezoid on the last
    interval when the interval count is odd).  The oscillatory integrands here
    need the fourth-order rule for step-halving agreement at the default grid."""
    n = times.size - 1
    h = (times[-1] - times[0]) / n
    w = np.zeros(times.size)
    pairs = n // 2
    for j in range(pairs):
        w[2 * j] += h / 3.0
        w[2 * j + 1] += 4.0 * h / 3.0
        w[2 * j + 2] += h / 3.0
    if n % 2 == 1:
        w[-2] += 0.5 * h
        w[-1] += 0.5 * h
    return w


def _sensitivity_pieces(model, theta, params, s0, n_quad, horizon):
    """Path, times, beta gradient (n+1, p) and X*Y along the drift-only path."""
    path = solve_ode(model, theta, params, s0, horizon, n_quad)
    t = path.times
    xy = path.states[:, 0] * path.states[:, 1]
    return path, t, beta_grad(t, theta), xy


@dataclass
class InfoMatrix:
    matrix: np.ndarray
    theta: ThetaParams
    weighted: bool
    n_quad: int

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix).min())


def information_matrix(
    model,
    theta: ThetaParams,
    params: SirParams,
    s0,
    weighted: bool = False,
    n_quad: int = DEFAULT_QUAD_STEPS,
    horizon: float = 1.0,
) -> InfoMatrix:
    """Gram matrix of drift parameter-sensitivities along the drift-only path.

    Plain form integrates (d_i b)' (d_j b); the weighted form inserts the
    inverse diffusion matrix, which for the numbers model divides by
    (sigma*X*Y*Z)^2 and requires the path to stay off the coordinate planes.
    """
    model = get_model(model)
    pieces = _sensitivity_pieces(model, theta, params, s0, n_quad, horizon)
    return _information_from_pieces(model, theta, params, pieces, weighted, n_quad)


def _information_from_pieces(model, theta, params, pieces, weighted, n_quad) -> InfoMatrix:
    """The quadrature of :func:`information_matrix` over already solved sensitivity pieces."""
    path, t, grads, xy = pieces
    weight = 2.0 * xy**2  # |v|^2 with v = (-X*Y, X*Y, 0)
    if weighted:
        if model.tag != "numbers":
            raise ValueError("weighted information matrix requires the numbers model")
        c = noise_coeff_numbers(path.states, params)
        if np.any(c == 0.0):
            raise SingularWeightError("drift-only path touches a zero component")
        weight = weight / c**2
    w = weight * _quadrature_weights(t)
    matrix = np.einsum("t,ti,tj->ij", w, grads, grads)
    return InfoMatrix(matrix=matrix, theta=theta, weighted=weighted, n_quad=n_quad)


def asymptotic_contrast(
    model,
    theta: ThetaParams,
    theta0: ThetaParams,
    params: SirParams,
    s0,
    n_quad: int = DEFAULT_QUAD_STEPS,
    horizon: float = 1.0,
) -> float:
    """Integrated squared drift separation along the theta0 path; zero iff drifts agree."""
    model = get_model(model)
    path = solve_ode(model, theta0, params, s0, horizon, n_quad)
    t = path.times
    xy = path.states[:, 0] * path.states[:, 1]
    dbeta = beta_eval(t, theta) - beta_eval(t, theta0)
    integrand = 2.0 * (xy * dbeta) ** 2
    return float(np.sum(integrand * _quadrature_weights(t)))


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
        horizon: float = 1.0,
        weighted: bool = False,
    ):
        model = get_model(model)
        self.model = model
        self.theta0 = theta0
        self.params = params
        self.horizon = float(horizon)
        self.weighted = weighted
        # one drift-only solve feeds both the information matrix and the integrand
        pieces = _sensitivity_pieces(model, theta0, params, s0, n_grid, horizon)
        info = _information_from_pieces(model, theta0, params, pieces, weighted, n_grid)
        if abs(np.linalg.det(info.matrix)) < 1e-300:
            raise EstimationError("information matrix is singular; the limit is undefined")
        self.info = info

        path, t, grads, xy = pieces
        c = noise_coeff_numbers(path.states, params)
        if weighted:
            if np.any(c == 0.0):
                raise SingularWeightError("drift-only path touches a zero component")
            kappa = 1.0 / c
        else:
            kappa = c
        # per-node (driver_dim, p) coefficient of the driving increments
        if model.tag == "numbers":
            v = np.stack([-xy, xy, np.zeros_like(xy)], axis=-1)  # (n+1, 3)
            coef = kappa[:, None, None] * v[:, :, None] * grads[:, None, :]
        else:
            # scalar driver: column (-1, 2, -1) contracted with v gives 3*X*Y
            proj = 3.0 * xy * kappa
            coef = (proj[:, None] * grads)[:, None, :]
        self.times = t
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
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        rng = np.random.Generator(np.random.Philox(seed))
        out = np.zeros(self.p)
        if include_brownian:
            dB = rng.standard_normal((self.coef.shape[0] - 1, self.dim)) * np.sqrt(self.dt)
            out += np.einsum("td,tdp->p", dB, self.coef[:-1])
        if include_jumps:
            rate = sample_lambda(rng) if lam is None else lam
            count = int(rng.poisson(rate * self.horizon))
            if count:
                taus = rng.uniform(0.0, self.horizon, size=count)
                marks, weights = (MARKS_3D, MARK_WEIGHTS_3D) if self.dim == 3 else (MARKS_1D, MARK_WEIGHTS_1D)
                idx = rng.choice(len(marks), size=count, p=weights)
                for tau, j in zip(taus, idx):
                    out += marks[j] @ self._interp_coef(tau)
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


def sample_limit_rv(
    model,
    theta0: ThetaParams,
    params: SirParams,
    s0,
    seed,
    lam: float | None = None,
    n_grid: int = DEFAULT_QUAD_STEPS,
    weighted: bool = False,
    include_brownian: bool = True,
    include_jumps: bool = True,
) -> np.ndarray:
    """One draw of the limiting random variable of the rescaled estimation error."""
    sampler = LimitSampler(model, theta0, params, s0, n_grid=n_grid, weighted=weighted)
    return sampler.sample(seed, lam, include_brownian, include_jumps)


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
        rows = self.scaled[eps]
        rows = rows[~np.isnan(rows).any(axis=1)]
        q75, q25 = np.percentile(rows, [75, 25], axis=0)
        return q75 - q25

    def iqr_ratio(self, eps_a: float, eps_b: float) -> np.ndarray:
        return self.iqr(eps_a) / self.iqr(eps_b)

    def location_pvalues(self, eps: float) -> np.ndarray:
        """Per-component two-sample rank test of scaled errors against limit draws."""
        if self.limit_draws is None:
            raise ValueError("no limit draws were recorded")
        rows = self.scaled[eps]
        rows = rows[~np.isnan(rows).any(axis=1)]
        return np.array(
            [stats.mannwhitneyu(rows[:, j], self.limit_draws[:, j]).pvalue for j in range(rows.shape[1])]
        )


def rate_experiment(
    model,
    theta0: ThetaParams,
    params: SirParams,
    s0,
    eps_list,
    replications: int,
    seed: int = 0,
    est: EstimatorConfig | None = None,
    box: BoxConstraints | None = None,
    contrast_form: str = "weighted",
    n_obs: int = 100,
    substeps: int = 10,
    limit_draws: int = 2000,
    n_grid: int = DEFAULT_QUAD_STEPS,
    lam: float | None = None,
) -> RateResult:
    """Generate-estimate loops per eps; record (theta_hat - theta0) / eps.

    eps = 0 is rejected (the scaling is undefined there).  Estimation failures
    are recorded as NaN rows and counted, never fatal.  Limit draws matching
    the chosen objective form are attached for distributional comparison.
    ``lam`` fixes the jump rate for data and limit draws alike (default: drawn
    uniformly from {1, 2, 3, 4} per replication and per draw).
    """
    model = get_model(model)
    eps_list = [float(e) for e in eps_list]
    if any(e <= 0.0 for e in eps_list):
        raise ValueError("eps values must be positive; the eps = 0 row is excluded")
    est = est or EstimatorConfig()
    box = box or BoxConstraints()
    theta_vec = theta0.to_vector()
    p = theta_vec.size

    scaled: dict[float, np.ndarray] = {}
    failures: dict[float, int] = {}
    for ei, eps in enumerate(eps_list):
        run_params = params.with_eps(eps)
        cfg = ContrastConfig(form=contrast_form, eps=eps)
        rows = np.full((replications, p), np.nan)
        fails = 0
        for r in range(replications):
            gen_rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(ei, r, 0)))
            )
            rate = sample_lambda(gen_rng) if lam is None else lam
            noise_seed = np.random.SeedSequence(entropy=seed, spawn_key=(ei, r, 1))
            est_rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(ei, r, 2)))
            )
            try:
                noise = LevyPathNoise(noise_seed, rate, 1.0, model.driver_dim)
                traj = simulate_sde(model, theta0, run_params, s0, 1.0, n_obs, noise, substeps)
                result = lsgd_estimate(traj, est, box, cfg, seed=est_rng, params=run_params)
                rows[r] = (result.theta.to_vector() - theta_vec) / eps
            except (EstimationError, SimulationError, np.linalg.LinAlgError):
                fails += 1
        scaled[eps] = rows
        failures[eps] = fails

    draws = None
    if limit_draws > 0:
        sampler = LimitSampler(
            model, theta0, params, s0, n_grid=n_grid, weighted=(contrast_form == "weighted")
        )
        draws = sampler.sample_many(
            limit_draws, seed=np.random.SeedSequence(entropy=seed, spawn_key=(999,)), lam=lam
        )
    return RateResult(
        theta0=theta0,
        eps_list=eps_list,
        scaled=scaled,
        failures=failures,
        limit_draws=draws,
        meta={"contrast_form": contrast_form, "n_obs": n_obs, "replications": replications},
    )
