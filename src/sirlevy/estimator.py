"""Least-squares estimation of the transmission parameters.

The objective is a convex quadratic in (base, cos_k, sin_k) once the period
is fixed, so the estimator searches the period axis over M uniform cells,
drawing one test period per cell and minimizing over the remaining
coefficients there.  By default that minimization is exact under the box
and all cells are solved in one batch (:meth:`AlphaProfile.solve_many`: the
normal-equations solution when it is inside, else a KKT-certified face, else
face enumeration); projected gradient descent (:func:`pgd_alpha`), the
paper's solver, stays available as the reference behind
``inner_solver="pgd"``.  With the coefficients solved exactly at every
period, the joint fit is a one-dimensional search over the profile objective
in the period (variable projection): a dense frequency scan over the ranked
cells finds the basin, and a golden-section search on the exact profile value
places the period beyond the cell resolution.  The winning table entry is
updated in place so the reported objective is the table minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contrast import (
    AlphaProfile,
    AlphaQuadratic,
    ContrastConfig,
    DegenerateWeightsError,
    alpha_profile,
    alpha_quadratic,
    contrast_gradient,  # noqa: F401  (bench/spans.py instruments these two at this module)
    contrast_value,
    linear_solve_alpha,  # noqa: F401
)
from .models import SirParams
from .simulate import Trajectory
from .transmission import PERIOD_FLOOR, ThetaParams

_ETA_MIN = 1e-300


class EstimationError(RuntimeError):
    pass


@dataclass(frozen=True)
class BoxConstraints:
    """Componentwise bounds: period in (floor, 1], base > 0, oscillation >= 0."""

    period: tuple[float, float] = (PERIOD_FLOOR, 1.0)
    base: tuple[float, float] = (1e-6, 2.0)
    osc: tuple[float, float] = (0.0, 2.0)

    def __post_init__(self):
        for lo, hi in (self.period, self.base, self.osc):
            if lo > hi:
                raise ValueError("lower bounds must not exceed upper bounds")
        if self.period[0] < PERIOD_FLOOR:
            raise ValueError(f"period lower bound must be >= {PERIOD_FLOOR}")

    def theta_bounds(self, order: int = 1) -> tuple[np.ndarray, np.ndarray]:
        lower = np.array([self.period[0], self.base[0]] + [self.osc[0]] * (2 * order))
        upper = np.array([self.period[1], self.base[1]] + [self.osc[1]] * (2 * order))
        return lower, upper

    def alpha_bounds(self, order: int = 1) -> tuple[np.ndarray, np.ndarray]:
        lower, upper = self.theta_bounds(order)
        return lower[1:], upper[1:]

    def contains(self, vec, order: int = 1) -> bool:
        lower, upper = self.theta_bounds(order)
        v = np.asarray(vec, dtype=float)
        return bool(np.all(v >= lower) and np.all(v <= upper))


def project_box(theta_raw, box: BoxConstraints) -> ThetaParams:
    """Componentwise clamp of a raw parameter vector onto the box."""
    vec = theta_raw.to_vector() if isinstance(theta_raw, ThetaParams) else np.asarray(theta_raw, dtype=float)
    if not np.all(np.isfinite(vec)):
        raise ValueError("cannot project a non-finite parameter vector")
    order = (vec.size - 2) // 2
    lower, upper = box.theta_bounds(order)
    return ThetaParams.from_vector(np.clip(vec, lower, upper))


def default_alpha_init(order: int = 1) -> np.ndarray:
    """Conventional starting coefficients (0.51, 0.31, 0.21), replicated per harmonic."""
    return np.array([0.51] + [0.31] * order + [0.21] * order)


@dataclass(frozen=True)
class EstimatorConfig:
    cells: int = 20  # M, the number of period line-search cells
    # settings of the reference solver (pgd_alpha / pgd_quadratic) only
    eta0: float = 1e-2  # initial learning rate; backtracking adapts it
    backtrack: float = 0.5
    armijo: float = 1e-4
    max_inner_iter: int = 50_000
    inner_tol: float = 1e-11  # curvature-scaled projected-gradient tolerance
    # "linear": exact coefficient solve under the box | "pgd": the paper's
    # projected gradient descent, kept as the reference solver
    inner_solver: str = "linear"
    alpha_init: tuple[float, ...] | None = None
    refine: bool = True  # scan plus golden-section search after the cells
    scan_cells: int | None = None  # top-ranked cells getting the dense period scan; None = all
    order: int = 1

    def __post_init__(self):
        if self.cells < 1 or self.eta0 <= 0.0 or not 0.0 < self.backtrack < 1.0:
            raise ValueError("invalid estimator configuration")
        if self.inner_solver not in ("linear", "pgd"):
            raise ValueError(f"unknown inner solver {self.inner_solver!r}")

    def alpha_start(self) -> np.ndarray:
        if self.alpha_init is not None:
            start = np.asarray(self.alpha_init, dtype=float)
            if start.size != 2 * self.order + 1:
                raise ValueError("alpha_init length must be 2*order + 1")
            return start
        return default_alpha_init(self.order)


@dataclass
class AlphaSolve:
    alpha: np.ndarray
    value: float
    iterations: int
    converged: bool
    history: list[float] = field(default_factory=list)  # objective at accepted iterates


@dataclass
class CellResult:
    index: int  # 1-based cell index
    period: float
    alpha: np.ndarray
    value: float
    iterations: int
    converged: bool
    refined: bool = False


@dataclass
class EstimationResult:
    theta: ThetaParams
    objective: float
    cells: list[CellResult] = field(default_factory=list)
    converged: bool = True
    refine_iterations: int = 0  # golden-section iterations
    degenerate: bool = False

    @property
    def table(self) -> list[tuple[float, float]]:
        return [(c.period, c.value) for c in self.cells]


def pgd_alpha(
    traj: Trajectory,
    period: float,
    params: SirParams | None = None,
    cfg: ContrastConfig | None = None,
    est: EstimatorConfig | None = None,
    box: BoxConstraints | None = None,
    start: np.ndarray | None = None,
) -> AlphaSolve:
    """Projected gradient descent on the coefficients at a fixed period.

    Backtracking halves the step until sufficient decrease, then the step is
    allowed to grow again; accepted iterates never increase the objective.
    Convergence is declared when the curvature-scaled projected-gradient map
    is below tolerance.
    """
    est = est or EstimatorConfig()
    box = box or BoxConstraints()
    quad = alpha_quadratic(traj, period, params, cfg, order=est.order)
    lo, hi = box.alpha_bounds(est.order)
    return pgd_quadratic(quad, lo, hi, est, start)


def pgd_quadratic(
    quad: AlphaQuadratic,
    lo: np.ndarray,
    hi: np.ndarray,
    est: EstimatorConfig | None = None,
    start: np.ndarray | None = None,
) -> AlphaSolve:
    """The descent of :func:`pgd_alpha` on a given quadratic and bounds."""
    est = est or EstimatorConfig()
    alpha = np.clip(start if start is not None else est.alpha_start(), lo, hi)
    curv = quad.lipschitz()
    if curv <= 0.0:
        # objective does not depend on the coefficients (e.g. X*Y identically 0)
        return AlphaSolve(alpha, quad.value(alpha), 0, True)

    f = quad.value(alpha)
    eta = est.eta0
    history = [f]
    for it in range(1, est.max_inner_iter + 1):
        g = quad.grad(alpha)
        pg = alpha - np.clip(alpha - g / curv, lo, hi)
        if np.abs(pg).max() <= est.inner_tol * (1.0 + np.abs(alpha).max()):
            return AlphaSolve(alpha, f, it - 1, True, history)
        accepted = False
        while eta >= _ETA_MIN:
            cand = np.clip(alpha - eta * g, lo, hi)
            step = alpha - cand
            gstep = g @ step
            if gstep <= 0.0:
                break  # projection blocks every direction: stationary
            fc = quad.value(cand)
            if fc <= f - est.armijo * gstep:
                accepted = True
                break
            eta *= est.backtrack
        if not accepted:
            return AlphaSolve(alpha, f, it, True, history)
        alpha, f = cand, fc
        history.append(f)
        eta *= 2.0
    return AlphaSolve(alpha, f, est.max_inner_iter, False, history)


def _scan_frequencies(traj, cells, est, box) -> tuple[np.ndarray, float]:
    """Dense scan grid over the best-ranked cells, best cell first; returns (frequencies, spacing).

    A single test period per cell cannot land inside the objective's basin
    when the true period is small: phase coherence over the horizon T bounds
    the basin half-width by roughly period^2 / (2 T).  Scanning each top cell
    on a uniform frequency grid (spacing 1/(4T), a quarter cycle across the
    horizon) makes the capture probability independent of the period, and the
    grid is capped at the observation Nyquist frequency, below which no period
    is distinguishable from its aliases anyway.
    """
    horizon = float(traj.times[-1] - traj.times[0])
    m = len(cells)
    f_cap = traj.n_intervals / (2.0 * horizon)
    df = 1.0 / (4.0 * horizon)
    ranked = sorted(cells, key=lambda c: (c.value, c.index))
    if est.scan_cells is not None:
        ranked = ranked[: est.scan_cells]
    grids = []
    for cell in ranked:
        lo_p = max((cell.index - 1) / m, box.period[0])
        hi_p = min(cell.index / m, box.period[1])
        f_lo = 1.0 / hi_p
        f_hi = min(1.0 / lo_p, f_cap)
        if f_hi <= f_lo:
            continue  # the whole cell is below the resolvable period range
        n_scan = max(2, int(np.ceil((f_hi - f_lo) / df)) + 1)
        grids.append(np.linspace(f_lo, f_hi, n_scan))
    return (np.concatenate(grids) if grids else np.empty(0)), df


def _scan_top_cells(traj, profile: AlphaProfile, cells, params, cfg, est, box, best):
    """Dense period scan over the best-ranked cells; returns (period, alpha, value, iterations).

    Scan points are ranked by the clipped normal-equations value, the first
    of equal values winning; a golden-section search on the exact profile
    value sharpens the winner, and the cell solver re-solves it.  The better
    of that point and the best cell is returned.
    """
    freqs, df = _scan_frequencies(traj, cells, est, box)
    candidates = [(best.period, best.alpha, best.value)]
    iterations = 0
    if freqs.size:
        lo, hi = box.alpha_bounds(est.order)
        f_best = freqs[np.argmin(profile.scan(1.0 / freqs, lo, hi)[1])]
        # the basin is narrow at small periods, so the search runs in frequency
        f_star, iterations = _golden_section(lambda f: profile.solve(1.0 / f, box)[1], f_best - df, f_best + df)
        period = min(max(1.0 / f_star, box.period[0]), box.period[1])
        sol = _solve_cells(traj, profile, [period], params, cfg, est, box)[0]
        candidates.append((period, sol.alpha, sol.value))
    return (*min(candidates, key=lambda c: c[2]), iterations)


def _golden_section(fun, lo: float, hi: float, iters: int = 80) -> tuple[float, int]:
    """Minimize a scalar function on [lo, hi]; deterministic, derivative-free.

    Returns the midpoint of the final bracket and the iterations taken.
    """
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    it = 0
    for it in range(1, iters + 1):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
        if b - a < 1e-12 * max(1.0, abs(a)):
            break
    return (a + b) / 2.0, it


def _solve_cells(traj, profile: AlphaProfile, periods, params, cfg, est, box) -> list[AlphaSolve]:
    if est.inner_solver == "pgd":
        return [pgd_alpha(traj, period, params, cfg, est, box) for period in periods]
    # exact under the box, resonant (rank-deficient) test periods included
    alphas, values = profile.solve_many(periods, box)
    return [AlphaSolve(alpha, value, 0, True) for alpha, value in zip(alphas, values)]


def lsgd_estimate(
    traj: Trajectory,
    est: EstimatorConfig | None = None,
    box: BoxConstraints | None = None,
    cfg: ContrastConfig | None = None,
    seed: int | np.random.Generator = 0,
    params: SirParams | None = None,
) -> EstimationResult:
    """Line-search over period cells with exact inner solves, then a period search.

    Cell i tests one period drawn uniformly from ((i-1)/M, i/M); all cells
    are solved in one batch.  The best cell seeds a dense frequency scan and
    a golden-section search on the exact profile objective in the period,
    whose cell solve gives the coefficients (with ``inner_solver="pgd"`` they
    are re-solved exactly); the objective there is evaluated from the
    residuals.  The table entry of the cell holding the refined point is
    replaced by it, so the reported objective equals the table minimum.
    """
    est = est or EstimatorConfig()
    box = box or BoxConstraints()
    if params is None:
        params = traj.params
    if params is None:
        raise ValueError("params not given and trajectory carries none")
    if cfg is None:
        cfg = ContrastConfig(form="plain", eps=params.eps)
    try:
        profile = alpha_profile(traj, params, cfg, order=est.order)
    except DegenerateWeightsError as err:
        raise EstimationError(
            "weighted objective is identically zero (degenerate noise weights); cannot estimate"
        ) from err
    rng = seed if isinstance(seed, np.random.Generator) else np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed))
    )

    m = est.cells
    periods = [float(rng.uniform((i - 1) / m, i / m)) for i in range(1, m + 1)]
    periods = [min(max(period, box.period[0]), box.period[1]) for period in periods]
    sols = _solve_cells(traj, profile, periods, params, cfg, est, box)
    cells = [
        CellResult(i, period, sol.alpha, sol.value, sol.iterations, sol.converged)
        for i, (period, sol) in enumerate(zip(periods, sols), start=1)
    ]

    best = min(cells, key=lambda c: (c.value, c.index))
    theta_vec = np.concatenate([[best.period], best.alpha])
    refine_iters = 0
    converged = all(c.converged for c in cells)
    value = best.value

    if est.refine:
        period, alpha, _, refine_iters = _scan_top_cells(traj, profile, cells, params, cfg, est, box, best)
        if est.inner_solver == "pgd":
            # the reference solver stops at its tolerance; solve the coefficients exactly
            alpha = profile.solve(period, box)[0]
        theta_vec = np.concatenate([[period], alpha])
        # the reported objective is evaluated from the residuals
        value = contrast_value(traj, ThetaParams.from_vector(theta_vec), params, cfg)
        # the refined point replaces the entry of the cell that contains it
        home = cells[min(max(int(np.ceil(theta_vec[0] * m)), 1), m) - 1]
        home.period = float(theta_vec[0])
        home.alpha = theta_vec[1:].copy()
        home.value = value
        home.refined = True

    theta = ThetaParams.from_vector(theta_vec)
    return EstimationResult(
        theta=theta,
        objective=value,
        cells=cells,
        converged=converged,
        refine_iterations=refine_iters,
    )
