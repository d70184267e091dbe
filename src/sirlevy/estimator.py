"""Least-squares estimation of the transmission parameters.

The objective is a convex quadratic in (base, cos_k, sin_k) once the period
is fixed, so the estimator searches the period axis over M uniform cells,
drawing one test period per cell and minimizing over the remaining
coefficients there.  That minimization is exact under the box and all
cells are solved in one batch (:meth:`AlphaProfile.solve_many`: the
normal-equations solution when it is inside, else a KKT-certified face,
else face enumeration).  Projected gradient descent (:func:`pgd_alpha`),
the paper's solver, is kept as the reference the exact solve is checked
against; the estimator does not call it.  With the coefficients solved
exactly at every period, the joint fit is a one-dimensional search over
the profile objective in the period (variable projection): a frequency
scan on a uniform lattice (:func:`_scan_lattice`, ranked from one FFT's
trig moments by :meth:`AlphaProfile.scan`) finds the basin, and one
safeguarded Newton search on the profile's slope in the frequency
(:func:`_newton_search`; slope, value and curvature from the trig moments
at one frequency, :meth:`AlphaProfile.expand`) places the period beyond
the lattice spacing: Newton's steps from the vertex of the parabola
through the scan's winner and its neighbours, and bisection in the same
bracket where a step fails.  The cells and the located period are solved
again from the design in one batch, and the winning table entry is
updated in place so the reported objective is the table minimum.
"""

from __future__ import annotations

import math
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
from .levy import _make_rng
from .models import SirParams
from .simulate import Trajectory
from .transmission import PERIOD_FLOOR, ThetaParams

# step settings of the reference solver (pgd_quadratic)
_ETA0 = 1e-2  # initial learning rate; backtracking adapts it
_BACKTRACK = 0.5
_ARMIJO = 1e-4
_ETA_MIN = 1e-300
_PGD_TOL = 1e-11  # curvature-scaled projected-gradient tolerance
# the period search stops when its step is this small relative to the bracket's top
_SEARCH_XTOL = 1e-12
# the evaluations Newton's steps may take before the search bisects, and the search's cap
_NEWTON_MAXITER = 6
_SEARCH_MAXITER = 100


class EstimationError(RuntimeError):
    pass


@dataclass(frozen=True)
class BoxConstraints:
    """Componentwise bounds: period in [floor, 1], base > 0, oscillation >= 0."""

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

    def contains(self, vec) -> bool:
        """Whether a parameter vector lies in the box; its order is taken from its length."""
        v = np.asarray(vec, dtype=float)
        lower, upper = self.theta_bounds((v.size - 2) // 2)
        return bool(np.all(v >= lower) and np.all(v <= upper))


def default_alpha_init(order: int = 1) -> np.ndarray:
    """Conventional starting coefficients (0.51, 0.31, 0.21), replicated per harmonic."""
    return np.array([0.51] + [0.31] * order + [0.21] * order)


@dataclass(frozen=True)
class EstimatorConfig:
    cells: int = 20  # M, the number of period line-search cells
    order: int = 1

    def __post_init__(self):
        if self.cells < 1 or self.order < 1:
            raise ValueError("invalid estimator configuration")


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
    refined: bool = False


@dataclass
class EstimationResult:
    theta: ThetaParams
    objective: float
    cells: list[CellResult] = field(default_factory=list)
    converged: bool = True  # the exact solves always converge; kept for the results column
    refine_iterations: int = 0  # profile evaluations of the period search


def pgd_alpha(
    traj: Trajectory,
    period: float,
    params: SirParams | None = None,
    cfg: ContrastConfig | None = None,
    box: BoxConstraints | None = None,
    start: np.ndarray | None = None,
    order: int = 1,
) -> AlphaSolve:
    """Projected gradient descent on the coefficients at a fixed period.

    The paper's inner solver, kept as the reference for the exact solve.
    Backtracking halves the step until sufficient decrease, then the step is
    allowed to grow again; accepted iterates never increase the objective.
    Convergence is declared when the curvature-scaled projected-gradient map
    is below tolerance.
    """
    box = box or BoxConstraints()
    quad = alpha_quadratic(traj, period, params, cfg, order=order)
    lo, hi = box.alpha_bounds(order)
    return pgd_quadratic(quad, lo, hi, start)


def pgd_quadratic(
    quad: AlphaQuadratic,
    lo: np.ndarray,
    hi: np.ndarray,
    start: np.ndarray | None = None,
    max_iter: int = 50_000,
) -> AlphaSolve:
    """The descent of :func:`pgd_alpha` on a given quadratic and bounds.

    Starts from ``start``, by default :func:`default_alpha_init`, clipped
    into the bounds.
    """
    alpha = np.clip(start if start is not None else default_alpha_init(quad.order), lo, hi)
    curv = quad.lipschitz()
    if curv <= 0.0:
        # objective does not depend on the coefficients (e.g. X*Y identically 0)
        return AlphaSolve(alpha, quad.value(alpha), 0, True)

    f = quad.value(alpha)
    eta = _ETA0
    history = [f]
    for it in range(1, max_iter + 1):
        g = quad.grad(alpha)
        pg = alpha - np.clip(alpha - g / curv, lo, hi)
        if np.abs(pg).max() <= _PGD_TOL * (1.0 + np.abs(alpha).max()):
            return AlphaSolve(alpha, f, it - 1, True, history)
        accepted = False
        while eta >= _ETA_MIN:
            cand = np.clip(alpha - eta * g, lo, hi)
            step = alpha - cand
            gstep = g @ step
            if gstep <= 0.0:
                break  # projection blocks every direction: stationary
            fc = quad.value(cand)
            if fc <= f - _ARMIJO * gstep:
                accepted = True
                break
            eta *= _BACKTRACK
        if not accepted:
            return AlphaSolve(alpha, f, it, True, history)
        alpha, f = cand, fc
        history.append(f)
        eta *= 2.0
    return AlphaSolve(alpha, f, max_iter, False, history)


def _scan_lattice(profile: AlphaProfile, box) -> np.ndarray:
    """The scan's points j, ascending: the lattice f_j = j df in [1/box.period[1], 1/box.period[0]], j < 2Kn.

    A single test period per cell cannot land inside the objective's basin
    when the true period is small: phase coherence over the horizon T = n dt
    bounds the basin half-width by roughly period^2 / (2 K T).  Scanning a
    uniform frequency lattice of spacing df = 1/(4KT) (:attr:`AlphaProfile.df`,
    a quarter cycle of the highest harmonic across the horizon) makes the
    capture probability independent of the period.  The lattice stops one
    point below the observation Nyquist frequency n / (2T) = 2Kn df.  There
    the sine columns vanish on a grid from t = 0, so the gram is singular and
    its clipped value ranks a fit to rounding noise.  Above it the grid
    cannot tell a frequency from its aliases, and the box tells them apart
    only in part: its osc >= 0 excludes the sign-flipped alias 1/dt - f (the
    same cos column, the sin column negated), while the same-sign aliases
    f +- k/dt (the same columns) stay in the box.
    """
    j = np.arange(1, 2 * profile.order * profile.t.size)
    f = j * profile.df
    return j[(f >= 1.0 / box.period[1]) & (f <= 1.0 / box.period[0])]


def _locate_frequency(profile: AlphaProfile, box) -> tuple[float | None, int]:
    """The scan's winner sharpened by the period search: (frequency, profile evaluations), None without scan points.

    Scan points (:func:`_scan_lattice`) are ranked by the clipped
    normal-equations value (:meth:`AlphaProfile.scan`, evaluated from trig
    moments), the first of equal values winning.  The search
    (:func:`_newton_search`) runs in frequency, since the basin is narrow at
    small periods, inside the scan bracket (the winner's lattice neighbours,
    within the box).  It starts at the vertex of the parabola through the
    winner's and its neighbours' values, at most half a lattice step from
    the winner; at an end of the lattice, or where that parabola is not
    convex, at the winner.
    """
    j = _scan_lattice(profile, box)
    if not j.size:
        return None, 0
    lo, hi = box.alpha_bounds(profile.order)
    df = profile.df
    values = profile.scan(j, lo, hi)[1]
    k = int(np.argmin(values))
    f_best = float(j[k] * df)
    start = f_best
    if 0 < k < j.size - 1:
        left, mid, right = values[k - 1 : k + 2].tolist()
        bend = left - 2.0 * mid + right
        if bend > 0.0:
            start += min(max(0.5 * (left - right) / bend, -0.5), 0.5) * df
    f_lo = max(f_best - df, 1.0 / box.period[1])
    f_hi = min(f_best + df, 1.0 / box.period[0])
    return _newton_search(profile, box, f_lo, f_hi, start)


def _expand(profile: AlphaProfile, box, f: float, seen: list) -> float:
    """The profile's slope at ``f``, recording (value, f, slope) in ``seen``; a non-finite slope or value raises."""
    slope, value, _ = profile.expand(f, box)
    if not math.isfinite(slope + value):
        raise EstimationError(f"non-finite profile slope or value at frequency {f!r}")
    seen.append((value, f, slope))
    return slope


def _newton_search(profile: AlphaProfile, box, lo: float, hi: float, start: float) -> tuple[float, int]:
    """Minimize the profile over the frequencies [lo, hi] by safeguarded Newton steps on its slope from ``start``.

    Every evaluation is :meth:`AlphaProfile.expand` (the profile's slope,
    value and curvature from trig moments at one frequency), and each
    slope's sign shrinks the bracket [a, b].  The search returns x - step
    once a Newton step (slope over curvature) is below ``_SEARCH_XTOL``
    times ``hi``.  Newton's steps run free until one leaves the bracket,
    the curvature is not positive and finite, or ``_NEWTON_MAXITER``
    evaluations pass; the search then keeps its bracket (``rtsafe``, Press
    et al., Numerical Recipes 9.4).  It evaluates an end only where no slope
    has closed that side.  Where the slope is negative at a and positive at
    b, it bisects, taking Newton's step only where that stays inside the
    bracket and is at most half the step before the last, and returns the
    midpoint once half the bracket is below the tolerance; without a sign
    change it returns the evaluated point of lowest value.  A non-finite
    slope or value, or ``_SEARCH_MAXITER`` evaluations, raise
    :class:`EstimationError`.  Returns the frequency and the number of
    profile evaluations.
    """
    xtol = _SEARCH_XTOL * hi
    a, b, x = lo, hi, start
    seen = []  # (value, frequency, slope) of every evaluation
    free = True  # Newton's steps not yet safeguarded
    step = step_old = hi - lo
    while True:
        # _expand's work, inline on the hot path
        slope, value, curvature = profile.expand(x, box)
        if not math.isfinite(slope + value):
            raise EstimationError(f"non-finite profile slope or value at frequency {x!r}")
        seen.append((value, x, slope))
        if slope < 0.0:
            a = x
        elif slope > 0.0:
            b = x
        newton = slope / curvature if 0.0 < curvature < math.inf else math.inf
        if abs(newton) < xtol:
            return x - newton, len(seen)
        if free:
            if a < x - newton < b and len(seen) < _NEWTON_MAXITER:
                x -= newton
                continue
            # the bracket's sides that no slope has closed are closed at their ends, or the search ends
            free = False
            closed_lo, closed_hi = any(s < 0.0 for *_, s in seen), any(s > 0.0 for *_, s in seen)
            if not closed_lo:
                closed_lo = _expand(profile, box, lo, seen) < 0.0
            if not closed_hi:
                closed_hi = _expand(profile, box, hi, seen) > 0.0
            if not (closed_lo and closed_hi):
                return min(seen)[1], len(seen)
        safe = a < x - newton < b and 2.0 * abs(newton) <= abs(step_old)
        step_old, step = step, newton if safe else x - 0.5 * (a + b)
        x -= step
        if abs(step) < xtol:
            return x, len(seen)
        if len(seen) >= _SEARCH_MAXITER:
            raise EstimationError(f"the period search did not converge in {_SEARCH_MAXITER} evaluations")


def lsgd_estimate(
    traj: Trajectory,
    est: EstimatorConfig | None = None,
    box: BoxConstraints | None = None,
    cfg: ContrastConfig | None = None,
    seed: int | np.random.Generator = 0,
    params: SirParams | None = None,
) -> EstimationResult:
    """Line-search over period cells with exact inner solves, and a period search.

    Cell i tests one period drawn uniformly from ((i-1)/M, i/M); all cells
    are solved exactly under the box in one batch, resonant (rank-deficient)
    test periods included.  A dense frequency scan and a safeguarded Newton
    search on the profile's slope in the frequency locate the period first
    (:func:`_locate_frequency`), so that it is solved in the cells' batch;
    its exact solve gives the coefficients when it beats the best cell.  The
    objective there is evaluated from the residuals by :func:`contrast_value`.
    The entry of the cell holding that point is replaced by it and marked
    ``refined``, so the reported objective equals the minimum over the
    cells; the other cells keep their drawn periods and exact solves.  A
    non-finite profile slope or value in the search raises
    :class:`EstimationError`.  ``params`` and ``cfg`` default as in
    :func:`alpha_profile`.
    """
    est = est or EstimatorConfig()
    box = box or BoxConstraints()
    try:
        profile = alpha_profile(traj, params, cfg, order=est.order)
    except DegenerateWeightsError as err:
        raise EstimationError(
            f"weighted objective is identically zero (degenerate noise weights); cannot estimate: {err}"
        ) from err
    rng = _make_rng(seed)

    m = est.cells
    draws = rng.uniform(np.arange(m) / m, np.arange(1, m + 1) / m)  # cell i draws from ((i-1)/M, i/M)
    periods = np.clip(draws, box.period[0], box.period[1]).tolist()
    f_star, refine_iters = _locate_frequency(profile, box)
    located = [] if f_star is None else [min(max(1.0 / f_star, box.period[0]), box.period[1])]
    # the cells and the located period in one batch, whose rows are solved alone
    alphas, values = profile.solve_many(periods + located, box)
    cells = [
        CellResult(i, period, alpha, value)
        for i, (period, alpha, value) in enumerate(zip(periods, alphas, values), start=1)
    ]

    best = min(cells, key=lambda c: (c.value, c.index))
    # the better of the best cell and the located period, the cell on a tie
    candidates = [(best.period, best.alpha, best.value), *zip(located, alphas[m:], values[m:])]
    period, alpha, _ = min(candidates, key=lambda c: c[2])
    theta_vec = np.concatenate([[period], alpha])
    theta = ThetaParams.from_vector(theta_vec)
    # the reported objective is evaluated from the residuals
    value = contrast_value(traj, theta, params, cfg)
    # the refined point replaces the entry of the cell that contains it
    home = cells[min(max(int(np.ceil(theta_vec[0] * m)), 1), m) - 1]
    home.period = float(theta_vec[0])
    home.alpha = theta_vec[1:].copy()
    home.value = value
    home.refined = True
    return EstimationResult(
        theta=theta,
        objective=value,
        cells=cells,
        refine_iterations=refine_iters,
    )
