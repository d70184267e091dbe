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
trig moments by :meth:`AlphaProfile.scan`) finds the basin, and Newton
steps on the profile's slope in the frequency (:func:`_newton_search`;
slope and curvature from the trig moments at one frequency,
:meth:`AlphaProfile.expand`) place the period beyond the lattice spacing,
from the vertex of the parabola through the scan's winner and its
neighbours.  Where Newton's steps fail, Brent's method on the scan bracket
(:func:`_envelope_search`) takes the whole search over.  The cells and the
located period are solved again from the design in one batch, and the
winning table entry is updated in place so the reported objective is the
table minimum.  Brent's method is :func:`_brentq`, a port of scipy's
``brentq`` that takes its steps exactly, so the estimator loads no scipy
module.
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
# the period search stops when its frequency bracket is this narrow relative to the bracket's top
_SEARCH_XTOL = 1e-12
# Brent's method: relative tolerance and iteration cap of the zero search (fixed)
_BRENT_RTOL = 4 * math.ulp(1.0)  # 4 * DBL_EPSILON
_BRENT_MAXITER = 100
# Newton's method on the slope: the evaluations it may take before Brent's method takes over
_NEWTON_MAXITER = 6


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
    moments), the first of equal values winning.  The search runs in
    frequency, since the basin is narrow at small periods, inside the scan
    bracket (the winner's lattice neighbours) and the box.  It starts at the
    vertex of the parabola through the winner's and its neighbours' values,
    at most half a lattice step from the winner; at an end of the lattice,
    or where that parabola is not convex, at the winner.
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


def _newton_search(profile: AlphaProfile, box, lo: float, hi: float, start: float) -> tuple[float, int]:
    """Minimize the profile over the frequencies [lo, hi] by Newton steps on its slope from ``start``.

    Every evaluation is :meth:`AlphaProfile.expand`: the profile's slope and
    curvature from trig moments at one frequency.  Each one tightens the
    bracket by the sign of the slope; the step is slope over curvature, and
    the search returns x - step once the step is below Brent's tolerance,
    ``_SEARCH_XTOL`` times ``hi``.  A curvature that is not positive, a
    non-finite value, a step that leaves the bracket or ``_NEWTON_MAXITER``
    evaluations hand the whole search to :func:`_envelope_search` on
    [lo, hi], which then returns what it would have alone.  Returns the
    frequency and the number of profile evaluations, Newton's and Brent's.
    """
    xtol = _SEARCH_XTOL * hi
    a, b, x = lo, hi, start
    for evaluations in range(1, _NEWTON_MAXITER + 1):
        slope, value, curvature = profile.expand(x, box)
        if not (curvature > 0.0 and math.isfinite(slope + value + curvature)):
            break
        if slope < 0.0:
            a = x
        elif slope > 0.0:
            b = x
        step = slope / curvature
        if abs(step) < xtol:
            return x - step, evaluations
        x -= step
        if not a < x < b:
            break
    f_star, more = _envelope_search(profile, box, lo, hi)
    return f_star, evaluations + more


def _brentq(f, xa: float, fa: float, xb: float, fb: float, xtol: float) -> tuple[float, int]:
    """Zero of ``f`` in [xa, xb] by Brent's method; returns (root, function calls).

    A port of scipy's ``brentq.c`` taking its steps exactly, with its
    defaults ``rtol = 4 * DBL_EPSILON`` and 100 iterations.  The end values
    ``fa`` and ``fb`` are given and counted as its first two calls.  A
    non-finite value, ends of equal sign or a search that does not converge
    raise :class:`EstimationError`.
    """
    xpre, fpre, xcur, fcur, xtol = float(xa), float(fa), float(xb), float(fb), float(xtol)
    xblk = fblk = spre = scur = 0.0
    calls = 2
    if not (math.isfinite(fpre) and math.isfinite(fcur)):
        raise EstimationError("non-finite slope at an end of the period bracket")
    if fpre == 0.0:
        return xpre, calls
    if fcur == 0.0:
        return xcur, calls
    if (fpre < 0.0) == (fcur < 0.0):
        raise EstimationError("the slope has equal signs at both ends of the period bracket")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, calls
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
        calls += 1
        if not math.isfinite(fcur):
            raise EstimationError(f"non-finite slope at frequency {xcur!r}")
    raise EstimationError(f"the slope search did not converge in {_BRENT_MAXITER} iterations")


def _envelope_search(profile: AlphaProfile, box, lo: float, hi: float) -> tuple[float, int]:
    """Minimize the profile over the frequencies [lo, hi] by a zero of its slope.

    Every evaluation is :meth:`AlphaProfile.slope`, the profile's slope and
    value from trig moments at one frequency.  When the slope is negative
    at ``lo`` and positive at ``hi`` the bracket holds a minimum, and Brent's
    method (:func:`_brentq`) finds the zero of the slope from those two end
    values; otherwise the end of lower value wins.  Returns the frequency
    and the number of profile evaluations.
    """
    (slope_lo, value_lo), (slope_hi, value_hi) = profile.slope(lo, box), profile.slope(hi, box)
    if not slope_lo < 0.0 < slope_hi:
        return (lo if value_lo <= value_hi else hi), 2
    return _brentq(lambda f: profile.slope(f, box)[0], lo, slope_lo, hi, slope_hi, _SEARCH_XTOL * hi)


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
    are solved exactly under the box in one batch, resonant (rank-deficient)
    test periods included.  A dense frequency scan and a search for a zero
    of the profile's slope in the frequency locate the period first
    (:func:`_locate_frequency`), so that it is solved in the cells' batch;
    its exact solve gives the coefficients when it beats the best cell.
    The objective there is evaluated from the residuals by
    :func:`contrast_value`.  The entry of
    the cell holding that point is replaced by it and marked ``refined``, so
    the reported objective equals the minimum over the cells; the other
    cells keep their drawn periods and exact solves.  ``params`` and ``cfg``
    default as in :func:`alpha_profile`.
    """
    est = est or EstimatorConfig()
    box = box or BoxConstraints()
    try:
        profile = alpha_profile(traj, params, cfg, order=est.order)
    except DegenerateWeightsError as err:
        raise EstimationError(
            "weighted objective is identically zero (degenerate noise weights); cannot estimate"
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
