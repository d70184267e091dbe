"""One-step Euler residuals and the least-squares objective built on them.

For a trajectory observed on a regular grid with spacing dt, the residuals are

    P_k = S_{t_k} - S_{t_{k-1}} - dt * drift(t_{k-1}, S_{t_{k-1}}, theta)

and the objective is ``scale * sum_k P_k' W_{k-1} P_k`` with W the identity
(plain form) or the inverse of the squared noise coefficient (weighted form,
population-numbers model only).  The scale factor is n / eps**2 (or n when
eps == 0); it never moves the argmin, it only keeps reported values comparable
across noise levels.

For a fixed period the residuals are affine in the transmission coefficients
(base, cos_k, sin_k), so the inner minimization is a linear least-squares
problem; :func:`alpha_quadratic` exposes that quadratic,
:func:`linear_solve_alpha` solves it without bounds and
:meth:`AlphaProfile.solve` solves it exactly under box bounds.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .models import SirParams, drift_beta_split, get_model, noise_coeff_numbers
from .simulate import Trajectory
from .transmission import PERIOD_FLOOR, ThetaParams, beta_grad

ALPHA_INIT_DEFAULT = (0.51, 0.31, 0.21)


class DegenerateWeightsError(RuntimeError):
    """Weighted form with a vanishing noise coefficient somewhere on the grid."""


class SingularDesignError(ValueError):
    def __init__(self, message: str, columns=()):
        super().__init__(message)
        self.columns = tuple(columns)


@dataclass(frozen=True)
class ContrastConfig:
    """Objective form and the noise amplitude used in the reporting scale."""

    form: str = "plain"  # "plain" | "weighted"
    eps: float = 0.0

    def __post_init__(self):
        if self.form not in ("plain", "weighted"):
            raise ValueError(f"unknown contrast form {self.form!r}")
        if self.eps < 0.0:
            raise ValueError("eps must be nonnegative")

    def scale(self, n: int) -> float:
        return n / self.eps**2 if self.eps > 0.0 else float(n)

    def check_model(self, model_tag: str) -> None:
        # the proportional model's noise matrix is rank one, so the weighted
        # form is only valid for the numbers model
        if self.form == "weighted" and model_tag != "numbers":
            raise ValueError("the weighted form requires the population-numbers model")


def _resolve(traj: Trajectory, params: SirParams | None, cfg: ContrastConfig | None):
    if params is None:
        params = traj.params
    if params is None:
        raise ValueError("params not given and trajectory carries none")
    if cfg is None:
        cfg = ContrastConfig(form="plain", eps=params.eps)
    cfg.check_model(traj.model)
    return params, cfg


def residuals(traj: Trajectory, theta: ThetaParams, params: SirParams | None = None) -> np.ndarray:
    """One-step Euler residuals, shape (n, 3)."""
    if params is None:
        params = traj.params
    model = get_model(traj.model)
    dt = traj.spacing()
    t0 = traj.times[:-1]
    s0 = traj.states[:-1]
    return traj.states[1:] - s0 - dt * model.drift(t0, s0, theta, params)


def inverse_weights(traj: Trajectory, params: SirParams) -> tuple[np.ndarray, bool]:
    """Per-interval weights 1 / (sigma*X*Y*Z)^2 at the left nodes; flags degeneracy.

    Degenerate means some state component vanishes on the grid, in which case
    the weighted objective is identically zero by its indicator.
    """
    c = noise_coeff_numbers(traj.states[:-1], params)
    if np.any(c == 0.0):
        return np.zeros(c.size), True
    return 1.0 / c**2, False


def contrast_plain(
    traj: Trajectory,
    theta: ThetaParams,
    params: SirParams | None = None,
    cfg: ContrastConfig | None = None,
) -> float:
    params, cfg = _resolve(traj, params, cfg)
    P = residuals(traj, theta, params)
    return cfg.scale(len(P)) * float(np.einsum("ki,ki->", P, P))


def contrast_weighted(
    traj: Trajectory,
    theta: ThetaParams,
    params: SirParams | None = None,
    cfg: ContrastConfig | None = None,
) -> tuple[float, bool]:
    """Weighted objective value and the degeneracy flag (value 0 when degenerate)."""
    if params is None:
        params = traj.params
    if cfg is None:
        cfg = ContrastConfig(form="weighted", eps=params.eps)
    cfg.check_model(traj.model)
    w, degenerate = inverse_weights(traj, params)
    if degenerate:
        return 0.0, True
    P = residuals(traj, theta, params)
    return cfg.scale(len(P)) * float(np.einsum("k,ki,ki->", w, P, P)), False


def contrast_value(
    traj: Trajectory,
    theta: ThetaParams,
    params: SirParams | None = None,
    cfg: ContrastConfig | None = None,
) -> float:
    params, cfg = _resolve(traj, params, cfg)
    if cfg.form == "weighted":
        return contrast_weighted(traj, theta, params, cfg)[0]
    return contrast_plain(traj, theta, params, cfg)


def contrast_gradient(
    traj: Trajectory,
    theta: ThetaParams,
    params: SirParams | None = None,
    cfg: ContrastConfig | None = None,
) -> np.ndarray:
    """Analytic gradient in (period, base, cos_k, sin_k); zeros if degenerate weighted."""
    params, cfg = _resolve(traj, params, cfg)
    dt = traj.spacing()
    t0 = traj.times[:-1]
    n = t0.size
    if cfg.form == "weighted":
        w, degenerate = inverse_weights(traj, params)
        if degenerate:
            return np.zeros(theta.dim)
    else:
        w = np.ones(n)
    P = residuals(traj, theta, params)
    _, v = drift_beta_split(traj.model, traj.states[:-1], params)
    B = beta_grad(t0, theta)  # (n, p)
    pv = np.einsum("ki,ki->k", P, v)
    return -2.0 * dt * cfg.scale(n) * (B.T @ (w * pv))


def _design_columns(t: np.ndarray, period, order: int) -> np.ndarray:
    """Columns (1, cos(2 pi k t / period), sin(...)) for k = 1..order; shape (n, 2K+1).

    An array of periods prepends its shape: (F,) periods give (F, n, 2K+1).
    """
    period = np.asarray(period, dtype=float)
    if np.any(period < PERIOD_FLOOR):
        raise ValueError(f"period {period} is below the floor {PERIOD_FLOOR}")
    k = np.arange(1, order + 1, dtype=float)
    wphase = (2.0 * np.pi / period)[..., None, None] * np.multiply.outer(t, k)
    ones = np.ones(wphase.shape[:-1] + (1,))
    return np.concatenate([ones, np.cos(wphase), np.sin(wphase)], axis=-1)


def alpha_column_names(order: int) -> list[str]:
    return ["base"] + [f"cos{k}" for k in range(1, order + 1)] + [f"sin{k}" for k in range(1, order + 1)]


# a free block whose unit-diagonal scaling has an eigenvalue below this is singular
_FACE_SINGULAR_TOL = 1e-12
# frequencies times grid nodes per block of the batched scan (bounds its memory)
_SCAN_BLOCK = 1 << 16


@functools.lru_cache(maxsize=None)
def _box_faces(q: int) -> np.ndarray:
    """The 3**q faces of a q-dimensional box, one row each: 0 free, 1 at lower, 2 at upper."""
    faces = np.array(list(itertools.product((0, 1, 2), repeat=q)), dtype=np.int8)
    faces.flags.writeable = False
    return faces


@dataclass
class AlphaQuadratic:
    """The objective restricted to the transmission coefficients at fixed period.

    value(alpha) = scale * (const - 2 lin @ alpha + alpha @ gram @ alpha)
    """

    gram: np.ndarray  # (q, q), includes the dt^2 factor
    lin: np.ndarray  # (q,), includes the dt factor
    const: float
    scale: float
    period: float
    order: int

    def value(self, alpha: np.ndarray) -> float:
        a = np.asarray(alpha, dtype=float)
        return self.scale * (self.const - 2.0 * self.lin @ a + a @ self.gram @ a)

    def grad(self, alpha: np.ndarray) -> np.ndarray:
        a = np.asarray(alpha, dtype=float)
        return self.scale * 2.0 * (self.gram @ a - self.lin)

    def lipschitz(self) -> float:
        """Largest curvature of the quadratic (for step-size and stop scaling)."""
        return float(2.0 * self.scale * np.linalg.eigvalsh(self.gram).max())

    def minimize_box(self, lower, upper) -> np.ndarray:
        """Exact minimizer over the finite box [lower, upper], by enumerating its faces.

        On each of the 3**q faces every coefficient is free, at its lower
        bound or at its upper bound; the free ones solve the reduced normal
        equations.  Faces with a singular free block or a solution outside
        the box are skipped, and the feasible face solution of least value
        wins.  This is exact for any positive semidefinite gram, rank
        deficient ones included: sliding a minimizer along a null direction
        of its free block until it meets a bound reaches a face whose block
        is nonsingular, and the vertices, which are always feasible, are
        faces too.
        """
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        q = self.lin.size
        faces = _box_faces(q)
        free = faces == 0
        at = np.where(free, 0.0, np.where(faces == 1, lower, upper))  # fixed values, 0 if free
        pair = free[:, :, None] & free[:, None, :]
        # the free rows solve G_FF a_F = lin_F - G_FX a_X; the fixed rows read a_X = bound
        system = np.where(pair, self.gram, np.eye(q))
        rhs = np.where(free, self.lin - at @ self.gram, at)
        diag = np.diag(self.gram)
        unit = np.where(free, np.sqrt(np.where(diag > 0.0, diag, 1.0)), 1.0)
        curv = np.linalg.eigvalsh(system / (unit[:, :, None] * unit[:, None, :]))[:, 0]
        singular = curv <= _FACE_SINGULAR_TOL
        system[singular] = np.eye(q)
        alpha = np.linalg.solve(system, rhs[:, :, None])[:, :, 0]
        slack = 1e-12 * (1.0 + np.maximum(np.abs(lower), np.abs(upper)))
        feasible = ~singular & np.all((alpha >= lower - slack) & (alpha <= upper + slack), axis=1)
        alpha = np.clip(alpha[feasible], lower, upper)
        values = np.einsum("fi,ij,fj->f", alpha, self.gram, alpha) - 2.0 * alpha @ self.lin
        return alpha[np.argmin(values)]


@dataclass
class AlphaProfile:
    """Shared pieces of the coefficient subproblem, reusable across periods.

    Building these arrays dominates the per-period cost, so an estimate
    builds one profile per trajectory and solves every period from it.
    """

    t: np.ndarray  # left grid nodes (n,)
    r: np.ndarray  # residual with the transmission term removed (n, 3)
    v: np.ndarray  # transmission direction (-X*Y, X*Y, 0) per node (n, 3)
    w: np.ndarray  # per-node weights (n,)
    dt: float
    scale: float
    order: int
    # period-independent reductions of the above, filled in by __post_init__
    vv: np.ndarray = field(init=False, repr=False)  # w * |v|^2 per node
    rv: np.ndarray = field(init=False, repr=False)  # w * (r . v) per node
    rr: float = field(init=False, repr=False)  # sum of w * |r|^2

    def __post_init__(self):
        self.vv = self.w * np.einsum("ki,ki->k", self.v, self.v)
        self.rv = self.w * np.einsum("ki,ki->k", self.r, self.v)
        self.rr = float(np.einsum("k,ki,ki->", self.w, self.r, self.r))

    def _quadratic(self, C: np.ndarray, period: float) -> AlphaQuadratic:
        gram = self.dt**2 * np.einsum("k,ki,kj->ij", self.vv, C, C)
        lin = self.dt * (C.T @ self.rv)
        return AlphaQuadratic(gram=gram, lin=lin, const=self.rr, scale=self.scale, period=period, order=self.order)

    def quadratic(self, period: float) -> AlphaQuadratic:
        return self._quadratic(_design_columns(self.t, period, self.order), period)

    def _least_squares(self, C: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
        """Unconstrained minimizer from the stacked weighted design: (solution, rank, design)."""
        sw = np.sqrt(self.w)
        design = (self.dt * np.einsum("k,ki,kj->kij", sw, self.v, C)).reshape(-1, C.shape[1])
        target = (sw[:, None] * self.r).reshape(-1)
        sol, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
        return sol, rank, design

    def solve(self, period: float, box) -> tuple[np.ndarray, float]:
        """Exact minimizer and value under ``box`` (anything with ``alpha_bounds(order)``).

        A full-rank unconstrained least-squares solution inside the box is
        returned as it is; otherwise :meth:`AlphaQuadratic.minimize_box`
        enumerates the faces of the box.
        """
        lower, upper = box.alpha_bounds(self.order)
        C = _design_columns(self.t, period, self.order)
        quad = self._quadratic(C, period)
        alpha, rank, _ = self._least_squares(C)
        if rank < alpha.size or np.any(alpha < lower) or np.any(alpha > upper):
            alpha = quad.minimize_box(lower, upper)
        return alpha, quad.value(alpha)

    def solve_clipped(self, period: float, lower, upper) -> tuple[np.ndarray, float]:
        """Cheap scan step: normal-equations solve clipped into the box.

        The clipped value upper-bounds the box-constrained minimum; exact
        enough to rank scan candidates, with the winner re-solved exactly.
        """
        quad = self.quadratic(period)
        try:
            alpha = np.linalg.solve(quad.gram, quad.lin)
        except np.linalg.LinAlgError:
            alpha = np.linalg.lstsq(quad.gram, quad.lin, rcond=None)[0]
        alpha = np.clip(alpha, lower, upper)
        return alpha, quad.value(alpha)

    def scan(self, periods, lower, upper) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`solve_clipped` at every period of an array: (alphas (F, q), values (F,)).

        The periods go through in blocks, each one batched design
        contraction, one batched solve, a clip and a vectorized value.
        """
        periods = np.asarray(periods, dtype=float)
        q = 2 * self.order + 1
        alphas = np.empty((periods.size, q))
        values = np.empty(periods.size)
        step = max(1, _SCAN_BLOCK // self.t.size)
        for start in range(0, periods.size, step):
            block = slice(start, start + step)
            C = _design_columns(self.t, periods[block], self.order)
            gram = self.dt**2 * np.einsum("k,fki,fkj->fij", self.vv, C, C)
            lin = self.dt * (C.transpose(0, 2, 1) @ self.rv)
            try:
                alpha = np.linalg.solve(gram, lin[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                # a singular gram in the block; solve one by one as solve_clipped does
                alpha = np.array([self.solve_clipped(p, -np.inf, np.inf)[0] for p in periods[block]])
            alpha = np.clip(alpha, lower, upper)
            # AlphaQuadratic.value per row, with the same products in the same order
            row, col = alpha[:, None, :], alpha[:, :, None]
            lin_a = (lin[:, None, :] @ col)[:, 0, 0]
            curv = (row @ gram @ col)[:, 0, 0]
            values[block] = self.scale * (self.rr - 2.0 * lin_a + curv)
            alphas[block] = alpha
        return alphas, values


def alpha_profile(
    traj: Trajectory,
    params: SirParams | None = None,
    cfg: ContrastConfig | None = None,
    order: int = 1,
) -> AlphaProfile:
    params, cfg = _resolve(traj, params, cfg)
    dt = traj.spacing()
    t0 = traj.times[:-1]
    n = t0.size
    if cfg.form == "weighted":
        w, degenerate = inverse_weights(traj, params)
        if degenerate:
            raise DegenerateWeightsError("weighted objective is identically zero on this trajectory")
    else:
        w = np.ones(n)
    g, v = drift_beta_split(traj.model, traj.states[:-1], params)
    r = traj.states[1:] - traj.states[:-1] - dt * g  # residual with beta term removed
    return AlphaProfile(t=t0, r=r, v=v, w=w, dt=dt, scale=cfg.scale(n), order=order)


def alpha_quadratic(
    traj: Trajectory,
    period: float,
    params: SirParams | None = None,
    cfg: ContrastConfig | None = None,
    order: int = 1,
) -> AlphaQuadratic:
    return alpha_profile(traj, params, cfg, order).quadratic(period)


def linear_solve_alpha(
    traj: Trajectory,
    period: float,
    params: SirParams | None = None,
    cfg: ContrastConfig | None = None,
    order: int = 1,
) -> np.ndarray:
    """Exact unconstrained minimizer of the objective over (base, cos_k, sin_k).

    Solves the stacked weighted least-squares problem whose normal equations
    are the first-order conditions of the quadratic; raises SingularDesignError
    (naming the offending columns) when the design is rank deficient, e.g. when
    X*Y vanishes along the whole trajectory.
    """
    profile = alpha_profile(traj, params, cfg, order)
    sol, rank, design = profile._least_squares(_design_columns(profile.t, period, order))
    q = sol.size
    if rank < q:
        names = alpha_column_names(order)
        norms = np.linalg.norm(design, axis=0)
        dead = [names[j] for j in range(q) if norms[j] <= 1e-14 * max(1.0, norms.max())]
        culprit = dead if dead else names
        raise SingularDesignError(
            f"design matrix rank {rank} < {q}; deficient columns: {', '.join(culprit)}",
            columns=culprit,
        )
    return sol
