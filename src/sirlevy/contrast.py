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
    if (period < PERIOD_FLOOR).any():
        raise ValueError(f"period {period} is below the floor {PERIOD_FLOOR}")
    wphase = (2.0 * np.pi / period)[..., None, None] * np.multiply.outer(t, np.arange(1.0, order + 1.0))
    out = np.empty(wphase.shape[:-1] + (2 * order + 1,))
    out[..., 0] = 1.0
    np.cos(wphase, out=out[..., 1 : order + 1])
    np.sin(wphase, out=out[..., order + 1 :])
    return out


def alpha_column_names(order: int) -> list[str]:
    return ["base"] + [f"cos{k}" for k in range(1, order + 1)] + [f"sin{k}" for k in range(1, order + 1)]


# a free block whose unit-diagonal scaling has an eigenvalue below this is singular
_FACE_SINGULAR_TOL = 1e-12
# a certified face point's projected-gradient map, in coordinate units (gradient
# over diagonal curvature), is at most this relative to the point's size
_KKT_TOL = 1e-12
# frequencies times grid nodes per block of the batched scan (bounds its memory)
_SCAN_BLOCK = 1 << 16


@functools.lru_cache(maxsize=None)
def _box_faces(q: int) -> np.ndarray:
    """The 3**q faces of a q-dimensional box, one row each: 0 free, 1 at lower, 2 at upper."""
    faces = np.array(list(itertools.product((0, 1, 2), repeat=q)), dtype=np.int8)
    faces.flags.writeable = False
    return faces


def _quad_values(gram, lin, const, scale, alpha):
    """:meth:`AlphaQuadratic.value` on stacked arrays: gram (..., q, q), lin and alpha (..., q).

    Every caller goes through this one expression, so a batched value equals
    the scalar one bit for bit.
    """
    col = alpha[..., :, None]
    lin_a = (lin[..., None, :] @ col)[..., 0, 0]
    curv = (alpha[..., None, :] @ gram @ col)[..., 0, 0]
    return scale * (const - 2.0 * lin_a + curv)


def _enumerate_faces(gram: np.ndarray, lin: np.ndarray, lower, upper) -> np.ndarray:
    """Exact minimizer of one quadratic over the box [lower, upper], by enumerating its faces.

    On each of the 3**q faces every coefficient is free, at its lower bound or
    at its upper bound; the free ones solve the reduced normal equations.
    Faces with a singular free block or a solution outside the box are
    skipped, and the feasible face solution of least value wins.  This is
    exact for any positive semidefinite gram, rank deficient ones included:
    sliding a minimizer along a null direction of its free block until it
    meets a bound reaches a face whose block is nonsingular, and the
    vertices, which are always feasible, are faces too.
    """
    q = lin.size
    faces = _box_faces(q)
    free = faces == 0
    at = np.where(free, 0.0, np.where(faces == 1, lower, upper))  # fixed values, 0 if free
    pair = free[:, :, None] & free[:, None, :]
    system = np.where(pair, gram, np.eye(q))
    rhs = np.where(free, lin - at @ gram, at)
    diag = np.diag(gram)
    unit = np.where(free, np.sqrt(np.where(diag > 0.0, diag, 1.0)), 1.0)
    curv = np.linalg.eigvalsh(system / (unit[:, :, None] * unit[:, None, :]))[:, 0]
    singular = curv <= _FACE_SINGULAR_TOL
    system[singular] = np.eye(q)
    alpha = np.linalg.solve(system, rhs[:, :, None])[:, :, 0]
    slack = 1e-12 * (1.0 + np.maximum(np.abs(lower), np.abs(upper)))
    feasible = ~singular & np.all((alpha >= lower - slack) & (alpha <= upper + slack), axis=1)
    alpha = np.clip(alpha[feasible], lower, upper)
    values = np.einsum("fi,ij,fj->f", alpha, gram, alpha) - 2.0 * alpha @ lin
    return alpha[np.argmin(values)]


def _unconstrained(gram: np.ndarray, lin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normal-equations solutions of stacked quadratics: (solutions (F, q), regular (F,)).

    A gram is regular when its unit-diagonal scaling has no eigenvalue at or
    below the face-singularity tolerance; singular rows solve an identity
    instead, so their solutions are meaningless.
    """
    diag = np.diagonal(gram, axis1=-2, axis2=-1)
    unit = np.sqrt(np.where(diag > 0.0, diag, 1.0))
    regular = np.linalg.eigvalsh(gram / (unit[:, :, None] * unit[:, None, :]))[:, 0] > _FACE_SINGULAR_TOL
    system = np.where(regular[:, None, None], gram, np.eye(lin.shape[-1]))
    return np.linalg.solve(system, lin[:, :, None])[:, :, 0], regular


def solve_box(gram, lin, lower, upper) -> np.ndarray:
    """Exact minimizers of stacked quadratics over the box [lower, upper]: (F, q).

    gram (F, q, q) positive semidefinite, lin (F, q); the minimized function
    is a' gram a - 2 lin' a.  Each row goes through three steps, the cheap
    ones first:

    1. a regular gram whose normal-equations solution lies in the box: that
       solution;
    2. otherwise the face the clipped solution points at (coefficients below
       the box at the lower bound, above it at the upper bound, the rest
       free), solved and clipped into the box, accepted when the KKT
       conditions certify it: the curvature-scaled projected-gradient map
       vanishes to a tolerance, which needs the free part inside the box
       and every bound multiplier of the sign of a minimum;
    3. otherwise, singular grams included, enumeration of all faces.

    Every step treats the rows independently, so row i gets the same result
    as a call with row i alone.
    """
    gram = np.asarray(gram, dtype=float)
    lin = np.asarray(lin, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    alpha, regular = _unconstrained(gram, lin)
    at_lo, at_hi = alpha < lower, alpha > upper
    done = regular & ~(at_lo | at_hi).any(axis=1)
    if done.all():
        return alpha
    # step 2 on every row at once; singular rows solve an identity and stay undone
    free = ~(at_lo | at_hi) & regular[:, None]
    fixed = np.where(at_lo, lower, np.where(at_hi, upper, 0.0))
    system = np.where(free[:, :, None] & free[:, None, :], gram, np.eye(lin.shape[-1]))
    rhs = np.where(free, lin - (fixed[:, None, :] @ gram)[:, 0, :], fixed)
    face = np.clip(np.linalg.solve(system, rhs[:, :, None])[:, :, 0], lower, upper)
    # the certificate: the curvature-scaled projected-gradient map vanishes, so
    # the point is a KKT point of the convex problem, hence its minimizer
    diag = np.diagonal(gram, axis1=-2, axis2=-1)
    grad = ((gram @ face[:, :, None])[:, :, 0] - lin) / np.where(diag > 0.0, diag, 1.0)
    tol = _KKT_TOL * (1.0 + np.abs(face).max(axis=1, keepdims=True))
    kkt = (np.abs(face - np.clip(face - grad, lower, upper)) <= tol).all(axis=1)
    certified = ~done & regular & kkt
    alpha = np.where(certified[:, None], face, alpha)
    for i in np.flatnonzero(~(done | certified)):
        alpha[i] = _enumerate_faces(gram[i], lin[i], lower, upper)
    return alpha


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
        return _quad_values(self.gram, self.lin, self.const, self.scale, np.asarray(alpha, dtype=float))

    def grad(self, alpha: np.ndarray) -> np.ndarray:
        a = np.asarray(alpha, dtype=float)
        return self.scale * 2.0 * (self.gram @ a - self.lin)

    def lipschitz(self) -> float:
        """Largest curvature of the quadratic (for step-size and stop scaling)."""
        return float(2.0 * self.scale * np.linalg.eigvalsh(self.gram).max())

    def minimize_box(self, lower, upper) -> np.ndarray:
        """Exact minimizer over the finite box [lower, upper], by enumerating its 3**q faces."""
        return _enumerate_faces(self.gram, self.lin, np.asarray(lower, dtype=float), np.asarray(upper, dtype=float))


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

    def _gram_lin(self, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gram (..., q, q) and linear term (..., q) of design columns C (..., n, q).

        Matrix products act on each stacked design alone, so a batch row
        equals the single-period result bit for bit.
        """
        Ct = np.swapaxes(C, -1, -2)
        return self.dt**2 * ((Ct * self.vv) @ C), self.dt * (Ct @ self.rv)

    def quadratic(self, period: float) -> AlphaQuadratic:
        gram, lin = self._gram_lin(_design_columns(self.t, period, self.order))
        return AlphaQuadratic(gram=gram, lin=lin, const=self.rr, scale=self.scale, period=period, order=self.order)

    def solve_many(self, periods, box) -> tuple[np.ndarray, np.ndarray]:
        """Exact minimizers and values under ``box`` at every period: (alphas (F, q), values (F,)).

        One batched design contraction and one :func:`solve_box` call;
        ``box`` is anything with ``alpha_bounds(order)``.
        """
        lower, upper = box.alpha_bounds(self.order)
        gram, lin = self._gram_lin(_design_columns(self.t, np.asarray(periods, dtype=float), self.order))
        alphas = solve_box(gram, lin, lower, upper)
        return alphas, _quad_values(gram, lin, self.rr, self.scale, alphas)

    def solve(self, period: float, box) -> tuple[np.ndarray, float]:
        """Exact minimizer and value under ``box`` at one period; :meth:`solve_many` with one row."""
        alphas, values = self.solve_many(np.array([period], dtype=float), box)
        return alphas[0], values[0]

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
            gram, lin = self._gram_lin(_design_columns(self.t, periods[block], self.order))
            try:
                alpha = np.linalg.solve(gram, lin[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                # a singular gram in the block; solve one by one as solve_clipped does
                alpha = np.array([self.solve_clipped(p, -np.inf, np.inf)[0] for p in periods[block]])
            alpha = np.clip(alpha, lower, upper)
            values[block] = _quad_values(gram, lin, self.rr, self.scale, alpha)
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

    Solves the normal equations of the weighted least-squares problem, the
    same solve :meth:`AlphaProfile.solve` returns when it lands in the box.
    Raises SingularDesignError (naming the offending columns) when the
    unit-diagonal scaling of the gram has an eigenvalue at or below 1e-12,
    the threshold the box solve uses too: that is a rank-deficient design
    (e.g. X*Y vanishing along the whole trajectory), but also a full-rank one
    whose unit-norm columns have a condition number of about 1e6 or more
    (e.g. a period thousands of times the horizon, where the cosine column is
    nearly constant), whose normal-equations solution would lose most of its
    digits.  Below that cutoff the normal equations square the design's
    condition number, so near it the solution is less accurate than a
    QR or SVD least-squares solve.
    """
    quad = alpha_profile(traj, params, cfg, order).quadratic(period)
    raw, regular = _unconstrained(quad.gram[None], quad.lin[None])
    if not regular[0]:
        names = alpha_column_names(order)
        norms = np.sqrt(np.diag(quad.gram))  # column norms of the weighted design
        unit = np.where(norms > 0.0, norms, 1.0)
        rank = int(np.sum(np.linalg.eigvalsh(quad.gram / np.outer(unit, unit)) > _FACE_SINGULAR_TOL))
        dead = [names[j] for j in range(norms.size) if norms[j] <= 1e-14 * max(1.0, norms.max())]
        culprit = dead if dead else names
        raise SingularDesignError(
            f"design matrix numerical rank {rank} < {norms.size} (unit-diagonal gram eigenvalues above "
            f"{_FACE_SINGULAR_TOL:g}); deficient columns: {', '.join(culprit)}",
            columns=culprit,
        )
    return raw[0]
