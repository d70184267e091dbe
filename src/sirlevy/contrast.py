"""One-step Euler residuals and the least-squares objective built on them.

For a trajectory observed on a regular grid with spacing dt, the residuals are

    P_k = S_{t_k} - S_{t_{k-1}} - dt * drift(t_{k-1}, S_{t_{k-1}}, theta)

and the objective is ``scale * sum_k P_k' W_{k-1} P_k`` with W the identity
(plain form) or 1 / c**2, c = sigma*X*Y*Z the noise coefficient (weighted
form).  The scale factor is n / eps**2 (or n when eps == 0); it never moves
the argmin, it only keeps reported values comparable across noise levels.
:func:`contrast_value` is the one evaluator of the objective; the form comes
from :attr:`ContrastConfig.form`, plain when no config is given, and only
``_resolve`` reads it.

The weighted form is defined only for the population-numbers model and only
where c is nonzero; :func:`weighted_coefficient` is that rule's one home,
read by the objective, the estimator's profile and the limit theory.

For a fixed period the residuals are affine in the transmission coefficients
(base, cos_k, sin_k), so the inner minimization is a linear least-squares
problem; :func:`alpha_quadratic` exposes that quadratic,
:func:`linear_solve_alpha` solves it without bounds and
:meth:`AlphaProfile.solve` solves it exactly under box bounds.

The gram and linear term of that problem are weighted trig sums, so the
profile over the period is a weighted, floating-mean generalised
Lomb-Scargle periodogram.  The estimator locates the period on the moments
C_h + i S_h = sum_k vv_k e^{ihx_k} (h = 0..2K) and sum_k rv_k e^{ihx_k}
(h = 0..K), x = 2 pi f t, assembled by the product-to-sum identities, and
builds no (frequencies, n, q) design to do it.  :meth:`AlphaProfile.scan`
ranks the frequencies of the lattice j df, df = 1/(4KT), whose moments all
come from one zero-padded FFT of length 4Kn; :meth:`AlphaProfile.expand`
gives the profile's slope, value and curvature at one frequency for the
period search, from the moments of vv, rv, t vv, t rv, t**2 vv and t**2 rv
there (the t**2 moments give the second derivatives of the gram and linear
term).  Both match the design's entries to rounding, not bit for bit;
every solve that is reported
(the cells, the final coefficients and the objective) builds the design.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .models import SirParams, drift_beta_split, get_model, noise_coeff_numbers
from .simulate import Trajectory
from .transmission import PERIOD_FLOOR, ThetaParams, beta_grad


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


def weighted_coefficient(model_tag: str, states, params: SirParams) -> np.ndarray:
    """sigma*X*Y*Z at ``states``: the weighted form's coefficient, under its one rule.

    Raises ValueError off the population-numbers model (the proportions
    model's noise matrix is rank one) and DegenerateWeightsError where it is 0.
    """
    if model_tag != "numbers":
        raise ValueError("the weighted form requires the population-numbers model")
    c = noise_coeff_numbers(states, params)
    if np.any(c == 0.0):
        raise DegenerateWeightsError("the weighted form's noise coefficient sigma*X*Y*Z vanishes on the path")
    return c


def _vanishing_node(traj: Trajectory, params: SirParams) -> str:
    """The first left node of ``traj`` where the weighted form's coefficient vanishes: index, time, zero component."""
    i = int(np.flatnonzero(noise_coeff_numbers(traj.states[:-1], params) == 0.0)[0])
    zero = " and ".join(f"{name} = 0" for name, v in zip("XYZ", traj.states[i].tolist()) if v == 0.0)
    where = zero or "X*Y*Z underflows to 0"
    return f"sigma*X*Y*Z vanishes first at node {i}, t={traj.times[i].item()!r}, where {where}"


def _resolve(traj: Trajectory, params: SirParams | None, cfg: ContrastConfig | None):
    """(params, cfg, w): params default to the trajectory's, cfg to the plain form at their eps.

    w is ones for the plain form, and 1 / c**2 (c from
    :func:`weighted_coefficient` at the left nodes) for the weighted one;
    None where c vanishes, the weighted objective then being identically
    zero by its indicator.
    """
    if params is None:
        params = traj.params
    if params is None:
        raise ValueError("params not given and trajectory carries none")
    if cfg is None:
        cfg = ContrastConfig(eps=params.eps)
    if cfg.form == "plain":
        return params, cfg, np.ones(traj.n_intervals)
    try:
        return params, cfg, 1.0 / weighted_coefficient(traj.model, traj.states[:-1], params) ** 2
    except DegenerateWeightsError:
        return params, cfg, None


def residuals(traj: Trajectory, theta: ThetaParams, params: SirParams | None = None) -> np.ndarray:
    """One-step Euler residuals, shape (n, 3)."""
    params = _resolve(traj, params, None)[0]
    model = get_model(traj.model)
    dt = traj.spacing()
    t0 = traj.times[:-1]
    s0 = traj.states[:-1]
    return traj.states[1:] - s0 - dt * model.drift(t0, s0, theta, params)


def contrast_value(
    traj: Trajectory,
    theta: ThetaParams,
    params: SirParams | None = None,
    cfg: ContrastConfig | None = None,
) -> float:
    """The objective at ``theta`` in ``cfg``'s form, plain when ``cfg`` is None.

    The weighted form is 0.0 where its coefficient vanishes on the grid and
    raises ValueError off the numbers model, as :func:`weighted_coefficient`.
    """
    params, cfg, w = _resolve(traj, params, cfg)
    if w is None:
        return 0.0
    P = residuals(traj, theta, params)
    if cfg.form == "plain":
        return cfg.scale(len(P)) * float(np.einsum("ki,ki->", P, P))
    return cfg.scale(len(P)) * float(np.einsum("k,ki,ki->", w, P, P))


def contrast_gradient(
    traj: Trajectory,
    theta: ThetaParams,
    params: SirParams | None = None,
    cfg: ContrastConfig | None = None,
) -> np.ndarray:
    """Analytic gradient in (period, base, cos_k, sin_k); zeros if degenerate weighted."""
    params, cfg, w = _resolve(traj, params, cfg)
    dt = traj.spacing()
    if w is None:
        return np.zeros(theta.dim)
    t0 = traj.times[:-1]
    n = t0.size
    P = residuals(traj, theta, params)
    _, v = drift_beta_split(traj.model, traj.states[:-1], params)
    B = beta_grad(t0, theta)  # (n, p)
    pv = np.einsum("ki,ki->k", P, v)
    return -2.0 * dt * cfg.scale(n) * (B.T @ (w * pv))


def _check_periods(period) -> np.ndarray:
    period = np.asarray(period, dtype=float)
    if (period < PERIOD_FLOOR).any():
        raise ValueError(f"period {period} is below the floor {PERIOD_FLOOR}")
    return period


@functools.lru_cache(maxsize=None)
def _product_to_sum(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the gram reads its moments: index arrays (I, J), each (q, q), with

        gram = dt**2 * (X[..., I] + X[..., J]) / 2,   X = (C, S, -C, -S),

    each block holding harmonics 0..2K of C_h + i S_h = sum_k vv_k e^{ihx_k}.
    The columns are cos_0 (the base), cos_1..cos_K and sin_1..sin_K, and the
    entries follow the product-to-sum identities

        cos_j cos_k = (C_{j-k} + C_{j+k}) / 2
        sin_j sin_k = (C_{j-k} - C_{j+k}) / 2
        cos_j sin_k = (S_{j+k} - S_{j-k}) / 2

    with C_{-h} = C_h and S_{-h} = -S_h.
    """
    m = 2 * order + 1

    def cos(h):  # C_h
        return abs(h)

    def sin(h):  # S_h
        return m + h if h >= 0 else 3 * m - h

    harmonic = [0, *range(1, order + 1), *range(1, order + 1)]
    is_sin = [p > order for p in range(m)]
    first, second = np.empty((m, m), dtype=int), np.empty((m, m), dtype=int)
    for p, j in enumerate(harmonic):
        for r, k in enumerate(harmonic):
            if not is_sin[p] and not is_sin[r]:
                first[p, r], second[p, r] = cos(j - k), cos(j + k)
            elif is_sin[p] and is_sin[r]:
                first[p, r], second[p, r] = cos(j - k), 2 * m + cos(j + k)  # -C_{j+k}
            elif is_sin[r]:
                first[p, r], second[p, r] = sin(j + k), sin(k - j)  # -S_{j-k} = S_{k-j}
            else:
                first[p, r], second[p, r] = sin(j + k), sin(j - k)  # sin_j cos_k = cos_k sin_j
    first.flags.writeable = second.flags.writeable = False
    return first, second


def _moment_entries(Z, R, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gram (..., q, q) and linear term (..., q) from moments, without their dt factors.

    Z (..., 2K+1) holds sum_k vv_k e^{ihx_k} and R (..., K+1) sum_k rv_k e^{ihx_k};
    the gram follows :func:`_product_to_sum`, and the linear term reads
    Re R_h for cos_h and Im R_h for sin_h.
    """
    first_of, second_of = _product_to_sum(order)
    X = np.concatenate([Z.real, Z.imag, -Z.real, -Z.imag], axis=-1)
    return 0.5 * (X[..., first_of] + X[..., second_of]), np.concatenate([R.real, R.imag[..., 1:]], axis=-1)


@functools.lru_cache(maxsize=None)
def _moment_map(order: int) -> np.ndarray:
    """:func:`_moment_entries` and its first two derivatives in the frequency as one matrix.

    Its input is the float view of the (2K+1, 6) complex moments of
    (vv, rv, t vv, t rv, t**2 vv, t**2 rv) at harmonics h = 0..2K, flattened;
    its output is the gram (q*q, row by row), the linear term (q), then
    their first and their second derivatives in the frequency (q*q, q each),
    since d/df of e^{ih 2 pi f t} is i 2 pi h t e^{ih 2 pi f t}.  The map is
    linear, so its columns are its values at the unit inputs.
    """
    m = 2 * order + 1
    Z, R, Zt, Rt, Ztt, Rtt = np.moveaxis(np.eye(12 * m).view(complex).reshape(12 * m, m, 6), -1, 0)
    rate = 2j * np.pi * np.arange(m)
    parts = (
        *_moment_entries(Z, R[:, : order + 1], order),
        *_moment_entries(rate * Zt, (rate * Rt)[:, : order + 1], order),
        *_moment_entries(rate**2 * Ztt, (rate**2 * Rtt)[:, : order + 1], order),
    )
    out = np.concatenate([part.reshape(12 * m, -1) for part in parts], axis=1).T
    out.flags.writeable = False
    return out


def _design_columns(t: np.ndarray, period, order: int) -> np.ndarray:
    """Columns (1, cos(2 pi k t / period), sin(...)) for k = 1..order; shape (n, 2K+1).

    An array of periods prepends its shape: (F,) periods give (F, n, 2K+1).
    """
    period = _check_periods(period)
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
    alpha, regular = _unconstrained(system, rhs)
    slack = 1e-12 * (1.0 + np.maximum(np.abs(lower), np.abs(upper)))
    feasible = regular & np.all((alpha >= lower - slack) & (alpha <= upper + slack), axis=1)
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


@functools.lru_cache(maxsize=16)
def _float_bounds(box, order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """``box.alpha_bounds(order)`` as tuples of floats."""
    lower, upper = box.alpha_bounds(order)
    return tuple(lower.tolist()), tuple(upper.tolist())


def _certified_factor(gram: list) -> tuple[list, list] | None:
    """The Cholesky factor of one gram's unit-diagonal scaling on floats, (unit, L), or None unless certified regular.

    With L the Cholesky factor of the unit-diagonal gram U, det U = prod L_ii**2,
    and since lambda_max(U) <= trace U = q, lambda_min(U) >= det U / q**(q-1).
    The factor is returned only when that bound exceeds the face-singularity
    tolerance, so it is never taken where the unit-diagonal gram has an
    eigenvalue at or below it, which :func:`_unconstrained` calls singular.
    ``unit`` holds the square roots of the gram's diagonal.
    """
    q = len(gram)
    if not all(gram[i][i] > 0.0 for i in range(q)):
        return None
    unit = [math.sqrt(gram[i][i]) for i in range(q)]
    L = []  # rows of the Cholesky factor of U
    det = 1.0
    for i in range(q):
        row, Li = gram[i], []
        for k in range(i):
            Lk = L[k]
            s = row[k] / (unit[i] * unit[k])
            for m in range(k):
                s -= Li[m] * Lk[m]
            Li.append(s / Lk[k])
        s = 1.0
        for x in Li:
            s -= x * x
        if not s > 0.0:
            return None
        det *= s
        Li.append(math.sqrt(s))
        L.append(Li)
    if not det > _FACE_SINGULAR_TOL * q ** (q - 1):
        return None
    return unit, L


def _factor_solve(factor: tuple[list, list], rhs: list) -> list:
    """The solution a of gram a = rhs, from :func:`_certified_factor`'s factor of the gram."""
    unit, L = factor
    q = len(rhs)
    # U y = rhs / unit by forward and back substitution, then a = y / unit
    y = []
    for i in range(q):
        s = rhs[i] / unit[i]
        for m in range(i):
            s -= L[i][m] * y[m]
        y.append(s / L[i][i])
    for i in reversed(range(q)):
        s = y[i]
        for m in range(i + 1, q):
            s -= L[m][i] * y[m]
        y[i] = s / L[i][i]
    return [y[i] / unit[i] for i in range(q)]


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
    # the moments' pieces for :meth:`moment_quadratic`
    _it: np.ndarray = field(init=False, repr=False)  # i t
    _moment_weights: np.ndarray = field(init=False, repr=False)  # dt**2 vv, dt rv, their t and t**2 multiples, (n, 6) complex

    def __post_init__(self):
        self.vv = self.w * np.einsum("ki,ki->k", self.v, self.v)
        self.rv = self.w * np.einsum("ki,ki->k", self.r, self.v)
        self.rr = float(np.einsum("k,ki,ki->", self.w, self.r, self.r))
        self._it = 1j * self.t
        # the gram's dt**2 and the linear term's dt go into the weights
        vv, rv = self.dt**2 * self.vv, self.dt * self.rv
        tt = self.t * self.t
        self._moment_weights = np.stack([vv, rv, self.t * vv, self.t * rv, tt * vv, tt * rv], axis=1).astype(complex)

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

    def _solve_design(self, C: np.ndarray, box) -> tuple[np.ndarray, np.ndarray]:
        lower, upper = box.alpha_bounds(self.order)
        gram, lin = self._gram_lin(C)
        alphas = solve_box(gram, lin, lower, upper)
        return alphas, _quad_values(gram, lin, self.rr, self.scale, alphas)

    def solve_many(self, periods, box) -> tuple[np.ndarray, np.ndarray]:
        """Exact minimizers and values under ``box`` at every period: (alphas (F, q), values (F,)).

        One batched design contraction and one :func:`solve_box` call;
        ``box`` is anything with ``alpha_bounds(order)``.
        """
        return self._solve_design(_design_columns(self.t, np.asarray(periods, dtype=float), self.order), box)

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

    @property
    def df(self) -> float:
        """The scan lattice's spacing 1/(4KT): the K-th harmonic turns a quarter cycle across the horizon T = n dt.

        Harmonic h of a frequency off by delta f drifts 2 pi h delta f T in phase
        across the horizon, so the highest harmonic sets how close a scan
        point must come to the true frequency for its value to rank the basin.
        """
        return 1.0 / (4.0 * self.order * self.t.size * self.dt)

    def _lattice_gram_lin(self, j) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_gram_lin` of the design at the lattice frequencies j df, from trig moments: (F, q, q), (F, q).

        With x = 2 pi f t, the moments C_h + i S_h = sum_k vv_k e^{ihx_k} for
        h = 0..2K give the gram by the product-to-sum identities
        (:func:`_product_to_sum`), and R_h = sum_k rv_k e^{ihx_k} gives the
        linear term (Re R_h for cos_h, Im R_h for sin_h).  On the grid
        t_k = t_0 + k dt, with T = n dt and N = 4Kn, the phase at f_j = j df is

            2 pi f_j t_k = 2 pi f_j t_0 + 2 pi j k / N,

        so harmonic h reads bin (h j) mod N of one zero-padded DFT of length
        N of the weights, times e^{ih 2 pi f_j t_0}: one real FFT of (vv, rv)
        serves every lattice frequency.  The offsets k dt are the ideal grid,
        which :meth:`Trajectory.spacing` holds to 1e-8 relative, and the
        entries differ from the design's in the last digits.
        """
        j = np.asarray(j)
        K, N = self.order, 4 * self.order * self.t.size
        spectrum = np.fft.rfft(np.stack([self.vv, self.rv]), N)  # bins 0..N/2 of sum_k w_k e^{-2 pi i bk/N}
        dft = np.concatenate([spectrum.conj(), spectrum[:, -2:0:-1]], axis=1)  # sum_k w_k e^{2 pi i bk/N}, every b
        harmonic = np.arange(2 * K + 1)
        phase = np.exp(1j * np.multiply.outer(2.0 * np.pi * self.df * j * self.t[0], harmonic))
        moments = dft[:, np.multiply.outer(j, harmonic) % N] * phase  # (vv, rv), F, harmonics 0..2K
        gram, lin = _moment_entries(moments[0], moments[1, :, : K + 1], K)
        return self.dt**2 * gram, self.dt * lin

    def scan(self, j, lower, upper) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`solve_clipped` at every lattice frequency j df: (alphas (F, q), values (F,)).

        The grams and linear terms come from one FFT (:meth:`_lattice_gram_lin`),
        then one batched solve, a clip and a vectorized value.  They match
        the design's to rounding, not bit for bit; the scan only ranks
        candidate frequencies, and its winner is located by the period
        search and solved again from the design.  A frequency whose gram is
        exactly singular is solved from the design by :meth:`solve_clipped`;
        the other rows keep the batched solve, which treats each row alone.
        On a grid from t = 0 that is every frequency with a harmonic h <= K on
        a multiple of the Nyquist frequency, where sin_h vanishes on the grid.
        The estimator's lattice stops below the Nyquist frequency, so at
        order 1 it has no such row; at order K >= 2 the frequencies where a
        harmonic h = 2..K lands on a multiple of it remain.
        """
        j = np.asarray(j)
        gram, lin = self._lattice_gram_lin(j)
        # the batched solve raises on an exact zero pivot of its LU factorization:
        # a zero row of the gram always makes one, and slogdet, which factorizes
        # the same way, gives the other such rows the sign 0
        singular = ~gram.any(axis=2).all(axis=1)
        try:
            solved = np.linalg.solve(gram[~singular], lin[~singular, :, None])
        except np.linalg.LinAlgError:
            singular |= np.linalg.slogdet(gram)[0] == 0.0
            solved = np.linalg.solve(gram[~singular], lin[~singular, :, None])
        alpha = np.empty(lin.shape)
        alpha[~singular] = solved[:, :, 0]
        for row in np.flatnonzero(singular):
            alpha[row] = self.solve_clipped(1.0 / (j[row] * self.df), -np.inf, np.inf)[0]
        alpha = np.clip(alpha, lower, upper)
        return alpha, _quad_values(gram, lin, self.rr, self.scale, alpha)

    def moment_quadratic(self, f: float) -> tuple[list, ...]:
        """Gram, linear term and their first two derivatives in the frequency at ``f``, on floats.

        Returns (G, lin, dG, dlin, d2G, d2lin).  From the moments of vv, rv,
        t vv, t rv, t**2 vv and t**2 rv at harmonics 0..2K (one complex
        exponential, its powers and one (2K+1, n) @ (n, 6) product) by
        :func:`_moment_map`.  The entries match the design's to rounding.
        """
        K, q = self.order, 2 * self.order + 1
        z = np.exp(self._it * (2.0 * math.pi * f))
        powers = np.empty((2 * K + 1, z.size), dtype=complex)  # e^{ihx}, h = 0..2K
        powers[0] = 1.0
        powers[1] = z
        for h in range(2, 2 * K + 1):
            np.multiply(powers[h - 1], z, out=powers[h])
        moments = powers @ self._moment_weights  # (2K+1, 6)
        out = (_moment_map(K) @ moments.view(float).ravel()).tolist()
        size = q * q + q
        parts = []
        for s in range(0, 3 * size, size):
            parts += [[out[s + i * q : s + i * q + q] for i in range(q)], out[s + q * q : s + size]]
        return tuple(parts)

    def expand(self, f: float, box) -> tuple[float, float, float]:
        """The profile's slope in the frequency, its value and its curvature at ``f``: (slope, value, curvature).

        The box does not depend on the frequency, so by the envelope
        (Danskin) theorem the slope of the profile V(f) = min_a Q(f, a) is the
        partial derivative of Q in f at the minimizer a:

            dV/df = scale * (a' dG/df a - 2 dlin/df' a).

        The coordinates F of a strictly inside the box solve (G a)_F = lin_F
        with the others held at their bounds, so where that pattern persists
        da_F/df = -G_FF^{-1} u_F with u = dG/df a - dlin/df, and

            d2V/df2 = scale * (a' d2G/df2 a - 2 d2lin/df2' a - 2 u_F' G_FF^{-1} u_F).

        Gram, linear term and derivatives come from :meth:`moment_quadratic`.
        When :func:`_certified_factor` certifies the gram regular and its
        solution lies strictly inside the box, that is the minimizer, and the
        same factor solves for G^{-1} u; otherwise the same quadratic goes to
        :func:`solve_box` as a one-row stack, and the free block is factored
        alone.  The curvature is NaN where that block is not certified
        regular.  The entries match the design's to rounding, so this locates
        the period; the located period is solved again from the design.
        """
        gram, lin, dgram, dlin, d2gram, d2lin = self.moment_quadratic(f)
        lower, upper = _float_bounds(box, self.order)
        factor = _certified_factor(gram)
        alpha = None if factor is None else _factor_solve(factor, lin)
        free = range(len(lin))
        if alpha is None or not all(lo < a < hi for lo, a, hi in zip(lower, alpha, upper)):
            alpha = solve_box(np.array([gram]), np.array([lin]), lower, upper)[0].tolist()
            free = [i for i, (lo, a, hi) in enumerate(zip(lower, alpha, upper)) if lo < a < hi]
            # the free block's factor; with no free coefficient there is nothing to solve
            factor = _certified_factor([[gram[i][k] for k in free] for i in free]) if free else ([], [])
        # value - rr = a' (G a - 2 lin), slope = a' (dG a - 2 dlin), before the scale
        value = slope = bend = 0.0
        u = []
        for a, g, b, dg, db, ddg, ddb in zip(alpha, gram, lin, dgram, dlin, d2gram, d2lin):
            value += a * (sum(map(operator.mul, g, alpha)) - 2.0 * b)
            dg_a = sum(map(operator.mul, dg, alpha))
            slope += a * (dg_a - 2.0 * db)
            u.append(dg_a - db)
            bend += a * (sum(map(operator.mul, ddg, alpha)) - 2.0 * ddb)
        if factor is None:
            bend = math.nan
        else:
            u_free = [u[i] for i in free]
            bend -= 2.0 * sum(map(operator.mul, u_free, _factor_solve(factor, u_free)))
        return self.scale * slope, self.scale * (self.rr + value), self.scale * bend


def alpha_profile(
    traj: Trajectory,
    params: SirParams | None = None,
    cfg: ContrastConfig | None = None,
    order: int = 1,
) -> AlphaProfile:
    params, cfg, w = _resolve(traj, params, cfg)
    dt = traj.spacing()
    if w is None:
        raise DegenerateWeightsError(_vanishing_node(traj, params))
    t0 = traj.times[:-1]
    n = t0.size
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
