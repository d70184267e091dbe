"""Drift and noise coefficients of the two stochastic SIR variants.

Two model forms share one coefficient interface so the simulator and the
least-squares machinery stay model-agnostic:

* ``numbers``      -- compartments are population counts; birth/death terms
  present; the noise matrix is (sigma*X*Y*Z) times the 3x3 identity driving a
  3-dimensional noise source.
* ``proportions``  -- compartments are fractions summing to one; no
  demographics, so a nonzero birth or death rate is refused; the noise column
  is sigma*X*Y*Z * (-1, 2, -1) driving a scalar noise source, so noise
  increments cancel across compartments.

Each :class:`SirModel` also owns its simulation study's defaults: the
constants, the initial state and the contrast form that ``RunConfig`` takes
for the fields a config leaves unset.

States are plain length-3 arrays ordered (X, Y, Z) = (susceptible, infected,
recovered).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .transmission import ThetaParams, beta_eval, make_beta_fast


@dataclass(frozen=True)
class SirParams:
    """Fixed model constants.

    birth / death are the demographic rates (zero for the proportional model),
    gamma the recovery rate, sigma the scale of the state-dependent noise
    coefficient, eps the small-noise amplitude in [0, 1).
    """

    birth: float = 0.0
    death: float = 0.0
    gamma: float = 0.07142
    sigma: float = 0.5
    eps: float = 0.0

    def __post_init__(self):
        if self.gamma <= 0.0 or self.sigma <= 0.0:
            raise ValueError("gamma and sigma must be positive")
        if not 0.0 <= self.eps < 1.0:
            raise ValueError(f"eps must lie in [0, 1), got {self.eps}")
        if self.birth < 0.0 or self.death < 0.0:
            raise ValueError("birth and death rates must be nonnegative")

    def with_eps(self, eps: float) -> "SirParams":
        return replace(self, eps=eps)


SIMPLEX_TOL = 1e-10  # how far a proportions state's sum may stray from 1


def _split(state):
    s = np.asarray(state, dtype=float)
    return s[..., 0], s[..., 1], s[..., 2]


def _drift(tag: str, p: SirParams, beta: Callable) -> Callable:
    """The drift ``(t, x, y, z) -> (dX, dY, dZ)`` of model ``tag`` with transmission rate ``beta(t)``.

    This is the one place the SIR drift is written; every drift form of the
    package is built from it, except the in-place array step of the lockstep
    ensemble (``simulate._lockstep``), which takes these operations in the
    same order into preallocated buffers and is pinned to this form bit for
    bit by a property test.  It works alike on floats and on arrays of
    states taken elementwise, and ``beta`` decides which: ``beta_eval`` for
    times of any shape, ``make_beta_fast`` for float times in hot loops, zero
    for the beta-free part ``g`` of :func:`drift_beta_split`.
    """
    gamma = p.gamma
    if tag == "numbers":
        birth, death = p.birth, p.death
        out_y = death + gamma

        def drift(t, x, y, z):
            infections = beta(t) * x * y
            return birth - death * x - infections, infections - out_y * y, gamma * y - death * z

        return drift
    if tag == "proportions":

        def drift_prop(t, x, y, z):
            infections = beta(t) * x * y
            recoveries = gamma * y
            return -infections, infections - recoveries, recoveries

        return drift_prop
    raise ValueError(f"unknown model tag {tag!r}")


def drift_numbers(t, state, theta: ThetaParams, p: SirParams) -> np.ndarray:
    """(birth - death*X - beta*X*Y, beta*X*Y - (death+gamma)*Y, gamma*Y - death*Z)."""
    return np.stack(_drift("numbers", p, partial(beta_eval, theta=theta))(t, *_split(state)), axis=-1)


def drift_proportions(t, state, theta: ThetaParams, p: SirParams) -> np.ndarray:
    """(-beta*X*Y, beta*X*Y - gamma*Y, gamma*Y); components sum to zero."""
    return np.stack(_drift("proportions", p, partial(beta_eval, theta=theta))(t, *_split(state)), axis=-1)


def make_drift_fast(model, theta: ThetaParams, p: SirParams) -> Callable:
    """Drift ``(t, x, y, z) -> (dX, dY, dZ)`` for hot loops; equals ``model.drift`` pointwise.

    It is the closure of the one drift definition with the transmission rate
    of :func:`make_beta_fast`, returned as is, so a hot loop pays no extra
    call layer and on floats no numpy call is made.  ``t`` is a float, and
    so are the states in the package's loops.
    """
    return _drift(get_model(model).tag, p, make_beta_fast(theta))


def noise_coeff_numbers(state, p: SirParams):
    """Scalar sigma*X*Y*Z; the model's noise matrix is this times its noise direction."""
    x, y, z = _split(state)
    return p.sigma * x * y * z


def drift_beta_split(model_tag: str, state, p: SirParams):
    """Decompose the drift as g + beta(t) * v with v = (-X*Y, X*Y, 0).

    Returns (g, v); both broadcast over leading state axes.  g is the one
    drift definition at zero transmission, so it has the drift's other terms
    as they are computed everywhere else.  The residuals are affine in the
    transmission coefficients through this split.
    """
    x, y, z = _split(state)
    g = np.stack(_drift(model_tag, p, lambda t: 0.0)(0.0, x, y, z), axis=-1)
    xy = x * y
    return g, np.stack([-xy, xy, np.zeros_like(xy)], axis=-1)


@dataclass(frozen=True)
class SirModel:
    """One SIR variant: its drift, its read-only (3, driver_dim) noise direction and its study defaults.

    ``constants`` (at eps 0), ``x0`` and ``contrast_form`` are the values of
    the model's simulation study.
    """

    tag: str
    drift: Callable
    direction: np.ndarray = field(compare=False)
    constants: SirParams
    x0: tuple[float, float, float]
    contrast_form: str

    def __post_init__(self):
        self.direction.flags.writeable = False

    @property
    def driver_dim(self) -> int:
        return self.direction.shape[1]

    def noise_matrix(self, state, p: SirParams) -> np.ndarray:
        """(..., 3, driver_dim) noise matrix sigma*X*Y*Z * direction."""
        return noise_coeff_numbers(state, p)[..., None, None] * self.direction

    def validate_state(self, state) -> None:
        """Raise ValueError unless ``state`` is a nonnegative (X, Y, Z), on the simplex for proportions."""
        s = np.asarray(state, dtype=float)
        if s.shape[-1] != 3:
            raise ValueError("state must have 3 components (X, Y, Z)")
        if np.any(s < 0.0):
            raise ValueError(f"state components must be nonnegative, got {s}")
        if self.tag == "proportions" and np.any(np.abs(s.sum(axis=-1) - 1.0) > SIMPLEX_TOL):
            raise ValueError(f"proportions state must sum to 1 within {SIMPLEX_TOL}, got {s}")

    def validate_params(self, p: SirParams) -> None:
        """Raise ValueError where ``p`` has a birth or death rate that the proportions model lacks."""
        if self.tag == "proportions" and (p.birth != 0.0 or p.death != 0.0):
            raise ValueError(
                f"the proportions model has no births or deaths: birth and death must be 0, "
                f"got birth={p.birth!r}, death={p.death!r}"
            )


NUMBERS = SirModel(
    "numbers", drift_numbers, np.eye(3), SirParams(birth=0.018, death=0.00042), (2.3, 0.19, 0.25), "weighted"
)
# the weighted form needs a full-rank noise matrix; the proportional model's is rank one
PROPORTIONS = SirModel(
    "proportions", drift_proportions, np.array([[-1.0], [2.0], [-1.0]]), SirParams(), (0.82, 0.07, 0.11), "plain"
)
NUMBERS_X0 = NUMBERS.x0
PROPORTIONS_X0 = PROPORTIONS.x0

_MODELS = {"numbers": NUMBERS, "proportions": PROPORTIONS}


def numbers_defaults(eps: float = 0.0) -> SirParams:
    """Constants of the population-numbers simulation study."""
    return NUMBERS.constants.with_eps(eps)


def proportions_defaults(eps: float = 0.0) -> SirParams:
    """Constants of the population-proportions simulation study."""
    return PROPORTIONS.constants.with_eps(eps)


def get_model(model) -> SirModel:
    if isinstance(model, SirModel):
        return model
    try:
        return _MODELS[model]
    except KeyError:
        raise ValueError(f"unknown model {model!r}; expected 'numbers' or 'proportions'") from None

