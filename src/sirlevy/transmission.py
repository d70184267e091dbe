"""Fourier-periodic transmission rate and its gradient in the parameters.

The transmission rate is a truncated Fourier series

    beta(t) = base + sum_k cos_k * cos(2*pi*k*t/period) + sin_k * sin(2*pi*k*t/period)

with an unknown period in (0, 1] and nonnegative oscillation coefficients.
The flat parameter vector layout used throughout the package is

    (period, base, cos_1, ..., cos_K, sin_1, ..., sin_K)

of length 2K + 2.  For the default order K = 1 this is simply
(period, base, cos, sin).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# beta diverges as period -> 0, so the admissible box is clipped at this
# floor; the box is closed, so the floor itself is admissible and evaluates.
PERIOD_FLOOR = 1e-3


def _as_tuple(x) -> tuple[float, ...]:
    if np.isscalar(x):
        return (float(x),)
    return tuple(float(v) for v in x)


@dataclass(frozen=True)
class ThetaParams:
    """Transmission parameters: period, constant base rate, Fourier coefficients.

    cos_coeffs and sin_coeffs must have equal length K (the Fourier order);
    scalars are promoted to 1-tuples so ``ThetaParams(0.5, 0.7, 0.1, 0.2)``
    works for the common K = 1 case.
    """

    period: float
    base: float
    cos_coeffs: tuple[float, ...] = (0.0,)
    sin_coeffs: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        object.__setattr__(self, "period", float(self.period))
        object.__setattr__(self, "base", float(self.base))
        object.__setattr__(self, "cos_coeffs", _as_tuple(self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", _as_tuple(self.sin_coeffs))
        if len(self.cos_coeffs) != len(self.sin_coeffs):
            raise ValueError("cos_coeffs and sin_coeffs must have the same length")

    @property
    def order(self) -> int:
        return len(self.cos_coeffs)

    @property
    def dim(self) -> int:
        return 2 * self.order + 2

    def to_vector(self) -> np.ndarray:
        return np.array([self.period, self.base, *self.cos_coeffs, *self.sin_coeffs])

    @classmethod
    def from_vector(cls, vec) -> "ThetaParams":
        vec = np.asarray(vec, dtype=float)
        if vec.ndim != 1 or vec.size < 4 or vec.size % 2 != 0:
            raise ValueError(f"parameter vector must have even length >= 4, got shape {vec.shape}")
        k = (vec.size - 2) // 2
        return cls(vec[0], vec[1], tuple(vec[2 : 2 + k]), tuple(vec[2 + k :]))

    def validate(self) -> None:
        """Check the invariants expected of a model parameter (not of an optimizer iterate)."""
        if not PERIOD_FLOOR <= self.period <= 1.0:
            raise ValueError(f"period must lie in [{PERIOD_FLOOR}, 1], got {self.period}")
        if self.base <= 0.0:
            raise ValueError(f"base rate must be positive, got {self.base}")
        if any(c < 0.0 for c in self.cos_coeffs) or any(s < 0.0 for s in self.sin_coeffs):
            raise ValueError("oscillation coefficients must be nonnegative")


def _check_period(theta: ThetaParams) -> None:
    # the admissible box is closed at the floor, so the floor itself evaluates
    if theta.period < PERIOD_FLOOR:
        raise ValueError(
            f"period {theta.period} is below the floor {PERIOD_FLOOR}; "
            "the transmission rate is singular as the period approaches 0"
        )


def beta_eval(t, theta: ThetaParams):
    """Transmission rate at time(s) t.  Scalar t gives a float, array t an array."""
    _check_period(theta)
    t_arr = np.asarray(t, dtype=float)
    k = np.arange(1, theta.order + 1, dtype=float)
    w = (2.0 * np.pi / theta.period) * np.multiply.outer(t_arr, k)
    val = theta.base + np.cos(w) @ np.asarray(theta.cos_coeffs) + np.sin(w) @ np.asarray(theta.sin_coeffs)
    return float(val) if val.ndim == 0 else val


def beta_grad(t, theta: ThetaParams):
    """Gradient of beta_eval in (period, base, cos_1..K, sin_1..K).

    Scalar t gives shape (2K+2,), array t of shape (n,) gives (n, 2K+2).
    """
    _check_period(theta)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    k = np.arange(1, theta.order + 1, dtype=float)
    cos_c = np.asarray(theta.cos_coeffs)
    sin_c = np.asarray(theta.sin_coeffs)

    w = (2.0 * np.pi / theta.period) * np.multiply.outer(t_arr, k)  # (n, K)
    cw, sw = np.cos(w), np.sin(w)
    # d(beta)/d(period):  sum_k (2 pi k t / period^2) * (cos_k sin(w) - sin_k cos(w))
    dperiod = ((2.0 * np.pi / theta.period**2) * np.multiply.outer(t_arr, k) * (cw * (-sin_c) + sw * cos_c)).sum(
        axis=1
    )
    out = np.concatenate(
        [dperiod[:, None], np.ones((t_arr.size, 1)), cw, sw],
        axis=1,
    )
    return out[0] if np.ndim(t) == 0 else out


def make_beta_fast(theta: ThetaParams):
    """Scalar-argument evaluator for hot loops; equals beta_eval pointwise.

    For the common K = 1 case this avoids numpy overhead entirely.
    """
    _check_period(theta)
    import math

    if theta.order == 1:
        two_pi_over_p = 2.0 * math.pi / theta.period
        base, c1, s1 = theta.base, theta.cos_coeffs[0], theta.sin_coeffs[0]

        def beta_fast(t: float) -> float:
            w = two_pi_over_p * t
            return base + c1 * math.cos(w) + s1 * math.sin(w)

        return beta_fast

    def beta_fast_general(t: float) -> float:
        return beta_eval(t, theta)

    return beta_fast_general
