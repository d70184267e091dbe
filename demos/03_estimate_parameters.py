"""One full estimation run: line search over period cells, then a period search.

Synthetic data at a small noise amplitude, the weighted least-squares
objective, and the cell table that the estimator builds.  A dense frequency
scan and a golden-section search on the exact profile objective then sharpen
the winner; its row in the table shows the sharpened point.  The final
estimate lands within about 1e-4 of the truth.
"""

import numpy as np

from sirlevy import (
    BoxConstraints,
    ContrastConfig,
    EstimatorConfig,
    LevyPathNoise,
    REFERENCE_THETA,
    lsgd_estimate,
    numbers_defaults,
    simulate_sde,
)
from sirlevy.models import NUMBERS_X0

theta0 = REFERENCE_THETA
eps = 0.001
params = numbers_defaults(eps=eps)
noise = LevyPathNoise(seed=2718, rate=3, horizon=1.0, dim=3)
# observations on the estimation grid itself, the regime in which the
# one-step objective is exactly specified
traj = simulate_sde("numbers", theta0, params, NUMBERS_X0, 1.0, 100, noise, substeps=1)

result = lsgd_estimate(
    traj,
    EstimatorConfig(cells=20),
    BoxConstraints(),
    ContrastConfig(form="weighted", eps=eps),
    seed=99,
)

print("line-search table (cell, test period, objective):")
for cell in result.cells:
    marker = "  <- winner, sharpened by golden-section search on the exact profile" if cell.refined else ""
    print(f"  {cell.index:2d}  {cell.period:8.5f}  {cell.value:12.5g}{marker}")

print("\ntrue parameters:     ", np.round(theta0.to_vector(), 8))
print("estimated parameters:", np.round(result.theta.to_vector(), 8))
print("componentwise error: ", np.abs(result.theta.to_vector() - theta0.to_vector()))
print(f"objective at the estimate: {result.objective:.6g}, converged: {result.converged}")
