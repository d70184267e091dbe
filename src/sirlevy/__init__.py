"""Stochastic SIR models with periodic transmission under small Levy noise:
simulation, least-squares estimation, and desk-scale checks of the
consistency and rate-of-convergence asymptotics."""

from .contrast import (
    AlphaQuadratic,
    ContrastConfig,
    DegenerateWeightsError,
    SingularDesignError,
    alpha_quadratic,
    contrast_gradient,
    contrast_value,
    linear_solve_alpha,
    residuals,
)
from .estimator import (
    BoxConstraints,
    EstimationError,
    EstimationResult,
    EstimatorConfig,
    lsgd_estimate,
    pgd_alpha,
)
from .experiments import (
    REFERENCE_THETA,
    DatasetRecord,
    RunConfig,
    batch_estimate,
    emit_reports,
    generate_datasets,
    load_records,
    load_trajectory,
    prediction_study,
    sample_true_theta,
    save_trajectory,
)
from .levy import LevyPathNoise, sample_lambda
from .models import (
    NUMBERS,
    NUMBERS_X0,
    PROPORTIONS,
    PROPORTIONS_X0,
    SirModel,
    SirParams,
    drift_numbers,
    drift_proportions,
    get_model,
    noise_coeff_numbers,
    numbers_defaults,
    proportions_defaults,
)
from .simulate import (
    PathBatch,
    SimulationError,
    Trajectory,
    predict_ensemble,
    simulate_many,
    simulate_sde,
    solve_ode,
)
from .theory import (
    InfoMatrix,
    LimitSampler,
    RateResult,
    asymptotic_contrast,
    information_matrix,
    rate_experiment,
)
from .transmission import PERIOD_FLOOR, ThetaParams, beta_eval, beta_grad

__version__ = "0.1.0"
