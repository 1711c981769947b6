"""Kernel regularized risk minimization with power losses.

Library layout:

* :mod:`kernelrisk.kernels` -- kernels, Gram matrices, expansions
* :mod:`kernelrisk.losses` -- loss families, inner risks, calibration
* :mod:`kernelrisk.solver` -- the regularized empirical risk minimizer
* :mod:`kernelrisk.bounds` -- closed-form thresholds and rate exponents
* :mod:`kernelrisk.covering` -- covering-number growth estimation
* :mod:`kernelrisk.data` -- synthetic models and excess risks
* :mod:`kernelrisk.experiments` -- trials, rate experiments, robustness
* :mod:`kernelrisk.validate` -- Monte-Carlo checks of the guarantees
* :mod:`kernelrisk.cli` -- the ``kernelrisk`` command
"""

from .kernels import (
    Box,
    Kernel,
    KernelExpansion,
    combine_expansions,
    kernel_matrix,
)
from .losses import (
    FiniteDistribution,
    LossSpec,
    calibration_inequality_factor,
    inner_risk,
    loss_value,
    minimal_inner_risk,
    modulus_of_convexity_bound,
    power_loss,
)
from .solver import FitResult, SolverConfig, TrainingSet, fit, objective
from .bounds import (
    BoundInputs,
    l2_rate_exponent,
    oracle_epsilon_threshold,
    power_loss_epsilon_threshold,
    sobolev_covering_exponent,
    sobolev_optimal_rate,
)
from .covering import CoveringEstimate, fit_covering_exponent
from .data import (
    ContaminatedNoise,
    DataModel,
    TruncatedGaussianNoise,
    UniformNoise,
    excess_l2_risk,
    excess_power_risk,
    generate,
)
from .experiments import RateReport, rate_experiment, robustness_study, run_trial
from .validate import (
    calibration_check,
    discrete_cost_gap_check,
    oracle_probability_check,
    variance_bound_check,
)

__version__ = "0.1.0"
