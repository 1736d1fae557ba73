"""Training dynamics of deep single-ReLU-neuron networks.

The package follows one object through four lenses: a chain of scalar layers
feeding a single ReLU unit, trained on Gaussian data against a planted
teacher. ``population`` holds the exact losses, gradients, and Gaussian
moment closed forms; ``flow`` integrates the reduced magnitude/angle system;
``bounds`` evaluates the analytic envelopes that sandwich it; ``descent``
runs gradient descent and carries the envelopes over to discrete steps; and
``montecarlo`` re-derives the closed forms by sampling. ``experiments`` and
``cli`` wrap everything into reproducible, artifact-producing runs.
"""

from .bounds import (
    BoundEnvelope,
    EnvelopeReport,
    check_envelope,
    convergence_horizon,
    envelope_curve,
    frozen_gap_magnitude_implicit,
    frozen_gap_magnitude_ode,
    magnitude_bounds_multilayer,
    reanchored,
)
from .descent import (
    DescentConfig,
    eta_threshold,
    gd_error_scaling,
    gd_step,
    run_gd,
    stopping_time,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateAngleError,
    DimensionError,
    DivergenceError,
    DomainError,
    UnavailableError,
    ZeroVectorError,
)
from .experiments import (
    EXPERIMENTS,
    ExperimentResult,
    RunConfig,
    parse_config_file,
    run_experiment,
)
from .flow import (
    FlowSpec,
    Trajectory,
    balanced_population_loss,
    epsilon_gap,
    integrate_polar,
    integrate_vector,
    polar_rhs,
    vector_rhs,
)
from .montecarlo import (
    McEstimate,
    angle_concentration,
    mc_double_wedge_moment,
    mc_half_space_moment,
    mc_population_gradient,
    mc_population_loss,
    mc_relu_product,
)
from .population import (
    NeuronConfig,
    PolarState,
    WeightState,
    double_wedge_second_moment,
    half_space_second_moment,
    polar_of,
    population_gradient,
    population_loss,
    relu_product_moment,
)

__version__ = "0.1.0"

__all__ = [
    "BoundEnvelope",
    "ConfigError",
    "ConvergenceError",
    "DegenerateAngleError",
    "DescentConfig",
    "DimensionError",
    "DivergenceError",
    "DomainError",
    "EXPERIMENTS",
    "EnvelopeReport",
    "ExperimentResult",
    "FlowSpec",
    "McEstimate",
    "NeuronConfig",
    "PolarState",
    "RunConfig",
    "Trajectory",
    "UnavailableError",
    "WeightState",
    "ZeroVectorError",
    "angle_concentration",
    "balanced_population_loss",
    "check_envelope",
    "convergence_horizon",
    "double_wedge_second_moment",
    "envelope_curve",
    "epsilon_gap",
    "eta_threshold",
    "frozen_gap_magnitude_implicit",
    "frozen_gap_magnitude_ode",
    "gd_error_scaling",
    "gd_step",
    "half_space_second_moment",
    "integrate_polar",
    "integrate_vector",
    "magnitude_bounds_multilayer",
    "mc_double_wedge_moment",
    "mc_half_space_moment",
    "mc_population_gradient",
    "mc_population_loss",
    "mc_relu_product",
    "parse_config_file",
    "polar_of",
    "polar_rhs",
    "population_gradient",
    "population_loss",
    "reanchored",
    "relu_product_moment",
    "run_experiment",
    "run_gd",
    "stopping_time",
    "vector_rhs",
]
