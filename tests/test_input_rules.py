"""Every public entry point refuses an input outside its rule with DomainError.

Each input rule is stated once, in the population module, and stated
positively, so NaN fails it: a count is an integer (not a bool) at or above
a floor, and a magnitude, norm, step size or horizon is positive and finite.
The table below lists every public function and record of the population,
flow, bounds, descent and Monte Carlo modules that takes a number. Each
float argument is fed NaN, inf and a negative value and each count 2.5 and
True, and each must raise DomainError. NaN and inf target norms, negative
target norms in the loss, NaN hidden scalars and NaN teacher vectors all
reached a result or a stray error type once.
"""
import dataclasses
import inspect
import math
import typing

import numpy as np
import pytest

from reluflow import bounds, descent, flow, montecarlo, population
from reluflow.bounds import (
    BoundEnvelope,
    check_envelope,
    convergence_horizon,
    envelope_curve,
    frozen_gap_magnitude_implicit,
    frozen_gap_magnitude_ode,
    magnitude_bounds_multilayer,
)
from reluflow.descent import DescentConfig, gd_error_scaling, gd_step, stopping_time
from reluflow.errors import DimensionError, DomainError
from reluflow.flow import (
    FlowSpec,
    Trajectory,
    balanced_population_loss,
    epsilon_gap,
    integrate_polar,
    integrate_vector,
    polar_rhs,
)
from reluflow.montecarlo import (
    McEstimate,
    angle_concentration,
    mc_double_wedge_moment,
    mc_half_space_moment,
    mc_population_gradient,
    mc_population_loss,
    mc_relu_product,
)
from reluflow.population import (
    NeuronConfig,
    PolarState,
    WeightState,
    double_wedge_second_moment,
    population_gradient,
    relu_product_moment,
)

_STATE = PolarState(0.9, 2.0)
_CONFIG = NeuronConfig(d=3, m=2, target_w=np.array([1.0, 0.5, -0.2]))
_W = np.array([0.3, 0.1, 0.2])
_WEIGHTS = WeightState(_W, (0.9, 1.1))
_U = np.array([1.0, 0.0, 0.0])
_V = np.array([0.6, 0.8, 0.0])
_MAGNITUDE = BoundEnvelope("magnitude", 0, 1.05, 2.0, 0.9)
_ANGLE = BoundEnvelope("angle", 2, 1.05, 2.0, 0.9, r=0.8, R=1.2, anchor_time=0.5)
_TRAJ = Trajectory(np.arange(3.0), (_STATE,) * 3, np.zeros(3))
_BATCH = np.random.default_rng(0).standard_normal((20, 3))


def _hidden(call):
    """call on the standard problem with its first hidden scalar replaced."""
    return lambda hidden: call(WeightState(_W, (hidden, 1.1)))


def _rate_check(c, eta, horizon):
    return gd_error_scaling(c, lambda x: 1.0 - 0.5 * x, lambda w: c * (1.0 - w), [eta], horizon)


# (what the row covers, the call, valid arguments, float arguments, count arguments)
_ROWS = [
    (NeuronConfig, NeuronConfig, dict(d=3, m=2, target_w=np.ones(3)), [], ["d", "m"]),
    (PolarState, PolarState, dict(magnitude=0.9, angle=2.0), ["magnitude", "angle"], []),
    (relu_product_moment, relu_product_moment, dict(theta=1.0), ["theta"], []),
    (population_gradient, _hidden(lambda s: population_gradient(_CONFIG, s)),
     dict(hidden=0.9), ["hidden"], []),
    (epsilon_gap, epsilon_gap, dict(phi=2.0), ["phi"], []),
    (polar_rhs, polar_rhs, dict(m=2, target_norm=1.05, state=_STATE), ["target_norm"], ["m"]),
    (balanced_population_loss, balanced_population_loss,
     dict(m=2, target_norm=1.05, state=_STATE), ["target_norm"], ["m"]),
    (FlowSpec, FlowSpec, dict(m=2, target_norm=1.05, initial=_STATE, t_end=0.01, dt=1e-3),
     ["target_norm", "t_end", "dt"], ["m"]),
    (integrate_polar, integrate_polar,
     dict(spec=FlowSpec(2, 1.05, _STATE, 0.01, 1e-3), sample_every=2), [], ["sample_every"]),
    (integrate_vector, integrate_vector,
     dict(config=_CONFIG, init=_WEIGHTS, t_end=0.01, dt=1e-3, sample_every=2),
     ["t_end", "dt"], ["sample_every"]),
    (BoundEnvelope, BoundEnvelope,
     dict(kind="angle", m=2, target_norm=1.05, phi0=2.0, v0=0.9, r=0.8, R=1.2, anchor_time=0.5),
     ["target_norm", "phi0", "v0", "r", "R", "anchor_time"], ["m"]),
    (frozen_gap_magnitude_ode, frozen_gap_magnitude_ode,
     dict(m=2, target_norm=1.05, eps=0.2, v0=0.9, tau=0.3, dt=1e-3),
     ["target_norm", "eps", "v0", "tau", "dt"], ["m"]),
    (frozen_gap_magnitude_implicit, frozen_gap_magnitude_implicit,
     dict(m=2, target_norm=1.05, eps=0.2, v0=0.9, tau=0.3),
     ["target_norm", "eps", "v0", "tau"], ["m"]),
    (magnitude_bounds_multilayer, magnitude_bounds_multilayer,
     dict(env=BoundEnvelope("magnitude", 2, 1.05, 2.0, 0.9), t=1.0), ["t"], []),
    (envelope_curve, envelope_curve, dict(env=_MAGNITUDE, times=np.arange(3.0), eta=1e-3),
     ["eta"], []),
    (check_envelope, check_envelope, dict(traj=_TRAJ, env=_MAGNITUDE, slack=0.1, eta=1e-3),
     ["slack", "eta"], []),
    (convergence_horizon, convergence_horizon, dict(m=1, target_norm=1.05, v0=0.9, phi0=2.0),
     ["target_norm", "v0", "phi0"], ["m"]),
    (DescentConfig, DescentConfig,
     dict(eta=1e-3, steps=10, mode="empirical", n_samples=20, seed=4, record_every=2),
     ["eta"], ["steps", "n_samples", "seed", "record_every"]),
    (gd_step, gd_step, dict(config=_CONFIG, state=_WEIGHTS, eta=1e-3), ["eta"], []),
    (gd_step, _hidden(lambda s: gd_step(_CONFIG, s, 1e-3)), dict(hidden=0.9), ["hidden"], []),
    (gd_step, _hidden(lambda s: gd_step(_CONFIG, s, 1e-3, _BATCH)), dict(hidden=0.9),
     ["hidden"], []),
    (gd_error_scaling, _rate_check, dict(c=0.5, eta=1e-2, horizon=2.0),
     ["c", "eta", "horizon"], []),
    (stopping_time, stopping_time, dict(env=_ANGLE, eta=1e-3, eps=1e-2), ["eta", "eps"], []),
    (McEstimate, McEstimate, dict(value=np.zeros(2), stderr=np.zeros(2), n=10, seed=0), [],
     ["n"]),
    (mc_half_space_moment, mc_half_space_moment, dict(u=_U, n=10, seed=0), [], ["n", "seed"]),
    (mc_double_wedge_moment, mc_double_wedge_moment, dict(u=_U, v=_V, n=10, seed=0), [],
     ["n", "seed"]),
    (mc_relu_product, mc_relu_product, dict(u=_U, v=_V, n=10, seed=0), [], ["n", "seed"]),
    (mc_population_loss, mc_population_loss, dict(config=_CONFIG, state=_WEIGHTS, n=10, seed=0),
     [], ["n", "seed"]),
    (mc_population_gradient, mc_population_gradient,
     dict(config=_CONFIG, state=_WEIGHTS, n=10, seed=0), [], ["n", "seed"]),
    (mc_population_gradient, _hidden(lambda s: mc_population_gradient(_CONFIG, s, 10, 0)),
     dict(hidden=0.9), ["hidden"], []),
    (angle_concentration, angle_concentration, dict(d=3, eps=0.3, trials=1_000, seed=0), ["eps"],
     ["d", "trials", "seed"]),
]
# Numeric arguments no rule governs: a sign-free margin, a sequence index
# and the seed an estimator copies from its own checked call.
_FREE = {(bounds.EnvelopeReport, "worst_margin"), (bounds.reanchored, "index"),
         (McEstimate, "seed")}
_NUMBERS = (int, float, float | None)

_CASES = [
    pytest.param(row, name, bad, id=f"{row[0].__name__}-{name}-{bad}")
    for row in _ROWS
    for names, bads in ((row[3], (math.nan, math.inf, -1.0)), (row[4], (2.5, True)))
    for name in names for bad in bads
]


@pytest.mark.parametrize("row", _ROWS, ids=lambda row: row[0].__name__)
def test_valid_arguments_are_admitted(row):
    _, call, valid, _, _ = row
    call(**valid)


@pytest.mark.parametrize("row,name,bad", _CASES)
def test_each_rule_refuses_nan_inf_negative_and_non_integers(row, name, bad):
    _, call, valid, _, _ = row
    with pytest.raises(DomainError):
        call(**{**valid, name: bad})


def _public_numeric_arguments() -> set[tuple[object, str]]:
    found = set()
    for module in (population, flow, bounds, descent, montecarlo):
        for name, obj in vars(module).items():
            if (name.startswith("_") or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            hints = typing.get_type_hints(obj)
            params = inspect.signature(obj).parameters
            found |= {(obj, p) for p in params if hints.get(p) in _NUMBERS}
    return found


def test_every_numeric_argument_has_a_row():
    covered = {(row[0], name) for row in _ROWS for name in row[3] + row[4]}
    assert _public_numeric_arguments() - _FREE <= covered
    assert _FREE <= _public_numeric_arguments()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_teacher_vector_must_be_finite(bad):
    with pytest.raises(DomainError):
        NeuronConfig(d=2, m=1, target_w=[bad, 1.0])


@pytest.mark.parametrize("call", [
    double_wedge_second_moment,
    lambda u, v: mc_double_wedge_moment(u, v, 10, 0),
    lambda u, v: mc_relu_product(u, v, 10, 0),
], ids=["double_wedge_second_moment", "mc_double_wedge_moment", "mc_relu_product"])
def test_unit_pairs_share_one_rule(call):
    for u, v in ((_U, np.array([math.nan, 1.0, 0.0])), (_U, 2.0 * _V)):
        with pytest.raises(DomainError):
            call(u, v)
    with pytest.raises(DimensionError):
        call(_U, _V[:2])


def test_reanchoring_keeps_every_other_field():
    env = dataclasses.replace(_ANGLE, anchor_time=0.0)
    got = bounds.reanchored(env, _TRAJ, 2)
    assert (got.phi0, got.v0, got.anchor_time) == (2.0, 0.9, 2.0)
    assert type(got.anchor_time) is float
    assert dataclasses.replace(got, phi0=env.phi0, v0=env.v0, anchor_time=0.0) == env
