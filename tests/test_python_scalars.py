"""Numbers handed to the flow, band and descent entry points are stored and
computed on as Python floats and ints.

A NumPy scalar that leaked into a pure-Python loop would keep the results
(float(np.float64(x)) is x) but run every operation on NumPy scalars, at
about twice the cost. Each entry point must give the same bits from NumPy
inputs as from builtin ones, and hand back builtin types.
"""
import dataclasses
import math
import typing

import numpy as np
import pytest

from reluflow import bounds, descent, flow, population
from reluflow.bounds import (
    BoundEnvelope,
    EnvelopeReport,
    convergence_horizon,
    envelope_curve,
    frozen_gap_magnitude_implicit,
    frozen_gap_magnitude_ode,
)
from reluflow.descent import DescentConfig, gd_error_scaling
from reluflow.flow import (
    FlowSpec,
    Trajectory,
    balanced_population_loss,
    epsilon_gap,
    integrate_polar,
    polar_rhs,
)
from reluflow.population import NeuronConfig, PolarState, WeightState, relu_product_moment


def _np(value):
    """The NumPy scalar of a builtin number: np.int64 for an int, else np.float64."""
    return np.int64(value) if isinstance(value, int) else np.float64(value)


def _same(a, b) -> None:
    """Same type and the same bits."""
    assert type(a) is type(b)
    if isinstance(a, float):
        assert a.hex() == b.hex()
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    else:
        assert a == b


# ----------------------------------------------------------------
# entry points: NumPy inputs give builtin results, bit for bit

@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_integrate_polar_runs_on_python_scalars(m):
    v0, phi0, vstar = 0.9, 2.0, 1.05
    horizon = convergence_horizon(m, vstar, v0, phi0)
    want = integrate_polar(FlowSpec(m, vstar, PolarState(v0, phi0), horizon, 2e-3),
                           sample_every=50)
    np_horizon = convergence_horizon(_np(m), _np(vstar), _np(v0), _np(phi0))
    _same(np_horizon, horizon)
    spec = FlowSpec(_np(m), _np(vstar), PolarState(_np(v0), _np(phi0)), np_horizon,
                    np.float64(2e-3))
    got = integrate_polar(spec, sample_every=np.int64(50))
    for name in ("times", "magnitudes", "angles", "losses"):
        _same(getattr(got, name), getattr(want, name))
    for state in got.states:
        assert type(state.magnitude) is float and type(state.angle) is float


@pytest.mark.parametrize("tau", [0.0, 0.3, 3.0])
@pytest.mark.parametrize("eps", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("path", [frozen_gap_magnitude_ode, frozen_gap_magnitude_implicit])
def test_frozen_gap_paths_run_on_python_scalars(path, eps, tau):
    # tau = 0 returns v0 itself, and eps = 1 takes the implicit path's direct
    # integration.
    args = (2, 1.05, eps, 0.9, tau)
    _same(path(*map(_np, args)), path(*args))


@pytest.mark.parametrize("which", [0, 1, 2, 3, None], ids=["m", "target_norm", "v0", "phi0", "all"])
# Starts below the attractor (0.78), between it and vstar, and above vstar.
@pytest.mark.parametrize("v0", [0.5, 0.9, 1.4])
def test_convergence_horizon_returns_a_python_float(which, v0):
    args = (1, 1.05, v0, 2.0)
    np_args = [_np(a) if which in (None, i) else a for i, a in enumerate(args)]
    _same(convergence_horizon(*np_args), convergence_horizon(*args))


# The m >= 2 magnitude band is drawn on the flow only.
@pytest.mark.parametrize("kind,m,eta", [
    (kind, m, eta) for kind, m in [("magnitude", 0), ("magnitude", 1), ("angle", 0), ("angle", 3)]
    for eta in (None, 1e-3)] + [("magnitude", 2, None)])
def test_envelope_curve_is_the_same_from_numpy_fields(kind, m, eta):
    numbers = (m, 1.05, 2.0, 0.9, 0.8, 1.2, 0.5)
    times = np.arange(0.5, 40.5)
    want = envelope_curve(BoundEnvelope(kind, *numbers), times, eta)
    got = envelope_curve(BoundEnvelope(kind, *map(_np, numbers)), times,
                         None if eta is None else np.float64(eta))
    for a, b in zip(got, want):
        _same(a, b)


@pytest.mark.parametrize("call,args", [
    (polar_rhs, (2, 1.05, PolarState(0.9, 2.0))),
    (balanced_population_loss, (2, 1.05, PolarState(0.9, 2.0))),
    (epsilon_gap, (2.0,)),
    (epsilon_gap, (math.pi - 1e-8,)),
    (relu_product_moment, (1.0,)),
], ids=["polar_rhs", "balanced_population_loss", "epsilon_gap", "epsilon_gap-series",
        "relu_product_moment"])
def test_scalar_functions_return_python_floats(call, args):
    np_args = [a if isinstance(a, PolarState) else _np(a) for a in args]
    want, got = call(*args), call(*np_args)
    for a, b in zip(*((x if isinstance(x, tuple) else (x,)) for x in (got, want))):
        _same(a, b)


def test_gd_error_scaling_returns_python_floats():
    c = 0.5

    def g(x):
        return 1.0 - 0.5 * x

    def rhs(w):
        return c * (1.0 - w)

    want = gd_error_scaling(c, g, rhs, [1e-2, 5e-3], 2.0)
    got = gd_error_scaling(np.float64(c), g, rhs, [np.float64(1e-2), np.float64(5e-3)],
                           np.float64(2.0))
    for pair_got, pair_want in zip(got, want):
        for a, b in zip(pair_got, pair_want):
            _same(a, b)


# ----------------------------------------------------------------
# regression guard: every public frozen dataclass stores builtin numbers

_STATE = PolarState(0.9, 2.0)
_GRID = np.linspace(0.0, 1.0, 3)
# Valid arguments, as builtin numbers, for every public frozen dataclass of
# the four modules; a new one must be added here.
_VALID = {
    NeuronConfig: dict(d=3, m=2, target_w=np.array([1.0, 0.5, -0.2])),
    WeightState: dict(w=np.array([0.3, 0.1, 0.2]), hidden=(0.9, 1.1)),
    PolarState: dict(magnitude=0.9, angle=2.0),
    FlowSpec: dict(m=2, target_norm=1.05, initial=_STATE, t_end=3.0, dt=1e-3),
    Trajectory: dict(times=_GRID, states=(_STATE,) * 3, losses=_GRID),
    BoundEnvelope: dict(kind="angle", m=2, target_norm=1.05, phi0=2.0, v0=0.9,
                        r=0.8, R=1.2, anchor_time=0.5),
    EnvelopeReport: dict(passed=True, worst_margin=-0.1, times=_GRID, values=_GRID,
                         lowers=_GRID, uppers=_GRID),
    DescentConfig: dict(eta=1e-3, steps=100, mode="empirical", n_samples=50, seed=4,
                        record_every=10),
}
_NUMBERS = {float: float, int: int, float | None: float}


def _public_frozen_dataclasses() -> set[type]:
    found = set()
    for module in (population, flow, bounds, descent):
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__ and not name.startswith("_")
                    and obj.__dataclass_params__.frozen):
                found.add(obj)
    return found


def test_every_public_frozen_dataclass_is_covered():
    assert _public_frozen_dataclasses() == set(_VALID)


@pytest.mark.parametrize("cls", list(_VALID), ids=lambda cls: cls.__name__)
def test_numeric_fields_hold_python_scalars_when_built_from_numpy(cls):
    hints = typing.get_type_hints(cls)
    kwargs = dict(_VALID[cls])
    for name, value in kwargs.items():
        if hints[name] in _NUMBERS:
            kwargs[name] = _np(value)
        elif hints[name] == tuple[float, ...]:
            kwargs[name] = tuple(map(np.float64, value))
    want, got = cls(**_VALID[cls]), cls(**kwargs)
    for field in dataclasses.fields(cls):
        hint, value = hints[field.name], getattr(got, field.name)
        if hint in _NUMBERS:
            assert type(value) is _NUMBERS[hint], field.name
            _same(value, getattr(want, field.name))
        elif hint == tuple[float, ...]:
            assert all(type(x) is float for x in value), field.name
            assert value == getattr(want, field.name)
