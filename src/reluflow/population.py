"""Population-level quantities for deep single-ReLU-neuron models.

Model and conventions
---------------------
The predictor is x -> v_1 ... v_m * relu(w . x): one ReLU neuron with weight
vector w in R^d followed by m scalar layers ("hidden scalars"). Inputs are
standard Gaussian, x ~ N(0, I_d). Labels come from a planted teacher of the
same shape with weight vector target_w and all hidden scalars equal to
||target_w|| (a balanced teacher), so the teacher's scalar product is
||target_w||^m.

The population loss is the expected squared error
    L = (1/2) E_x (v_1...v_m relu(w.x) - ||target_w||^m relu(target_w.x))^2,
which reduces to a closed form in ||w||, the hidden scalars, and the angle
between w and target_w. Everything in this module is that closed form and its
exact gradient; no sampling happens here.

The gradient lives in one unchecked kernel, `_gradient(config, w, hidden)`,
and the norm and angles of w in one helper, `_angles`. `population_gradient`
is its checks plus that kernel; the full-space flow and population descent
step the raw (w, hidden) pair through the kernel, and `polar_of` and
`population_loss` read their coordinates from `_angles`. The kernel takes
its two reductions from BLAS dots and does its elementwise work on Python
floats, which give the ndarray formula's bits (see `_gradient`).

Two angle variables appear throughout the package:

* theta in [0, pi]  — the angle between w and target_w;
* phi = pi - theta  — the "alignment" angle, which increases to pi as the
  neuron converges. Closed forms are stated in whichever variable is cleaner.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateAngleError,
    DimensionError,
    DomainError,
    ZeroVectorError,
)

# Below this norm a vector has no usable direction in float64.
_NORM_FLOOR = 1e-300
# Unit-vector and degenerate-angle tolerances for the moment closed forms.
_UNIT_TOL = 1e-10
_SIN_FLOOR = 1e-10
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class NeuronConfig:
    """Problem instance: dimensions, depth, and the planted teacher.

    The teacher is balanced: each of its m hidden scalars equals
    target_norm = ||target_w||, so their product is target_norm^m. Both are
    computed once, at construction, together with target_floats, the
    entries of target_w as Python floats, which the gradient kernel reads.
    d and m are stored as Python ints. Equality is identity: a generated
    __eq__ would ask an array for its truth value.
    """

    d: int
    m: int
    target_w: np.ndarray
    target_norm: float = field(init=False)
    target_product: float = field(init=False)
    target_floats: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", _check_count(self.d, "d", 1))
        object.__setattr__(self, "m", _check_count(self.m, "m"))
        # A copy the caller cannot write to: the norm, product and floats
        # below are cached from it.
        w = np.array(self.target_w, dtype=float)
        w.flags.writeable = False
        if w.shape != (self.d,):
            raise DimensionError(f"target_w has shape {w.shape}, expected ({self.d},)")
        norm = float(np.linalg.norm(w))
        if norm < _NORM_FLOOR:
            raise ZeroVectorError("target_w must be nonzero")
        norm = _check_positive(norm, "the norm of target_w")
        object.__setattr__(self, "target_w", w)
        object.__setattr__(self, "target_norm", norm)
        object.__setattr__(self, "target_product", norm**self.m)
        object.__setattr__(self, "target_floats", tuple(w.tolist()))


@dataclass(frozen=True, eq=False)
class WeightState:
    """Student parameters: weight vector plus the m hidden scalars.

    Equality is identity, as for NeuronConfig.
    """

    w: np.ndarray
    hidden: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1:
            raise DimensionError(f"w must be a vector, got shape {w.shape}")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "hidden", tuple(float(v) for v in self.hidden))

    @property
    def product(self) -> float:
        """Product of the hidden scalars (1.0 when there are none)."""
        return math.prod(self.hidden) if self.hidden else 1.0


@dataclass(frozen=True)
class PolarState:
    """Reduced coordinates of a state: magnitude ||w|| and alignment angle,
    stored as Python floats."""

    magnitude: float
    angle: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "magnitude", _check_nonnegative(self.magnitude, "magnitude"))
        object.__setattr__(self, "angle", _check_angle(self.angle, "angle", closed=True))


# The input rules of the package, each stated once. Every check is written
# positively, so NaN fails it, and returns the Python scalar it checked,
# which the caller stores and computes on.

def _check_count(value: object, name: str, low: int = 0) -> int:
    """An integer (a bool is not one) >= low, as a Python int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if not value >= low:
        raise DomainError(f"{name} must be >= {low}, got {value!r}")
    return operator.index(value)


def _check_positive(value: float, name: str) -> float:
    """A positive finite number, as a Python float."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be {'positive' if value <= 0 else 'finite'}, "
                          f"got {value!r}")
    return float(value)


def _check_nonnegative(value: float, name: str) -> float:
    """A finite number >= 0, as a Python float."""
    if not 0.0 <= value < math.inf:
        raise DomainError(f"{name} must be finite and >= 0, got {value!r}")
    return float(value)


def _check_angle(value: float, name: str, closed: bool = False) -> float:
    """An angle strictly inside (0, pi), or in [0, pi] if closed, as a
    Python float."""
    if not (0.0 <= value <= math.pi if closed else 0.0 < value < math.pi):
        raise DomainError(f"{name}={value!r} must lie in "
                          f"{'[0, pi]' if closed else 'the open interval (0, pi)'}")
    return float(value)


def _check_hidden(hidden: Sequence[float]) -> None:
    """Hidden scalars that are all positive and finite."""
    for v in hidden:
        _check_positive(v, "a hidden scalar")


def _check_unit(u: np.ndarray, name: str) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise DimensionError(f"{name} must be a vector, got shape {u.shape}")
    if not abs(float(np.linalg.norm(u)) - 1.0) <= _UNIT_TOL:
        raise DomainError(f"{name} must be a unit vector (|norm-1| <= {_UNIT_TOL})")
    return u


def _check_unit_pair(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors of one dimension."""
    u, v = _check_unit(u, "u"), _check_unit(v, "v")
    if u.shape != v.shape:
        raise DimensionError(f"u and v must share a dimension, got {u.shape} and {v.shape}")
    return u, v


def half_space_second_moment(u: np.ndarray) -> np.ndarray:
    """E[ 1{u.x > 0} x x^T ] for x ~ N(0, I): equals I/2 for any unit u."""
    u = _check_unit(u, "u")
    return 0.5 * np.eye(u.shape[0])


def double_wedge_second_moment(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """E[ 1{u.x > 0} 1{v.x > 0} x x^T ] for x ~ N(0, I), unit u and v.

    With theta the angle between u and v, the closed form is

        (1/2)(1 - theta/pi) I
        + (1 / (2 pi sin theta)) [ -cos(theta)(u u^T + v v^T) + v u^T + u v^T ].

    u + v and u - v are eigenvectors, with eigenvalues
    (1/2)(1 - theta/pi) +- sin(theta)/(2 pi).

    Raises DegenerateAngleError when sin(theta) < 1e-10 (parallel or
    antiparallel arguments); the parallel limit is half_space_second_moment.
    """
    u, v = _check_unit_pair(u, v)
    cos_t = float(np.clip(u @ v, -1.0, 1.0))
    theta = math.acos(cos_t)
    sin_t = math.sin(theta)
    if sin_t < _SIN_FLOOR:
        raise DegenerateAngleError(
            f"u and v are (anti)parallel within tolerance: sin(theta)={sin_t}"
        )
    d = u.shape[0]
    cross = np.outer(v, u) + np.outer(u, v)
    own = np.outer(u, u) + np.outer(v, v)
    return 0.5 * (1.0 - theta / math.pi) * np.eye(d) + (cross - cos_t * own) / (
        2.0 * math.pi * sin_t
    )


def relu_product_moment(theta: float) -> float:
    """E[ relu(u.x) relu(v.x) ] for unit u, v at angle theta, x ~ N(0, I).

    Closed form: (1/2)(1 - theta/pi) cos(theta) + sin(theta) / (2 pi).
    At theta = 0 this is E relu(u.x)^2 = 1/2; at theta = pi it vanishes.
    """
    theta = _check_angle(theta, "theta", closed=True)
    return 0.5 * (1.0 - theta / math.pi) * math.cos(theta) + math.sin(theta) / (
        2.0 * math.pi
    )


def _angles(config: NeuronConfig, w: np.ndarray) -> tuple[float, float, float]:
    """Return (norm of w, theta, phi), or raise on zero w."""
    # w.dot(w) is the sum np.linalg.norm takes; min/max clip and keep NaN.
    norm = math.sqrt(float(w.dot(w)))
    if norm < _NORM_FLOOR:
        raise ZeroVectorError("state weight vector has zero norm")
    cos_t = min(max(float(w.dot(config.target_w)) / (norm * config.target_norm), -1.0), 1.0)
    theta = math.acos(cos_t)
    return norm, theta, math.pi - theta


def _check_state(config: NeuronConfig, state: WeightState) -> None:
    if state.w.shape != (config.d,):
        raise DimensionError(f"w has shape {state.w.shape}, expected ({config.d},)")
    if len(state.hidden) != config.m:
        raise DimensionError(
            f"state has {len(state.hidden)} hidden scalars, config says m={config.m}"
        )


def population_loss(config: NeuronConfig, state: WeightState) -> float:
    """Exact population squared-error loss of a state against the teacher.

    L = (1/2) [ P^2 ||w||^2 / 2  -  2 P P* ||w|| ||w*|| h(theta)
                + P*^2 ||w*||^2 / 2 ],

    where P is the product of the student's hidden scalars, P* the teacher's,
    w* the teacher vector, and h = relu_product_moment. Zero exactly on the
    teacher's function (w aligned with w*, P ||w|| = P* ||w*||).
    """
    _check_state(config, state)
    norm, theta, _ = _angles(config, state.w)
    p = state.product
    p_star = config.target_product
    t_norm = config.target_norm
    a = 0.5 * p * p * norm * norm
    b = p * p_star * norm * t_norm * relu_product_moment(theta)
    c = 0.5 * p_star * p_star * t_norm * t_norm
    return 0.5 * ((a + c) - 2.0 * b)


def population_gradient(
    config: NeuronConfig, state: WeightState
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient of population_loss in (w, hidden scalars).

    Returns (grad_w, grad_hidden) with shapes (d,) and (m,). In the alignment
    angle phi = pi - theta,

        dL/dw   = (P^2 / 2) w
                  - P P* [ (phi / 2 pi) w* + (sin phi / 2 pi)(||w*|| / ||w||) w ]
        dL/dv_k = (P / v_k) [ (P/2) ||w||^2
                              - P* ||w|| ||w*|| (sin phi - phi cos phi)/(2 pi) ].

    The w-gradient is continuous through the aligned and anti-aligned states,
    so no degenerate-angle guard is needed. Hidden scalars must all be
    strictly positive (the formulas assume the sign pattern is preserved,
    which holds along both flow and small-step descent).
    """
    _check_state(config, state)
    _check_hidden(state.hidden)
    grad_w, grad_hidden = _gradient(config, state.w, state.hidden)
    return np.array(grad_w), np.array(grad_hidden)


def _gradient(
    config: NeuronConfig, w: np.ndarray, hidden: Sequence[float]
) -> tuple[list[float], list[float]]:
    """population_gradient without its checks, as lists of floats: the
    caller has checked the shapes of w and hidden and the signs of the
    hidden scalars.

    The two reductions, ||w||^2 and w.w*, are the BLAS dots of `_angles`;
    every elementwise operation runs on Python floats, in one pass over
    w.tolist() and the teacher's floats, as c1 w - c2 (c3 w* + c4 w). A
    NumPy elementwise op and a Python float op are each one IEEE-754
    double operation with no fused multiply-add, so the same operands in
    the same order give what the ndarray form of the formula gives, bit for
    bit, at a fraction of its dispatch cost on small d.
    """
    norm, _, phi = _angles(config, w)
    p = math.prod(hidden, start=1.0)
    p_star = config.target_product
    t_norm = config.target_norm
    sin_phi = math.sin(phi)
    c1 = 0.5 * p * p
    c2 = p * p_star
    c3 = phi / _TWO_PI
    c4 = (sin_phi / _TWO_PI) * (t_norm / norm)
    grad_w = [c1 * x - c2 * (c3 * t + c4 * x) for x, t in zip(w.tolist(), config.target_floats)]
    if not hidden:
        return grad_w, []
    shared = 0.5 * p * norm * norm - p_star * norm * t_norm * (
        (sin_phi - phi * math.cos(phi)) / _TWO_PI
    )
    return grad_w, [(p / v) * shared for v in hidden]


def polar_of(config: NeuronConfig, state: WeightState) -> PolarState:
    """Reduced coordinates of a state: (||w||, pi - angle(w, target_w))."""
    _check_state(config, state)
    norm, _, phi = _angles(config, state.w)
    return PolarState(magnitude=norm, angle=phi)
