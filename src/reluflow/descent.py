"""Gradient descent and its bridge to the flow results.

The bridge: solutions of the flow that can be written as w(t) = g(e^(-c t))
turn into descent-side statements by substituting e^(-c t) -> (1 - c eta)^T,
accurate to first order in the step size over any fixed horizon c eta T.
The closed-form envelopes are stated once, as (c, g) terms in the band
table of the bounds module, and `bounds.envelope_curve(env, steps, eta)`
evaluates them at (1 - c eta)^T: the descent-side envelopes are the flow
envelopes pushed through the substitution (the angle upper band is the sum
of two terms, rates c and 3c, then clipped at pi). `ExpFlowForm` carries
one validated (c, g) pair; `flow_forms_for` wraps the table's terms in it,
and `gf_to_gd` performs the substitution for one pair, with the step-size
guards below.

Step-size thresholds: every descent-side band is derived under a smallness
condition on eta. `eta_threshold` returns the theorem-scale constant 1 / c
at the band's fastest rate; `stopping_time` reads the lower rate; the
bridge refuses eta above a tenth of it and warns above a hundredth, while
`envelope_curve` warns above a tenth and still draws the band (a run with a
too-large step still wants its band drawn, it just loses the guarantee).

`run_gd` trains the deep single-ReLU-neuron model itself, either on the
population gradient (exact closed form) or on a fixed dataset drawn once
(full-batch, realizable labels from the teacher). The teacher's labels on
that dataset never change, so `run_gd` computes them once per run and steps
the raw (w, hidden) pair; one private kernel, which takes the labels, is the
sample gradient of both `gd_step` and `run_gd`, and one update rule applies
it. `gd_step` still validates its inputs on every call; `run_gd` validates
once and builds a `WeightState` only at the steps it records.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import BoundEnvelope, _band_forms, _threshold
from .errors import DivergenceError, DomainError
from .flow import Trajectory, epsilon_gap
from .population import (
    NeuronConfig,
    PolarState,
    WeightState,
    _check_state,
    polar_of,
    population_gradient,
    population_loss,
)

_BLOWUP = 1e12


@dataclass(frozen=True)
class DescentConfig:
    """Step size, length, and gradient source of a descent run.

    mode 'population' uses the exact gradient; 'empirical' uses the
    full-batch gradient on n_samples inputs drawn once from seed.
    """

    eta: float
    steps: int
    mode: str = "population"
    n_samples: int = 0
    seed: int = 0
    record_every: int = 1

    def __post_init__(self) -> None:
        _check_eta(self.eta)
        if not (_is_count(self.steps) and self.steps >= 0):
            raise DomainError(f"steps must be a non-negative integer, got {self.steps!r}")
        if self.mode not in ("population", "empirical"):
            raise DomainError(f"unknown mode {self.mode!r}")
        if self.mode == "empirical" and not (_is_count(self.n_samples) and self.n_samples >= 1):
            raise DomainError("empirical mode needs an integer n_samples >= 1")
        if not (_is_count(self.record_every) and self.record_every >= 1):
            raise DomainError("record_every must be an integer >= 1")


def _is_count(value: object) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_eta(eta: float) -> None:
    # Stated positively: NaN fails every comparison.
    if not 0.0 < eta < math.inf:
        raise DomainError(f"eta must be positive and finite, got {eta}")


@dataclass(frozen=True)
class ExpFlowForm:
    """A flow solution in exponential-substitution form, w(t) = g(e^(-c t)).

    g must be injective on [0, 1]; that is spot-checked on a thousand-point
    grid at construction. g_prime, when supplied, is the derivative of g
    (available to error analyses; not required by the substitution itself).
    """

    c: float
    g: Callable[[float], float]
    g_prime: Callable[[float], float] | None = None

    def __post_init__(self) -> None:
        if self.c <= 0:
            raise DomainError("decay rate c must be positive")
        values = [self.g(x) for x in np.linspace(0.0, 1.0, 1000)]
        diffs = np.diff(values)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise DomainError("g must be strictly monotone (injective) on [0, 1]")


def gd_step(
    config: NeuronConfig,
    state: WeightState,
    eta: float,
    batch: np.ndarray | None = None,
) -> WeightState:
    """One descent step; population gradient if batch is None, else the
    full-batch sample gradient of the squared error on the given inputs.

    Raises DivergenceError if a hidden scalar is driven to or below zero
    (outside the sign-preserving regime every guarantee lives in).
    """
    _check_eta(eta)
    if batch is None:
        grad_w, grad_hidden = population_gradient(config, state)
    else:
        batch = np.asarray(batch, dtype=float)
        if batch.ndim != 2 or batch.shape[1] != config.d:
            raise DomainError(f"batch must have shape (n, {config.d})")
        _check_state(config, state)
        if not all(v > 0.0 for v in state.hidden):
            raise DomainError("hidden scalars must be positive")
        grad_w, grad_hidden = _sample_gradient(
            state.w, state.hidden, batch, _teacher_labels(config, batch)
        )
    return WeightState(*_descend(state.w, state.hidden, eta, grad_w, grad_hidden))


def _teacher_labels(config: NeuronConfig, batch: np.ndarray) -> np.ndarray:
    return config.target_product * np.maximum(batch @ config.target_w, 0.0)


def _sample_gradient(
    w: np.ndarray, hidden: tuple[float, ...], batch: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Full-batch gradient of the squared error against fixed labels; the
    caller has checked the batch's shape and the hidden scalars' signs."""
    n = batch.shape[0]
    p = math.prod(hidden) if hidden else 1.0
    pre = batch @ w
    ind = pre > 0.0
    act = np.where(ind, pre, 0.0)
    e = p * act - labels
    grad_w = (p / n) * (batch.T @ (e * ind))
    if not hidden:
        return grad_w, np.zeros(0)
    shared = float(e @ act) / n
    grad_hidden = np.array([(p / v) * shared for v in hidden])
    return grad_w, grad_hidden


def _descend(
    w: np.ndarray,
    hidden: tuple[float, ...],
    eta: float,
    grad_w: np.ndarray,
    grad_hidden: np.ndarray,
) -> tuple[np.ndarray, tuple[float, ...]]:
    new_w = w - eta * grad_w
    new_hidden = tuple(v - eta * g for v, g in zip(hidden, grad_hidden))
    if not all(v > 0.0 for v in new_hidden):
        raise DivergenceError("a hidden scalar was driven to or below zero")
    return new_w, new_hidden


def run_gd(config: NeuronConfig, init: WeightState, dc: DescentConfig) -> Trajectory:
    """Run descent for dc.steps steps, recording reduced coordinates and the
    exact population loss at step 0, every record_every-th step, and the end.

    Trajectory times are step indices. Empirical mode draws its dataset once
    from dc.seed, computes the teacher's labels on it once, and never
    resamples; its steps go through the same sample-gradient kernel and
    update as `gd_step`, so a fold of `gd_step` over the same inputs records
    the same states bit for bit. Raises DivergenceError when a hidden scalar
    reaches zero or the weight norm is not finite or exceeds 1e12.
    """
    population_gradient(config, init)  # validates shapes/positivity once
    if dc.mode == "empirical":
        rng = np.random.default_rng(np.random.SeedSequence(dc.seed))
        batch = rng.standard_normal((dc.n_samples, config.d))
        labels = _teacher_labels(config, batch)

        def gradient(w, hidden):
            return _sample_gradient(w, hidden, batch, labels)
    else:
        def gradient(w, hidden):
            return population_gradient(config, WeightState(w, hidden))

    w, hidden = init.w, init.hidden
    times = [0.0]
    states = [polar_of(config, init)]
    losses = [population_loss(config, init)]
    wstates = [init]
    for k in range(dc.steps):
        w, hidden = _descend(w, hidden, dc.eta, *gradient(w, hidden))
        norm = math.sqrt(w @ w)
        if not math.isfinite(norm) or norm > _BLOWUP:
            raise DivergenceError(f"weight norm {norm} blew up at step {k + 1}")
        if (k + 1) % dc.record_every == 0 or k + 1 == dc.steps:
            state = WeightState(w, hidden)
            times.append(float(k + 1))
            states.append(polar_of(config, state))
            losses.append(population_loss(config, state))
            wstates.append(state)
    return Trajectory(np.array(times), states, losses=np.array(losses),
                      weight_states=wstates)


def gf_to_gd(form: ExpFlowForm, eta: float, T: int) -> float:
    """Descent-side value of a flow solution: g((1 - c eta)^T).

    Valid to first order in eta over a fixed horizon c eta T. Raises above
    eta = 0.1/c where the substitution stops being meaningful; warns above
    0.01/c where the first-order error is no longer comfortably small.
    """
    _check_eta(eta)
    if T < 0 or T != int(T):
        raise DomainError("T must be a non-negative integer")
    if eta * form.c > 0.1:
        raise DomainError(f"eta={eta} too large against the rate threshold {1.0 / form.c}")
    if eta > 0.01 / form.c:
        warnings.warn(
            f"eta={eta} above 1% of the rate threshold; first-order accuracy degrades",
            stacklevel=2,
        )
    base = 1.0 - form.c * eta
    if base <= 0.0:
        raise DomainError("step size makes the decay factor non-positive")
    return form.g(base ** int(T))


def gd_error_scaling(
    form: ExpFlowForm,
    flow_rhs: Callable[[float], float],
    etas: Sequence[float],
    horizon: float,
) -> list[tuple[float, float]]:
    """Measure the Euler-vs-substitution gap as a function of step size.

    For each eta, runs explicit Euler w += eta * flow_rhs(w) from w(0) = g(1)
    for round(horizon/eta) steps and records the worst deviation from the
    substituted solution g((1 - c eta)^k). The deviation scales linearly in
    eta when the form and the field describe the same flow.
    """
    if horizon <= 0:
        raise DomainError("horizon must be positive")
    if not etas:
        raise DomainError("need at least one step size")
    out = []
    for eta in etas:
        if eta <= 0 or eta >= 0.1 / form.c:
            raise DomainError(f"eta={eta} outside (0, 0.1/c)")
        steps = max(1, round(horizon / eta))
        base = 1.0 - form.c * eta
        w = form.g(1.0)
        worst = 0.0
        for k in range(1, steps + 1):
            w = w + eta * flow_rhs(w)
            ref = form.g(base**k)
            worst = max(worst, abs(w - ref))
        out.append((float(eta), float(worst)))
    return out


def flow_forms_for(env: BoundEnvelope) -> dict[str, ExpFlowForm]:
    """Exponential-substitution pairs realizing an envelope's closed forms.

    Returns 'lower' and 'upper' forms; angle envelopes additionally return
    'upper_correction' (the cubic tail runs at three times the main rate, so
    the full upper band is upper + upper_correction, clipped at pi). The
    terms are the band table's, wrapped and validated. No forms exist for
    m >= 2 magnitude bands (the bound there is implicit, not
    exponential-closed-form), and an m = 1 start on an attractor degenerates.
    """
    band = _band_forms(env)
    terms = band.lower + band.upper
    if env.kind == "magnitude" and env.m == 1 and any(
        math.isclose(env.v0 * env.v0, t.c) for t in terms
    ):
        raise DomainError("start sits on an attractor; the form degenerates")
    names = ("lower", "upper", "upper_correction")
    return {name: ExpFlowForm(t.c, t.g) for name, t in zip(names, terms)}


def eta_threshold(env: BoundEnvelope) -> float:
    """Theorem-scale step-size constant for an envelope's descent band:
    1 / c over the fastest rate c among the band's terms.

    Bands are proven under eta well below this; the package treats a tenth
    of it as the hard ceiling and a hundredth as the clean regime.
    """
    return _threshold(_band_forms(env))


def stopping_time(env: BoundEnvelope, eta: float, eps: float) -> int:
    """Steps guaranteed to drive the angle above pi - eps, from the angle
    lower band: least T with 2 cot(phi0/2) (1 - rate*eta)^T < eps.

    Returns 0 when the band already starts above pi - eps. eta must sit
    below a tenth of the angle threshold (hard), ideally below a hundredth
    (warned otherwise).
    """
    if env.kind != "angle":
        raise DomainError("stopping times come from angle envelopes")
    if eps <= 0:
        raise DomainError("eps must be positive")
    _check_eta(eta)
    rate = _band_forms(env).lower[0].c
    thr = 1.0 / rate
    if eta >= 0.1 * thr:
        raise DomainError(f"eta={eta} too large against the rate threshold {thr}")
    if eta > 0.01 * thr:
        warnings.warn(f"eta={eta} above 1% of the rate threshold {thr}", stacklevel=2)
    x = 0.5 * eps * math.tan(env.phi0 / 2.0)
    if x >= 1.0:
        return 0
    q = 1.0 - rate * eta
    return int(math.floor(math.log(x) / math.log(q))) + 1
