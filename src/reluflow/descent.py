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
(full-batch, realizable labels from the teacher).
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
        if self.eta <= 0:
            raise DomainError("eta must be positive")
        if self.steps < 0:
            raise DomainError("steps must be non-negative")
        if self.mode not in ("population", "empirical"):
            raise DomainError(f"unknown mode {self.mode!r}")
        if self.mode == "empirical" and self.n_samples < 1:
            raise DomainError("empirical mode needs n_samples >= 1")
        if self.record_every < 1:
            raise DomainError("record_every must be >= 1")


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
    if eta <= 0:
        raise DomainError("eta must be positive")
    if batch is None:
        grad_w, grad_hidden = population_gradient(config, state)
    else:
        batch = np.asarray(batch, dtype=float)
        if batch.ndim != 2 or batch.shape[1] != config.d:
            raise DomainError(f"batch must have shape (n, {config.d})")
        grad_w, grad_hidden = _sample_gradient(config, state, batch)
    new_w = state.w - eta * grad_w
    new_hidden = tuple(v - eta * g for v, g in zip(state.hidden, grad_hidden))
    if any(v <= 0.0 for v in new_hidden):
        raise DivergenceError("a hidden scalar was driven to or below zero")
    return WeightState(new_w, new_hidden)


def _sample_gradient(
    config: NeuronConfig, state: WeightState, batch: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    if any(v <= 0.0 for v in state.hidden):
        raise DomainError("hidden scalars must be positive")
    n = batch.shape[0]
    p = state.product
    p_star = config.target_product
    pre = batch @ state.w
    ind = pre > 0.0
    act = np.where(ind, pre, 0.0)
    e = p * act - p_star * np.maximum(batch @ config.target_w, 0.0)
    grad_w = (p / n) * (batch.T @ (e * ind))
    if config.m == 0:
        return grad_w, np.zeros(0)
    shared = float(e @ act) / n
    grad_hidden = np.array([(p / v) * shared for v in state.hidden])
    return grad_w, grad_hidden


def run_gd(config: NeuronConfig, init: WeightState, dc: DescentConfig) -> Trajectory:
    """Run descent for dc.steps steps, recording reduced coordinates and the
    exact population loss at step 0, every record_every-th step, and the end.

    Trajectory times are step indices. Empirical mode draws its dataset once
    from dc.seed (labels from the teacher) and never resamples.
    """
    population_gradient(config, init)  # validates shapes/positivity once
    batch = None
    if dc.mode == "empirical":
        rng = np.random.default_rng(np.random.SeedSequence(dc.seed))
        batch = rng.standard_normal((dc.n_samples, config.d))

    state = init
    times = [0.0]
    states = [polar_of(config, init)]
    losses = [population_loss(config, init)]
    wstates = [init]
    for k in range(dc.steps):
        state = gd_step(config, state, dc.eta, batch)
        norm = float(np.linalg.norm(state.w))
        if not math.isfinite(norm) or norm > _BLOWUP:
            raise DivergenceError(f"weight norm {norm} blew up at step {k + 1}")
        if (k + 1) % dc.record_every == 0 or k + 1 == dc.steps:
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
    if eta <= 0:
        raise DomainError("eta must be positive")
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
    if eta <= 0:
        raise DomainError("eta must be positive")
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
