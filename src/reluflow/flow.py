"""Gradient-flow dynamics, in reduced polar form and in full weight space.

The full flow is d(params)/dt = -grad population_loss. For a balanced start
(all hidden scalars equal to ||w||, teacher balanced) the flow closes in two
scalar coordinates, the magnitude v = ||w|| (= every hidden scalar) and the
alignment angle phi:

    dv/dt   = -(1/2) v^m ( v^(m+1) - vstar^(m+1) (sin phi - phi cos phi)/pi )
    dphi/dt = v^(m-1) vstar^(m+1) phi sin(phi) / (2 pi)

with vstar the teacher magnitude and m the number of hidden scalars. The
angle is monotone increasing; convergence is phi -> pi together with
v -> vstar.

The driving factor (sin phi - phi cos phi)/pi increases from 0 at phi = 0 to
1 at phi = pi; its shortfall from 1 is `epsilon_gap`, the quantity every
envelope in the bounds module is anchored on. Near phi = pi the reduced flow
evaluates the factor and its right-hand sides through series in (pi - phi),
which keep relative accuracy once sin(phi) underflows toward the rounding
floor; the reduced flow carries phi itself, so that accuracy is there to keep.

The full-space flow integrates -`population_gradient` as written, through
the population module's unchecked kernel, with no series of its own: its
phi comes from acos(cos theta), which near alignment is good to only about
1e-8 absolute, so a series could not restore accuracy that phi does not have.
At the small d of these problems an ndarray op costs about a microsecond of
dispatch for a few nanoseconds of arithmetic, so the kernel and the RK4
stages of `integrate_vector` do their elementwise work on Python floats and
keep NumPy for the reductions: the kernel's two dots stay BLAS dots, whose
summation order is BLAS's own. A NumPy elementwise op and a Python float op
are each one IEEE-754 double operation, with no fused multiply-add, so the
same operands combined in the same order give the ndarray form's bits.

Integration is classic fixed-step fourth-order Runge-Kutta: the step-halving
order checks in the test suite and the tight envelope tolerances rely on a
deterministic, constant-step scheme.

The full-space flow and descent, its Euler discretisation, share one loop,
`_march`, over a batch of problems of one dimension d. Its rows are a
(B, d) weight stack and a (B, m_max) hidden stack, whose entries past a
row's own m are padded with 1.0 and never change. d is never padded: a
padded product would group its partial sums differently. The loop validates
each start once, advances the live rows' stacks by the step it is given,
requires after every step each row's weight norm to be finite and at most
1e12 and each of its hidden scalars to lie in (0, inf), records each row at
step 0, every k-th step and its last, at time k h, and builds one
Trajectory per row. Each row keeps its own problem, length and record
stride; it leaves the stack when it finishes or when its guard fails, and
a failed row gets its error instead of a trajectory while the others go
on. `integrate_vector` marches one row with one RK4 step of length h, bit
for bit classic RK4 on `vector_rhs`, and hands the loop a (1, d) and a
(1, m) array per step. `run_gd` marches one row with one descent step, with
h = 1; `descent.run_gd_batch` marches many empirical descents together,
which is how a serial ``reluflow run`` computes the distinct descents of
its configs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, DivergenceError, DomainError
from .population import (
    _TWO_PI,
    NeuronConfig,
    PolarState,
    WeightState,
    _gradient,
    polar_of,
    population_gradient,
    population_loss,
    relu_product_moment,
)

# Weight norms and magnitudes beyond this are treated as a blown-up run, by
# the flows here and by descent.
_BLOWUP = 1e12
# Within this distance of pi the angle is declared converged and frozen.
_FREEZE_GAP = 1e-12
# Switch point for the (pi - phi) series forms.
_SERIES_GAP = 1e-6


def _sin_cos_from_gap(delta: float) -> tuple[float, float]:
    """(sin phi, cos phi) for phi = pi - delta, via 5-term series in delta."""
    d2 = delta * delta
    sin_phi = delta * (1.0 + d2 * (-1.0 / 6 + d2 * (1.0 / 120 + d2 * (-1.0 / 5040 + d2 / 362880))))
    cos_d = 1.0 + d2 * (-0.5 + d2 * (1.0 / 24 + d2 * (-1.0 / 720 + d2 / 40320)))
    return sin_phi, -cos_d


def _is_count(value: object) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_sample_every(sample_every: int) -> None:
    if not (_is_count(sample_every) and sample_every >= 1):
        raise DomainError(f"sample_every must be an integer >= 1, got {sample_every!r}")


def _check_horizon(dt: float, t_end: float) -> None:
    # Stated positively: NaN fails every comparison, and an infinite
    # t_end / dt has no step count.
    if not (0.0 < dt <= t_end and t_end / dt < math.inf):
        raise DomainError(f"need 0 < dt <= t_end and a finite t_end / dt, "
                          f"got dt={dt}, t_end={t_end}")


def epsilon_gap(phi: float) -> float:
    """Shortfall 1 - (sin phi - phi cos phi)/pi, in [0, 1] on [0, pi].

    Decreases from 1 at phi = 0 to 0 at phi = pi; near pi it behaves as
    (pi - phi)^2 / 2 and is computed by that series to avoid cancellation.
    """
    if not 0.0 <= phi <= math.pi:
        raise DomainError(f"phi={phi} must lie in [0, pi]")
    delta = math.pi - phi
    if delta < _SERIES_GAP:
        return delta * delta * (
            0.5 + delta * (-1.0 / (3.0 * math.pi) + delta * (-1.0 / 24 + delta / (30.0 * math.pi)))
        )
    return 1.0 - (math.sin(phi) - phi * math.cos(phi)) / math.pi


def _polar_rates(m: int, a: float, v: float, phi: float) -> tuple[float, float]:
    """Unchecked right-hand side shared by the public op and the integrator;
    a = target_norm ** (m + 1), which the caller computes once."""
    delta = math.pi - phi
    if abs(delta) < _SERIES_GAP:
        sin_phi, cos_phi = _sin_cos_from_gap(delta)
    else:
        sin_phi, cos_phi = math.sin(phi), math.cos(phi)
    drive = (sin_phi - phi * cos_phi) / math.pi
    dv = -0.5 * v**m * (v ** (m + 1) - a * drive)
    dphi = v ** (m - 1) * a * phi * sin_phi / _TWO_PI
    return dv, dphi


def polar_rhs(m: int, target_norm: float, state: PolarState) -> tuple[float, float]:
    """Time derivatives (dv/dt, dphi/dt) of the reduced balanced flow."""
    if m < 0:
        raise DomainError(f"m={m} must be non-negative")
    if target_norm <= 0:
        raise DomainError(f"target_norm={target_norm} must be positive")
    if state.magnitude <= 0:
        raise DomainError("polar dynamics need magnitude > 0")
    if not 0.0 < state.angle < math.pi:
        raise DomainError(f"angle {state.angle} must lie strictly inside (0, pi)")
    return _polar_rates(m, target_norm ** (m + 1), state.magnitude, state.angle)


def vector_rhs(config: NeuronConfig, state: WeightState) -> tuple[np.ndarray, np.ndarray]:
    """Full-space flow field: negative gradient of the population loss."""
    grad_w, grad_hidden = population_gradient(config, state)
    return -grad_w, -grad_hidden


@dataclass(frozen=True)
class FlowSpec:
    """A reduced-flow initial value problem plus integrator settings."""

    m: int
    target_norm: float
    initial: PolarState
    t_end: float
    dt: float = 1e-3

    def __post_init__(self) -> None:
        if self.m < 0:
            raise DomainError(f"m={self.m} must be non-negative")
        if self.target_norm <= 0:
            raise DomainError("target_norm must be positive")
        if self.initial.magnitude <= 0:
            raise DomainError("initial magnitude must be positive")
        if not 0.0 < self.initial.angle < math.pi:
            raise DomainError("initial angle must lie strictly inside (0, pi)")
        _check_horizon(self.dt, self.t_end)


@dataclass(frozen=True)
class Trajectory:
    """Sampled path of a run: times, reduced states, losses and, optionally,
    full states.

    times[0] is always 0 (the initial state is always recorded); times are
    strictly increasing. For flow runs they are real times, for descent runs
    step indices. losses holds the population loss at each sample;
    weight_states, when kept, the full parameters at the same sample points.
    A trajectory is read-only throughout, because one may serve several
    runs: states and weight_states are tuples, and times, losses and each
    kept weight vector refuse writes.
    """

    times: np.ndarray
    states: tuple[PolarState, ...]
    losses: np.ndarray
    weight_states: tuple[WeightState, ...] | None = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", tuple(self.states))
        if times.ndim != 1 or len(times) != len(self.states):
            raise DomainError("times and states must align one-to-one")
        if len(times) == 0 or times[0] != 0.0:
            raise DomainError("a trajectory must start at time 0")
        if np.any(np.diff(times) <= 0):
            raise DomainError("times must be strictly increasing")
        losses = np.asarray(self.losses, dtype=float)
        if losses.shape != times.shape:
            raise DomainError("losses channel must align with times")
        object.__setattr__(self, "losses", losses)
        times.flags.writeable = False
        losses.flags.writeable = False
        if self.weight_states is not None:
            object.__setattr__(self, "weight_states", tuple(self.weight_states))
            for state in self.weight_states:
                state.w.flags.writeable = False

    @property
    def magnitudes(self) -> np.ndarray:
        return np.array([s.magnitude for s in self.states])

    @property
    def angles(self) -> np.ndarray:
        return np.array([s.angle for s in self.states])


def balanced_population_loss(m: int, target_norm: float, state: PolarState) -> float:
    """Population loss of the balanced realization of a reduced state."""
    v, phi = state.magnitude, state.angle
    theta = math.pi - phi
    h = relu_product_moment(theta)
    a = 0.5 * v ** (2 * (m + 1))
    b = (v * target_norm) ** m * v * target_norm * h
    c = 0.5 * target_norm ** (2 * (m + 1))
    return 0.5 * ((a + c) - 2.0 * b)


def _check_step(v: float, phi: float, t: float) -> tuple[float, bool]:
    """Clamp/freeze the angle after a step; detect blow-up. Returns (phi, frozen)."""
    if not (math.isfinite(v) and math.isfinite(phi)):
        raise DivergenceError(f"non-finite state at t={t}")
    if abs(v) > _BLOWUP:
        raise DivergenceError(f"magnitude {v} exceeded {_BLOWUP} at t={t}")
    if phi >= math.pi:
        overshoot = phi - math.pi
        if overshoot > _FREEZE_GAP:
            raise DivergenceError(
                f"angle overshot pi by {overshoot} at t={t}; clamping this far is not allowed"
            )
        return math.nextafter(math.pi, 0.0), True
    if phi <= 0.0:
        raise DivergenceError(f"angle left (0, pi) downward at t={t}")
    if math.pi - phi <= _FREEZE_GAP:
        return phi, True
    return phi, False


def integrate_polar(spec: FlowSpec, sample_every: int = 1) -> Trajectory:
    """Integrate the reduced flow with fixed-step RK4.

    States are recorded at step 0, every sample_every-th step, and the final
    step. Once the angle comes within 1e-12 of pi it is frozen (converged)
    while the magnitude keeps evolving.
    """
    _check_sample_every(sample_every)
    m, tn = spec.m, spec.target_norm
    a = tn ** (m + 1)
    n_steps = max(1, round(spec.t_end / spec.dt))
    h = spec.t_end / n_steps
    half, sixth = 0.5 * h, h / 6.0

    v, phi = spec.initial.magnitude, spec.initial.angle
    # The angle's steps; a frozen angle takes zero steps, and phi + 0.0 is
    # phi bit for bit.
    hp, half_p, sixth_p = h, half, sixth
    times = [0.0]
    states = [PolarState(v, phi)]
    losses = [balanced_population_loss(m, tn, states[0])]

    for k in range(n_steps):
        kv1, kp1 = _polar_rates(m, a, v, phi)
        kv2, kp2 = _polar_rates(m, a, v + half * kv1, phi + half_p * kp1)
        kv3, kp3 = _polar_rates(m, a, v + half * kv2, phi + half_p * kp2)
        kv4, kp4 = _polar_rates(m, a, v + h * kv3, phi + hp * kp3)
        v += sixth * (kv1 + 2.0 * kv2 + 2.0 * kv3 + kv4)
        phi += sixth_p * (kp1 + 2.0 * kp2 + 2.0 * kp3 + kp4)
        t = (k + 1) * h
        phi, frozen = _check_step(v, phi, t)
        if frozen:
            hp = half_p = sixth_p = 0.0
        if (k + 1) % sample_every == 0 or k + 1 == n_steps:
            state = PolarState(v, phi)
            times.append(t)
            states.append(state)
            losses.append(balanced_population_loss(m, tn, state))

    return Trajectory(np.array(times), states, losses=np.array(losses))


def _march(problems: Sequence[tuple[NeuronConfig, WeightState]], steps: Sequence[int],
           every: Sequence[int], h: float,
           advance: Callable) -> list[Trajectory | ValueError | DivergenceError]:
    """The loop of the full-space paths (see the module docstring).

    Row i starts problem i from its WeightState and takes steps[i] steps,
    recording every every[i]-th; all problems share one dimension d.
    `advance(W, H, live)` takes the live rows' weight and hidden stacks one
    step of length h ahead and returns the new stacks; live holds those
    rows' indices into problems, in stack order, and is a new array exactly
    when a row has left. Returns each row's Trajectory, or the error its
    start or its guard raised.
    """
    out: list = [None] * len(problems)
    for i, (config, init) in enumerate(problems):
        try:
            population_gradient(config, init)  # validates the start once
        except (DomainError, DimensionError) as exc:
            out[i] = exc
    ms = [config.m for config, _ in problems]
    kept = [[WeightState(init.w.copy(), init.hidden)] for _, init in problems]
    times = [[0.0] for _ in problems]
    live = np.array([i for i, o in enumerate(out) if o is None and steps[i] > 0], dtype=int)
    W = np.empty((len(live), problems[0][0].d))
    H = np.ones((len(live), max(ms)))
    for j, i in enumerate(live):
        W[j] = problems[i][1].w
        H[j, :ms[i]] = problems[i][1].hidden
    # Each row's next recorded step; the loop looks at rows only on the
    # earliest of these, or when a guard fails.
    due = np.array([min(every[i], steps[i]) for i in live], dtype=int)
    next_due = int(due.min()) if len(live) else 0
    k = 0
    while len(live):
        k += 1
        W, H = advance(W, H, live)
        # np.vecdot takes each row's w.dot(w) through the BLAS dot a lone
        # row's dot uses. Padded hidden entries are 1.0 and always pass;
        # NaN never passes a test here.
        norms = [math.sqrt(x) for x in np.vecdot(W, W).tolist()]
        if (k < next_due and all(norm <= _BLOWUP for norm in norms)
                and all(0.0 < v < math.inf for v in H.ravel().tolist())):
            continue
        failed = np.array([not (norm <= _BLOWUP and all(0.0 < v < math.inf for v in row))
                           for norm, row in zip(norms, H.tolist())], dtype=bool)
        for j in np.flatnonzero(failed):
            out[live[j]] = DivergenceError(
                f"weight norm {norms[j]} blew up at t={k * h}" if not norms[j] <= _BLOWUP
                else f"a hidden scalar left (0, inf) at t={k * h}")
        for j in np.flatnonzero(~failed & (due == k)):
            i = live[j]
            times[i].append(k * h)
            kept[i].append(WeightState(W[j].copy(), tuple(H[j, :ms[i]].tolist())))
            due[j] = min(k + every[i], steps[i]) if k < steps[i] else 0
        stay = ~failed & (due > 0)
        if not stay.all():
            live, W, H, due = live[stay], W[stay], H[stay], due[stay]
        next_due = int(due.min()) if len(live) else 0
    for i, (config, _) in enumerate(problems):
        if out[i] is None:
            out[i] = Trajectory(np.array(times[i]), [polar_of(config, s) for s in kept[i]],
                                np.array([population_loss(config, s) for s in kept[i]]),
                                kept[i])
    return out


def integrate_vector(
    config: NeuronConfig,
    init: WeightState,
    t_end: float,
    dt: float = 1e-3,
    sample_every: int = 1,
) -> Trajectory:
    """Integrate the full flow d(params)/dt = -grad L with fixed-step RK4.

    Records the reduced coordinates, population loss and full WeightState of
    each sample.
    Works for arbitrary (not necessarily balanced) positive hidden scalars.
    """
    _check_sample_every(sample_every)
    _check_horizon(dt, t_end)
    n_steps = max(1, round(t_end / dt))
    h = t_end / n_steps
    d, half, sixth = config.d, 0.5 * h, h / 6.0

    def grad(y: list[float]) -> list[float]:
        grad_w, grad_hidden = _gradient(config, np.array(y[:d]), y[d:])
        return grad_w + grad_hidden

    # RK4 on y' = -grad, with the minus sign carried into each update: IEEE
    # negation is exact, so this is RK4 on vector_rhs bit for bit. The stages
    # combine on floats, each entry in the order the ndarray form
    # y - (h/6) (k1 + 2 k2 + 2 k3 + k4) takes.
    def rk4(W: np.ndarray, H: np.ndarray, _live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = W[0].tolist() + H[0].tolist()
        g1 = grad(y)
        g2 = grad([a - half * k for a, k in zip(y, g1)])
        g3 = grad([a - half * k for a, k in zip(y, g2)])
        g4 = grad([a - h * k for a, k in zip(y, g3)])
        y = [a - sixth * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)
             for a, k1, k2, k3, k4 in zip(y, g1, g2, g3, g4)]
        return np.array([y[:d]]), np.array([y[d:]])

    (out,) = _march([(config, init)], [n_steps], [sample_every], h, rk4)
    if not isinstance(out, Trajectory):
        raise out
    return out
