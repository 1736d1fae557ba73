"""Analytic envelopes that bracket the reduced flow.

Every envelope is anchored at a time anchor_time where the reduced state
(v0, phi0) was observed, and evaluated at elapsed time tau = t - anchor_time.
The anchoring state fixes the gap eps0 = epsilon_gap(phi0); a later anchor has
a smaller gap and therefore a tighter band, which is what re-anchoring
exploits.

Magnitude envelopes
-------------------
For m = 0 the band is a pair of exponential relaxations toward the teacher
magnitude, the lower one damped by (1 - eps0). For m >= 1 both sides are the
solution u(tau; eps) of the frozen-gap equation

    du/dtau = -(1/2) u^m ( u^(m+1) - a ),      a = vstar^(m+1) (1 - eps),

with eps = eps0 (lower) and eps = 0 (upper). m = 1 has a logistic closed
form in u^2. For m >= 2 the equation separates, and for integer m its
antiderivative is elementary:

    F(u) - F(v0) = -tau / 2,
    F(v) = v^(1-m) / ((m-1) a) + sum_k Re[rho_k^2 log(v - rho_k)] / ((m+1) a^2),

summed over the (m+1)-th roots rho_k of a. The real root rho = a^(1/(m+1)) is
the attractor, and its term is log|v - rho|. `frozen_gap_magnitude_implicit`
inverts this relation by Newton's method on either side of the attractor;
`frozen_gap_magnitude_ode` integrates the equation with RK4 and is the
reference the tests compare it against; `envelope_curve` sweeps the band
along a grid with one RK4 pass per side, at steps of at most 1e-3 and at
most the inverse of the field's largest |f'| between v0 and the attractor.

Angle envelopes
---------------
Both sides are the exact solution map of d(phi)/ds = sin(phi) run at constant
worst-case rates: the true angle rate contains v^(m-1), bounded using trusted
magnitude bounds r <= v <= R on the window. The upper side carries a cubic
correction term and is clipped at pi.

The band table
--------------
`_band_forms` states every closed-form band once, as terms (c, g): the
magnitude bands for m <= 1 and the angle bands. `envelope_curve` is the one
evaluator of every band: a side is the sum of its g(x) over a grid, with
x = e^(-c tau) on the flow and x = (1 - c eta)^T after T descent steps at
step size eta: the one bridge from the flow to descent. Step-size
thresholds and stopping times read the same rates, under one step-size rule:
a descent-side statement holds for eta below a tenth of the band's threshold
1 / c at its fastest rate, and is first-order accurate below a hundredth.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, UnavailableError
from .flow import Trajectory, epsilon_gap
from .population import _check_angle, _check_count, _check_nonnegative, _check_positive

_ODE_DT = 1e-4
_SWEEP_DT = 1e-3
# Newton on s = log|u - rho| stops once a step moves s by less than
# _NEWTON_TOL relative (1e-15 can cycle between two iterates 1 ulp apart), or
# once the residual is within _ROUNDING of the size of the terms it sums.
_NEWTON_TOL = 1e-14
_NEWTON_MAX = 50
_ROUNDING = 16 * 2.0**-52
# How close to its limit `convergence_horizon` certifies the flow.
_HORIZON_ANGLE_TOL = 1e-3
_HORIZON_MAG_TOL = 1e-3


@dataclass(frozen=True)
class BoundEnvelope:
    """An anchored analytic band for one reduced coordinate.

    kind selects the coordinate ('magnitude' or 'angle'); (v0, phi0) is the
    reduced state at anchor_time. r and R are trusted magnitude bounds over
    the checked window, required by angle envelopes (the angle rate depends
    on the magnitude) and unused by magnitude envelopes. m is stored as a
    Python int and every other number as a Python float.
    """

    kind: str
    m: int
    target_norm: float
    phi0: float
    v0: float
    r: float | None = None
    R: float | None = None
    anchor_time: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("magnitude", "angle"):
            raise DomainError(f"unknown envelope kind {self.kind!r}")
        if self.kind == "angle" and (self.r is None or self.R is None):
            raise DomainError("angle envelopes need both magnitude bounds r and R")
        object.__setattr__(self, "m", _check_count(self.m, "m"))
        # v = 0 is a stationary point of the deep system, whose closed forms
        # are stated for positive starts; a one-layer band may start at zero.
        v0_rule = _check_positive if self.m >= 1 else _check_nonnegative
        for name, check in (("target_norm", _check_positive), ("phi0", _check_angle),
                            ("v0", v0_rule), ("anchor_time", _check_nonnegative)):
            object.__setattr__(self, name, check(getattr(self, name), name))
        for name in ("r", "R"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _check_positive(getattr(self, name), name))
        if self.r is not None and self.R is not None and not self.r < self.R:
            raise DomainError(f"need r < R, got r={self.r}, R={self.R}")

    @property
    def eps0(self) -> float:
        """Anchoring gap epsilon_gap(phi0); recomputed, never stored."""
        return epsilon_gap(self.phi0)


@dataclass(frozen=True)
class EnvelopeReport:
    """Outcome of checking a trajectory against an envelope.

    worst_margin is max over checked samples of
    max(lower - value, value - upper): negative means strictly inside,
    anything above the slack used in the check means failure.
    """

    passed: bool
    worst_margin: float
    times: np.ndarray
    values: np.ndarray
    lowers: np.ndarray
    uppers: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "worst_margin", float(self.worst_margin))


class _Term(NamedTuple):
    c: float
    g: Callable[[np.ndarray], np.ndarray]


class _Band(NamedTuple):
    """A closed-form band as terms (c, g): each side is the sum of its g(x)
    with x = e^(-c tau) on the flow or x = (1 - c eta)^steps on descent, and
    the upper side is then clipped at cap."""

    lower: tuple[_Term, ...]
    upper: tuple[_Term, ...]
    cap: float


def _band_forms(env: BoundEnvelope) -> _Band:
    """The table of closed-form bands: every rate c and shape g, stated once.

    magnitude, m = 0: rate 1/2, g = s (1 - x) vstar + v0 x with s = 1 - eps0
    (lower) or 1 (upper). magnitude, m = 1: rate a = vstar^2 (1 - eps0)
    (lower) or vstar^2 (upper), g = sqrt(a / (1 - (1 - a / v0^2) x)).
    angle: g = pi - 2 cot(phi0/2) x at c_low (lower) and c_up (upper), plus
    the cubic correction (2/3) cot^3(phi0/2) x at 3 c_up, clipped at pi;
    c_low = (vstar/2R)(phi0/pi), c_up = vstar/(2r) for m = 0 and
    c_low = (phi0/2pi) r^(m-1) vstar^(m+1), c_up = (1/2) R^(m-1) vstar^(m+1)
    for m >= 1. Raises UnavailableError for m >= 2 magnitude bands, whose
    solution is implicit rather than exponential.
    """
    v_star, v0 = env.target_norm, env.v0
    if env.kind == "magnitude":
        if env.m == 0:
            s = 1.0 - env.eps0
            return _Band(
                (_Term(0.5, lambda x: s * ((1.0 - x) * v_star) + v0 * x),),
                (_Term(0.5, lambda x: (1.0 - x) * v_star + v0 * x),),
                math.inf,
            )
        if env.m == 1:
            def logistic(a: float) -> _Term:
                return _Term(a, lambda x: np.sqrt(a / (1.0 - (1.0 - a / (v0 * v0)) * x)))

            return _Band(
                (logistic(v_star**2 * (1.0 - env.eps0)),), (logistic(v_star**2),), math.inf
            )
        raise UnavailableError("no exponential closed form for m >= 2 magnitude bands")

    cot = 1.0 / math.tan(env.phi0 / 2.0)
    if env.m == 0:
        c_low = (v_star / (2.0 * env.R)) * (env.phi0 / math.pi)
        c_up = v_star / (2.0 * env.r)
    else:
        vpow = v_star ** (env.m + 1)
        c_low = (env.phi0 / (2.0 * math.pi)) * env.r ** (env.m - 1) * vpow
        c_up = 0.5 * env.R ** (env.m - 1) * vpow

    def main(x: np.ndarray) -> np.ndarray:
        return math.pi - 2.0 * cot * x

    return _Band(
        (_Term(c_low, main),),
        (_Term(c_up, main), _Term(3.0 * c_up, lambda x: (2.0 / 3.0) * cot**3 * x)),
        math.pi,
    )


def _threshold(band: _Band) -> float:
    """Theorem-scale step-size constant of a band: 1 / c at its fastest rate."""
    return 1.0 / max(t.c for t in band.lower + band.upper)


# The step-size rule, as fractions of a band's threshold (module docstring).
_ETA_CEILING = 0.1
_ETA_CLEAN = 0.01


def _certify_eta(eta: float, threshold: float) -> float:
    """Guard of a descent-side certificate: refuse eta at or above the
    ceiling of the step-size rule, warn above its clean line. Returns eta
    as a Python float."""
    eta = _check_positive(eta, "eta")
    if eta >= _ETA_CEILING * threshold:
        raise DomainError(f"eta={eta} too large against the rate threshold {threshold}")
    if eta > _ETA_CLEAN * threshold:
        warnings.warn(
            f"eta={eta} above 1% of the rate threshold {threshold}; "
            "first-order accuracy degrades",
            stacklevel=3,
        )
    return eta


def _frozen_ode_rhs(m: int, a: float, v: float) -> float:
    return -0.5 * v**m * (v ** (m + 1) - a)


def _check_frozen(m: int, low: int, target_norm: float, eps: float, v0: float,
                  tau: float) -> tuple[int, float, float, float, float]:
    """The frozen-gap paths' checks, for m >= low; returns their arguments
    as Python scalars."""
    if not 0.0 <= eps <= 1.0:
        raise DomainError(f"eps={eps} must lie in [0, 1]")
    return (_check_count(m, "m", low), _check_positive(target_norm, "target_norm"), float(eps),
            _check_positive(v0, "v0"), _check_nonnegative(tau, "tau"))


def frozen_gap_magnitude_ode(
    m: int, target_norm: float, eps: float, v0: float, tau: float, dt: float = _ODE_DT
) -> float:
    """u(tau; eps) by fixed-step RK4 on the frozen-gap equation (reference path)."""
    m, target_norm, eps, v0, tau = _check_frozen(m, 1, target_norm, eps, v0, tau)
    dt = _check_positive(dt, "dt")
    if tau == 0.0:
        return v0
    return float(_ode_sweep(m, target_norm, eps, v0, np.array([tau]), dt)[0])


def frozen_gap_magnitude_implicit(
    m: int, target_norm: float, eps: float, v0: float, tau: float
) -> float:
    """u(tau; eps) by inverting the closed-form antiderivative (primary path).

    Solves F(u) = F(v0) - tau/2 for m >= 2 (the m = 1 antiderivative is the
    logistic closed form of the band table) on either side of the attractor
    rho = a^(1/(m+1)), by Newton's method on s = log|u - rho|: the attractor
    term of F is linear in s, so the iteration stays well scaled however
    close u comes to rho, and every iterate keeps u between v0 and rho.
    Against a 60-digit solution, the relative error measured below 5e-13
    for starts v0/rho from 0.05 to 300 and m from 2 to 8.

    Raises ConvergenceError if Newton's method does not settle within
    _NEWTON_MAX iterations.
    """
    m, target_norm, eps, v0, tau = _check_frozen(m, 2, target_norm, eps, v0, tau)
    if tau == 0.0:
        return v0
    a = target_norm ** (m + 1) * (1.0 - eps)
    if a == 0.0:
        # eps = 1: du/dtau = -u^(2m+1) / 2 integrates directly
        return (v0 ** (-2 * m) + m * tau) ** (-0.5 / m)
    n = m + 1
    rho = a ** (1.0 / n)
    if v0 == rho:
        return v0
    others = [rho * cmath.exp(2j * math.pi * k / n) for k in range(1, n)]

    def parts(v: float) -> list[complex]:
        # the terms of F(v) but the real-root log; their real parts sum to it
        return [v ** (1 - m) / ((m - 1) * a)] + [
            r * r * cmath.log(v - r) / (n * a * a) for r in others
        ]

    # F(u) = c s + the parts at u, so c / (u - rho) is the attractor pole of F'
    c = rho * rho / (n * a * a)
    side = 1.0 if v0 > rho else -1.0
    s0 = math.log(abs(v0 - rho))
    fixed = [-p for p in parts(v0)] + [-c * s0, 0.5 * tau]
    # G(s) = F(u) - F(v0) + tau/2 increases with s, and G(s0) = tau/2 > 0, so
    # the root lies below s0. Newton starts from the nearest of these lower
    # bounds on the root: on the growing branch G' >= c, so the linearised
    # decay s0 - tau / (2c); on the decaying branch G' <= c, so the root of
    # the line of slope c that G approaches as s -> -inf; on either branch,
    # the power law that bounds u once one term of the equation is dropped.
    if side < 0:
        s = s0 - 0.5 * tau / c
        base = v0 ** (1 - m) - 0.5 * (m - 1) * a * tau  # du/dtau <= a u^m / 2
        u_pow = base ** (1.0 / (1 - m)) if base > 0 else math.inf
        if u_pow < rho:
            s = max(s, math.log(rho - u_pow))
    else:
        s = -math.fsum(t.real for t in [*parts(rho), *fixed]) / c
        u_pow = (v0 ** (-2 * m) + m * tau) ** (-0.5 / m)  # du/dtau >= -u^(2m+1) / 2
        if u_pow > rho:
            s = max(s, math.log(u_pow - rho))
    lo, hi = -math.inf, s0
    for _ in range(_NEWTON_MAX):
        u = rho + side * math.exp(s)
        terms = [c * s, *parts(u), *fixed]
        g = math.fsum(t.real for t in terms)
        if g > 0.0:
            hi = s
        else:
            lo = s
        # 1 / G'(s) = u^m (u^(m+1) - a) / (u - rho), in factored form
        step = g * u**m * sum(u**j * rho ** (m - j) for j in range(n))
        # Far above the attractor the terms of G cancel to a far smaller G,
        # and once G is within their rounding no step can improve s.
        if abs(step) <= _NEWTON_TOL * max(1.0, abs(s)) or abs(g) <= _ROUNDING * sum(
            map(abs, terms)
        ):
            return rho + side * math.exp(s - step)
        s -= step
        if not lo < s < hi:
            # an overshoot on the growing branch could reach e^s >= rho, u <= 0
            s = 0.5 * (lo + hi)
    raise ConvergenceError(
        f"Newton's method did not settle in {_NEWTON_MAX} iterations "
        f"(m={m}, a={a}, v0={v0}, tau={tau})"
    )


def magnitude_bounds_multilayer(env: BoundEnvelope, t: float) -> tuple[float, float]:
    """Pointwise m >= 2 magnitude band: frozen-gap solutions at eps0 (lower)
    and at 0 (upper), by inverting the closed-form antiderivative.

    Every other band, and this one along a grid, comes from envelope_curve.
    """
    if env.kind != "magnitude" or env.m < 2:
        raise DomainError("the pointwise implicit band is the m >= 2 magnitude band")
    tau = t - env.anchor_time  # the frozen-gap path refuses a t before the anchor
    lower = frozen_gap_magnitude_implicit(env.m, env.target_norm, env.eps0, env.v0, tau)
    upper = frozen_gap_magnitude_implicit(env.m, env.target_norm, 0.0, env.v0, tau)
    return lower, upper


def _frozen_rate(m: int, a: float, v0: float) -> float:
    """Largest |f'| of the frozen-gap field f between v0 and the attractor."""
    top = max(v0, a ** (1.0 / (m + 1)))
    return 0.5 * ((2 * m + 1) * top ** (2 * m) - m * a * top ** (m - 1))


def _ode_sweep(
    m: int, target_norm: float, eps: float, v0: float, taus: np.ndarray, dt: float
) -> np.ndarray:
    """frozen_gap_magnitude_ode along a sorted grid in one RK4 pass.

    Each span between grid points takes steps of at most dt, and at most
    1 / rate, where rate is the field's largest |f'| between v0 and the
    attractor: stiff starts stay inside RK4's stability region (h rate up
    to about 2.785) instead of settling on a spurious fixed point.
    """
    a = target_norm ** (m + 1) * (1.0 - eps)
    rate = _frozen_rate(m, a, v0)
    out = np.empty(len(taus))
    v = v0
    prev = 0.0
    for i, tau in enumerate(taus.tolist()):
        span = tau - prev
        if span > 0:
            n = max(1, round(span / dt), math.ceil(span * rate))
            h = span / n
            for _ in range(n):
                k1 = _frozen_ode_rhs(m, a, v)
                k2 = _frozen_ode_rhs(m, a, v + 0.5 * h * k1)
                k3 = _frozen_ode_rhs(m, a, v + 0.5 * h * k2)
                k4 = _frozen_ode_rhs(m, a, v + h * k3)
                v += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i] = v
        prev = tau
    return out


def envelope_curve(
    env: BoundEnvelope, times: np.ndarray, eta: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(lowers, uppers) along a non-decreasing grid of times at or after the anchor.

    Without eta the times are flow times and each side is the sum of its
    table terms g(x) at x = e^(-c tau), tau = t - anchor_time; the m >= 2
    magnitude band, which has no such terms, is swept by a single frozen-gap
    integration per side. With eta the times are descent step counts and
    x = (1 - c eta)^(T - anchor): the flow band pushed through the
    substitution, for whole step counts only. Descent bands exist wherever
    the table has terms (UnavailableError otherwise), and a step size above
    the ceiling of the step-size rule warns once: the band is drawn but no
    longer guaranteed.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise DomainError("times must be a 1-d array")
    if not np.all(np.isfinite(times)):
        raise DomainError("times must be finite")
    if np.any(np.diff(times) < 0):
        raise DomainError("times must be non-decreasing")
    if len(times) and times[0] < env.anchor_time:
        raise DomainError("times precede the envelope anchor")
    taus = times - env.anchor_time

    if eta is None and env.kind == "magnitude" and env.m >= 2:
        lowers = _ode_sweep(env.m, env.target_norm, env.eps0, env.v0, taus, _SWEEP_DT)
        uppers = _ode_sweep(env.m, env.target_norm, 0.0, env.v0, taus, _SWEEP_DT)
        return lowers, uppers
    band = _band_forms(env)
    if eta is not None:
        eta = _check_positive(eta, "eta")
        if np.any(taus != np.floor(taus)):
            raise DomainError("descent times must be whole step counts from the anchor")
        threshold = _threshold(band)
        if eta > _ETA_CEILING * threshold:
            warnings.warn(
                f"eta={eta} exceeds 10% of the theorem threshold {threshold}; "
                "the band is drawn but no longer guaranteed",
                stacklevel=2,
            )

    def x_of(c: float) -> np.ndarray:
        return np.exp(-c * taus) if eta is None else (1.0 - c * eta) ** taus

    lowers = sum(g(x_of(c)) for c, g in band.lower)
    uppers = sum(g(x_of(c)) for c, g in band.upper)
    return lowers, np.minimum(uppers, band.cap)


def check_envelope(
    traj: Trajectory, env: BoundEnvelope, slack: float, eta: float | None = None
) -> EnvelopeReport:
    """Check every sample at t >= anchor_time against the band, with slack.

    A sample fails when it sits more than slack outside [lower, upper]. The
    report keeps the per-sample band so callers can serialize or plot it.
    With eta the trajectory's times are descent steps and the band is the
    descent band at that step size (see envelope_curve).
    """
    slack = _check_nonnegative(slack, "slack")
    mask = traj.times >= env.anchor_time
    times = traj.times[mask]
    if len(times) == 0:
        raise DomainError("no trajectory samples at or after the envelope anchor")
    values = (traj.magnitudes if env.kind == "magnitude" else traj.angles)[mask]
    lowers, uppers = envelope_curve(env, times, eta)
    margins = np.maximum(lowers - values, values - uppers)
    worst = int(np.argmax(margins))
    return EnvelopeReport(
        passed=bool(margins[worst] <= slack),
        worst_margin=margins[worst],
        times=times,
        values=values,
        lowers=lowers,
        uppers=uppers,
    )


def reanchored(env: BoundEnvelope, traj: Trajectory, index: int) -> BoundEnvelope:
    """The same band re-anchored at a trajectory sample.

    Reads (v0, phi0, anchor_time) from traj at the given sample index and
    keeps everything else. Later anchors have smaller gaps, hence tighter
    bands over the remaining window.
    """
    state = traj.states[index]
    return replace(env, phi0=state.angle, v0=state.magnitude, anchor_time=traj.times[index])


def convergence_horizon(
    m: int,
    target_norm: float,
    v0: float,
    phi0: float,
) -> float:
    """A time by which the flow provably sits within 1e-3 of its limit, in
    angle and in magnitude.

    Built from the guaranteed worst-case constants: the angle lower band's
    rate c_low at the guaranteed magnitude bracket r = min(v0, attractor(eps0)),
    R = max(v0, vstar), plus a linearized magnitude-settling term at the
    slowest local rate, with a 30% safety factor. Deliberately conservative,
    never tuned per run.
    """
    env = BoundEnvelope("magnitude", m, target_norm, phi0, v0)  # checks the arguments
    m, target_norm, v0, phi0 = env.m, env.target_norm, env.v0, env.phi0
    attractor = target_norm * (1.0 - env.eps0) ** (1.0 / (m + 1))
    r = min(v0, attractor)
    env = replace(env, kind="angle", r=r, R=max(v0, target_norm))
    angle_rate = _band_forms(env).lower[0].c
    cot = 1.0 / math.tan(phi0 / 2.0)
    ratio = 2.0 * cot / (0.5 * _HORIZON_ANGLE_TOL)
    t_angle = math.log(ratio) / angle_rate if ratio > 1.0 else 0.0
    settle_rate = 0.5 * (m + 1) * min(r, target_norm) ** (2 * m)
    gap = max(abs(v0 - target_norm), target_norm)
    half_tol = 0.5 * _HORIZON_MAG_TOL
    t_mag = math.log(gap / half_tol) / settle_rate if gap > half_tol else 0.0
    return 1.3 * (t_angle + t_mag) + 1.0
