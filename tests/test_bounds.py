import math

import numpy as np
import pytest

from reluflow.bounds import (
    BoundEnvelope,
    check_envelope,
    convergence_horizon,
    envelope_curve,
    frozen_gap_magnitude_implicit,
    frozen_gap_magnitude_ode,
    magnitude_bounds_multilayer,
    reanchored,
)
from reluflow.errors import DomainError
from reluflow.flow import FlowSpec, epsilon_gap, integrate_polar
from reluflow.population import PolarState


def mag_env(m, tnorm, phi0, v0, anchor=0.0):
    return BoundEnvelope("magnitude", m, tnorm, phi0, v0, anchor_time=anchor)


def ang_env(m, tnorm, phi0, v0, r, R, anchor=0.0):
    return BoundEnvelope("angle", m, tnorm, phi0, v0, r=r, R=R, anchor_time=anchor)


def band_at(env, t):
    """(lower, upper) at one flow time, from the one band evaluator."""
    lo, up = envelope_curve(env, [t])
    return float(lo[0]), float(up[0])


# ----------------------------------------------------------------
# envelope construction

def test_envelope_validation():
    with pytest.raises(DomainError):
        BoundEnvelope("speed", 0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        BoundEnvelope("angle", 0, 1.0, 1.0, 1.0)  # missing r, R
    with pytest.raises(DomainError):
        BoundEnvelope("angle", 0, 1.0, 1.0, 1.0, r=2.0, R=1.0)
    with pytest.raises(DomainError):
        BoundEnvelope("magnitude", 1, 1.0, 1.0, 0.0)  # deep start at zero
    BoundEnvelope("magnitude", 0, 1.0, 1.0, 0.0)  # one-layer zero start is fine
    # NaN fails every comparison, so each field must be checked positively
    with pytest.raises(DomainError):
        BoundEnvelope("magnitude", 0, math.nan, 1.0, 0.5)
    with pytest.raises(DomainError):
        BoundEnvelope("magnitude", 0, 1.0, 1.0, math.nan)
    with pytest.raises(DomainError):
        BoundEnvelope("magnitude", 0, 1.0, 1.0, 0.5, anchor_time=math.nan)
    with pytest.raises(DomainError):
        envelope_curve(mag_env(0, 1.0, 1.0, 0.5), [0.0, math.nan, 2.0])
    # the pointwise implicit band is the m >= 2 magnitude band only
    with pytest.raises(DomainError):
        magnitude_bounds_multilayer(mag_env(1, 1.0, 1.0, 0.5), 1.0)
    with pytest.raises(DomainError):
        magnitude_bounds_multilayer(ang_env(2, 1.0, 1.0, 0.5, r=0.4, R=1.2), 1.0)


def test_eps0_recomputed():
    env = mag_env(0, 1.0, math.pi / 2, 0.5)
    assert env.eps0 == pytest.approx(epsilon_gap(math.pi / 2), rel=1e-15)


# ----------------------------------------------------------------
# one-layer bands

def test_one_layer_magnitude_collapses_at_zero():
    env = mag_env(0, 1.0, 1.2, 0.7)
    lo, up = band_at(env, 0.0)
    assert lo == up == pytest.approx(0.7)


def test_one_layer_magnitude_limits():
    env = mag_env(0, 2.0, 1.2, 0.7)
    lo, up = band_at(env, 400.0)
    assert lo == pytest.approx((1.0 - env.eps0) * 2.0, rel=1e-12)
    assert up == pytest.approx(2.0, rel=1e-12)


def test_one_layer_magnitude_reference_value():
    # φ₀=π/2, v₀=0, v*=1, t=2: lower = (1/π)(1−e⁻¹)
    env = mag_env(0, 1.0, math.pi / 2, 0.0)
    lo, _ = band_at(env, 2.0)
    assert lo == pytest.approx((1 / math.pi) * (1 - math.exp(-1)), rel=1e-14)
    assert lo == pytest.approx(0.20121022313515235, abs=1e-15)


def test_one_layer_angle_at_zero():
    env = ang_env(0, 1.0, math.pi / 2, 0.5, r=0.5, R=1.0)
    lo, up = band_at(env, 0.0)
    assert lo == pytest.approx(math.pi - 2.0, rel=1e-12)
    assert up <= math.pi + 1e-15


def test_one_layer_angle_limits():
    env = ang_env(0, 1.0, 2.0, 0.5, r=0.5, R=1.0)
    lo, up = band_at(env, 500.0)
    assert lo == pytest.approx(math.pi, abs=1e-9)
    assert up == pytest.approx(math.pi, abs=1e-12)


def test_one_layer_angle_small_norm_rate():
    # with R = v* the lower-band rate reduces to φ₀/(2π)
    phi0, vstar, t = 1.9, 1.3, 3.7
    env = ang_env(0, vstar, phi0, 0.1, r=0.4, R=vstar)
    lo, _ = band_at(env, t)
    want = math.pi - 2.0 / math.tan(phi0 / 2) * math.exp(-(phi0 / (2 * math.pi)) * t)
    assert lo == pytest.approx(want, rel=1e-12)


# ----------------------------------------------------------------
# deep bands

def test_deep_magnitude_collapses_at_zero():
    env = mag_env(1, 1.0, 1.5, 0.4)
    lo, up = band_at(env, 0.0)
    assert lo == pytest.approx(0.4, rel=1e-12)
    assert up == pytest.approx(0.4, rel=1e-12)


def test_deep_magnitude_limits_two_layer():
    env = mag_env(1, 1.0, 1.5, 0.4)
    lo, up = band_at(env, 200.0)
    assert lo == pytest.approx(math.sqrt(1.0 - env.eps0), rel=1e-9)
    assert up == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("v0", [0.5, 1.5])
def test_deep_magnitude_dual_paths_agree(v0):
    """Inverting the implicit relation and integrating the frozen-gap
    equation must land on the same curve, below and above the attractor."""
    for eps in (0.0, 0.3):
        for tau in (0.2, 0.5, 1.0):
            via_root = frozen_gap_magnitude_implicit(2, 1.0, eps, v0, tau)
            via_ode = frozen_gap_magnitude_ode(2, 1.0, eps, v0, tau, dt=1e-5)
            assert via_root == pytest.approx(via_ode, abs=1e-6)


def test_deep_magnitude_ode_stays_stable_on_stiff_start():
    # flow-m2 at seed 3: at dt = 1e-3 the start has h |f'| = 3.2, past RK4's
    # stability limit, where fixed steps settled on 5.93 instead of 6.77
    vstar, v0 = 6.773135866582861, 1.8711018115144316
    via_ode = frozen_gap_magnitude_ode(2, vstar, 0.0, v0, 0.05, 1e-3)
    via_root = frozen_gap_magnitude_implicit(2, vstar, 0.0, v0, 0.05)
    assert via_ode == pytest.approx(via_root, rel=1e-9)


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan])
def test_deep_magnitude_ode_rejects_bad_step(dt):
    with pytest.raises(DomainError):
        frozen_gap_magnitude_ode(2, 1.0, 0.0, 0.5, 1.0, dt)


def test_deep_magnitude_implicit_reaches_attractor():
    # deep into convergence the solution sits on the attractor a^(1/(m+1))
    u = frozen_gap_magnitude_implicit(2, 1.0, 0.0, 0.5, 60.0)
    assert u == pytest.approx(1.0, rel=1e-12)


# (m, vstar, eps, v0, tau): starts below and above the attractor, gaps eps > 0,
# and the stiff flow-m2 start (v0 a quarter of the attractor, fast growth)
ORACLE_CASES = [
    (2, 1.0, 0.0, 0.5, 1.0),
    (2, 1.0, 0.3, 1.6, 0.7),
    (3, 1.2, 0.0, 0.4, 2.0),
    (3, 0.9, 0.5, 1.3, 0.3),
    (4, 1.0, 0.2, 0.6, 3.0),
    (4, 1.1, 0.0, 1.7, 0.05),
    (2, 0.8, 0.6, 0.2, 5.0),
    (2, 4.7672121897640638, 0.0, 1.2110624457848096, 0.011999196971720159),
]


@pytest.mark.parametrize("m, vstar, eps, v0, tau", ORACLE_CASES)
def test_deep_magnitude_implicit_matches_high_precision_ode(m, vstar, eps, v0, tau):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a = mpmath.mpf(vstar) ** (m + 1) * (1 - mpmath.mpf(eps))
        solve = mpmath.odefun(lambda _, u: -u**m * (u ** (m + 1) - a) / 2, 0, mpmath.mpf(v0))
        want = float(solve(mpmath.mpf(tau)))
    got = frozen_gap_magnitude_implicit(m, vstar, eps, v0, tau)
    assert got == pytest.approx(want, rel=1e-13, abs=0)


def test_deep_magnitude_implicit_rejects_m1():
    with pytest.raises(DomainError):
        frozen_gap_magnitude_implicit(1, 1.0, 0.0, 0.5, 1.0)


def test_deep_angle_at_zero():
    env = ang_env(3, 1.0, math.pi / 2, 0.5, r=0.5, R=1.5)
    lo, up = band_at(env, 0.0)
    assert lo == pytest.approx(math.pi - 2.0, rel=1e-12)
    assert up <= math.pi + 1e-15


def test_deep_angle_m3_direct_formula():
    phi0, r, R, vstar, t = math.pi / 2, 0.5, 1.5, 1.0, 2.0
    env = ang_env(3, vstar, phi0, 0.7, r=r, R=R)
    lo, up = band_at(env, t)
    cot = 1.0 / math.tan(phi0 / 2)
    lo_rate = (phi0 / (2 * math.pi)) * r ** 2 * vstar ** 4
    up_rate = 0.5 * R ** 2 * vstar ** 4
    want_lo = math.pi - 2 * cot * math.exp(-lo_rate * t)
    want_up = min(
        math.pi,
        math.pi - 2 * cot * math.exp(-up_rate * t)
        + (2.0 / 3.0) * cot ** 3 * math.exp(-3 * up_rate * t),
    )
    assert lo == pytest.approx(want_lo, rel=1e-12)
    assert up == pytest.approx(want_up, rel=1e-12)


def test_deep_angle_m1_rates_lose_magnitude_dependence():
    phi0, vstar, t = 2.2, 1.1, 1.3
    a = ang_env(1, vstar, phi0, 0.6, r=0.2, R=3.0)
    b = ang_env(1, vstar, phi0, 0.6, r=0.9, R=1.2)
    assert band_at(a, t) == band_at(b, t)


def test_anchored_window_rejects_earlier_times():
    env = mag_env(0, 1.0, 1.2, 0.5, anchor=3.0)
    with pytest.raises(DomainError):
        band_at(env, 2.0)


# ----------------------------------------------------------------
# checking trajectories against bands

@pytest.fixture(scope="module")
def one_layer_traj():
    spec = FlowSpec(m=0, target_norm=1.0, initial=PolarState(0.4, math.pi / 2),
                    t_end=15.0, dt=1e-3)
    return integrate_polar(spec, sample_every=50)


def test_check_envelope_passes_on_matching_flow(one_layer_traj):
    traj = one_layer_traj
    env = mag_env(0, 1.0, math.pi / 2, 0.4)
    rep = check_envelope(traj, env, 1e-6)
    assert rep.passed
    assert rep.worst_margin <= 1e-6
    vmin, vmax = traj.magnitudes.min(), traj.magnitudes.max()
    aenv = ang_env(0, 1.0, math.pi / 2, 0.4, r=vmin * (1 - 1e-12), R=vmax * (1 + 1e-12))
    arep = check_envelope(traj, aenv, 1e-6)
    assert arep.passed


def test_check_envelope_flags_violations(one_layer_traj):
    traj = one_layer_traj
    flat = PolarState(traj.magnitudes[0], math.pi / 4)
    fake = type(traj)(traj.times, [flat] * len(traj.times), traj.losses)
    env = ang_env(0, 1.0, math.pi / 2, 0.4, r=0.1, R=2.0)
    rep = check_envelope(fake, env, 1e-6)
    assert not rep.passed
    assert rep.worst_margin > 0.1  # far outside the band


def test_reanchored_band_is_tighter(one_layer_traj):
    traj = one_layer_traj
    base = mag_env(0, 1.0, math.pi / 2, 0.4)
    mid = len(traj.times) // 2
    late = reanchored(base, traj, mid)
    assert late.anchor_time == pytest.approx(traj.times[mid])

    def worst_slack(env):
        rep = check_envelope(traj, env, 1e-6)
        assert rep.passed
        return max(float(np.max(rep.uppers - rep.values)),
                   float(np.max(rep.values - rep.lowers)))

    assert worst_slack(late) < worst_slack(base)


def test_check_envelope_requires_matching_anchor(one_layer_traj):
    env = mag_env(0, 1.0, math.pi / 2, 0.4, anchor=1e6)
    with pytest.raises(DomainError):
        check_envelope(one_layer_traj, env, 1e-6)


# ----------------------------------------------------------------
# curves and horizons

def test_envelope_curve_matches_pointwise():
    env = mag_env(2, 1.0, 1.8, 0.5)
    times = np.linspace(0.0, 4.0, 9)
    lowers, uppers = envelope_curve(env, times)
    for i, t in enumerate(times):
        lo, up = magnitude_bounds_multilayer(env, float(t))
        assert lowers[i] == pytest.approx(lo, abs=1e-8)
        assert uppers[i] == pytest.approx(up, abs=1e-8)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_convergence_horizon_is_sufficient(m):
    v0, phi0, tnorm = 0.8, 1.7, 1.0
    horizon = convergence_horizon(m, tnorm, v0, phi0)
    spec = FlowSpec(m=m, target_norm=tnorm, initial=PolarState(v0, phi0),
                    t_end=horizon, dt=2e-3)
    traj = integrate_polar(spec, sample_every=100)
    assert traj.angles[-1] > math.pi - 1e-3
    assert abs(traj.magnitudes[-1] - tnorm) < 1e-3
