import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reluflow.descent import DescentConfig, run_gd, run_gd_batch
from reluflow.errors import DivergenceError, DomainError
from reluflow.flow import (
    _FREEZE_GAP,
    FlowSpec,
    Trajectory,
    _check_step,
    epsilon_gap,
    integrate_polar,
    integrate_vector,
    polar_rhs,
    vector_rhs,
)
from reluflow.population import (
    NeuronConfig,
    PolarState,
    WeightState,
    polar_of,
    population_gradient,
)


# ----------------------------------------------------------------
# right-hand sides

@pytest.mark.parametrize("m", [0, 1, 3])
def test_polar_rhs_at_aligned_limit(m):
    # at φ=π the angle is stationary and the gap factor is 1
    v, vstar = 0.7, 1.3
    dv, dphi = polar_rhs(m, vstar, PolarState(v, math.pi - 1e-15))
    assert abs(dphi) < 1e-12
    want = -0.5 * v**m * (v ** (m + 1) - vstar ** (m + 1))
    assert dv == pytest.approx(want, rel=1e-12)


def test_polar_rhs_one_layer_reference():
    dv, _ = polar_rhs(0, 1.0, PolarState(1.0, math.pi / 2))
    assert dv == pytest.approx(-0.5 * (1.0 - 1.0 / math.pi), rel=1e-14)


def test_polar_rhs_matches_full_gradient():
    """(dv, dφ) from the reduced system equals the polar projection of the
    full negative gradient on any weight state realizing that polar state."""
    rng = np.random.default_rng(3)
    for m in (1, 2):
        for _ in range(5):
            d = 5
            tw = rng.standard_normal(d)
            cfg = NeuronConfig(d=d, m=m, target_w=tw)
            w = rng.standard_normal(d)
            w *= (0.3 + rng.random()) / np.linalg.norm(w)
            state = WeightState(w, (float(np.linalg.norm(w)),) * m)
            pol = polar_of(cfg, state)
            dv, dphi = polar_rhs(m, cfg.target_norm, pol)

            gw, _ = population_gradient(cfg, state)
            wdot = -gw
            v = pol.magnitude
            what = w / v
            # ‖w‖ changes along ŵ; the angle to the teacher changes along the
            # in-plane perpendicular, and φ = π - θ flips the sign once more
            dv_full = float(what @ wdot)
            tstar = cfg.target_w / cfg.target_norm
            perp = tstar - float(tstar @ what) * what
            sin_theta = float(np.linalg.norm(perp))
            if sin_theta < 1e-9:
                continue
            dphi_full = float(perp @ wdot) / (v * sin_theta)
            assert dv == pytest.approx(dv_full, rel=1e-8)
            assert dphi == pytest.approx(dphi_full, rel=1e-8, abs=1e-12)


def test_vector_rhs_is_negative_gradient():
    rng = np.random.default_rng(5)
    cfg = NeuronConfig(d=3, m=0, target_w=rng.standard_normal(3))
    state = WeightState(rng.standard_normal(3), ())
    dw, dh = vector_rhs(cfg, state)
    gw, gh = population_gradient(cfg, state)
    assert np.array_equal(dw, -gw)
    assert np.array_equal(dh, -gh)


def test_vector_rhs_stationary_at_target():
    cfg = NeuronConfig(d=3, m=2, target_w=np.array([1.0, 2.0, -0.5]))
    state = WeightState(cfg.target_w.copy(), (cfg.target_norm,) * 2)
    dw, dh = vector_rhs(cfg, state)
    assert np.allclose(dw, 0.0, atol=1e-13)
    assert np.allclose(dh, 0.0, atol=1e-13)


# ----------------------------------------------------------------
# the alignment-gap function

def test_epsilon_gap_reference():
    assert epsilon_gap(math.pi / 2) == pytest.approx(1.0 - 1.0 / math.pi, rel=1e-15, abs=0)
    assert epsilon_gap(math.pi) == 0.0


def test_epsilon_gap_series_coefficients():
    # where direct evaluation still has ~8 good digits, the gap must follow
    # the small-gap expansion δ²/2 − δ³/(3π) − δ⁴/24 + δ⁵/(30π)
    for delta in (1e-4, 3e-4, 1e-3):
        series = (delta**2 / 2 - delta**3 / (3 * math.pi)
                  - delta**4 / 24 + delta**5 / (30 * math.pi))
        assert epsilon_gap(math.pi - delta) == pytest.approx(series, rel=1e-7)


def test_epsilon_gap_series_switch_is_seamless():
    # direct evaluation suffers cancellation (~1e-16 absolute on a ~5e-13
    # value), so continuity across the 1e-6 branch switch is only assertable
    # to the noise floor of the direct branch
    below = epsilon_gap(math.pi - 9.9e-7)
    above = epsilon_gap(math.pi - 1.01e-6)
    assert above > below
    mid = (1.0e-6) ** 2 / 2
    assert below == pytest.approx(mid, rel=0.03)
    assert above == pytest.approx(mid, rel=0.03)


@given(st.floats(min_value=1e-8, max_value=math.pi - 1e-8))
def test_epsilon_gap_bounds(phi):
    eps = epsilon_gap(phi)
    # the open upper bound is only representable for angles away from 0
    assert 0.0 < eps <= 1.0
    if phi > 1e-3:
        assert eps < 1.0


@given(
    st.floats(min_value=0.01, max_value=math.pi - 0.02),
    st.floats(min_value=1e-4, max_value=0.01),
)
def test_epsilon_gap_decreasing(phi, dphi):
    assert epsilon_gap(phi + dphi) < epsilon_gap(phi)


# ----------------------------------------------------------------
# polar integration

def test_near_stationary_point_stays_put():
    spec = FlowSpec(m=0, target_norm=1.0, initial=PolarState(1.0, math.pi - 1e-9),
                    t_end=5.0, dt=1e-3)
    traj = integrate_polar(spec, sample_every=100)
    assert np.all(np.abs(traj.magnitudes - 1.0) < 1e-6)


def test_one_layer_convergence():
    spec = FlowSpec(m=0, target_norm=1.0, initial=PolarState(1.0, math.pi / 2),
                    t_end=30.0, dt=1e-3)
    traj = integrate_polar(spec, sample_every=100)
    assert traj.angles[-1] > math.pi - 1e-3
    assert abs(traj.magnitudes[-1] - 1.0) < 1e-3


def test_step_halving_is_fourth_order():
    def end_state(dt):
        spec = FlowSpec(m=1, target_norm=1.2, initial=PolarState(0.5, 1.8),
                        t_end=4.0, dt=dt)
        traj = integrate_polar(spec, sample_every=10**9)
        return np.array([traj.magnitudes[-1], traj.angles[-1]])

    coarse, mid, fine = end_state(4e-2), end_state(2e-2), end_state(1e-2)
    ratio = np.linalg.norm(coarse - mid) / np.linalg.norm(mid - fine)
    assert 8.0 < ratio < 32.0  # 16 ± factor-2 slop


def test_flow_spec_validation():
    with pytest.raises(DomainError):
        FlowSpec(m=0, target_norm=1.0, initial=PolarState(1.0, 0.0), t_end=1.0)
    with pytest.raises(DomainError):
        FlowSpec(m=0, target_norm=1.0, initial=PolarState(0.0, 1.0), t_end=1.0)
    with pytest.raises(DomainError):
        FlowSpec(m=0, target_norm=1.0, initial=PolarState(1.0, 1.0), t_end=0.5, dt=1.0)


def test_trajectory_invariants():
    with pytest.raises(DomainError):
        Trajectory(np.array([0.1, 0.2]), [PolarState(1, 1), PolarState(1, 1)],
                   np.zeros(2))
    with pytest.raises(DomainError):
        Trajectory(np.array([0.0, 0.0]), [PolarState(1, 1), PolarState(1, 1)],
                   np.zeros(2))


def test_trajectory_times_and_losses_are_read_only():
    # One trajectory may serve several runs, so a write must fail loudly
    # instead of changing what the other runs read.
    spec = FlowSpec(m=0, target_norm=1.0, initial=PolarState(0.5, 2.0), t_end=0.1, dt=1e-2)
    traj = integrate_polar(spec)
    with pytest.raises(ValueError):
        traj.times[0] = 1.0
    with pytest.raises(ValueError):
        traj.losses[0] = 1.0


def _recorded_runs():
    config = NeuronConfig(d=4, m=2, target_w=np.array([1.0, 0.0, 0.0, 0.0]))
    init = WeightState(np.array([0.1, 0.6, 0.2, 0.0]), (0.7, 0.9))
    flow = integrate_vector(config, init, t_end=0.05, dt=1e-2, sample_every=1)
    descent = run_gd(config, init, DescentConfig(eta=1e-2, steps=6, mode="empirical",
                                                 n_samples=100, record_every=2))
    return init, [flow, descent] + run_gd_batch(
        [(config, init, DescentConfig(eta=1e-2, steps=k, mode="empirical", n_samples=80))
         for k in (3, 5)])


def test_trajectory_is_read_only_throughout():
    """States and weight states are tuples and each kept weight vector
    refuses writes, for the vector flow, a lone descent and a batch."""
    init, runs = _recorded_runs()
    for traj in runs:
        with pytest.raises(AttributeError):
            traj.states.append(traj.states[0])
        with pytest.raises(AttributeError):
            traj.weight_states.append(traj.weight_states[0])
        with pytest.raises(TypeError):
            traj.states[0] = traj.states[-1]
        with pytest.raises(ValueError):
            traj.weight_states[1].w[0] = 9.0
        with pytest.raises(ValueError):
            traj.weight_states[-1].w += 1.0
    init.w[0] = 0.1  # the caller's start stays its own, and writable


def test_recorded_weights_share_no_memory():
    # Rows recorded from a live stack are copies, never views into it, and
    # step 0 is a copy of the caller's start.
    init, runs = _recorded_runs()
    arrays = [init.w] + [s.w for traj in runs for s in traj.weight_states]
    assert len(arrays) == 1 + 6 + 4 + 4 + 6
    for i, a in enumerate(arrays):
        assert a.flags.owndata  # not a view into any larger array
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def test_angle_freeze_near_alignment():
    spec = FlowSpec(m=0, target_norm=1.0, initial=PolarState(0.5, math.pi - 1e-13),
                    t_end=2.0, dt=1e-3)
    traj = integrate_polar(spec, sample_every=200)
    assert traj.angles[-1] >= math.pi - 1e-12
    # magnitude keeps integrating toward the target after the freeze
    assert traj.magnitudes[-1] > 0.5


# ----------------------------------------------------------------
# full-vector integration

@pytest.mark.parametrize(
    "v,phi,needle",
    [(math.nan, 1.0, "non-finite state"), (1.0, math.inf, "non-finite state"),
     (-2e12, 1.0, "exceeded"), (1.0, math.pi + 1e-9, "overshot pi"),
     (1.0, 0.0, "downward"), (1.0, -1e-3, "downward")],
    ids=["nan-magnitude", "infinite-angle", "blow-up", "overshoot", "angle-zero",
         "angle-negative"],
)
def test_step_guard_refuses_a_state_off_the_flow(v, phi, needle):
    with pytest.raises(DivergenceError, match=needle):
        _check_step(v, phi, 0.25)


def test_step_guard_clamps_an_overshoot_within_the_gap_and_freezes_near_pi():
    below_pi = math.nextafter(math.pi, 0.0)
    for phi in (math.pi, math.pi + 0.5 * _FREEZE_GAP):
        assert _check_step(1.0, phi, 0.25) == (below_pi, True)
    near = math.pi - 0.5 * _FREEZE_GAP
    assert _check_step(1.0, near, 0.25) == (near, True)
    assert _check_step(1.0, 2.0, 0.25) == (2.0, False)


def test_vector_flow_reduces_to_polar():
    rng = np.random.default_rng(9)
    cfg = NeuronConfig(d=4, m=0, target_w=rng.standard_normal(4))
    w0 = rng.standard_normal(4) * 0.6
    init = WeightState(w0, ())
    vec = integrate_vector(cfg, init, t_end=10.0, dt=1e-3, sample_every=100)
    p0 = polar_of(cfg, init)
    pol = integrate_polar(
        FlowSpec(m=0, target_norm=cfg.target_norm, initial=p0, t_end=10.0, dt=1e-3),
        sample_every=100,
    )
    assert np.max(np.abs(vec.magnitudes - pol.magnitudes)) < 1e-6
    assert np.max(np.abs(vec.angles - pol.angles)) < 1e-6


def test_vector_flow_preserves_balance():
    # O(1) scales: the conserved gaps drift only at the integrator's own
    # O(dt^4) floor when the dynamics are well resolved
    rng = np.random.default_rng(13)
    tw = rng.standard_normal(3)
    cfg = NeuronConfig(d=3, m=2, target_w=1.2 * tw / np.linalg.norm(tw))
    w0 = rng.standard_normal(3)
    w0 *= 0.8 / np.linalg.norm(w0)
    v0 = float(np.linalg.norm(w0))
    init = WeightState(w0, (v0, v0))
    traj = integrate_vector(cfg, init, t_end=6.0, dt=1e-3, sample_every=100)
    for ws in traj.weight_states:
        nrm2 = float(ws.w @ ws.w)
        assert ws.hidden[0] ** 2 - nrm2 == pytest.approx(0.0, abs=1e-8)
        assert ws.hidden[1] ** 2 - ws.hidden[0] ** 2 == pytest.approx(0.0, abs=1e-8)


def test_vector_flow_constant_at_target():
    cfg = NeuronConfig(d=3, m=1, target_w=np.array([1.0, 0.5, -0.2]))
    init = WeightState(cfg.target_w.copy(), (cfg.target_norm,))
    traj = integrate_vector(cfg, init, t_end=2.0, dt=1e-3, sample_every=100)
    for ws in traj.weight_states:
        assert np.allclose(ws.w, cfg.target_w, atol=1e-10)


def test_one_vector_flow_step_is_rk4_on_vector_rhs():
    """integrate_vector steps -population_gradient as written: one step
    equals classic RK4 done by hand on vector_rhs, bit for bit."""
    rng = np.random.default_rng(21)
    for case in range(20):
        m, d = case % 4, 3 + case % 6
        cfg = NeuronConfig(d=d, m=m, target_w=rng.standard_normal(d))
        init = WeightState(rng.standard_normal(d), tuple(rng.uniform(0.3, 1.5, m)))
        h = 1e-2

        def field(y):
            dw, dh = vector_rhs(cfg, WeightState(y[:d], tuple(y[d:])))
            return np.concatenate([dw, dh])

        y = np.concatenate([init.w, np.array(init.hidden)])
        k1 = field(y)
        k2 = field(y + (0.5 * h) * k1)
        k3 = field(y + (0.5 * h) * k2)
        k4 = field(y + h * k3)
        want = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        got = integrate_vector(cfg, init, t_end=h, dt=h).weight_states[-1]
        assert np.array_equal(got.w, want[:d]), case
        assert got.hidden == tuple(want[d:]), case


def _run(integrator, t_end=1.0, dt=0.1, sample_every=1):
    if integrator == "polar":
        spec = FlowSpec(m=1, target_norm=1.0, initial=PolarState(0.8, 2.0),
                        t_end=t_end, dt=dt)
        return integrate_polar(spec, sample_every=sample_every)
    cfg = NeuronConfig(d=3, m=1, target_w=np.array([1.0, 0.0, 0.0]))
    init = WeightState(np.array([-0.3, 0.5, 0.1]), (0.6,))
    return integrate_vector(cfg, init, t_end=t_end, dt=dt, sample_every=sample_every)


@pytest.mark.parametrize("integrator", ["polar", "vector"])
@pytest.mark.parametrize("sample_every", [2.5, math.nan])
def test_integrators_reject_a_fractional_or_nan_sample_every(integrator, sample_every):
    with pytest.raises(DomainError):
        _run(integrator, sample_every=sample_every)


@pytest.mark.parametrize("integrator", ["polar", "vector"])
@pytest.mark.parametrize("t_end,dt", [(math.inf, 0.1), (1e300, 1e-10)],
                         ids=["infinite", "overflowing"])
def test_integrators_reject_an_infinite_step_count(integrator, t_end, dt):
    with pytest.raises(DomainError):
        _run(integrator, t_end=t_end, dt=dt)
