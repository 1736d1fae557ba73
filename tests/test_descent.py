import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reluflow.bounds import BoundEnvelope, envelope_curve
from reluflow.descent import (
    DescentConfig,
    ExpFlowForm,
    eta_threshold,
    flow_forms_for,
    gd_error_scaling,
    gd_step,
    gf_to_gd,
    run_gd,
    stopping_time,
)
from reluflow.errors import DimensionError, DivergenceError, DomainError, UnavailableError
from reluflow.flow import epsilon_gap
from reluflow.montecarlo import mc_population_gradient
from reluflow.population import NeuronConfig, WeightState, polar_of


def make_problem(m, d=5, vstar=1.0, v0=0.5, phi0=math.pi / 2, seed=0):
    """Exact polar placement: teacher along e1, student in the e1-e2 plane."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    theta0 = math.pi - phi0
    target = vstar * q[:, 0]
    w0 = v0 * (math.cos(theta0) * q[:, 0] + math.sin(theta0) * q[:, 1])
    cfg = NeuronConfig(d=d, m=m, target_w=target)
    return cfg, WeightState(w0, (v0,) * m)


def band_at(env, T, eta):
    """(lower, upper) at one descent step, from the one band evaluator."""
    lo, up = envelope_curve(env, [T], eta)
    return float(lo[0]), float(up[0])


# ----------------------------------------------------------------
# single steps

def test_step_fixed_point_at_target():
    cfg, _ = make_problem(1)
    state = WeightState(cfg.target_w.copy(), (cfg.target_v,))
    out = gd_step(cfg, state, 0.05)
    assert np.allclose(out.w, state.w, atol=1e-14)
    assert out.hidden[0] == pytest.approx(state.hidden[0], abs=1e-14)


def test_step_one_layer_radial_recurrence():
    """The projection of one population step onto the current direction
    reproduces the scalar magnitude recurrence exactly."""
    cfg, init = make_problem(0, v0=0.7, phi0=2.1)
    eta = 0.02
    pol = polar_of(cfg, init)
    out = gd_step(cfg, init, eta)
    what = init.w / np.linalg.norm(init.w)
    radial = float(what @ out.w)
    want = (1 - eta / 2) * pol.magnitude + (eta / 2) * (
        1 - epsilon_gap(pol.angle)
    ) * cfg.target_norm
    assert radial == pytest.approx(want, abs=1e-10)


def test_empirical_step_matches_population_within_noise():
    cfg, init = make_problem(1, d=5, v0=0.8, phi0=1.9)
    eta = 0.05
    n = 1_000_000
    pop = gd_step(cfg, init, eta)
    dc = DescentConfig(eta=eta, steps=1, mode="empirical", n_samples=n, seed=42)
    emp = run_gd(cfg, init, dc).weight_states[-1]
    gw, gh = mc_population_gradient(cfg, init, n, seed=7)
    assert np.all(np.abs(emp.w - pop.w) <= 3 * eta * gw.stderr + 1e-12)
    assert abs(emp.hidden[0] - pop.hidden[0]) <= 3 * eta * float(gh.stderr[0]) + 1e-12


def test_divergence_raises():
    cfg, init = make_problem(1, v0=0.5)
    with pytest.raises(DivergenceError):
        run_gd(cfg, init, DescentConfig(eta=50.0, steps=100))


def test_empirical_divergence_norm_blowup():
    # m = 0 has no hidden scalar, so only the norm guard can fire
    cfg, init = make_problem(0, v0=0.5)
    dc = DescentConfig(eta=50.0, steps=100, mode="empirical", n_samples=200, seed=1)
    with pytest.raises(DivergenceError, match="blew up"):
        run_gd(cfg, init, dc)


def test_empirical_divergence_hidden_scalar_sign():
    # w three times the teacher with v = 1: the first step's hidden gradient
    # is about 3, so eta = 0.5 drives v below zero while the norm stays small
    cfg, _ = make_problem(1)
    init = WeightState(3.0 * cfg.target_w, (1.0,))
    dc = DescentConfig(eta=0.5, steps=10, mode="empirical", n_samples=500, seed=1)
    with pytest.raises(DivergenceError, match="hidden scalar"):
        run_gd(cfg, init, dc)


@pytest.mark.parametrize(
    "field,value",
    [("eta", math.nan), ("eta", math.inf), ("steps", 2.5), ("record_every", 1.5),
     ("n_samples", 2.5)],
)
def test_descent_config_rejects_non_finite_and_fractional(field, value):
    kwargs = {"eta": 1e-3, "steps": 10, "mode": "empirical", "n_samples": 20, field: value}
    with pytest.raises(DomainError):
        DescentConfig(**kwargs)


@pytest.mark.parametrize("eta", [math.nan, math.inf])
@pytest.mark.parametrize("batched", [False, True], ids=["population", "empirical"])
def test_gd_step_rejects_non_finite_eta(eta, batched):
    cfg, init = make_problem(1)
    batch = np.random.default_rng(0).standard_normal((50, cfg.d)) if batched else None
    with pytest.raises(DomainError):
        gd_step(cfg, init, eta, batch)


@pytest.mark.parametrize("batched", [False, True], ids=["population", "empirical"])
def test_gd_step_rejects_state_of_another_depth(batched):
    cfg, init = make_problem(0)
    batch = np.random.default_rng(0).standard_normal((50, cfg.d)) if batched else None
    with pytest.raises(DimensionError):
        gd_step(cfg, WeightState(init.w, (0.7, 0.9)), 1e-2, batch)


def test_bridge_rejects_non_finite_eta():
    env = BoundEnvelope("angle", 1, 1.0, 2.0, 0.5, r=0.4, R=1.2)
    form = flow_forms_for(env)["lower"]
    for eta in (math.nan, math.inf):
        with pytest.raises(DomainError):
            gf_to_gd(form, eta, 10)
        with pytest.raises(DomainError):
            stopping_time(env, eta, 1e-2)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_empirical_run_equals_a_fold_of_gd_step(m):
    """run_gd's empirical loop (labels computed once, raw state) records
    exactly the states a fold of the public gd_step gives on the same data."""
    cfg, init = make_problem(m, d=6, v0=0.8, phi0=2.0, seed=m)
    dc = DescentConfig(eta=0.02, steps=300, mode="empirical", n_samples=500,
                       seed=11, record_every=40)
    traj = run_gd(cfg, init, dc)
    rng = np.random.default_rng(np.random.SeedSequence(dc.seed))
    batch = rng.standard_normal((dc.n_samples, cfg.d))
    state, want = init, [init]
    for k in range(1, dc.steps + 1):
        state = gd_step(cfg, state, dc.eta, batch)
        if k % dc.record_every == 0 or k == dc.steps:
            want.append(state)
    assert len(traj.weight_states) == len(want) == 9
    assert not np.array_equal(want[-1].w, init.w)
    for got, ref in zip(traj.weight_states, want):
        assert np.array_equal(got.w, ref.w)
        assert got.hidden == ref.hidden


# ----------------------------------------------------------------
# full runs

def test_one_layer_run_lands_in_certified_band():
    # same eta*T as the full-scale one-layer run, desk-sized problem
    cfg, init = make_problem(0, d=20, vstar=10.0, v0=3.2, phi0=math.pi / 2, seed=3)
    eta, steps = 1.5e-3, 20_000
    dc = DescentConfig(eta=eta, steps=steps, mode="empirical", n_samples=2_000,
                       seed=3, record_every=100)
    traj = run_gd(cfg, init, dc)
    pol = polar_of(cfg, init)
    env = BoundEnvelope("angle", 0, 10.0, pol.angle, pol.magnitude,
                        r=pol.magnitude, R=10.0)
    lo, up = band_at(env, steps, eta)
    assert lo <= traj.angles[-1] <= up
    assert traj.losses[-1] < 1e-4 * traj.losses[0]


def test_balanced_gaps_drift_slowly_under_gd():
    cfg, init = make_problem(1, v0=0.6, phi0=2.0)
    eta, steps = 1e-3, 1000
    traj = run_gd(cfg, init, DescentConfig(eta=eta, steps=steps, record_every=50))
    gap0 = init.hidden[0] ** 2 - float(init.w @ init.w)
    for ws in traj.weight_states:
        gap = ws.hidden[0] ** 2 - float(ws.w @ ws.w)
        assert abs(gap - gap0) < 100 * eta
        assert ws.hidden[0] > 0  # sign never flips in the small-step regime


# ----------------------------------------------------------------
# flow-to-descent substitution

def test_gf_to_gd_identity_form():
    form = ExpFlowForm(1.0, lambda x: x)
    with pytest.warns(UserWarning):  # boundary step size is allowed but loud
        assert gf_to_gd(form, 0.1, 10) == pytest.approx(0.9**10, rel=1e-15)


def test_gf_to_gd_step_size_guards():
    form = ExpFlowForm(2.0, lambda x: x)
    with pytest.raises(DomainError):
        gf_to_gd(form, 0.06, 10)  # eta > 0.1/c
    with pytest.warns(UserWarning):
        gf_to_gd(form, 0.006, 10)  # above the clean-run line


def test_gf_to_gd_reproduces_small_norm_angle_bound():
    phi0, eta, T = 1.8, 1e-3, 500
    cot = 1.0 / math.tan(phi0 / 2)
    form = ExpFlowForm(phi0 / (2 * math.pi), lambda x: math.pi - 2 * cot * x)
    got = gf_to_gd(form, eta, T)
    want = math.pi - 2 * cot * (1 - (phi0 / (2 * math.pi)) * eta) ** T
    assert got == pytest.approx(want, rel=1e-14)


def test_exp_flow_form_requires_monotone_shape():
    with pytest.raises(DomainError):
        ExpFlowForm(1.0, lambda x: math.sin(10 * x))


def test_two_layer_magnitude_bridge_identity():
    vstar, v0, eta, T = 1.1, 0.4, 1e-3, 2_000
    env = BoundEnvelope("magnitude", 1, vstar, 2.0, v0)
    forms = flow_forms_for(env)
    got = gf_to_gd(forms["upper"], eta, T)
    x = (1 - vstar**2 * eta) ** T
    want = vstar * math.sqrt(1.0 / (1.0 - (1.0 - (vstar / v0) ** 2) * x))
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "kind,m",
    [("magnitude", 0), ("magnitude", 1), ("angle", 0), ("angle", 1), ("angle", 2), ("angle", 3)],
)
def test_angle_forms_sum_to_gd_bounds(kind, m):
    """The scalar substitution of each table term, summed, checks the array
    evaluator on a grid of steps."""
    bracket = {"r": 0.4, "R": 1.2} if kind == "angle" else {}
    env = BoundEnvelope(kind, m, 1.0, 1.9, 0.5, **bracket)
    eta, steps = 1e-3, (0, 1, 700, 5000)
    forms = flow_forms_for(env)
    lowers, uppers = envelope_curve(env, np.array(steps, dtype=float), eta)
    if kind == "magnitude":
        assert set(forms) == {"lower", "upper"}
    for i, T in enumerate(steps):
        assert gf_to_gd(forms["lower"], eta, T) == pytest.approx(lowers[i], rel=1e-14)
        upper_sum = gf_to_gd(forms["upper"], eta, T)
        if kind == "angle":
            upper_sum = min(math.pi, upper_sum + gf_to_gd(forms["upper_correction"], eta, T))
        assert upper_sum == pytest.approx(uppers[i], rel=1e-14)


def test_flow_forms_unavailable_for_deep_magnitude():
    env = BoundEnvelope("magnitude", 2, 1.0, 1.9, 0.5)
    with pytest.raises(UnavailableError):
        flow_forms_for(env)


# ----------------------------------------------------------------
# discretization error scaling

def test_error_scaling_linear_flow_is_exact():
    w0 = 0.8
    form = ExpFlowForm(1.0, lambda x: w0 * x)
    pairs = gd_error_scaling(form, lambda w: -w, (1e-2, 5e-3), 5.0)
    assert all(err < 1e-12 for _, err in pairs)


def test_error_scaling_logistic_flow_is_first_order():
    v0 = 0.5
    form = ExpFlowForm(
        1.0, lambda x: math.sqrt(1.0 / (1.0 - (1.0 - 1.0 / v0**2) * x))
    )
    pairs = gd_error_scaling(
        form, lambda w: -0.5 * w * (w * w - 1.0), (1e-2, 5e-3, 2.5e-3), 8.0
    )
    for (_, a), (_, b) in zip(pairs, pairs[1:]):
        assert 1.6 <= a / b <= 2.4


# ----------------------------------------------------------------
# descent-side bands

def test_gd_bounds_collapse_at_step_zero():
    menv = BoundEnvelope("magnitude", 1, 1.0, 2.0, 0.55)
    assert band_at(menv, 0, 1e-3) == pytest.approx((0.55, 0.55))
    aenv = BoundEnvelope("angle", 0, 1.0, 2.0, 0.55, r=0.5, R=1.1)
    lo, up = band_at(aenv, 0, 1e-3)
    cot = 1.0 / math.tan(1.0)
    assert lo == pytest.approx(math.pi - 2 * cot, rel=1e-12)
    assert up <= math.pi


def test_gd_bounds_one_layer_small_norm_lower():
    env = BoundEnvelope("magnitude", 0, 1.5, math.pi / 2, 0.0)
    eta, T = 1e-2, 400
    lo, _ = band_at(env, T, eta)
    want = (1 - env.eps0) * (1 - (1 - eta / 2) ** T) * 1.5
    assert lo == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("m,vstar", [(0, 1.0), (1, 0.9)])
def test_gd_bounds_approach_flow_bounds(m, vstar):
    env = BoundEnvelope("magnitude", m, vstar, 1.9, 0.5)
    t = 3.0
    flow_lo, flow_up = envelope_curve(env, np.array([t]))
    diffs = []
    for eta in (1e-2, 1e-3):
        lo, up = band_at(env, round(t / eta), eta)
        diffs.append(max(abs(lo - flow_lo[0]), abs(up - flow_up[0])))
    assert diffs[0] < 0.1  # already close at the coarse step
    assert diffs[1] < 0.2 * diffs[0]  # and shrinking ~linearly in eta


# ----------------------------------------------------------------
# certified stopping step

def test_eta_threshold_formulas():
    a0 = BoundEnvelope("angle", 0, 1.5, 2.0, 0.5, r=0.4, R=2.0)
    assert eta_threshold(a0) == pytest.approx(
        min(2 * math.pi * 2.0 / (1.5 * 2.0), 2 * 0.4 / (3 * 1.5)), rel=1e-12
    )
    a2 = BoundEnvelope("angle", 2, 1.2, 1.7, 0.5, r=0.6, R=1.4)
    v3 = 1.2**3
    assert eta_threshold(a2) == pytest.approx(
        min(2 * math.pi / (1.7 * 0.6 * v3), 2 / (3 * 1.4 * v3)), rel=1e-12
    )


def test_stopping_time_zero_when_already_inside():
    env = BoundEnvelope("angle", 1, 1.0, 3.0, 0.5, r=0.4, R=1.2)
    eps = 2.0 / math.tan(1.5) + 0.01
    assert stopping_time(env, 1e-3, eps) == 0


def test_stopping_time_reference_value():
    # direct-formula evaluation: least T with (1-η/4)^T < (ε/2)tan(φ₀/2)
    env = BoundEnvelope("angle", 1, 1.0, math.pi / 2, 0.5, r=0.5, R=1.5)
    assert stopping_time(env, 1e-3, 1e-2) == 21_191


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(0, 3),
    vstar=st.floats(0.5, 2.0),
    phi0=st.floats(0.2, 3.0),
    r=st.floats(0.2, 1.5),
    widen=st.floats(0.05, 2.0),
    eps=st.floats(1e-6, 1.0),
    frac=st.floats(1e-3, 1.0, exclude_max=True),
)
def test_stopping_time_is_least_step_past_target(m, vstar, phi0, r, widen, eps, frac):
    """The certificate is the first step at which the band it comes from
    clears pi - eps."""
    env = BoundEnvelope("angle", m, vstar, phi0, 1.0, r=r, R=r + widen)
    eta = frac * 0.01 * eta_threshold(env)
    T = stopping_time(env, eta, eps)
    lowers, _ = envelope_curve(env, [max(T - 1, 0), T], eta)
    assert lowers[1] > math.pi - eps - 1e-12
    if T > 0:
        assert lowers[0] <= math.pi - eps + 1e-12


def test_stopping_time_guarantee_end_to_end():
    m, vstar, phi0, eps = 1, 1.0, 1.9, 2e-2
    cfg, init = make_problem(m, d=4, vstar=vstar, v0=0.8, phi0=phi0)
    env = BoundEnvelope("angle", m, vstar, phi0, 0.8, r=0.5, R=1.2)
    eta = 0.005 * eta_threshold(env)
    T = stopping_time(env, eta, eps)
    traj = run_gd(cfg, init, DescentConfig(eta=eta, steps=T, record_every=max(1, T // 50)))
    assert traj.angles[-1] > math.pi - eps


def test_descent_band_guards():
    env = BoundEnvelope("angle", 1, 1.0, 2.0, 0.5, r=0.4, R=1.2)
    steps = np.arange(0.0, 50.0)
    for eta in (0.0, -1e-3):
        with pytest.raises(DomainError):
            envelope_curve(env, steps, eta)
    with pytest.raises(DomainError):
        envelope_curve(env, [0.0, 1.5, 3.0], 1e-3)  # not whole step counts
    with pytest.raises(UnavailableError):
        envelope_curve(BoundEnvelope("magnitude", 2, 1.0, 2.0, 0.5), steps, 1e-3)
    thr = eta_threshold(env)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        envelope_curve(env, steps, 0.05 * thr)
        assert not caught  # a twentieth of the threshold is still guaranteed
        envelope_curve(env, steps, 0.2 * thr)
        assert len(caught) == 1  # once per call, not once per step
        envelope_curve(env, steps, 0.2 * thr)
        assert len(caught) == 2
