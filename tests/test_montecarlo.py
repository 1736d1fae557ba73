import math

import numpy as np
import pytest

from reluflow.errors import DimensionError, DomainError
from reluflow.montecarlo import (
    _CHUNK,
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
    WeightState,
    double_wedge_second_moment,
    half_space_second_moment,
    population_gradient,
    population_loss,
    relu_product_moment,
)


def unit(d, i=0):
    e = np.zeros(d)
    e[i] = 1.0
    return e


def pair_at_angle(d, theta):
    u = unit(d, 0)
    v = math.cos(theta) * unit(d, 0) + math.sin(theta) * unit(d, 1)
    return u, v


def within_3_sigma(est, target):
    return np.all(np.abs(est.value - target) <= 3 * est.stderr + 1e-15)


def test_same_seed_is_bitwise_identical():
    u, v = pair_at_angle(4, 1.1)
    a = mc_double_wedge_moment(u, v, 30_000, seed=9)
    b = mc_double_wedge_moment(u, v, 30_000, seed=9)
    assert np.array_equal(a.value, b.value)
    assert np.array_equal(a.stderr, b.stderr)
    c = mc_double_wedge_moment(u, v, 30_000, seed=10)
    assert not np.array_equal(a.value, c.value)


def test_stderr_positive_at_small_n():
    est = mc_relu_product(*pair_at_angle(3, 0.7), n=50, seed=0)
    assert float(est.stderr) > 0.0
    assert est.n == 50


def test_half_space_matches_half_identity():
    est = mc_half_space_moment(unit(3), n=200_000, seed=5)
    assert within_3_sigma(est, 0.5 * np.eye(3))


def test_sphere_inputs_shrink_moments_by_dimension():
    d = 4
    est = mc_half_space_moment(unit(d), n=200_000, seed=5, dist="sphere")
    assert within_3_sigma(est, 0.5 * np.eye(d) / d)


@pytest.mark.parametrize("theta", [0.3, math.pi / 2, 2.2])
def test_double_wedge_matches_closed_form(theta):
    u, v = pair_at_angle(5, theta)
    est = mc_double_wedge_moment(u, v, 300_000, seed=11)
    assert within_3_sigma(est, double_wedge_second_moment(u, v))


@pytest.mark.parametrize("theta", [0.0, math.pi / 2, 2 * math.pi / 3])
def test_relu_product_matches_closed_form(theta):
    u, v = pair_at_angle(3, theta)
    est = mc_relu_product(u, v, 400_000, seed=2)
    assert within_3_sigma(est, relu_product_moment(theta))


def test_population_loss_and_gradient_match_closed_forms():
    rng = np.random.default_rng(8)
    d, m = 5, 2
    target = rng.standard_normal(d)
    cfg = NeuronConfig(d=d, m=m, target_w=target)
    w = rng.standard_normal(d)
    state = WeightState(w, (0.9, 1.4))
    n = 400_000

    loss = mc_population_loss(cfg, state, n, seed=3)
    assert abs(float(loss.value) - population_loss(cfg, state)) <= 3 * float(loss.stderr)

    gw_est, gh_est = mc_population_gradient(cfg, state, n, seed=3)
    gw, gh = population_gradient(cfg, state)
    assert within_3_sigma(gw_est, gw)
    assert within_3_sigma(gh_est, np.asarray(gh))


def test_angle_concentration_high_dimension():
    fraction, bound = angle_concentration(100, 0.5, 10_000, seed=1)
    assert bound == pytest.approx(1.0 - 2.0 * math.exp(-12.5), rel=1e-12)
    assert fraction >= 0.999


def test_angle_concentration_vacuous_in_low_dimension():
    # bound is negative here, so any fraction is consistent with it
    fraction, bound = angle_concentration(1, 0.1, 1_000, seed=0)
    assert bound < 0.0
    assert 0.0 <= fraction <= 1.0


def test_angle_concentration_counts_every_trial_of_its_stream():
    # 70,001 trials is one full chunk plus a short tail, so a dropped,
    # doubled or re-drawn tail would move the fraction.
    d, eps, trials, seed = 7, 0.2, 70_001, 13
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    hits = 0
    for count in (_CHUNK, trials - _CHUNK):
        u = rng.standard_normal((count, d))
        v = rng.standard_normal((count, d))
        cos = (u * v).sum(axis=1) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        hits += int(np.count_nonzero(cos < eps))
    fraction, bound = angle_concentration(d, eps, trials, seed)
    assert fraction == hits / trials
    assert bound == 1.0 - 2.0 * math.exp(-0.5 * d * eps * eps)


def test_angle_concentration_rejects_tiny_trial_counts():
    with pytest.raises(DomainError):
        angle_concentration(10, 0.5, 999, seed=0)


def test_input_validation():
    with pytest.raises(DomainError):
        mc_half_space_moment(np.array([1.0, 1.0]), n=100, seed=0)  # not unit
    with pytest.raises(DimensionError):
        mc_double_wedge_moment(unit(3), unit(4), n=100, seed=0)
    with pytest.raises(DomainError):
        mc_half_space_moment(unit(3), n=1, seed=0)
    with pytest.raises(DomainError):
        mc_half_space_moment(unit(3), n=100, seed=0, dist="cube")


def test_estimate_validation():
    with pytest.raises(DomainError):
        McEstimate(value=np.array(1.0), stderr=np.array(0.1), n=1, seed=0)
    with pytest.raises(DomainError):
        McEstimate(value=np.array(1.0), stderr=np.array(-0.1), n=10, seed=0)
