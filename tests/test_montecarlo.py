import math
import tracemalloc

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
    # doubled or re-drawn tail would move the fraction. At d = 160 a chunk's
    # v rows are drawn in several blocks, each paired with its u rows.
    eps, trials, seed = 0.2, 70_001, 13
    for d in (7, 160):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        hits = 0
        for count in (_CHUNK, trials - _CHUNK):
            u = rng.standard_normal((count, d))
            v = rng.standard_normal((count, d))
            for lo in range(0, count, 8192):  # slices keep the temporaries small
                a, b = u[lo:lo + 8192], v[lo:lo + 8192]
                cos = (a * b).sum(axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
                hits += int(np.count_nonzero(cos < eps))
        fraction, bound = angle_concentration(d, eps, trials, seed)
        assert fraction == hits / trials
        assert bound == 1.0 - 2.0 * math.exp(-0.5 * d * eps * eps)


def _stream_oracle(n, seed, d, sums, sphere=False):
    """One (n, d) draw of an estimator's stream, summed per 65,536-row chunk
    with the estimator's formulas written out plainly, and closed as
    (mean, stderr) pairs."""
    x = np.random.default_rng(np.random.SeedSequence(seed)).standard_normal((n, d))
    if sphere:
        x /= np.linalg.norm(x, axis=1, keepdims=True)
    totals = None
    for lo in range(0, n, _CHUNK):
        parts = sums(x[lo:lo + _CHUNK])
        totals = [0.0 + p for p in parts] if totals is None else [t + p for t, p in zip(totals, parts)]
    out = []
    for s1, s2 in zip(totals[::2], totals[1::2]):
        mean = np.asarray(s1) / n
        out.append((mean, np.sqrt(np.maximum(s2 - n * mean * mean, 0.0) / (n - 1) / n)))
    return out


def _outer_sums(ind, x):
    xx = x * x
    w = ind.astype(float)[:, None]
    return (x * w).T @ x, (xx * w).T @ xx


def _stream_case(name, d):
    """(estimator call, oracle call) for one estimator at dimension d."""
    rng = np.random.default_rng(d)
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    cfg = NeuronConfig(d=d, m=2, target_w=rng.standard_normal(d) / math.sqrt(d))
    state = WeightState(rng.standard_normal(d) / math.sqrt(d), (0.8, 1.3))
    p, p_star = state.product, cfg.target_product
    hidden = np.array(state.hidden)

    def half(x):
        return _outer_sums(x @ u > 0.0, x)

    def wedge(x):
        return _outer_sums((x @ u > 0.0) & (x @ v > 0.0), x)

    def relu(x):
        y = np.maximum(x @ u, 0.0) * np.maximum(x @ v, 0.0)
        return float(y.sum()), float((y * y).sum())

    def loss(x):
        err = p * np.maximum(x @ state.w, 0.0) - p_star * np.maximum(x @ cfg.target_w, 0.0)
        y = 0.5 * err * err
        return float(y.sum()), float((y * y).sum())

    def gradient(x):
        pre = x @ state.w
        act = np.maximum(pre, 0.0)
        e = p * act - p_star * np.maximum(x @ cfg.target_w, 0.0)
        gw = (p * e * (pre > 0.0))[:, None] * x
        gh = (e * act)[:, None] * (p / hidden)[None, :]
        return gw.sum(axis=0), (gw * gw).sum(axis=0), gh.sum(axis=0), (gh * gh).sum(axis=0)

    def pairs(*estimates):
        return [(e.value, e.stderr) for e in estimates]

    return {
        "half_space": (lambda n, s: pairs(mc_half_space_moment(u, n, s)), half, False),
        "half_space_sphere": (
            lambda n, s: pairs(mc_half_space_moment(u, n, s, dist="sphere")), half, True),
        "double_wedge": (lambda n, s: pairs(mc_double_wedge_moment(u, v, n, s)), wedge, False),
        "double_wedge_sphere": (
            lambda n, s: pairs(mc_double_wedge_moment(u, v, n, s, dist="sphere")), wedge, True),
        "relu_product": (lambda n, s: pairs(mc_relu_product(u, v, n, s)), relu, False),
        "population_loss": (lambda n, s: pairs(mc_population_loss(cfg, state, n, s)), loss, False),
        "population_gradient": (
            lambda n, s: pairs(*mc_population_gradient(cfg, state, n, s)), gradient, False),
    }[name]


@pytest.mark.parametrize("d", [16, 160])
@pytest.mark.parametrize("name", [
    "half_space", "half_space_sphere", "double_wedge", "double_wedge_sphere",
    "relu_product", "population_loss", "population_gradient",
])
def test_estimates_equal_a_one_shot_pass_over_their_stream(name, d):
    # n is one full chunk plus a short tail. Up to d = 16 a block is a whole
    # chunk, so the estimate is the chunked oracle's bit for bit; at d = 160
    # a chunk is summed in blocks, which regroups the partial sums only.
    n, seed = 70_001, 21
    estimate, sums, sphere = _stream_case(name, d)
    got = estimate(n, seed)
    want = _stream_oracle(n, seed, d, sums, sphere)
    assert len(got) == len(want)
    for (value, stderr), (v_ref, s_ref) in zip(got, want):
        for a, b in ((value, v_ref), (stderr, s_ref)):
            if d <= 16:
                assert np.array_equal(a, b)
            else:
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_a_call_holds_blocks_not_chunks():
    # At d = 160 a 65,536-row chunk of doubles is 84 MB. The gradient holds
    # one 8 MB block; concentration holds one chunk of u rows (the pairs' u
    # halves are drawn whole) and one block of v rows.
    d, n = 160, 125_000
    rng = np.random.default_rng(4)
    cfg = NeuronConfig(d=d, m=2, target_w=rng.standard_normal(d) / math.sqrt(d))
    state = WeightState(rng.standard_normal(d) / math.sqrt(d), (0.9, 1.2))
    tracemalloc.start()
    try:
        mc_population_gradient(cfg, state, n, seed=5)
        gradient_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        angle_concentration(d, 0.3, n, seed=6)
        concentration_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gradient_peak < 32e6
    assert concentration_peak < _CHUNK * d * 8 + 16e6


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
