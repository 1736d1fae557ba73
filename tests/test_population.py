import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from reluflow.errors import (
    DegenerateAngleError,
    DimensionError,
    DivergenceError,
    DomainError,
    ZeroVectorError,
)
from reluflow.flow import integrate_vector
from reluflow.population import (
    NeuronConfig,
    WeightState,
    double_wedge_second_moment,
    half_space_second_moment,
    polar_of,
    population_gradient,
    population_loss,
    relu_product_moment,
)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


@st.composite
def unit_vectors(draw, d):
    raw = draw(
        st.lists(st.floats(-3, 3), min_size=d, max_size=d).filter(
            lambda xs: 0.5 < sum(x * x for x in xs) < 25.0
        )
    )
    return unit(raw)


# ----------------------------------------------------------------
# second-moment closed forms

def test_half_space_d2():
    got = half_space_second_moment(np.array([1.0, 0.0]))
    assert np.allclose(got, 0.5 * np.eye(2), atol=1e-15)


@given(unit_vectors(3))
def test_half_space_trace(u):
    assert np.trace(half_space_second_moment(u)) == pytest.approx(1.5, abs=1e-12)


def test_double_wedge_orthogonal():
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    want = 0.25 * np.eye(3) + (np.outer(u, v) + np.outer(v, u)) / (2 * math.pi)
    assert np.allclose(double_wedge_second_moment(u, v), want, atol=1e-15)


@given(unit_vectors(4), unit_vectors(4))
@settings(max_examples=50)
def test_double_wedge_symmetries(u, v):
    if abs(abs(float(u @ v)) - 1.0) < 1e-6:
        return  # degenerate pair, covered separately
    a = double_wedge_second_moment(u, v)
    assert np.allclose(a, a.T, atol=1e-13)
    assert np.allclose(a, double_wedge_second_moment(v, u), atol=1e-13)


@given(unit_vectors(5), unit_vectors(5))
@settings(max_examples=50)
def test_double_wedge_eigenpairs(u, v):
    """u+v and u-v are eigenvectors with eigenvalues
    (1-θ/π)/2 ± sinθ/(2π)."""
    cos = float(np.clip(u @ v, -1.0, 1.0))
    if abs(cos) > 1.0 - 1e-6:
        return
    theta = math.acos(cos)
    a = double_wedge_second_moment(u, v)
    lam = 0.5 * (1.0 - theta / math.pi)
    mu = math.sin(theta) / (2.0 * math.pi)
    p, q = u + v, u - v
    assert np.allclose(a @ p, (lam + mu) * p, atol=1e-12)
    assert np.allclose(a @ q, (lam - mu) * q, atol=1e-12)


def test_double_wedge_degenerate_angle():
    u = unit([1.0, 2.0, -1.0])
    with pytest.raises(DegenerateAngleError):
        double_wedge_second_moment(u, u)
    with pytest.raises(DegenerateAngleError):
        double_wedge_second_moment(u, -u)


def test_relu_product_values():
    assert relu_product_moment(0.0) == pytest.approx(0.5, abs=1e-15)
    assert relu_product_moment(math.pi) == pytest.approx(0.0, abs=1e-15)
    assert relu_product_moment(math.pi / 2) == pytest.approx(1 / (2 * math.pi), abs=1e-15)
    want = 0.5 * (1 / 3) * (-0.5) + math.sin(2 * math.pi / 3) / (2 * math.pi)
    assert relu_product_moment(2 * math.pi / 3) == pytest.approx(want, abs=1e-15)


# ----------------------------------------------------------------
# configs and states

def test_config_validation():
    with pytest.raises(ZeroVectorError):
        NeuronConfig(d=3, m=0, target_w=np.zeros(3))
    cfg = NeuronConfig(d=3, m=2, target_w=np.ones(3))
    assert cfg.target_norm == pytest.approx(math.sqrt(3.0))
    assert cfg.target_product == pytest.approx(math.sqrt(3.0) ** 2)


def test_config_keeps_its_own_read_only_teacher():
    target = np.array([1.0, 0.0, 0.0])
    cfg = NeuronConfig(d=3, m=1, target_w=target)
    state = WeightState(np.array([0.5, 0.5, 0.0]), (1.0,))
    before = population_gradient(cfg, state)
    target[0] = 3.0  # the caller's array, not the config's
    assert cfg.target_w[0] == 1.0
    assert all(np.array_equal(a, b) for a, b in zip(population_gradient(cfg, state), before))
    with pytest.raises(ValueError):
        cfg.target_w[0] = 3.0


def test_weight_state_validation():
    cfg = NeuronConfig(d=2, m=1, target_w=np.array([1.0, 0.0]))
    with pytest.raises(DimensionError):
        population_loss(cfg, WeightState(np.array([1.0, 0.0]), ()))
    with pytest.raises(DimensionError):
        population_loss(cfg, WeightState(np.array([1.0, 0.0, 0.0]), (1.0,)))


def test_polar_of_reference_points():
    cfg = NeuronConfig(d=3, m=0, target_w=np.array([2.0, 0.0, 0.0]))
    at_target = polar_of(cfg, WeightState(np.array([2.0, 0.0, 0.0]), ()))
    assert (at_target.magnitude, at_target.angle) == pytest.approx((2.0, math.pi))
    opposite = polar_of(cfg, WeightState(np.array([-2.0, 0.0, 0.0]), ()))
    assert opposite.angle == pytest.approx(0.0, abs=1e-12)
    perp = polar_of(cfg, WeightState(np.array([0.0, 2.0, 0.0]), ()))
    assert (perp.magnitude, perp.angle) == pytest.approx((2.0, math.pi / 2))


# ----------------------------------------------------------------
# loss and gradient

def test_loss_zero_at_target():
    cfg = NeuronConfig(d=4, m=2, target_w=np.array([1.0, -2.0, 0.5, 1.0]))
    state = WeightState(cfg.target_w.copy(), (cfg.target_norm, cfg.target_norm))
    assert population_loss(cfg, state) == pytest.approx(0.0, abs=1e-14)


def test_loss_antipodal_one_layer():
    w = np.array([3.0, 4.0])
    cfg = NeuronConfig(d=2, m=0, target_w=w)
    # cross term vanishes at θ=π, leaving ½(½‖w‖² + ½‖w‖²)
    assert population_loss(cfg, WeightState(-w, ())) == pytest.approx(
        0.5 * float(w @ w), abs=1e-12
    )


def test_gradient_zero_at_target():
    cfg = NeuronConfig(d=3, m=1, target_w=np.array([0.5, 1.0, -1.0]))
    state = WeightState(cfg.target_w.copy(), (cfg.target_norm,))
    gw, gh = population_gradient(cfg, state)
    assert np.allclose(gw, 0.0, atol=1e-13)
    assert np.allclose(gh, 0.0, atol=1e-13)


def _fd_gradient(cfg, state, h=1e-6):
    def loss_at(w, hidden):
        return population_loss(cfg, WeightState(w, tuple(hidden)))

    gw = np.zeros_like(state.w)
    for i in range(len(state.w)):
        e = np.zeros_like(state.w)
        e[i] = h
        gw[i] = (loss_at(state.w + e, state.hidden) - loss_at(state.w - e, state.hidden)) / (2 * h)
    gh = np.zeros(len(state.hidden))
    for k in range(len(state.hidden)):
        up = list(state.hidden)
        dn = list(state.hidden)
        up[k] += h
        dn[k] -= h
        gh[k] = (loss_at(state.w, up) - loss_at(state.w, dn)) / (2 * h)
    return gw, gh


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_gradient_matches_finite_difference(m):
    rng = np.random.default_rng(7 + m)
    cfg = NeuronConfig(d=4, m=m, target_w=unit(rng.standard_normal(4)) * 1.3)
    for _ in range(5):
        w = rng.standard_normal(4)
        w *= (0.4 + rng.random()) / np.linalg.norm(w)
        hidden = tuple(0.5 + rng.random(m))
        state = WeightState(w, hidden)
        gw, gh = population_gradient(cfg, state)
        fw, fh = _fd_gradient(cfg, state)
        scale = max(float(np.linalg.norm(np.concatenate([gw, gh]))), 1e-8)
        assert np.linalg.norm(gw - fw) < 1e-5 * scale
        assert np.linalg.norm(gh - fh) < 1e-5 * scale


def test_balanced_scalar_gradients_equal():
    rng = np.random.default_rng(11)
    cfg = NeuronConfig(d=5, m=2, target_w=rng.standard_normal(5))
    w = rng.standard_normal(5)
    state = WeightState(w, (float(np.linalg.norm(w)),) * 2)
    _, gh = population_gradient(cfg, state)
    assert gh[0] == pytest.approx(gh[1], rel=1e-13, abs=0)


def test_gradient_rejects_nonpositive_hidden():
    cfg = NeuronConfig(d=2, m=1, target_w=np.array([1.0, 0.0]))
    for bad in (-0.1, 0.0, math.nan):
        with pytest.raises(DomainError):
            population_gradient(cfg, WeightState(np.array([0.5, 0.5]), (bad,)))


def _gradient_as_written(config, state):
    """The closed form of population_gradient's docstring, in the float order
    the package has always evaluated it in: the oracle for its kernel."""
    norm = float(np.linalg.norm(state.w))
    t_norm = float(np.linalg.norm(config.target_w))
    cos_t = float(np.clip((state.w @ config.target_w) / (norm * t_norm), -1.0, 1.0))
    phi = math.pi - math.acos(cos_t)
    p = state.product
    p_star = t_norm**config.m
    sin_phi = math.sin(phi)
    cos_phi = math.cos(phi)
    grad_w = 0.5 * p * p * state.w - p * p_star * (
        (phi / (2.0 * math.pi)) * config.target_w
        + (sin_phi / (2.0 * math.pi)) * (t_norm / norm) * state.w
    )
    if config.m == 0:
        return grad_w, np.zeros(0)
    shared = 0.5 * p * norm * norm - p_star * norm * t_norm * (
        (sin_phi - phi * cos_phi) / (2.0 * math.pi)
    )
    return grad_w, np.array([(p / v) * shared for v in state.hidden])


def test_gradient_equals_the_closed_form_as_written():
    rng = np.random.default_rng(2024)
    near = 0
    for case in range(400):
        m, d = case % 4, 2 + case % 11
        tw = rng.standard_normal(d) * rng.uniform(0.3, 3.0)
        cfg = NeuronConfig(d=d, m=m, target_w=tw)
        if case % 3 == 0:
            # within 1e-12..1e-4 of the teacher's direction, or its opposite
            tilt = 10.0 ** rng.uniform(-12, -4)
            w = np.sign(rng.standard_normal()) * tw + tilt * rng.standard_normal(d)
            near += 1
        else:
            w = rng.standard_normal(d)
        w *= rng.uniform(0.05, 4.0) / np.linalg.norm(w)
        state = WeightState(w, tuple(rng.uniform(0.1, 3.0, m)))
        gw, gh = population_gradient(cfg, state)
        want_w, want_h = _gradient_as_written(cfg, state)
        assert np.array_equal(gw, want_w), case
        assert np.array_equal(gh, want_h), case
    assert near > 100


def _rk4_step_as_written(config, state, h):
    """One classic RK4 step of the vector flow on `_gradient_as_written`, in
    ndarray form: the oracle for `integrate_vector`'s float stages."""
    d = config.d

    def grad(y):
        return np.concatenate(_gradient_as_written(config, WeightState(y[:d], tuple(y[d:]))))

    y = np.concatenate([state.w, np.array(state.hidden)])
    g1 = grad(y)
    g2 = grad(y - (0.5 * h) * g1)
    g3 = grad(y - (0.5 * h) * g2)
    g4 = grad(y - h * g3)
    y = y - (h / 6.0) * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
    return y[:d], y[d:]


@st.composite
def _kernel_cases(draw):
    d, m = draw(st.integers(1, 12)), draw(st.integers(0, 4))
    entries = st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)
    target = np.array(draw(entries))
    assume(np.linalg.norm(target) > 0.1)
    other = np.array(draw(entries))
    start = draw(st.sampled_from(["generic", "aligned", "anti-aligned", "tiny"]))
    if start == "generic":
        w = other
    elif start == "tiny":
        # Norms from where w.dot(w) still holds a subnormal down to where it
        # underflows to 0, below the kernel's norm floor (an all-zero draw
        # of `other` is below it at any scale).
        w = other * 10.0 ** draw(st.floats(-170.0, -155.0))
    else:
        # theta (or pi - theta) below 1e-7: the teacher's direction plus a
        # tilt of relative size at most 1e-8, scaled and signed.
        tilt = other / max(float(np.linalg.norm(other)), 1e-300)
        scale = draw(st.floats(0.2, 3.0)) * (1.0 if start == "aligned" else -1.0)
        w = scale * (target + draw(st.floats(0.0, 1e-8)) * float(np.linalg.norm(target)) * tilt)
    hidden = tuple(draw(st.lists(st.floats(0.3, 1.5), min_size=m, max_size=m)))
    h = draw(st.floats(1e-4, 1e-2))
    return NeuronConfig(d=d, m=m, target_w=target), WeightState(w, hidden), h


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


# vector_rhs calls the kernel itself, so only the ndarray oracles above can
# pin the bits of the kernel and of integrate_vector's float RK4 stages. A
# step that blows up overflows in the oracle's ndarray ops; the guard then
# raises, and the test asks the same of integrate_vector.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(_kernel_cases())
def test_gradient_and_one_rk4_step_equal_the_ndarray_form_bit_for_bit(case):
    config, state, h = case
    if math.sqrt(float(state.w.dot(state.w))) < 1e-300:
        with pytest.raises(ZeroVectorError):
            population_gradient(config, state)
        with pytest.raises(ZeroVectorError):
            integrate_vector(config, state, t_end=h, dt=h)
        return
    got_w, got_hidden = population_gradient(config, state)
    want_w, want_hidden = _gradient_as_written(config, state)
    assert _same_bits(got_w, want_w)
    assert _same_bits(got_hidden, want_hidden)

    want_w, want_hidden = _rk4_step_as_written(config, state, h)
    if not (math.sqrt(float(want_w.dot(want_w))) <= 1e12
            and all(0.0 < v < math.inf for v in want_hidden)):
        with pytest.raises(DivergenceError):
            integrate_vector(config, state, t_end=h, dt=h)
        return
    got = integrate_vector(config, state, t_end=h, dt=h).weight_states[-1]
    assert _same_bits(got.w, want_w)
    assert got.hidden == tuple(want_hidden.tolist())
