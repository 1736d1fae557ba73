import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reluflow.bounds import BoundEnvelope, envelope_curve
from reluflow.descent import (
    DescentConfig,
    _GramStack,
    _active_gram,
    _gram_gradient,
    _teacher_labels,
    eta_threshold,
    gd_error_scaling,
    gd_step,
    run_gd,
    run_gd_batch,
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
    state = WeightState(cfg.target_w.copy(), (cfg.target_norm,))
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
    for eta in (math.nan, math.inf):
        with pytest.raises(DomainError):
            stopping_time(env, eta, 1e-2)
        with pytest.raises(DomainError):
            gd_error_scaling(1.0, lambda x: 0.8 * x, lambda w: -w, (1e-3, eta), 1.0)
    with pytest.raises(DomainError):
        stopping_time(env, 1e-3, math.nan)
    for horizon in (math.nan, math.inf):
        with pytest.raises(DomainError):
            gd_error_scaling(1.0, lambda x: 0.8 * x, lambda w: -w, (1e-3,), horizon)


def _fold_of_gd_step(cfg, init, dc):
    """The states a fold of the public gd_step records for run_gd's inputs,
    on run_gd's data in empirical mode; and that data (None otherwise)."""
    batch = None
    if dc.mode == "empirical":
        rng = np.random.default_rng(np.random.SeedSequence(dc.seed))
        batch = rng.standard_normal((dc.n_samples, cfg.d))
    state, want = init, [init]
    for k in range(1, dc.steps + 1):
        state = gd_step(cfg, state, dc.eta, batch)
        if k % dc.record_every == 0 or k == dc.steps:
            want.append(state)
    return want, batch


@pytest.mark.parametrize(
    "m,mode,n,seed,phi0,min_flips",
    [pytest.param(m, "empirical", 500, 11, 2.0, 0, id=str(m)) for m in (0, 1, 2)]
    + [pytest.param(m, "population", 500, 11, 2.0, 0, id=f"population-{m}") for m in (0, 1, 2)]
    + [pytest.param(m, "empirical", 1000, 11, 0.6, 100, id=f"high-flip-{m}") for m in (0, 1)]
    # data seed 12: the first rows are active at the start, so n = 1 moves
    + [pytest.param(1, "empirical", n, 12, 2.0, 0, id=f"n={n}") for n in (1, 2, 64, 65)],
)
def test_empirical_run_equals_a_fold_of_gd_step(m, mode, n, seed, phi0, min_flips):
    """run_gd's loop (raw state; in empirical mode labels computed once, the
    active set's Gram data re-formed only when a sign changes, sign changes
    found through the watch block) records exactly the states a fold of the
    public gd_step gives on the same data, or on the population gradient.
    The high-flip runs turn the student far enough that at least 100 rows
    change sign; with n <= 64 every step tests every row, and with n = 65
    the watch block holds all rows but one."""
    cfg, init = make_problem(m, d=6, v0=0.8, phi0=phi0, seed=m)
    dc = DescentConfig(eta=0.02, steps=300, mode=mode, n_samples=n,
                       seed=seed, record_every=40)
    traj = run_gd(cfg, init, dc)
    want, batch = _fold_of_gd_step(cfg, init, dc)
    assert len(traj.weight_states) == len(want) == 9
    assert not np.array_equal(want[-1].w, init.w)
    for got, ref in zip(traj.weight_states, want):
        assert np.array_equal(got.w, ref.w)
        assert got.hidden == ref.hidden
    if min_flips:
        flips = np.count_nonzero((batch @ want[0].w > 0) != (batch @ want[-1].w > 0))
        assert flips >= min_flips


def test_a_batch_of_three_equals_folds_of_gd_step():
    """The same fold, with three rows of different depth, data size and
    start marching together: a high-flip row, a row whose watch block holds
    all its data but one row, and a row with no block at all."""
    rows = []
    for m, n, phi0 in ((0, 1000, 0.6), (1, 65, 2.0), (2, 64, 2.0)):
        cfg, init = make_problem(m, d=6, v0=0.8, phi0=phi0, seed=m)
        rows.append((cfg, init, DescentConfig(eta=0.02, steps=300, mode="empirical",
                                              n_samples=n, seed=11, record_every=40)))
    for (cfg, init, dc), traj in zip(rows, run_gd_batch(rows)):
        want, _ = _fold_of_gd_step(cfg, init, dc)
        assert len(traj.weight_states) == len(want) == 9
        for got, ref in zip(traj.weight_states, want):
            assert np.array_equal(got.w, ref.w)
            assert got.hidden == ref.hidden


def _batch_rows():
    """Six empirical descents in d = 6: depths 0, 1 and 2, data sizes on
    both sides of the watch block, different lengths and strides, an empty
    run, and two rows that fail while the others go on (a norm blow-up at
    m = 0 and a hidden scalar driven below zero at m = 1)."""
    rows = []
    for m, n, steps, every, seed in ((0, 300, 250, 30, 1), (1, 40, 180, 7, 2),
                                     (2, 500, 300, 50, 3), (1, 900, 0, 5, 4)):
        cfg, init = make_problem(m, d=6, v0=0.8, phi0=1.0 + 0.3 * m, seed=m + 10)
        rows.append((cfg, init, DescentConfig(eta=0.02, steps=steps, mode="empirical",
                                              n_samples=n, seed=seed, record_every=every)))
    cfg, init = make_problem(0, d=6, v0=0.5, seed=5)
    rows.insert(1, (cfg, init, DescentConfig(eta=50.0, steps=100, mode="empirical",
                                             n_samples=200, seed=1)))
    cfg, _ = make_problem(1, d=6, seed=6)
    rows.append((cfg, WeightState(3.0 * cfg.target_w, (1.0,)),
                 DescentConfig(eta=0.5, steps=10, mode="empirical", n_samples=500, seed=1)))
    return rows


def test_batched_descents_equal_lone_runs_bit_for_bit():
    rows = _batch_rows()
    outs = run_gd_batch(rows)
    assert [type(o).__name__ for o in outs] == ["Trajectory", "DivergenceError"] + [
        "Trajectory"] * 3 + ["DivergenceError"]
    for (cfg, init, dc), got in zip(rows, outs):
        if isinstance(got, DivergenceError):
            with pytest.raises(DivergenceError) as lone:
                run_gd(cfg, init, dc)
            assert str(got) == str(lone.value)
            continue
        want = run_gd(cfg, init, dc)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.losses, want.losses)
        assert got.states == want.states
        # A lone run_gd is a batch of one, so the fold of gd_step, which
        # tests every sign and forms (G_S, b_S) afresh each step, is the
        # oracle that shares no code with the batch's bookkeeping.
        fold, _ = _fold_of_gd_step(cfg, init, dc)
        assert len(got.weight_states) == len(want.weight_states) == len(fold)
        for a, b, c in zip(got.weight_states, want.weight_states, fold):
            assert np.array_equal(a.w, b.w) and a.hidden == b.hidden
            assert np.array_equal(a.w, c.w) and a.hidden == c.hidden
    assert "blew up" in str(outs[1]) and "hidden scalar" in str(outs[-1])
    assert len(outs[4].times) == 1  # steps = 0: the start alone


def _in_pad_start(above):
    """A start on a line across one data row's hyperplane, placed by
    bisection so that the first step lands that row's product a few ulps
    above zero (the row is active) or at or below it (inactive)."""
    cfg, start = make_problem(0, d=6, v0=0.8, phi0=2.0)
    dc = DescentConfig(eta=0.01, steps=30, mode="empirical", n_samples=200, seed=3,
                       record_every=1)
    batch = np.random.default_rng(np.random.SeedSequence(dc.seed)).standard_normal((200, 6))
    labels = _teacher_labels(cfg, batch)
    k = int(np.flatnonzero(labels > 0)[0])  # a row whose sign moves the Gram data
    u = batch[k] / np.linalg.norm(batch[k])
    base = start.w - (start.w @ u) * u

    def first_step(s):
        return gd_step(cfg, WeightState(base + s * u, ()), dc.eta, batch).w

    lo, hi = -0.5, 0.5
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if (batch @ first_step(mid))[k] > 0.0 else (mid, hi)
    s = hi if above else lo
    return cfg, dc, batch, labels, k, base + s * u, first_step(s)


@pytest.mark.parametrize("above", [True, False], ids=["above-zero", "at-or-below-zero"])
def test_a_watched_row_within_the_pad_is_tested_against_all_the_data(above):
    """A step whose watch block holds a product within the pad of zero
    cannot trust the block's signs, so the row tests every sign with X @ w,
    as gd_step does. Here the first step, inside the certified reach, lands
    one watched row's product within the pad (`_in_pad_start`): the run must
    still equal a fold of gd_step bit for bit."""
    cfg, dc, batch, labels, k, w0, w1 = _in_pad_start(above)
    stack = _GramStack([batch], [labels], [dc.eta], [0])
    stack(w0[None], np.ones((1, 0)), np.arange(1))  # takes w0 as the reference
    assert k in stack.watch[0] and (w1 - w0) @ (w1 - w0) < stack.reach[0]
    assert abs((batch @ w1)[k]) < stack.doubt[0] and ((batch @ w1)[k] > 0.0) == above
    assert batch[k] @ w0 < 0.0
    init = WeightState(w0, ())
    traj = run_gd(cfg, init, dc)
    want, _ = _fold_of_gd_step(cfg, init, dc)
    assert len(traj.weight_states) == len(want) == 31
    for got, ref in zip(traj.weight_states, want):
        assert np.array_equal(got.w, ref.w)


@pytest.mark.parametrize("above", [True, False], ids=["above-zero", "at-or-below-zero"])
def test_a_row_in_doubt_takes_w_as_its_new_reference(above):
    """A settle has two outcomes: the block's signs, or every sign at w with
    w as the new reference. A block sign in doubt inside the reach takes
    the second."""
    _, dc, batch, labels, _, w0, w1 = _in_pad_start(above)
    stack = _GramStack([batch], [labels], [dc.eta], [0])
    stack(w0[None], np.ones((1, 0)), np.arange(1))
    assert np.array_equal(stack.w_ref[0], w0)
    stack(w1[None], np.ones((1, 0)), np.arange(1))
    assert np.array_equal(stack.w_ref[0], w1)
    assert np.array_equal(stack.active[0], batch @ w1 > 0.0)
    assert np.array_equal(stack.gram[0], _active_gram(batch, labels, batch @ w1 > 0.0)[0])


def test_batch_refuses_population_rows_and_mixed_dimensions():
    cfg, init = make_problem(1, d=6)
    other, start = make_problem(1, d=5)
    emp = DescentConfig(eta=0.01, steps=5, mode="empirical", n_samples=50)
    assert run_gd_batch([]) == []
    with pytest.raises(DomainError):
        run_gd_batch([(cfg, init, DescentConfig(eta=0.01, steps=5))])
    with pytest.raises(DimensionError):
        run_gd_batch([(cfg, init, emp), (other, start, emp)])


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("near_teacher", [False, True], ids=["far", "near-teacher"])
def test_gram_gradient_matches_per_sample_oracle(m, near_teacher):
    """The Gram kernel against the per-sample gradient of
    (1/2n) sum_i (p relu(x_i.w) - y_i)^2, summed exactly with math.fsum.
    Near the teacher p G_S w and b_S cancel to about 1 part in 100."""
    cfg, init = make_problem(m, d=7, v0=0.8, phi0=2.0, seed=m)
    rng = np.random.default_rng(5 + m)
    batch = rng.standard_normal((300, cfg.d))
    labels = _teacher_labels(cfg, batch)
    w, hidden = init.w, init.hidden
    if near_teacher:
        w = cfg.target_w + 1e-2 * rng.standard_normal(cfg.d)
        hidden = (1.0,) * m
    p = math.prod(hidden)
    n = batch.shape[0]
    pre = [float(x @ w) for x in batch]
    err = [p * max(z, 0.0) - y for z, y in zip(pre, labels.tolist())]
    want_w = np.array([
        p / n * math.fsum(e * x[j] for e, z, x in zip(err, pre, batch) if z > 0)
        for j in range(cfg.d)
    ])
    shared = math.fsum(e * max(z, 0.0) for e, z in zip(err, pre)) / n
    want_h = np.array([p / v * shared for v in hidden])
    gram, moment = _active_gram(batch, labels, batch @ w > 0.0)
    got_w, got_h = _gram_gradient(w, hidden, n, gram, moment)
    if near_teacher:
        assert np.linalg.norm(want_w) < 0.05 * p * p / n * np.linalg.norm(gram @ w)
    assert np.linalg.norm(got_w - want_w) <= 1e-12 * np.linalg.norm(want_w)
    assert np.linalg.norm(got_h - want_h) <= 1e-12 * np.linalg.norm(want_h)
    assert got_h.shape == (m,)


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

def test_two_layer_magnitude_bridge_identity():
    vstar, v0, eta, T = 1.1, 0.4, 1e-3, 2_000
    env = BoundEnvelope("magnitude", 1, vstar, 2.0, v0)
    _, got = band_at(env, T, eta)
    x = (1 - vstar**2 * eta) ** T
    want = vstar * math.sqrt(1.0 / (1.0 - (1.0 - (vstar / v0) ** 2) * x))
    assert got == pytest.approx(want, rel=1e-12)


def closed_form_terms(env):
    """The bands' (c, g) terms as the bounds module documents them, written
    out here independently of its table."""
    vstar, v0, phi0, m = env.target_norm, env.v0, env.phi0, env.m
    if env.kind == "magnitude":
        if m == 0:
            s = 1.0 - epsilon_gap(phi0)
            return ([(0.5, lambda x: s * (1.0 - x) * vstar + v0 * x)],
                    [(0.5, lambda x: (1.0 - x) * vstar + v0 * x)])

        def logistic(a):
            return a, lambda x: math.sqrt(a / (1.0 - (1.0 - a / v0**2) * x))

        return [logistic(vstar**2 * (1.0 - epsilon_gap(phi0)))], [logistic(vstar**2)]
    cot = 1.0 / math.tan(phi0 / 2.0)
    if m == 0:
        c_low, c_up = (vstar / (2.0 * env.R)) * (phi0 / math.pi), vstar / (2.0 * env.r)
    else:
        c_low = (phi0 / (2.0 * math.pi)) * env.r ** (m - 1) * vstar ** (m + 1)
        c_up = 0.5 * env.R ** (m - 1) * vstar ** (m + 1)
    return ([(c_low, lambda x: math.pi - 2.0 * cot * x)],
            [(c_up, lambda x: math.pi - 2.0 * cot * x),
             (3.0 * c_up, lambda x: (2.0 / 3.0) * cot**3 * x)])


@pytest.mark.parametrize(
    "kind,m,phi0,steps",
    [pytest.param(kind, m, 1.9, (0, 1, 700, 5000), id=f"{kind}-{m}")
     for kind, m in [("magnitude", 0), ("magnitude", 1), ("angle", 0), ("angle", 1),
                     ("angle", 2), ("angle", 3)]]
    # m = 1 with a unit teacher: the lower angle band is the small-norm bound
    # pi - 2 cot(phi0/2) (1 - (phi0 / 2pi) eta)^T
    + [pytest.param("angle", 1, 1.8, (500,), id="small-norm-angle-1")],
)
def test_angle_forms_sum_to_gd_bounds(kind, m, phi0, steps):
    """Each closed-form term's g((1 - c eta)^T), summed and, on the angle's
    upper side, capped at pi, checks the array evaluator on a grid of steps."""
    bracket = {"r": 0.4, "R": 1.2} if kind == "angle" else {}
    env = BoundEnvelope(kind, m, 1.0, phi0, 0.5, **bracket)
    eta = 1e-3
    lower_terms, upper_terms = closed_form_terms(env)
    lowers, uppers = envelope_curve(env, np.array(steps, dtype=float), eta)
    for i, T in enumerate(steps):
        lower = sum(g((1.0 - c * eta) ** T) for c, g in lower_terms)
        upper = min(math.pi, sum(g((1.0 - c * eta) ** T) for c, g in upper_terms))
        assert lower == pytest.approx(lowers[i], rel=1e-14, abs=0)
        assert upper == pytest.approx(uppers[i], rel=1e-14, abs=0)
    if kind == "angle" and m == 1:
        cot = 1.0 / math.tan(phi0 / 2)
        want = math.pi - 2 * cot * (1 - (phi0 / (2 * math.pi)) * eta) ** steps[-1]
        assert lowers[-1] == pytest.approx(want, rel=1e-14, abs=0)


# ----------------------------------------------------------------
# discretization error scaling

def test_error_scaling_linear_flow_is_exact():
    w0 = 0.8
    pairs = gd_error_scaling(1.0, lambda x: w0 * x, lambda w: -w, (1e-2, 5e-3), 5.0)
    assert all(err < 1e-12 for _, err in pairs)


def test_error_scaling_logistic_flow_is_first_order():
    v0 = 0.5
    pairs = gd_error_scaling(
        1.0,
        lambda x: math.sqrt(1.0 / (1.0 - (1.0 - 1.0 / v0**2) * x)),
        lambda w: -0.5 * w * (w * w - 1.0),
        (1e-2, 5e-3, 2.5e-3),
        8.0,
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
    assert lo == pytest.approx(want, rel=1e-13, abs=0)


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


def test_stopping_time_refuses_a_step_too_small_to_move_the_band():
    # 1 - rate*eta rounds to 1 at eta = 1e-300, so log(q) would be 0.
    env = BoundEnvelope("angle", 1, 1.0, math.pi / 2, 0.5, r=0.5, R=1.5)
    with pytest.raises(DomainError, match=r"rate\*eta"):
        stopping_time(env, 1e-300, 1e-2)


def test_stopping_time_obeys_the_step_size_rule():
    """The certificate's step size is judged against the band's threshold,
    1 / c at its fastest rate, not against the slower rate it counts at."""
    env = BoundEnvelope("angle", 0, 1.0, 1.9, 0.5, r=0.4, R=1.2)
    thr = eta_threshold(env)
    # 0.198 is 74% of the threshold, though under 5% of 1 / (lower rate)
    with pytest.raises(DomainError):
        stopping_time(env, 0.198, 1e-2)
    with pytest.warns(UserWarning, match="1% of the rate threshold"):
        stopping_time(env, 0.05 * thr, 1e-2)


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
    for eta in (0.0, -1e-3, math.inf, math.nan):
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
