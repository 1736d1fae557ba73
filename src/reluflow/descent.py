"""Gradient descent and its bridge to the flow results.

The bridge: solutions of the flow that can be written as w(t) = g(e^(-c t))
turn into descent-side statements by substituting e^(-c t) -> (1 - c eta)^T,
accurate to first order in the step size over any fixed horizon c eta T.
The closed-form envelopes are stated once, as (c, g) terms in the band
table of the bounds module, and `bounds.envelope_curve(env, steps, eta)`
evaluates them at (1 - c eta)^T: the descent-side envelopes are the flow
envelopes pushed through the substitution. That is the only bridge, and one
step-size rule, stated in the bounds module, governs it: `eta_threshold` is
a band's threshold, `stopping_time` and `gd_error_scaling` refuse eta at or
above a tenth of theirs and warn above a hundredth, and `envelope_curve`
warns above a tenth but still draws the band.

`run_gd` trains the deep single-ReLU-neuron model itself, either on the
population gradient (exact closed form) or on a fixed dataset drawn once
(full-batch, realizable labels from the teacher). `run_gd` supplies only
its step to the flow module's `_march`, the loop the vector flow runs too,
which validates the start once, guards every step and builds a
`WeightState` only at the steps it records, at times k * 1.0 = k. The step
applies one update rule, `_descend`, to the raw (w, hidden) stacks: the
population gradient through the population module's unchecked kernel, or
the sample gradient through the Gram kernel below. `gd_step` runs the same
kernels and update but validates its inputs, and the signs of its result,
on every call.

`run_gd_batch` marches many empirical descents of one dimension d
together, one row each, and an empirical `run_gd` is a batch of one. Each
row keeps its own teacher, depth, data, step size, length and record
stride. A serial ``reluflow run`` plans the descents of its configs and
hands the distinct ones to it, one batch per d. Every stacked product
below is the one BLAS call the row would make alone (a gemv per Gram or
block product, a dot per inner product), and the rest is elementwise, so
each row's states equal its lone run's bit for bit.

The sample gradient reads the data only through the active set
S = {i : x_i.w > 0}. With p the product of the hidden scalars,
G_S = X_S^T X_S and b_S = X_S^T y_S,

    grad_w = (p/n) (p G_S w - b_S),   grad_v = (p/v) (p w^T G_S w - w^T b_S)/n,

so a step costs O(d^2) once (G_S, b_S) is formed (`_active_gram`,
`_gram_gradient`). `gd_step` tests every sign with `X @ w > 0` and forms
(G_S, b_S) from scratch; `run_gd` re-forms them from scratch, with the same
code, only when S changes, so its states equal a fold of `gd_step` bit for
bit. No rank-k update is ever applied: it would drift from the fresh sum.

`run_gd` finds sign changes through a certified watch set instead of the
full `X @ w`. At a reference w_ref it takes the margins
r_i = |x_i.w_ref| / |x_i| and keeps the `_WATCH` rows of smallest margin as
one contiguous block; rho is the next smallest margin. By Cauchy-Schwarz,
|x_i.w - x_i.w_ref| <= |x_i| |w - w_ref|, so while |w - w_ref| < rho no row
outside the block changes sign. A step settles S one of two ways: if w
lies within that reach and no block sign is in doubt (below), S takes the
block's signs; otherwise w becomes the new reference and S is `X @ w > 0`,
the test `gd_step` makes. (G_S, b_S) are re-formed only if S changed. With
n <= `_WATCH` there is no block and every step takes the second way. The
step runs on the stacks of all rows: the reach test, the block products,
the sign tests, the Gram gradient and the update. A row that must settle
does that alone, on its own row of `_GramStack`'s stacks.

Rounding only shifts the argument. A d-term dot product is off by at most
about d units of roundoff times |x_i| |w|, whatever the summation order.
With the pad 4 (d + 2) eps, the radius is rho (1 - pad) - pad |w_ref|,
which covers the rounding of r_i, of x_i.w and of |w - w_ref|; a radius
the pad leaves non-positive certifies nothing, and the next step takes a
new reference. A block product within about pad |x_i| |w| of zero, where
two summation orders could disagree on its sign, is in doubt. So the
masks, and with them the states, of `run_gd` and of a fold of `gd_step`
agree exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import BoundEnvelope, _band_forms, _certify_eta, _threshold
from .errors import DimensionError, DivergenceError, DomainError
from .flow import Trajectory, _march
from .population import (NeuronConfig, WeightState, _check_count, _check_hidden, _check_positive,
                          _check_state, _gradient, population_gradient)


@dataclass(frozen=True)
class DescentConfig:
    """Step size, length, and gradient source of a descent run.

    mode 'population' uses the exact gradient; 'empirical' uses the
    full-batch gradient on n_samples inputs drawn once from seed. eta is
    stored as a Python float and the counts as Python ints.
    """

    eta: float
    steps: int
    mode: str = "population"
    n_samples: int = 0
    seed: int = 0
    record_every: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("population", "empirical"):
            raise DomainError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "eta", _check_positive(self.eta, "eta"))
        # Empirical mode draws n_samples inputs; population mode reads none.
        floors = {"steps": 0, "n_samples": 1 if self.mode == "empirical" else 0, "seed": 0,
                  "record_every": 1}
        for name, low in floors.items():
            object.__setattr__(self, name, _check_count(getattr(self, name), name, low))


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
    eta = _check_positive(eta, "eta")
    if batch is None:
        grad_w, grad_hidden = population_gradient(config, state)
    else:
        batch = np.asarray(batch, dtype=float)
        if batch.ndim != 2 or batch.shape[1] != config.d:
            raise DomainError(f"batch must have shape (n, {config.d})")
        _check_state(config, state)
        _check_hidden(state.hidden)
        grad_w, grad_hidden = _sample_gradient(
            state.w, state.hidden, batch, _teacher_labels(config, batch)
        )
    new_w, new_hidden = _descend(state.w, np.array(state.hidden), eta, grad_w, grad_hidden)
    if not all(v > 0.0 for v in new_hidden):
        raise DivergenceError("a hidden scalar was driven to or below zero")
    return WeightState(new_w, new_hidden)


def _teacher_labels(config: NeuronConfig, batch: np.ndarray) -> np.ndarray:
    return config.target_product * np.maximum(batch @ config.target_w, 0.0)


def _sample_gradient(
    w: np.ndarray, hidden: tuple[float, ...], batch: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Full-batch gradient of the squared error against fixed labels, with
    the active set and its Gram data formed from scratch; the caller has
    checked the batch's shape and the hidden scalars' signs."""
    gram, moment = _active_gram(batch, labels, batch @ w > 0.0)
    return _gram_gradient(w, hidden, batch.shape[0], gram, moment)


def _active_gram(
    batch: np.ndarray, labels: np.ndarray, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(G_S, b_S) = (X_S^T X_S, X_S^T y_S) over the rows the mask selects."""
    rows = np.compress(active, batch, axis=0)  # batch[active], copied faster
    return rows.T @ rows, rows.T @ np.compress(active, labels)


def _gram_gradient(
    w: np.ndarray, hidden: tuple[float, ...], n: int, gram: np.ndarray, moment: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The sample gradient from the active set's (G_S, b_S) at w."""
    p = math.prod(hidden) if hidden else 1.0
    resid = gram.dot(w) * p - moment
    grad_w = resid * (p / n)
    if not hidden:
        return grad_w, np.zeros(0)
    shared = w.dot(resid) / n
    grad_hidden = np.array([(p / v) * shared for v in hidden])
    return grad_w, grad_hidden


# Rows of the watch block that `run_gd` tests for sign changes every step.
_WATCH = 64


class _GramStack:
    """The step of a batched empirical descent, on (B, d) weight and
    (B, m_max) hidden stacks, and the one owner of every row's state. Row
    j of its stacks holds row j's (G_S, b_S), re-formed only when S
    changes, and the reference, squared radius, watch block, doubt and
    block signs that certify S between tests (see the module docstring);
    per-row lists hold what only a settle reads: the data, labels, row
    norms, active mask (empty at first, as (G_S, b_S) start at zero) and
    watch indices.

    A row passes the stacked test when w lies within its reach and every
    block product lies beyond the pad on the side its row had at the last
    test: then no sign is in doubt and none changed, and (G_S, b_S) stand.
    Any other row settles alone (`settle`), writing its row of the stacks
    in place. With finite products this is the test `settle` makes, so
    each row takes the path it would take alone.
    """

    def __init__(self, batches: list[np.ndarray], labels: list[np.ndarray],
                 etas: list[float], ms: list[int]) -> None:
        rows, d = len(batches), batches[0].shape[1]
        self.batch, self.labels = batches, labels
        self.row_norms = [np.linalg.norm(x, axis=1) for x in batches]
        self.active, self.watch = [np.zeros(len(x), bool) for x in batches], [None] * rows
        self.pad = 4 * (d + 2) * np.finfo(float).eps
        self.rows = np.arange(rows)  # the march's indices of the rows held
        self.n = np.array([[x.shape[0]] for x in batches], dtype=float)
        self.eta = np.array([[eta] for eta in etas])
        self.padded = np.arange(max(ms)) >= np.array(ms)[:, None]
        self.has_padding = bool(self.padded.any())
        self.w_ref = np.zeros((rows, d))
        self.reach = np.full(rows, -1.0)  # squared certified radius; negative: none
        self.block = np.zeros((rows, _WATCH, d))
        self.doubt = np.zeros(rows)
        self.side = np.ones((rows, _WATCH))  # each block row's sign at the last test, as +-1.0
        self.gram, self.moment = np.zeros((rows, d, d)), np.zeros((rows, d))

    def __call__(self, W: np.ndarray, H: np.ndarray,
                 live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if len(live) < len(self.rows):
            self._keep(np.isin(self.rows, live))
        moved = W - self.w_ref
        signed = np.matvec(self.block, W)
        signed *= self.side  # exact: each product times +-1
        near = np.vecdot(moved, moved) < self.reach  # each row's moved.dot(moved)
        passed = near & (np.minimum.reduce(signed, axis=1) > self.doubt)
        if not np.logical_and.reduce(passed):
            for j in np.flatnonzero(~passed):
                self.settle(j, W[j], bool(near[j]), signed[j] * self.side[j])
        # `_gram_gradient`, row by row, with p, n and w.resid as columns.
        p = H[:, :1] if H.shape[1] else np.ones((len(W), 1))
        for c in range(1, H.shape[1]):
            p = p * H[:, c:c + 1]
        resid = np.matvec(self.gram, W) * p - self.moment
        grad_hidden = (p / H) * (np.vecdot(W, resid)[:, None] / self.n) if H.shape[1] else H
        W, H = _descend(W, H, self.eta, resid * (p / self.n), grad_hidden)
        if self.has_padding:
            np.copyto(H, 1.0, where=self.padded)
        return W, H

    def settle(self, j: int, w: np.ndarray, near: bool, pre: np.ndarray) -> None:
        """Bring row j's S and (G_S, b_S) up to date at w, given whether w
        lies within the reach of its reference and the block products at w.
        S takes the block's signs if w is near and none is in doubt; else w
        becomes the reference and S is every sign at w."""
        doubt = self.doubt[j]
        if near and (np.abs(pre) > doubt).all():  # no block product within the pad of zero
            active = self.active[j].copy()
            active[self.watch[j]] = pre > doubt
        else:
            batch, row_norms = self.batch[j], self.row_norms[j]
            full = batch @ w
            active = full > 0.0
            self.reach[j] = -1.0
            if len(batch) > _WATCH:
                margins = np.abs(full) / row_norms
                order = np.argpartition(margins, _WATCH)
                norm = math.sqrt(w @ w)
                radius = float(margins[order[_WATCH]]) * (1.0 - self.pad) - self.pad * norm
                if radius > 0.0:
                    self.w_ref[j] = w
                    self.reach[j] = radius * radius
                    self.watch[j] = order[:_WATCH]
                    self.block[j] = batch[self.watch[j]]
                    # Any w within the radius has |w| < norm + radius.
                    self.doubt[j] = (self.pad * float(row_norms[self.watch[j]].max())
                                     * (norm + radius))
        if (active != self.active[j]).any():
            self.active[j] = active
            self._reform(j)
        if self.reach[j] > 0.0:
            self.side[j] = np.where(active[self.watch[j]], 1.0, -1.0)

    def _reform(self, j: int) -> None:
        self.gram[j], self.moment[j] = _active_gram(self.batch[j], self.labels[j],
                                                    self.active[j])

    def _keep(self, keep: np.ndarray) -> None:
        for name in ("batch", "labels", "row_norms", "active", "watch"):
            setattr(self, name, [x for x, k in zip(getattr(self, name), keep) if k])
        for name in ("rows", "n", "eta", "padded", "w_ref", "reach", "block", "doubt", "side",
                     "gram", "moment"):
            setattr(self, name, getattr(self, name)[keep])
        self.has_padding = bool(self.padded.any())


def _descend(w: np.ndarray, hidden: np.ndarray, eta, grad_w: np.ndarray,
             grad_hidden: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The update of every descent: one state, or stacks with a column of
    step sizes."""
    return w - eta * grad_w, hidden - eta * grad_hidden


def run_gd(config: NeuronConfig, init: WeightState, dc: DescentConfig) -> Trajectory:
    """Run descent for dc.steps steps, recording reduced coordinates and the
    exact population loss at step 0, every record_every-th step, and the end.

    Trajectory times are step indices. Empirical mode draws its dataset once
    from dc.seed, computes the teacher's labels on it once, and never
    resamples; it re-forms the active set's Gram data only when a row changes
    sign, and it is `run_gd_batch` on one problem. Either mode's steps go
    through the same gradient kernel and update as `gd_step`, so a fold of
    `gd_step` over the same inputs records the same states bit for bit.
    Raises DivergenceError when a hidden scalar leaves (0, inf) or the weight
    norm is not finite or exceeds 1e12.
    """
    if dc.mode == "empirical":
        (out,) = run_gd_batch([(config, init, dc)])
    else:
        eta = dc.eta

        def step(W: np.ndarray, H: np.ndarray, _live: np.ndarray):
            grad_w, grad_hidden = _gradient(config, W[0], H[0].tolist())
            return _descend(W, H, eta, np.array(grad_w), np.array(grad_hidden))

        (out,) = _march([(config, init)], [dc.steps], [dc.record_every], 1.0, step)
    if not isinstance(out, Trajectory):
        raise out
    return out


def run_gd_batch(
    problems: Sequence[tuple[NeuronConfig, WeightState, DescentConfig]],
) -> list[Trajectory | ValueError | DivergenceError]:
    """Empirical descents of one dimension d in one batched march.

    Each (config, init, dc) row gets what `run_gd` would return for it, bit
    for bit, or, in place of raising, the error `run_gd` would raise. A row
    that fails leaves the batch and the others go on.
    """
    if any(dc.mode != "empirical" for _, _, dc in problems):
        raise DomainError("run_gd_batch marches empirical descents only")
    if len({config.d for config, _, _ in problems}) > 1:
        raise DimensionError("run_gd_batch needs problems of one dimension d")
    if not problems:
        return []
    batches = [np.random.default_rng(np.random.SeedSequence(dc.seed)).standard_normal(
        (dc.n_samples, config.d)) for config, _, dc in problems]
    labels = [_teacher_labels(config, x) for (config, _, _), x in zip(problems, batches)]
    step = _GramStack(batches, labels, [dc.eta for _, _, dc in problems],
                      [config.m for config, _, _ in problems])
    return _march([(config, init) for config, init, _ in problems],
                  [dc.steps for _, _, dc in problems],
                  [dc.record_every for _, _, dc in problems], 1.0, step)


def gd_error_scaling(
    c: float,
    g: Callable[[float], float],
    flow_rhs: Callable[[float], float],
    etas: Sequence[float],
    horizon: float,
) -> list[tuple[float, float]]:
    """Measure the Euler-vs-substitution gap as a function of step size.

    The flow solution is w(t) = g(e^(-c t)). For each eta, runs explicit
    Euler w += eta * flow_rhs(w) from w(0) = g(1) for round(horizon/eta)
    steps and records the worst deviation from the substituted solution
    g((1 - c eta)^k). The deviation scales linearly in eta when (c, g) and
    the field describe the same flow. Each eta obeys the step-size rule at
    the threshold 1 / c.
    """
    c, horizon = _check_positive(c, "decay rate c"), _check_positive(horizon, "horizon")
    if not etas:
        raise DomainError("need at least one step size")
    out = []
    for eta in etas:
        eta = _certify_eta(eta, 1.0 / c)
        steps = max(1, round(horizon / eta))
        base = 1.0 - c * eta
        w = g(1.0)
        worst = 0.0
        for k in range(1, steps + 1):
            w = w + eta * flow_rhs(w)
            ref = g(base**k)
            worst = max(worst, abs(w - ref))
        out.append((eta, float(worst)))
    return out


def eta_threshold(env: BoundEnvelope) -> float:
    """Theorem-scale step-size constant for an envelope's descent band:
    1 / c over the fastest rate c among the band's terms.

    Bands are proven under eta well below this; the step-size rule treats a
    tenth of it as the hard ceiling and a hundredth as the clean regime.
    """
    return _threshold(_band_forms(env))


def stopping_time(env: BoundEnvelope, eta: float, eps: float) -> int:
    """Steps guaranteed to drive the angle above pi - eps, from the angle
    lower band: least T with 2 cot(phi0/2) (1 - rate*eta)^T < eps, at the
    band's lower rate.

    Returns 0 when the band already starts above pi - eps. eta must sit
    below a tenth of `eta_threshold(env)`, 1 / c at the band's fastest rate
    (hard), ideally below a hundredth (warned otherwise), and rate*eta must
    move 1 - rate*eta off 1 (else DomainError).
    """
    if env.kind != "angle":
        raise DomainError("stopping times come from angle envelopes")
    eps = _check_positive(eps, "eps")
    band = _band_forms(env)
    eta = _certify_eta(eta, _threshold(band))
    rate = band.lower[0].c
    x = 0.5 * eps * math.tan(env.phi0 / 2.0)
    if x >= 1.0:
        return 0
    q = 1.0 - rate * eta
    if q == 1.0:  # log(q) would be 0
        raise DomainError(f"rate*eta = {rate * eta:.3g} is below the resolution of 1 - rate*eta")
    return int(math.floor(math.log(x) / math.log(q))) + 1
