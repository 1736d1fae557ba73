"""Sampling oracles for the closed forms used elsewhere in the package.

Everything here estimates an expectation by plain Monte Carlo and reports a
standard error, so closed-form results can be verified against an
implementation that shares no code with them. Estimators draw from an owned
generator seeded per call and accumulate in fixed-size chunks, which keeps
memory bounded and results bit-stable for a given seed.

`dist` selects the input law: 'gaussian' is x ~ N(0, I_d); 'sphere' is the
uniform unit sphere (normalized Gaussians), under which all the second
moments shrink by exactly 1/d relative to the Gaussian forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError
from .population import NeuronConfig, WeightState, _check_unit

_CHUNK = 1 << 16


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean with per-entry standard error of the mean."""

    value: np.ndarray
    stderr: np.ndarray
    n: int
    seed: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise DomainError("standard errors need n >= 2")
        if np.any(np.asarray(self.stderr) < 0):
            raise DomainError("stderr entries must be non-negative")


def _draw(rng: np.random.Generator, count: int, d: int, dist: str) -> np.ndarray:
    x = rng.standard_normal((count, d))
    if dist == "sphere":
        x /= np.linalg.norm(x, axis=1, keepdims=True)
    elif dist != "gaussian":
        raise DomainError(f"unknown dist {dist!r}")
    return x


def _finish(s1: np.ndarray, s2: np.ndarray, n: int, seed: int) -> McEstimate:
    mean = np.asarray(s1) / n
    var = np.maximum(s2 - n * mean * mean, 0.0) / (n - 1)
    return McEstimate(value=mean, stderr=np.sqrt(var / n), n=n, seed=seed)


def _accumulate(
    n: int, seed: int, chunk_sums: Callable[[np.random.Generator, int], tuple]
) -> list[McEstimate]:
    """Chunked Monte Carlo means over n draws from a generator seeded by seed.

    chunk_sums(rng, count) draws count samples and returns, for each
    estimate, its partial sum and partial sum of squares, flattened as
    (s1, s2, s1', s2', ...); the partials are totalled over chunks of at
    most _CHUNK samples and closed into one McEstimate per pair.
    """
    if n < 2:
        raise DomainError("n must be >= 2")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    totals: list = []
    left = n
    while left > 0:
        count = min(_CHUNK, left)
        parts = chunk_sums(rng, count)
        totals = [t + p for t, p in zip(totals or [0.0] * len(parts), parts)]
        left -= count
    return [_finish(s1, s2, n, seed) for s1, s2 in zip(totals[::2], totals[1::2])]


def _weighted_outer_sums(ind: np.ndarray, x: np.ndarray) -> tuple:
    """Chunk sums of ind x x^T and of its entrywise squares (ind is 0/1)."""
    xx = x * x
    return (x * ind[:, None]).T @ x, (xx * ind[:, None]).T @ xx


def _scalar_sums(y: np.ndarray) -> tuple:
    return float(y.sum()), float((y * y).sum())


def mc_half_space_moment(
    u: np.ndarray, n: int, seed: int, dist: str = "gaussian"
) -> McEstimate:
    """Estimate E[ 1{u.x > 0} x x^T ] with per-entry standard errors."""
    u = _check_unit(u, "u")
    d = u.shape[0]

    def chunk(rng: np.random.Generator, count: int) -> tuple:
        x = _draw(rng, count, d, dist)
        return _weighted_outer_sums((x @ u > 0.0).astype(float), x)

    return _accumulate(n, seed, chunk)[0]


def mc_double_wedge_moment(
    u: np.ndarray, v: np.ndarray, n: int, seed: int, dist: str = "gaussian"
) -> McEstimate:
    """Estimate E[ 1{u.x > 0} 1{v.x > 0} x x^T ] with standard errors."""
    u = _check_unit(u, "u")
    v = _check_unit(v, "v")
    if u.shape != v.shape:
        raise DimensionError("u and v must share a dimension")
    d = u.shape[0]

    def chunk(rng: np.random.Generator, count: int) -> tuple:
        x = _draw(rng, count, d, dist)
        return _weighted_outer_sums(((x @ u > 0.0) & (x @ v > 0.0)).astype(float), x)

    return _accumulate(n, seed, chunk)[0]


def mc_relu_product(u: np.ndarray, v: np.ndarray, n: int, seed: int) -> McEstimate:
    """Estimate E[ relu(u.x) relu(v.x) ] for x ~ N(0, I), unit u and v."""
    u = _check_unit(u, "u")
    v = _check_unit(v, "v")
    if u.shape != v.shape:
        raise DimensionError("u and v must share a dimension")

    def chunk(rng: np.random.Generator, count: int) -> tuple:
        x = _draw(rng, count, u.shape[0], "gaussian")
        return _scalar_sums(np.maximum(x @ u, 0.0) * np.maximum(x @ v, 0.0))

    return _accumulate(n, seed, chunk)[0]


def mc_population_loss(config: NeuronConfig, state: WeightState, n: int, seed: int) -> McEstimate:
    """Estimate the population loss of a state by sampling fresh inputs."""
    p = state.product
    p_star = config.target_product

    def chunk(rng: np.random.Generator, count: int) -> tuple:
        x = _draw(rng, count, config.d, "gaussian")
        err = p * np.maximum(x @ state.w, 0.0) - p_star * np.maximum(x @ config.target_w, 0.0)
        return _scalar_sums(0.5 * err * err)

    return _accumulate(n, seed, chunk)[0]


def mc_population_gradient(
    config: NeuronConfig, state: WeightState, n: int, seed: int
) -> tuple[McEstimate, McEstimate]:
    """Estimate the loss gradient in (w, hidden scalars) by sampling.

    Per-sample contributions are e * P * 1{w.x > 0} x for the weight vector
    and e * (P / v_k) relu(w.x) for hidden scalar k, with e the signed
    residual; the derivative of relu at 0 is taken as 0 (strict indicator).
    Returns (weight-gradient estimate, hidden-gradient estimate).
    """
    if any(v <= 0.0 for v in state.hidden):
        raise DomainError("hidden scalars must be positive")
    d = config.d
    p = state.product
    p_star = config.target_product
    hidden = np.array(state.hidden, dtype=float)

    def chunk(rng: np.random.Generator, count: int) -> tuple:
        x = _draw(rng, count, d, "gaussian")
        pre = x @ state.w
        ind = pre > 0.0
        act = np.where(ind, pre, 0.0)
        e = p * act - p_star * np.maximum(x @ config.target_w, 0.0)
        gw = (p * e * ind)[:, None] * x
        sums_w = gw.sum(axis=0), (gw * gw).sum(axis=0)
        gh = (e * act)[:, None] * (p / hidden)[None, :]
        return *sums_w, gh.sum(axis=0), (gh * gh).sum(axis=0)

    est_w, est_h = _accumulate(n, seed, chunk)
    return est_w, est_h


def angle_concentration(d: int, eps: float, trials: int, seed: int) -> tuple[float, float]:
    """Empirical check that random directions are nearly orthogonal.

    Draws pairs u, v ~ N(0, I_d) and measures how often their cosine falls
    below eps; returns (empirical fraction, 1 - 2 exp(-d eps^2 / 2)). Judging
    the fraction against the bound is left to the caller.
    """
    if d < 1 or trials < 1_000:
        raise DomainError("need d >= 1 and trials >= 1000")
    if eps <= 0:
        raise DomainError("eps must be positive")

    def chunk(rng: np.random.Generator, count: int) -> tuple:
        u = rng.standard_normal((count, d))
        v = rng.standard_normal((count, d))
        # Row norms by einsum: np.linalg.norm would square u and v into two
        # more (count, d) temporaries.
        cos = np.einsum("ni,ni->n", u, v) / (
            np.sqrt(np.einsum("ni,ni->n", u, u)) * np.sqrt(np.einsum("ni,ni->n", v, v))
        )
        hits = float(np.count_nonzero(cos < eps))
        return hits, hits  # a 0/1 indicator is its own square

    fraction = float(_accumulate(trials, seed, chunk)[0].value)
    return fraction, 1.0 - 2.0 * math.exp(-0.5 * d * eps * eps)
