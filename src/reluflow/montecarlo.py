"""Sampling oracles for the closed forms used elsewhere in the package.

Everything here estimates an expectation by plain Monte Carlo and reports a
standard error, so closed-form results can be verified against an
implementation that shares no code with them. Estimators draw from an owned
generator seeded per call, so results are bit-stable for a given seed.

One accumulator, `_accumulate`, draws every estimator's samples and owns the
block size and the draw buffers. It draws in chunks of 65,536 samples and
each chunk in blocks: a block is the whole chunk while 65,536 x d doubles
fit in 8 MiB (d <= 16), and 2^20 // d rows above that. Each call allocates
its block buffers once, reuses them for every block and drops them when it
returns; nothing is cached between calls. An estimator's per-block
arithmetic writes its (rows, d) temporaries into those buffers in place,
so a call holds a few blocks whatever n and d are. The samples do not
depend on the block size: the generator fills the buffers in stream order,
so a seed draws the same samples as one (n, d) draw would. Only the grouping
of partial sums follows the block, and at d <= 16 a block is a chunk.

`dist` selects the input law: 'gaussian' is x ~ N(0, I_d); 'sphere' is the
uniform unit sphere (normalized Gaussians), under which all the second
moments shrink by exactly 1/d relative to the Gaussian forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .population import (NeuronConfig, WeightState, _check_count, _check_hidden, _check_positive,
                          _check_state, _check_unit, _check_unit_pair)

# Samples per chunk, the unit of every estimator's sample stream.
_CHUNK = 1 << 16
# Doubles per (rows, d) block buffer: 8 MiB.
_BLOCK = 1 << 20


@dataclass(frozen=True, eq=False)
class McEstimate:
    """A Monte Carlo mean with per-entry standard error of the mean.

    It holds arrays, so equality is identity (eq=False): a generated
    __eq__ would ask an array for its truth value.
    """

    value: np.ndarray
    stderr: np.ndarray
    n: int
    seed: int

    def __post_init__(self) -> None:
        _check_count(self.n, "n", 2)  # a standard error needs two samples
        if np.any(np.asarray(self.stderr) < 0):
            raise DomainError("stderr entries must be non-negative")


def _finish(s1: np.ndarray, s2: np.ndarray, n: int, seed: int) -> McEstimate:
    mean = np.asarray(s1) / n
    var = np.maximum(s2 - n * mean * mean, 0.0) / (n - 1)
    return McEstimate(value=mean, stderr=np.sqrt(var / n), n=n, seed=seed)


def _block_rows(d: int) -> int:
    """Rows per block: a whole chunk while it fits in _BLOCK doubles (d <= 16)."""
    return max(1, min(_CHUNK, _BLOCK // d))


def _accumulate(
    n: int,
    seed: int,
    d: int,
    block_sums: Callable[..., tuple],
    *,
    scratch: bool = False,
    paired: bool = False,
) -> list[McEstimate]:
    """Monte Carlo means over n samples from a generator seeded by seed.

    Samples are drawn in chunks of _CHUNK and each chunk in blocks of
    _block_rows(d) rows, into buffers allocated once per call. block_sums
    gets each block x of standard normals, shape (rows, d), which it may
    overwrite, and returns for each estimate its partial sum and partial sum
    of squares over the block, flattened as (s1, s2, s1', s2', ...); the
    partials are totalled over blocks and closed into one McEstimate per
    pair. With scratch, block_sums(x, t) also gets an undrawn buffer t of
    x's shape for its temporaries. With paired, a sample is a pair of rows:
    each chunk first draws its (count, d) lead rows whole, then x block by
    block, and block_sums(x, u) gets the lead rows u that match x.
    """
    n, seed = _check_count(n, "n", 2), _check_count(seed, "seed")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rows = min(_block_rows(d), n)
    x = np.empty((rows, d))
    spare = np.empty((rows, d)) if scratch else None
    lead = np.empty((min(_CHUNK, n), d)) if paired else None
    totals: list = []
    for start in range(0, n, _CHUNK):
        count = min(_CHUNK, n - start)
        if paired:
            rng.standard_normal(out=lead[:count])
        for lo in range(0, count, rows):
            k = min(rows, count - lo)
            block = rng.standard_normal(out=x[:k])
            if paired:
                parts = block_sums(block, lead[lo:lo + k])
            elif scratch:
                parts = block_sums(block, spare[:k])
            else:
                parts = block_sums(block)
            totals = [t + p for t, p in zip(totals or [0.0] * len(parts), parts)]
    return [_finish(s1, s2, n, seed) for s1, s2 in zip(totals[::2], totals[1::2])]


def _masked_second_moment(
    indicator: Callable[[np.ndarray], np.ndarray], d: int, n: int, seed: int, dist: str
) -> McEstimate:
    """Estimate E[ indicator(x) x x^T ] for a 0/1 indicator of the rows of x."""
    if dist not in ("gaussian", "sphere"):
        raise DomainError(f"unknown dist {dist!r}")

    def block(x: np.ndarray, t: np.ndarray) -> tuple:
        if dist == "sphere":  # x / np.linalg.norm(x, axis=1), bit for bit
            np.multiply(x, x, out=t)
            x /= np.sqrt(np.add.reduce(t, axis=1, keepdims=True))
        # t takes the weighted rows x ind, then t and x their squares:
        # (x ind)^2 is x^2 ind bit for bit, as ind is 0 or 1.
        s1 = np.multiply(x, indicator(x).astype(float)[:, None], out=t).T @ x
        np.multiply(t, t, out=t)
        np.multiply(x, x, out=x)
        return s1, t.T @ x

    return _accumulate(n, seed, d, block, scratch=True)[0]


def _scalar_sums(y: np.ndarray) -> tuple:
    return float(y.sum()), float((y * y).sum())


def mc_half_space_moment(
    u: np.ndarray, n: int, seed: int, dist: str = "gaussian"
) -> McEstimate:
    """Estimate E[ 1{u.x > 0} x x^T ] with per-entry standard errors."""
    u = _check_unit(u, "u")
    return _masked_second_moment(lambda x: x @ u > 0.0, u.shape[0], n, seed, dist)


def mc_double_wedge_moment(
    u: np.ndarray, v: np.ndarray, n: int, seed: int, dist: str = "gaussian"
) -> McEstimate:
    """Estimate E[ 1{u.x > 0} 1{v.x > 0} x x^T ] with standard errors."""
    u, v = _check_unit_pair(u, v)
    return _masked_second_moment(
        lambda x: (x @ u > 0.0) & (x @ v > 0.0), u.shape[0], n, seed, dist)


def mc_relu_product(u: np.ndarray, v: np.ndarray, n: int, seed: int) -> McEstimate:
    """Estimate E[ relu(u.x) relu(v.x) ] for x ~ N(0, I), unit u and v."""
    u, v = _check_unit_pair(u, v)

    def block(x: np.ndarray) -> tuple:
        return _scalar_sums(np.maximum(x @ u, 0.0) * np.maximum(x @ v, 0.0))

    return _accumulate(n, seed, u.shape[0], block)[0]


def mc_population_loss(config: NeuronConfig, state: WeightState, n: int, seed: int) -> McEstimate:
    """Estimate the population loss of a state by sampling fresh inputs."""
    p = state.product
    p_star = config.target_product

    def block(x: np.ndarray) -> tuple:
        err = p * np.maximum(x @ state.w, 0.0) - p_star * np.maximum(x @ config.target_w, 0.0)
        return _scalar_sums(0.5 * err * err)

    return _accumulate(n, seed, config.d, block)[0]


def mc_population_gradient(
    config: NeuronConfig, state: WeightState, n: int, seed: int
) -> tuple[McEstimate, McEstimate]:
    """Estimate the loss gradient in (w, hidden scalars) by sampling.

    Per-sample contributions are e * P * 1{w.x > 0} x for the weight vector
    and e * (P / v_k) relu(w.x) for hidden scalar k, with e the signed
    residual; the derivative of relu at 0 is taken as 0 (strict indicator).
    Returns (weight-gradient estimate, hidden-gradient estimate).
    """
    _check_state(config, state)
    _check_hidden(state.hidden)
    p = state.product
    p_star = config.target_product
    hidden = np.array(state.hidden, dtype=float)

    def block(x: np.ndarray) -> tuple:
        pre = x @ state.w
        ind = pre > 0.0
        act = np.where(ind, pre, 0.0)
        e = p * act - p_star * np.maximum(x @ config.target_w, 0.0)
        gh = (e * act)[:, None] * (p / hidden)[None, :]
        # The weight gradients overwrite x, and then their squares overwrite them.
        gw = np.multiply(x, (p * e * ind)[:, None], out=x)
        s1 = gw.sum(axis=0)
        s2 = np.multiply(gw, gw, out=gw).sum(axis=0)
        return s1, s2, gh.sum(axis=0), (gh * gh).sum(axis=0)

    est_w, est_h = _accumulate(n, seed, config.d, block)
    return est_w, est_h


def angle_concentration(d: int, eps: float, trials: int, seed: int) -> tuple[float, float]:
    """Empirical check that random directions are nearly orthogonal.

    Draws pairs u, v ~ N(0, I_d) and measures how often their cosine falls
    below eps; returns (empirical fraction, 1 - 2 exp(-d eps^2 / 2)). Judging
    the fraction against the bound is left to the caller.
    """
    d, trials = _check_count(d, "d", 1), _check_count(trials, "trials", 1_000)
    eps = _check_positive(eps, "eps")

    def block(v: np.ndarray, u: np.ndarray) -> tuple:
        # Row norms by einsum: np.linalg.norm would square u and v into two
        # more (rows, d) temporaries.
        cos = np.einsum("ni,ni->n", u, v) / (
            np.sqrt(np.einsum("ni,ni->n", u, u)) * np.sqrt(np.einsum("ni,ni->n", v, v))
        )
        hits = float(np.count_nonzero(cos < eps))
        return hits, hits  # a 0/1 indicator is its own square

    # Each chunk's u rows are drawn whole before its v rows, so the pairs,
    # and the count, do not depend on the block size.
    fraction = float(_accumulate(trials, seed, d, block, paired=True)[0].value)
    return fraction, 1.0 - 2.0 * math.exp(-0.5 * d * eps * eps)
