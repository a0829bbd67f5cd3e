"""Shared oracles and fixtures: brute-force searches and small channels used
to cross-check the solvers."""
import itertools
import math

import numpy as np
from scipy.stats import norm

from ltipc import ChannelSpec, DiscreteChannel, ImpulseResponse, InputGrid
from ltipc.bounds import _SYMKL_RANDOM_STARTS, _best_pair, _project_feasible, _sym_kl_matrix
from ltipc.solver import _cheapest_inputs


def poisson_mean_by_recurrence(pmf: np.ndarray) -> float:
    """Mean of a pmf vector over {0..ymax}; the caller builds the vector via
    the exact recurrence pmf(k) = pmf(k-1) * lam / k."""
    return float(np.arange(pmf.size) @ pmf)


def poisson_pmf_recurrence(lam: float, ymax: int) -> np.ndarray:
    """Poisson pmf by the multiplicative recurrence, independent of the
    production implementation."""
    out = np.empty(ymax + 1)
    out[0] = np.exp(-lam)
    for k in range(1, ymax + 1):
        out[k] = out[k - 1] * lam / k
    return out


def simplex_grid(n: int, step: float):
    """All pmfs on n atoms with coordinates on a uniform grid of the given
    step (n <= 3 keeps this affordable)."""
    ticks = int(round(1.0 / step))
    if n == 1:
        yield np.array([1.0])
        return
    if n == 2:
        for i in range(ticks + 1):
            yield np.array([i * step, 1.0 - i * step])
        return
    if n == 3:
        for i in range(ticks + 1):
            rest = ticks - i
            for j in range(rest + 1):
                yield np.array([i * step, j * step, (rest - j) * step])
        return
    raise ValueError("grid search oracle only supports up to 3 inputs")


def _mi_batch(W: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Mutual information of each input pmf in the rows of P."""
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(W > 0, W * np.log(W), 0.0).sum(axis=1)
    Q = P @ W
    with np.errstate(divide="ignore", invalid="ignore"):
        hq = np.where(Q > 0, Q * np.log(Q), 0.0).sum(axis=1)
    return P @ d - hq


def grid_search_capacity(W: np.ndarray, step: float = 1e-3, cost=None,
                         alpha=None) -> float:
    """Dense grid search over the input simplex; the independent oracle for
    small Blahut-Arimoto runs."""
    P = np.array(list(simplex_grid(W.shape[0], step)))
    if alpha is not None:
        P = P[P @ np.asarray(cost) <= alpha + 1e-12]
    return float(_mi_batch(W, P).max())


def _symkl_batch(W: np.ndarray, P: np.ndarray) -> np.ndarray:
    logW = np.log(W)
    d = (W * logW).sum(axis=1)
    G = logW @ W.T
    return P @ d - np.einsum("ki,ij,kj->k", P, G, P)


def grid_search_symkl(W: np.ndarray, step: float = 1e-3, cost=None,
                      alpha=None, two_point_steps: int = 200_001) -> float:
    """Exhaustive two-point search plus a dense simplex grid search for the
    quadratic symmetrized-KL objective (strictly positive channels only)."""
    n = W.shape[0]
    best = 0.0
    t = np.linspace(0.0, 1.0, two_point_steps)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            tt = t
            if alpha is not None:
                costs = t * cost[i] + (1 - t) * cost[j]
                tt = t[costs <= alpha + 1e-12]
                if tt.size == 0:
                    continue
            P = np.zeros((tt.size, n))
            P[:, i] = tt
            P[:, j] = 1 - tt
            best = max(best, float(_symkl_batch(W, P).max()))
    P = np.array(list(simplex_grid(n, step)))
    if alpha is not None:
        P = P[P @ np.asarray(cost) <= alpha + 1e-12]
    best = max(best, float(_symkl_batch(W, P).max()))
    return best


def symkl_ascent_per_start(channel: DiscreteChannel, alpha=None, seed: int = 0,
                           max_iters: int = 200_000) -> float:
    """sym_kl_max's value with its starts ascended one at a time, each step
    projecting a single vector: the reference for the batched ascent.  Same
    starts, step, stopping rule and two-point preference as sym_kl_max."""
    keep, alpha = _cheapest_inputs(channel.cost, alpha)
    idx = np.flatnonzero(keep)
    cost = channel.cost[idx]
    n = idx.size
    D = _sym_kl_matrix(channel.transition[idx])
    i, j, t, pair_best = _best_pair(D, cost, alpha)
    if math.isinf(pair_best):
        return pair_best
    C = np.eye(n) - 1.0 / n
    step = 1.0 / max(float(np.linalg.norm(C @ D @ C, 2)), 1e-12)
    rng = np.random.default_rng(seed)
    starts = [np.full(n, 1.0 / n), np.bincount([i, j], weights=[t, 1.0 - t], minlength=n)]
    starts += [rng.dirichlet(np.ones(n)) for _ in range(_SYMKL_RANDOM_STARTS)]
    best_val = -np.inf
    for p in starts:
        p = _project_feasible(p, cost, alpha)
        grad = D @ p
        val = 0.5 * float(p @ grad)
        for _ in range(max_iters):
            p_next = _project_feasible(p + step * grad, cost, alpha)
            grad_next = D @ p_next
            val_next = 0.5 * float(p_next @ grad_next)
            if not val_next > val:
                break
            p, grad, val = p_next, grad_next, val_next
        best_val = max(best_val, val)
    return best_val if best_val > pair_best + 1e-10 else pair_best


def gaussian_channel(support, sigma: float, mu: float = 0.0,
                     step: float = 0.01, halfwidth: float = 10.0) -> DiscreteChannel:
    """Additive Gaussian channel discretized on a fine output grid."""
    x = np.asarray(support, dtype=np.float64)
    lo = x.min() + mu - halfwidth * sigma
    hi = x.max() + mu + halfwidth * sigma
    y = np.arange(lo, hi + step * 0.5, step)
    rows = norm.pdf(y[None, :], loc=x[:, None] + mu, scale=sigma)
    rows = rows / rows.sum(axis=1, keepdims=True)
    return DiscreteChannel(transition=rows, cost=x.copy(),
                           input_labels=tuple(x))


def random_channel(rng, n_in: int, n_out: int, cost=None) -> DiscreteChannel:
    """Strictly positive random channel with unit-spaced costs by default."""
    W = rng.dirichlet(np.ones(n_out), size=n_in) + 1e-3
    W = W / W.sum(axis=1, keepdims=True)
    c = np.arange(n_in, dtype=np.float64) if cost is None else np.asarray(cost)
    return DiscreteChannel(transition=W, cost=c,
                           input_labels=tuple(range(n_in)))


def bsc(p: float) -> DiscreteChannel:
    W = np.array([[1 - p, p], [p, 1 - p]])
    return DiscreteChannel(transition=W, cost=np.array([0.0, 1.0]),
                           input_labels=(0, 1))


def small_corpus(seed: int = 2024):
    """Channels with <= 3 inputs and <= 4 outputs for oracle comparisons."""
    rng = np.random.default_rng(seed)
    chans = [
        bsc(0.11),
        bsc(0.25),
        # zero-capacity: identical rows
        DiscreteChannel(np.tile(rng.dirichlet(np.ones(3)), (2, 1)),
                        np.array([0.0, 1.0]), (0, 1)),
        random_channel(rng, 2, 3),
        random_channel(rng, 3, 3),
        random_channel(rng, 3, 4),
        random_channel(rng, 3, 4, cost=np.array([0.0, 2.0, 5.0])),
    ]
    return chans


def seeded_stationary_set():
    """The 24 seeded stationary instances as (ChannelSpec, InputGrid): from
    default_rng(2026), instance i has k = i mod 3 and draws, in this order,
    the grid size in {3, 4, 5}, Dirichlet(1) taps, lambda0 in U(0.5, 8),
    amax in U(10, 60) and alpha = U(0.05, 0.6) * amax."""
    rng = np.random.default_rng(2026)
    out = []
    for i in range(24):
        grid = int(rng.integers(3, 6))
        taps = rng.dirichlet(np.ones(i % 3 + 1))
        lambda0 = rng.uniform(0.5, 8)
        amax = rng.uniform(10, 60)
        alpha = rng.uniform(0.05, 0.6) * amax
        out.append((ChannelSpec(ImpulseResponse(tuple(taps)), lambda0, amax, alpha),
                    InputGrid.uniform(amax, grid)))
    return out


def random_stationary_set(seed: int = 7, count: int = 48):
    """count random stationary instances as (ChannelSpec, InputGrid): from
    default_rng(seed), instance i has k = i mod 3 and draws, in this order,
    the grid size in {3, 4, 5}, Dirichlet(1) taps, lambda0 in U(0.5, 8),
    amax in U(10, 80) and u in U(0, 1); alpha cycles with i mod 4 through
    0, amax, 1e-6 * amax and u * amax, so the edges of the budget range
    come up as often as the draws inside it."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        grid = int(rng.integers(3, 6))
        taps = rng.dirichlet(np.ones(i % 3 + 1))
        lambda0 = rng.uniform(0.5, 8)
        amax = rng.uniform(10, 80)
        u = rng.uniform()
        alpha = (0.0, amax, 1e-6 * amax, u * amax)[i % 4]
        out.append((ChannelSpec(ImpulseResponse(tuple(taps)), lambda0, amax, alpha),
                    InputGrid.uniform(amax, grid)))
    return out


def random_block_set(seed: int = 2026, count: int = 120):
    """count random block-bound instances as (ChannelSpec, InputGrid): from
    default_rng(seed), instance i has k = i mod 3 and draws, in this order,
    the grid size in {3, ..., 7}, Dirichlet(1) taps, lambda0 in U(0.5, 6),
    amax in U(10, 60) and alpha = U(0.1, 0.9) * amax."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        grid = int(rng.integers(3, 8))
        taps = rng.dirichlet(np.ones(i % 3 + 1))
        lambda0 = rng.uniform(0.5, 6)
        amax = rng.uniform(10, 60)
        alpha = rng.uniform(0.1, 0.9) * amax
        out.append((ChannelSpec(ImpulseResponse(tuple(taps)), lambda0, amax, alpha),
                    InputGrid.uniform(amax, grid)))
    return out
