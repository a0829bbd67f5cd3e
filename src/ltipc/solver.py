"""Blahut-Arimoto capacity and capacity-cost solver for finite channels.

All information quantities are in nats.  One loop serves both problems.
Each iteration computes the row divergences D_x = D(W_x || pW) and moves to

    p' ∝ p·exp(D − s·c),

where s ≥ 0 is the smallest multiplier whose update meets the budget
E_{p'}[c] ≤ alpha: s = 0 without a budget or when it is slack, otherwise a
safeguarded Newton root warm-started from the previous s.  This is Blahut's
capacity-cost iteration (Blahut 1972; Arimoto 1972).  It is an alternating
maximization, so every iterate meets the budget and I(p_t) never decreases.

The loop stops on the dual gap

    max_x (D_x − s·c_x) + s·alpha − I(p),

whose first two terms bound the optimum from above for any p and any s ≥ 0,
so ``value + gap`` certifies the grid capacity-cost value.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import DiscreteChannel
from .errors import ConvergenceError

_TINY = 1e-300  # floor for logarithms; relative BA weights below it become zero
_COST_WINDOW = 1e-14  # width of the accepted budget window, relative to max |cost|
_ROOT_STEPS = 200  # multiplier-search steps; doubling alone reaches s = 2**199


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-9             # duality-gap stopping threshold, nats
    max_iters: int = 200_000

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class CapacityResult:
    """Solver output: optimal value plus diagnostics.

    gap is the final dual gap, so value + gap is an upper bound on the
    optimum.  history holds I(p_t), one entry per iteration; it is
    non-decreasing, with or without a budget.
    """

    value: float
    input_dist: np.ndarray
    achieved_cost: float
    iterations: int
    gap: float
    history: tuple = field(default=(), repr=False)

    def __post_init__(self):
        p = np.asarray(self.input_dist, dtype=np.float64)
        p.flags.writeable = False
        object.__setattr__(self, "input_dist", p)


def _check_input_dist(channel: DiscreteChannel, input_dist) -> np.ndarray:
    p = np.asarray(input_dist, dtype=np.float64)
    if p.shape != (channel.n_inputs,):
        raise ValueError(
            f"input distribution has length {p.shape}, channel has {channel.n_inputs} inputs")
    if np.any(p < -1e-12):
        raise ValueError("input distribution has negative entries")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"input distribution sums to {p.sum()}, expected 1")
    return np.maximum(p, 0.0)


def _wlogw_rows(W: np.ndarray) -> np.ndarray:
    """sum_y W_xy log W_xy for every row x, with 0 log 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(W > 0, W * np.log(np.maximum(W, _TINY)), 0.0).sum(axis=1)


def _mi(W: np.ndarray, p: np.ndarray) -> float:
    """I(X;Y) in nats for channel W and input p; 0*log0 terms are dropped."""
    q = p @ W
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(W > 0, W / np.maximum(q[None, :], _TINY), 1.0)
        contrib = np.where(W > 0, W * np.log(ratio), 0.0)
    return float(p @ contrib.sum(axis=1))


def mutual_information(channel: DiscreteChannel, input_dist) -> float:
    """Exact mutual information of the channel under the given input law."""
    p = _check_input_dist(channel, input_dist)
    return _mi(channel.transition, p)


def _tilt(a: np.ndarray, cost: np.ndarray, s: float) -> np.ndarray:
    """The law proportional to exp(a − s·c)."""
    b = a - s * cost if s else a
    w = np.exp(b - b.max())
    w[w < _TINY] = 0.0
    w /= w.sum()
    return w


def _budget_tilt(a: np.ndarray, cost: np.ndarray, alpha: float | None, s: float):
    """Smallest t >= 0 whose tilt exp(a − t·c) has mean cost <= alpha, and
    that tilt.

    The mean cost m(t) decreases with slope −Var_t(c).  Newton steps from
    the warm start s aim at the middle of the window [alpha − w, alpha] and
    are kept inside the bracket [lo, hi] (bisection, or doubling while no t
    is known to meet the budget).  The returned law is the one at hi, so its
    mean cost, as computed, is at most alpha.
    """
    w = _tilt(a, cost, 0.0)
    if alpha is None:
        return 0.0, w
    m = float(w @ cost)
    if m <= alpha:
        return 0.0, w
    window = _COST_WINDOW * float(np.max(np.abs(cost)))
    lo, hi, w_hi, t = 0.0, np.inf, None, 0.0
    if s > 0:
        t = s
        w = _tilt(a, cost, t)
        m = float(w @ cost)
    for _ in range(_ROOT_STEPS):
        if m > alpha:
            lo = t
        else:
            hi, w_hi = t, w
            if m >= alpha - window or hi - lo <= 4e-16 * hi:
                return hi, w_hi
        var = float(w @ (cost - m) ** 2)
        t = t + (m - alpha + 0.5 * window) / var if var > 0 else np.inf
        if not lo < t < hi:
            t = 0.5 * (lo + hi) if np.isfinite(hi) else max(2.0 * lo, 1.0)
        w = _tilt(a, cost, t)
        m = float(w @ cost)
    if w_hi is None:
        raise ConvergenceError(
            f"no cost multiplier meets the budget alpha={alpha} "
            f"(mean cost {m:.6g} at s={t:.3e})", gap=np.inf, iterations=0)
    return hi, w_hi


def _blahut(W: np.ndarray, cost: np.ndarray, alpha: float | None,
            tol: float, max_iters: int):
    """Blahut-Arimoto with an optional budget, from the feasible tilt of the
    uniform law.  Returns (p, iterations, dual gap, history of I(p_t))."""
    wlogw = _wlogw_rows(W)
    s, p = _budget_tilt(np.zeros(W.shape[0]), cost, alpha, 0.0)
    history = []
    gap = np.inf
    with np.errstate(divide="ignore"):  # log p is -inf off the support
        for it in range(1, max_iters + 1):
            d = wlogw - W @ np.log(np.maximum(p @ W, _TINY))
            f = float(p @ d)
            history.append(f)
            s, p_next = _budget_tilt(np.log(p) + d, cost, alpha, s)
            gap = float(np.max(d - s * cost)) + s * alpha - f if s else float(d.max()) - f
            if gap <= tol:
                return p, it, gap, history
            p = p_next
    raise ConvergenceError(
        f"Blahut-Arimoto did not reach gap {tol} in {max_iters} iterations "
        f"(last gap {gap:.3e}, cost multiplier {s:.3e})", gap=gap, iterations=max_iters)


def _duplicate_row_reps(W: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Mask of one representative, the cheapest member, of each group of
    bit-identical transition rows.

    Identical rows (windows filtering to the same intensity, or inputs the
    filter ignores) create flat optimal faces that stall the iteration.  The
    reduction is exact: moving a group's mass onto its cheapest member keeps
    the mutual information and can only lower the cost, so some optimizer of
    the original problem lives on the representatives.
    """
    groups = {}
    for x, row in enumerate(W):
        groups.setdefault(row.tobytes(), []).append(x)
    reps = np.zeros(W.shape[0], dtype=bool)
    for members in groups.values():
        reps[min(members, key=cost.__getitem__)] = True
    return reps


def ba_capacity(channel: DiscreteChannel, alpha: float | None = None,
                config: SolverConfig = SolverConfig()) -> CapacityResult:
    """Capacity (alpha=None) or capacity-cost value at average budget alpha.

    Duplicate rows are merged onto their cheapest member and a budget at the
    cheapest input cost restricts the solve to the cheapest inputs; then one
    Blahut-Arimoto loop with the cost multiplier found inside each iteration
    runs on the remaining rows.  The returned law meets the budget as
    computed (achieved_cost <= alpha), and value + gap is a certified upper
    bound on the optimum.
    """
    W, cost = channel.transition, channel.cost
    keep = np.ones(channel.n_inputs, dtype=bool)
    if alpha is not None:
        min_cost = float(np.min(cost))
        if alpha < min_cost - 1e-12:
            raise ValueError(f"alpha={alpha} below the cheapest input cost {min_cost}")
        if alpha <= min_cost + 1e-12:
            # Only the cheapest inputs are feasible and they cost the same.
            keep = cost <= min_cost + 1e-12
            alpha = None
    keep &= _duplicate_row_reps(W, cost)
    if not keep.all():
        W, cost = W[keep], cost[keep]
    p, iterations, gap, history = _blahut(W, cost, alpha, config.tol, config.max_iters)
    p_full = np.zeros(channel.n_inputs)
    p_full[keep] = p
    return CapacityResult(
        value=_mi(W, p),
        input_dist=p_full,
        achieved_cost=float(p @ cost),
        iterations=iterations,
        gap=gap,
        history=tuple(history),
    )


def capacity_cost_curve(channel: DiscreteChannel, alphas,
                        config: SolverConfig = SolverConfig()) -> list:
    """ba_capacity along an ascending list of budgets."""
    alphas = list(alphas)
    if any(b < a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be sorted ascending")
    return [ba_capacity(channel, alpha=a, config=config) for a in alphas]
