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

When the optimal law gives some inputs weight 0, that gap decays only like
O(1/t).  So at iterations 16, 32, 64, ... the loop hands its law to a
Newton polish: an active-set Newton solve of the KKT system

    D_x(p) − s·c_x = ν on the support,  Σp = 1,  c·p = alpha (when s > 0),

whose Jacobian is −H with H = W_S·diag(1/q)·W_Sᵀ, bordered by the two
constraint rows.  A step that would make a weight negative stops at the
boundary and drops that input, and the next step reuses its H on the smaller
support; once Newton has converged on the support, the outside input with
the largest D_x − s·c_x enters.  The polished law is kept only if s ≥ 0, the
same dual gap over all inputs is at most tol, I(p) is no lower than BA's
last value, and the law meets the budget as computed.  Otherwise it is
discarded and BA goes on from its own iterate: the multiplicative update
cannot revive an input the polish zeroed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import DiscreteChannel, _freeze
from .errors import ConvergenceError

_TINY = 1e-300  # floor for logarithms; relative BA weights below it become zero
_COST_WINDOW = 1e-14  # width of the accepted budget window, relative to max |cost|
_ROOT_STEPS = 200  # multiplier-search steps; doubling alone reaches s = 2**199
_FIRST_POLISH = 16  # BA iteration of the first Newton polish; then every doubling
_NEWTON_STEPS = 20  # polish steps beyond one ratio-test drop per input


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-9             # duality-gap stopping threshold, nats
    max_iters: int = 200_000

    def __post_init__(self):
        if not self.tol > 0:  # also rejects nan
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class CapacityResult:
    """Solver output: optimal value plus diagnostics.

    gap is the final dual gap, so value + gap is an upper bound on the
    optimum.  iterations counts Blahut-Arimoto steps, plus one for the Newton
    polish when the returned law comes from it.  history holds I(p_t), one
    entry per iteration, the polished law's last; it is non-decreasing, with
    or without a budget.
    """

    value: float
    input_dist: np.ndarray
    achieved_cost: float
    iterations: int
    gap: float
    history: tuple = field(default=(), repr=False)

    def __post_init__(self):
        object.__setattr__(self, "input_dist", _freeze(self.input_dist))


def _check_pmf(values, size: int, what: str = "input distribution") -> np.ndarray:
    """values as a float pmf of length size: finite, entries >= -1e-12 (then
    clipped to 0), summing to 1 within 1e-9."""
    p = np.asarray(values, dtype=np.float64)
    if p.shape != (size,):
        raise ValueError(f"{what} has shape {p.shape}, expected ({size},)")
    if not np.all(np.isfinite(p) & (p >= -1e-12)):
        raise ValueError(f"{what} has negative or non-finite entries")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"{what} sums to {p.sum()}, expected 1")
    return np.maximum(p, 0.0)


def _log0(a: np.ndarray) -> np.ndarray:
    """log a where a > 0, and 0 where a = 0."""
    return np.where(a > 0, np.log(np.maximum(a, _TINY)), 0.0)


def _wlogw_rows(W: np.ndarray) -> np.ndarray:
    """sum_y W_xy log W_xy for every row x, with 0 log 0 = 0.  One W-sized
    temporary: 0 * log(_TINY) is 0, so no mask is needed."""
    t = np.maximum(W, _TINY)
    np.log(t, out=t)
    t *= W
    return t.sum(axis=1)


def mutual_information(channel: DiscreteChannel, input_dist) -> float:
    """Exact mutual information of the channel under the given input law,
    p.wlogw - q.log q with q = pW: the objective Blahut-Arimoto tracks."""
    W = channel.transition
    p = _check_pmf(input_dist, channel.n_inputs)
    q = p @ W
    return float(p @ _wlogw_rows(W) - q @ _log0(q))


def _tilt(a: np.ndarray, cost: np.ndarray, s: float) -> np.ndarray:
    """The law proportional to exp(a − s·c)."""
    b = a - s * cost if s else a
    w = np.exp(b - b.max())
    w[w < _TINY] = 0.0
    w /= w.sum()
    return w


def _budget_search(law, slope, a: np.ndarray, cost: np.ndarray, alpha: float | None,
                   t: float = 0.0):
    """Smallest multiplier t >= 0 whose law(a, cost, t) has mean cost
    <= alpha, and that law.

    The law's mean cost m(t) is non-increasing in t, and slope(w, cost, m)
    is −m'(t) at w = law(a, cost, t).  Newton steps from the warm start t
    aim at the middle of the window [alpha − w, alpha] and are kept inside
    the bracket [lo, hi] (bisection, or doubling while no t is known to meet
    the budget).  The returned law is the one at hi, so its mean cost, as
    computed, is at most alpha.
    """
    w = law(a, cost, 0.0)
    if alpha is None:
        return 0.0, w
    m = float(w @ cost)
    if m <= alpha:
        return 0.0, w
    window = _COST_WINDOW * float(np.max(np.abs(cost)))
    lo, hi, w_hi = 0.0, np.inf, None
    if t > 0:
        w = law(a, cost, t)
        m = float(w @ cost)
    for _ in range(_ROOT_STEPS):
        if m > alpha:
            lo = t
        else:
            hi, w_hi = t, w
            if m >= alpha - window or hi - lo <= 4e-16 * hi:
                return hi, w_hi
        d = slope(w, cost, m)
        t = t + (m - alpha + 0.5 * window) / d if d > 0 else np.inf
        if not lo < t < hi:
            t = 0.5 * (lo + hi) if np.isfinite(hi) else max(2.0 * lo, 1.0)
        w = law(a, cost, t)
        m = float(w @ cost)
    if w_hi is None:
        raise ConvergenceError(
            f"no cost multiplier meets the budget alpha={alpha} "
            f"(mean cost {m:.6g} at s={t:.3e})", gap=np.inf, iterations=0)
    return hi, w_hi


def _tilt_slope(w: np.ndarray, cost: np.ndarray, m: float) -> float:
    """−d/dt of the tilt's mean cost m: the cost variance Var_t(c)."""
    return float(w @ (cost - m) ** 2)


def _cheapest_inputs(cost: np.ndarray, alpha: float | None):
    """(mask of the inputs a solve may use, the budget it must still meet).

    A budget at the cheapest input cost admits only the cheapest inputs, which
    all cost the same, so the budget is dropped; one below it, or nan, is an
    error.
    """
    if alpha is not None:
        min_cost = float(np.min(cost))
        if not alpha >= min_cost - 1e-12:  # also rejects nan
            raise ValueError(f"alpha={alpha} is not a number at or above the "
                             f"cheapest input cost {min_cost}")
        if alpha <= min_cost + 1e-12:
            return cost <= min_cost + 1e-12, None
    return np.ones(cost.size, dtype=bool), alpha


def _blahut(W: np.ndarray, cost: np.ndarray, alpha: float | None,
            tol: float, max_iters: int, wlogw: np.ndarray | None = None):
    """Blahut-Arimoto with an optional budget, from the feasible tilt of the
    uniform law, on the objective p.wlogw - H(pW), which is I(p) when wlogw
    is W's own.  Returns (p, iterations, dual gap, history of the objective)."""
    if wlogw is None:
        wlogw = _wlogw_rows(W)
    s, p = _budget_search(_tilt, _tilt_slope, np.zeros(W.shape[0]), cost, alpha)
    history = []
    gap = np.inf
    next_polish = _FIRST_POLISH
    with np.errstate(divide="ignore"):  # log p is -inf off the support
        for it in range(1, max_iters + 1):
            d = wlogw - W @ np.log(np.maximum(p @ W, _TINY))
            f = float(p @ d)
            history.append(f)
            s, p_next = _budget_search(_tilt, _tilt_slope, np.log(p) + d, cost, alpha, s)
            gap = float(np.max(d - s * cost)) + s * alpha - f if s else float(d.max()) - f
            if gap <= tol:
                return p, it, gap, history
            if it == next_polish and it < max_iters:
                next_polish *= 2
                polished = _kkt_polish(W, wlogw, cost, alpha, p, s, f, tol)
                if polished is not None:
                    p, f, gap = polished
                    history.append(f)
                    return p, it + 1, gap, history
            p = p_next
    raise ConvergenceError(
        f"Blahut-Arimoto did not reach gap {tol} in {max_iters} iterations "
        f"(last gap {gap:.3e}, cost multiplier {s:.3e})", gap=gap, iterations=max_iters)


def _kkt_polish(W: np.ndarray, wlogw: np.ndarray, cost: np.ndarray, alpha: float | None,
                p: np.ndarray, s: float, floor: float, tol: float):
    """Active-set Newton solve of the KKT system from BA's law p and
    multiplier s (see the module docstring).  Returns (law, I(law), gap) when
    the law passes the acceptance test, with floor as BA's last I(p_t);
    otherwise None."""
    budget = s > 0
    # Right-hand sides of Σp = 1 and, with a budget, c·p = the middle of
    # _budget_search's window, so that the law meets the budget as computed.
    b = np.array([1.0, alpha - 0.5 * _COST_WINDOW * float(np.max(np.abs(cost)))]
                 if budget else [1.0])
    on = p > 0
    p = p.copy()
    dropped = False
    for _ in range(W.shape[0] + _NEWTON_STEPS):
        q = np.maximum(p @ W, _TINY)
        d = wlogw - W @ np.log(q)
        f = float(p @ d)
        g = d - s * cost
        shift = s * alpha if budget else 0.0
        gap = float(g.max()) + shift - f
        if gap <= tol:
            if s >= 0 and f >= floor and (alpha is None or float(p @ cost) <= alpha):
                return p, f, gap
            return None
        if float(g[on].max()) + shift - f <= tol:  # converged on the support
            on[np.argmax(np.where(on, -np.inf, g))] = True
            dropped = False
        # Building H costs |S|²·|outputs|, so after a boundary step, which
        # drops one input, the next step reuses H on the smaller support.
        if dropped:
            H = H[np.ix_(on[idx], on[idx])]
        else:  # H = X Xᵀ with X = W_S / √q, one W_S-sized copy at a time
            X = W[on]
            X /= np.sqrt(q)
            H = X @ X.T
            del X
        idx = np.flatnonzero(on)
        A = np.vstack([np.ones(idx.size), cost[idx]]) if budget else np.ones((1, idx.size))
        K = np.block([[H, A.T], [A, np.zeros((b.size, b.size))]])
        rhs = np.concatenate([d[idx], b - A @ p[idx]])
        try:
            sol = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            return None
        dp = sol[:idx.size]
        shrink = dp < 0
        ratios = -p[idx][shrink] / dp[shrink]
        t = min(1.0, float(ratios.min())) if ratios.size else 1.0
        p[idx] += t * dp
        if budget:
            s += t * (sol[-1] - s)
        dropped = t < 1.0
        if dropped:  # the ratio test stopped at the boundary: drop that input
            drop = idx[shrink][np.argmin(ratios)]
            p[drop] = 0.0
            on[drop] = False
        np.maximum(p, 0.0, out=p)
        p /= p.sum()
    return None


def _duplicate_row_reps(W: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Mask of one representative, the cheapest member, of each group of
    bit-identical transition rows.

    Identical rows (windows filtering to the same intensity, or inputs the
    filter ignores) create flat optimal faces that stall the iteration, and
    make the Newton polish's H singular.  The reduction is exact: moving a
    group's mass onto its cheapest member keeps the mutual information and can
    only lower the cost, so some optimizer of the original problem lives on
    the representatives.
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
    runs on the remaining rows, finished by the Newton polish when that
    certifies (see the module docstring).  The returned law meets the budget
    as computed (achieved_cost <= alpha), and value + gap is a certified
    upper bound on the optimum.
    """
    W, cost = channel.transition, channel.cost
    keep, alpha = _cheapest_inputs(cost, alpha)
    keep &= _duplicate_row_reps(W, cost)
    if not keep.all():
        W, cost = W[keep], cost[keep]
    p, iterations, gap, history = _blahut(W, cost, alpha, config.tol, config.max_iters)
    p_full = np.zeros(channel.n_inputs)
    p_full[keep] = p
    # history[-1] is I(p) of the law whose dual gap the loop tested.
    return CapacityResult(
        value=history[-1],
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
