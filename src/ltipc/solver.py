"""Blahut-Arimoto capacity and capacity-cost solver for finite channels.

All information quantities are in nats.  One loop serves both problems.
Each iteration computes the row divergences D_x = D(W_x || pW) and moves to

    p' ∝ p·exp(D − s·c),

where s ≥ 0 is the smallest multiplier whose update meets the budget
E_{p'}[c] ≤ alpha: s = 0 without a budget (alpha = inf) or when it is slack,
otherwise a safeguarded Newton root warm-started from the previous s.  That
root comes from _multiplier, the package's one budget-multiplier search,
which also projects the sym-KL ascent's laws onto the budget
(bounds._project_feasible).  This is Blahut's
capacity-cost iteration (Blahut 1972; Arimoto 1972).  It is an alternating
maximization, so every iterate meets the budget and I(p_t) never decreases.

The loop stops on the dual gap

    max_x (D_x − s·c_x) + s·alpha − I(p),

whose first two terms bound the optimum from above for any p and any s ≥ 0,
so ``value + gap`` certifies the grid capacity-cost value.

When the optimal law gives some inputs weight 0, that gap decays only like
O(1/t).  So at iterations 8, 16, 32, ... the loop hands its law to a
Newton polish: an active-set Newton solve of the KKT system

    D_x(p) − s·c_x = ν on the support,  Σp = 1,  c·p = alpha (budget row),

whose Jacobian is −H with H = W_S·diag(1/q)·W_Sᵀ, bordered by the
constraint rows; each step's right-hand side closes them.  The polish starts
from BA's law, renormalized, on the inputs that BA's next update, to first
order, does not shrink (score D_x − s·c_x at least the mean score) and the
cheapest input.  The budget row is in from the start when s > 0, and joins
when a law with gap at most tol breaks the budget.  A step that would make
a weight negative stops at the boundary and drops that input, and the next
step reuses its H on the smaller support.  After a full step the
constraints hold, and the gap splits into the support's part and the
outside inputs' excess over it; once the outside part is the larger, the
outside input with the largest D_x − s·c_x enters.  The polished law is
kept only if s ≥ 0, its gap is at most tol, I(p) is no lower than BA's last
value, and it meets the budget as computed.  Otherwise BA goes on from its
own iterate: its update cannot revive an input the polish zeroed.

Both see the channel only through p ↦ pW, v ↦ Wv, that Gram and the row
terms Σ_y W log W, all from ``_SlotFactors``: a block channel's slot
factors, without its matrix, or a matrix as the one-slot case.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import DiscreteChannel, _freeze
from .errors import ConvergenceError

_TINY = 1e-300  # floor for logarithms; relative BA weights below it become zero
_COST_WINDOW = 1e-14  # width of the accepted budget window, relative to max |cost|
_ROOT_STEPS = 200  # multiplier-search steps; doubling alone reaches s = 2**199
_FIRST_POLISH = 8  # BA iteration of the first Newton polish; then every doubling
_NEWTON_STEPS = 20  # polish steps beyond one ratio-test drop per input
_ROW_BLOCK = 1 << 16  # entries of W that _wlogw_rows holds a temporary for


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
    """sum_y W_xy log W_xy for every row x, with 0 log 0 = 0: 0 * log(_TINY)
    is 0, so no mask is needed.  Rows go in blocks of about _ROW_BLOCK
    entries through one temporary; each row is summed on its own, as one
    pass over W would sum it."""
    rows = max(1, _ROW_BLOCK // max(W.shape[1], 1))
    out = np.empty(W.shape[0])
    t = np.empty((min(rows, W.shape[0]), W.shape[1]))
    for i in range(0, W.shape[0], rows):
        w = W[i: i + rows]
        b = t[: w.shape[0]]
        np.maximum(w, _TINY, out=b)
        np.log(b, out=b)
        b *= w
        b.sum(axis=1, out=out[i: i + rows])
    return out


def _contract(a: np.ndarray, m: np.ndarray, r: int) -> np.ndarray:
    """Contract the flat array a over its r axes, each of length m.shape[0],
    with m, one matrix product per axis.  Each product moves its new axis to
    the back, so after r of them the new axes are in their original order;
    r = 1 is the plain product a @ m."""
    if r == 1:
        return a @ m
    for _ in range(r):
        a = a.reshape(m.shape[0], -1).T @ m
    return a


class _SlotFactors:
    """A channel seen through the four operations _blahut and _kkt_polish
    use: p -> pW, v -> Wv, the support Gram W_S diag(1/q) W_Sᵀ and the row
    terms sum_y W log W.

    Row x is the np.kron of table[index[x, s]] over its r slots.  A block
    channel comes from its factors (channel._block_factors), the table's Λ
    distinct slot pmfs; a matrix is the one-slot case (rows).  The n x
    (ymax+1)^r matrix is never built: pW scatters p onto the Λ^r grid of
    slot-index tuples and contracts one slot axis at a time with the table;
    Wv contracts v with the table's transpose and reads the grid at each
    input's tuple; a row's sum W log W is the sum of its slots' terms.

    For r >= 2 the Gram walks the tree of the support's slot-index
    prefixes.  A node a_1..a_j holds 1/q contracted over its first j slot
    axes with the pair tables T[a_t]·T[u] for every u, one GEMM per node;
    the last slot is done for all of a node's children at once, read at the
    support's own tuples.  The walk holds one node per depth, at most Λ^j
    (ymax+1)^(r-j) entries each, and no W row.
    """

    def __init__(self, table: np.ndarray, index: np.ndarray):
        self.table, self.index = table, index
        self.n, self.r = index.shape
        self.flat = np.ravel_multi_index(index.T, (table.shape[0],) * self.r)

    @classmethod
    def rows(cls, W: np.ndarray) -> "_SlotFactors":
        """The matrix W with r = 1: the table holds W's distinct rows in
        first-occurrence order, W itself when they all differ, and
        index[x, 0] is row x's place in it.  Rows are grouped by a hash of
        their bytes and compared within a group, so no copy of W is held."""
        groups, first, index = {}, [], []  # hash -> places; place -> row
        for row in W:
            places = groups.setdefault(hash(row.tobytes()), [])
            j = next((j for j in places if np.array_equal(W[first[j]], row)), None)
            if j is None:
                j = len(first)
                places.append(j)
                first.append(len(index))
            index.append(j)
        if len(first) < len(W):
            W = W[first]
        return cls(W, np.array(index)[:, None])

    def take(self, keep: np.ndarray) -> "_SlotFactors":
        return _SlotFactors(self.table, self.index[keep])

    def reps(self, cost: np.ndarray) -> np.ndarray:
        """Mask of one representative, the cheapest member, of each group
        of equal rows; lexsort is stable, so a cost tie keeps the lowest
        input.  Inputs with equal slot indices have equal rows, and the
        table's rows differ: distinct intensities give distinct pmfs, and
        rows() keeps one copy of each row.

        Identical rows (windows filtering to the same intensity, or inputs
        the filter ignores) create flat optimal faces that stall the
        iteration, and make the Newton polish's H singular.  The reduction
        is exact: moving a group's mass onto its cheapest member keeps the
        mutual information and can only lower the cost, so some optimizer
        of the original problem lives on the representatives.
        """
        order = np.lexsort((cost, self.flat))
        first = np.unique(self.flat[order], return_index=True)[1]
        reps = np.zeros(self.n, dtype=bool)
        reps[order[first]] = True
        return reps

    def wlogw(self) -> np.ndarray:
        return _wlogw_rows(self.table)[self.index].sum(axis=1)

    def pW(self, p: np.ndarray) -> np.ndarray:
        grid = np.bincount(self.flat, weights=p, minlength=self.table.shape[0] ** self.r)
        return _contract(grid, self.table, self.r).ravel()

    def Wv(self, v: np.ndarray) -> np.ndarray:
        return _contract(v, self.table.T, self.r).ravel()[self.flat]

    def gram(self, on: np.ndarray, q: np.ndarray) -> np.ndarray:
        if self.r == 1:  # H = X Xᵀ with X = W_S / √q, a copy no larger than W
            X = self.table[self.flat[on]]
            X /= np.sqrt(q)
            return X @ X.T
        T, (n_slot, n_out) = self.table, self.table.shape
        index, flat = self.index[on], self.flat[on]
        H = np.empty((flat.size, flat.size))
        head = flat // n_slot  # each support row's first r − 1 slot indices, raveled
        last = T[index[:, -1]]

        def walk(G, depth, rows):
            """G holds Σ over y_1..y_depth of Π T[a_t, y_t] T[u_t, y_t] / q
            for the rows' common prefix a_1..a_depth, with axes
            (y_depth+1, ..., y_r, u_1, ..., u_depth)."""
            G = G.reshape(n_out, -1)
            if depth == self.r - 1:  # the last slot for all children at once
                M = G[:, head].T
                M *= last
                H[rows] = T[index[rows, -1]] @ M.T
                return
            slot = index[rows, depth]
            # One GEMM per child a, with the pair table T[a]·T[u]; bincount
            # lists the distinct slot indices without np.unique's import of
            # numpy.ma.
            for a in np.flatnonzero(np.bincount(slot)):
                walk(G.T @ (T * T[a]).T, depth + 1, rows[slot == a])

        walk(1.0 / q, 0, np.arange(flat.size))
        return H


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


def _multiplier(law, slope, cost: np.ndarray, alpha: float, t):
    """For each law, the smallest multiplier t >= 0 at which its mean cost
    m(t) is at most alpha, and its law there: (list of multipliers, array of
    laws), one per warm start in t.

    law(rows, t) evaluates the laws numbered in rows at their multipliers t,
    one row each, and slope(P) gives −m′ at each row of P; m is
    non-increasing.  A law whose m(0) meets the budget gets 0.  Otherwise
    Newton steps from its warm start aim at the middle of the window
    [alpha − w, alpha], w = _COST_WINDOW·max |c|, and are kept inside its
    bracket [lo, hi] (bisection, or doubling while no t is known to meet the
    budget), until its cost, as computed, is in the window or the bracket is
    a few ulps wide.  Brackets, steps and exit tests are Python floats, and
    the laws still searching share one law and one slope call per step, so
    one law costs what a scalar search would.  A law is returned at its hi,
    so its mean cost, as computed, is at most alpha.
    """
    P = law(range(len(t)), [0.0] * len(t))
    m = np.vecdot(P, cost).tolist()
    s = [0.0] * len(t)
    act = [i for i, x in enumerate(m) if x > alpha]
    if not act:
        return s, P
    window = _COST_WINDOW * float(np.max(np.abs(cost)))
    t = [float(t[i]) for i in act]
    lo, hi = [0.0] * len(act), [np.inf] * len(act)
    Pa = law(act, t) if any(t) else P[act]  # a start at 0 is evaluated again
    m = np.vecdot(Pa, cost).tolist()
    for _ in range(_ROOT_STEPS):
        go = []
        for j, i in enumerate(act):
            if m[j] > alpha:
                lo[j] = t[j]
            else:
                hi[j] = s[i] = t[j]
                P[i] = Pa[j]
                if m[j] >= alpha - window or hi[j] - lo[j] <= 4e-16 * hi[j]:
                    continue
            go.append(j)
        if not go:
            return s, P
        if len(go) < len(act):
            act, m, t, lo, hi = ([x[j] for j in go] for x in (act, m, t, lo, hi))
            Pa = Pa[go]
        for j, d in enumerate(slope(Pa).tolist()):
            x = t[j] + (m[j] - alpha + 0.5 * window) / d if d > 0 else np.inf
            if not lo[j] < x < hi[j]:
                x = 0.5 * (lo[j] + hi[j]) if hi[j] < np.inf else max(2.0 * lo[j], 1.0)
            t[j] = x
        Pa = law(act, t)
        m = np.vecdot(Pa, cost).tolist()
    if np.inf in hi:
        j = hi.index(np.inf)
        raise ConvergenceError(f"no cost multiplier meets the budget alpha={alpha} "
                               f"(mean cost {m[j]:.6g} at s={t[j]:.3e})", gap=np.inf, iterations=0)
    return s, P


def _cheapest_inputs(cost: np.ndarray, alpha: float | None):
    """(mask of the inputs a solve may use, the budget it must still meet),
    with inf, the solver's only "no budget", for alpha=None.

    A budget at the cheapest input cost admits only the cheapest inputs, which
    all cost the same, so the budget is dropped; one below it, or nan, is an
    error.
    """
    alpha = np.inf if alpha is None else alpha
    min_cost = float(np.min(cost))
    if not alpha >= min_cost - 1e-12:  # also rejects nan
        raise ValueError(f"alpha={alpha} is not a number at or above the "
                         f"cheapest input cost {min_cost}")
    if alpha <= min_cost + 1e-12:
        return cost <= min_cost + 1e-12, np.inf
    return np.ones(cost.size, dtype=bool), alpha


def _blahut(W, cost: np.ndarray, alpha: float,
            tol: float, max_iters: int, wlogw: np.ndarray | None = None):
    """Blahut-Arimoto at budget alpha (inf for none) on the rows W
    (_SlotFactors), from the feasible tilt of the uniform law, on the
    objective p.wlogw - H(pW), which is I(p) when wlogw is W's own.  Returns
    (p, iterations, dual gap, history of the objective)."""
    if wlogw is None:
        wlogw = W.wlogw()

    def search(a, s):  # the multiplier of a's tilt, from s, and the tilt (−m′ = Var c)
        (s,), (p,) = _multiplier(lambda _, t: _tilt(a, cost, t[0])[None],
                                 lambda P: np.vecdot(P, (cost - np.vecdot(P, cost)[:, None]) ** 2),
                                 cost, alpha, [s])
        return s, p

    s, p = search(np.zeros(W.n), 0.0)
    history = []
    gap = np.inf
    next_polish = _FIRST_POLISH
    with np.errstate(divide="ignore"):  # log p is -inf off the support
        for it in range(1, max_iters + 1):
            d = wlogw - W.Wv(np.log(np.maximum(W.pW(p), _TINY)))
            f = float(p @ d)
            history.append(f)
            s, p_next = search(np.log(p) + d, s)
            gap = float(np.max(d - s * cost)) + s * alpha - f if s else float(d.max()) - f
            if gap <= tol:
                return p, it, gap, history
            if it == next_polish and it < max_iters:
                next_polish *= 2
                polished = _kkt_polish(W, wlogw, cost, alpha, p, d, s, f, tol)
                if polished is not None:
                    p, f, gap = polished
                    history.append(f)
                    return p, it + 1, gap, history
            p = p_next
    raise ConvergenceError(
        f"Blahut-Arimoto did not reach gap {tol} in {max_iters} iterations "
        f"(last gap {gap:.3e}, cost multiplier {s:.3e})", gap=gap, iterations=max_iters)


def _kkt_polish(W, wlogw: np.ndarray, cost: np.ndarray, alpha: float,
                p: np.ndarray, d: np.ndarray, s: float, floor: float, tol: float):
    """Active-set Newton solve of the KKT system from BA's law p, its row
    divergences d and multiplier s (see the module docstring).  Returns
    (law, I(law), gap) when the law passes the acceptance test, with floor
    as BA's last I(p_t); otherwise None."""
    # The constraint rows A p = b: Σp = 1 and, while `budget` is set, c·p =
    # the middle of _multiplier's window, so the law meets the budget.
    budget = s > 0
    A = np.vstack([np.ones(cost.size), cost])
    b = np.array([1.0, alpha - 0.5 * _COST_WINDOW * float(np.max(np.abs(cost)))])
    # Start from BA's law on the inputs that its next update, to first
    # order, does not shrink (score g = d − s·c at least the mean p·g), and
    # the cheapest input at weight _TINY or more, so the budget row can hold.
    g = d - s * cost
    on = g >= p @ g
    if alpha < np.inf:
        on[np.argmin(cost)] = True
    p = np.where(on, np.maximum(p, _TINY), 0.0)
    p /= p.sum()
    dropped = full = False  # full: the last step was a full Newton step
    for _ in range(W.n + _NEWTON_STEPS):
        q = np.maximum(W.pW(p), _TINY)
        d = wlogw - W.Wv(np.log(q))
        f = float(p @ d)
        g = d - s * cost
        shift = s * alpha if budget else 0.0
        gap = float(g.max()) + shift - f
        if gap <= tol:
            if float(p @ cost) <= alpha:
                return (p, f, gap) if s >= 0 and f >= floor else None
            budget = True  # certified but over budget: the budget row joins
        # After a full step p meets the constraints, so the gap is the
        # support's part plus the outside inputs' excess over it.  Once the
        # outside part is the larger, its largest input enters.
        if full and 2.0 * (float(g[on].max()) + shift - f) <= gap:
            on[np.argmax(np.where(on, -np.inf, g))] = True
        # Building H costs |S|²·|outputs|, so after a boundary step, which
        # drops one input, the next step reuses H on the smaller support.
        H = H[np.ix_(on[idx], on[idx])] if dropped else W.gram(on, q)
        idx = np.flatnonzero(on)
        m, rows = idx.size, 1 + budget
        K = np.zeros((m + rows, m + rows))  # H bordered by the constraint rows
        K[:m, :m] = H
        K[m:, :m] = A[:rows, idx]
        K[:m, m:] = K[m:, :m].T
        rhs = np.concatenate([d[idx], b[:rows] - K[m:, :m] @ p[idx]])
        try:
            sol = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            return None
        dp = sol[:m]
        shrink = dp < 0
        ratios = -p[idx][shrink] / dp[shrink]
        t = min(1.0, float(ratios.min())) if ratios.size else 1.0
        p[idx] += t * dp
        if budget:
            s += t * (sol[-1] - s)
        dropped = t < 1.0
        full = not dropped
        if dropped:  # the ratio test stopped at the boundary: drop that input
            drop = idx[shrink][np.argmin(ratios)]
            p[drop] = 0.0
            on[drop] = False
        np.maximum(p, 0.0, out=p)
        p /= p.sum()
    return None


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
    return _capacity(_SlotFactors.rows(channel.transition), channel.cost, alpha, config)


def _capacity(W, cost: np.ndarray, alpha: float | None,
              config: SolverConfig) -> CapacityResult:
    """ba_capacity on the rows W (_SlotFactors)."""
    keep, alpha = _cheapest_inputs(cost, alpha)
    keep &= W.reps(cost)
    if not keep.all():
        W, cost = W.take(keep), cost[keep]
    p, iterations, gap, history = _blahut(W, cost, alpha, config.tol, config.max_iters)
    p_full = np.zeros(keep.size)
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
