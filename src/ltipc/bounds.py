"""Capacity bound families for the filtered-Poisson channel.

Three families:

* sandwich bounds from the block channel: C_r upper, r/(k+r)*C_r lower;
* single-letter stationary bounds over the polytope of shift-consistent
  joint laws: the upper by simplicial decomposition with Blahut-Arimoto as
  its master solver, the lower by pairwise Frank-Wolfe;
* symmetrized-KL upper bounds, generic (quadratic in the input law) and in
  closed form for the Poisson and Gaussian cases.

Grid-restricted maximizations under-estimate the continuous maximum, so the
lower bounds here are valid lower bounds on capacity while the "upper"
bounds are upper bounds of the grid-restricted problem; reports label them
accordingly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    DEFAULT_ENTRY_BUDGET,
    DEFAULT_TAIL_EPS,
    BlockChannelSpec,
    ChannelSpec,
    DiscreteChannel,
    InputGrid,
    _freeze,
    build_block_channel,
)
from .errors import BudgetExceededError, ConvergenceError
from .solver import (_ROOT_STEPS, _TINY, SolverConfig, _blahut, _budget_search,
                     _check_pmf, _cheapest_inputs, _duplicate_row_reps, _log0,
                     _wlogw_rows, ba_capacity)


# No bound calls an LP solver, but perfbench/tracing.py still wraps
# `ltipc.bounds.linprog`.  The name resolves on first read, so SciPy stays
# off `import ltipc`; remove this once the tracer stops wrapping it.
def __getattr__(name):
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Block sandwich bounds


@dataclass(frozen=True)
class SandwichBound:
    """Pair (r/(k+r)*C_r, C_r) in nats per channel use."""

    r: int
    k: int
    upper: float
    lower: float
    input_dist: np.ndarray
    gap: float
    iterations: int

    def __post_init__(self):
        object.__setattr__(self, "input_dist", _freeze(self.input_dist))


def block_sandwich_bounds(bspec: BlockChannelSpec,
                          config: SolverConfig = SolverConfig()) -> SandwichBound:
    """Solve the block channel at budget alpha and normalize by r.

    The block input cost is the per-slot average intensity, so the single
    scalar alpha of the instance constrains every r the same way.
    """
    channel = build_block_channel(bspec)
    res = ba_capacity(channel, alpha=bspec.base.alpha, config=config)
    k = bspec.base.impulse.order
    r = bspec.r
    upper = res.value / r
    return SandwichBound(
        r=r, k=k, upper=upper, lower=upper * r / (k + r),
        input_dist=res.input_dist, gap=res.gap / r, iterations=res.iterations)


# ---------------------------------------------------------------------------
# Stationary single-letter bounds over the shift-consistent polytope


@dataclass(frozen=True)
class StationaryBound:
    """Single-letter stationary bounds; sides not computed are None.

    fw_gap is the raw linearization gap g.(s - p) of the returned law, with
    s the exact linear maximizer over the windows still in use: value +
    fw_gap bounds the optimum there, and only rounding makes it negative.
    The upper bound uses the whole polytope; the lower bound drops the
    windows of prefix groups that die (see _frank_wolfe).  iterations counts
    Blahut-Arimoto steps over all master solves for the upper bound (see
    _simplicial_upper), Frank-Wolfe steps for the lower.  With both sides,
    fw_gap is the larger gap and iterations the sum.
    """

    upper: float | None
    lower: float | None
    upper_dist: np.ndarray | None
    lower_dist: np.ndarray | None
    fw_gap: float
    iterations: int

    def __post_init__(self):
        for name in ("upper_dist", "lower_dist"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _freeze(getattr(self, name)))


def _group_sums(Wr: np.ndarray, p: np.ndarray):
    """Per prefix group u: A[u] = sum_v p_uv Wr[u, v] and pu[u] = sum_v p_uv."""
    P = p.reshape(Wr.shape[:2])
    return np.einsum("uv,uvy->uy", P, Wr), P.sum(axis=1)


def _cmi_value_grad(Wr: np.ndarray, wlogw_rows: np.ndarray, p: np.ndarray):
    """Conditional mutual information I(last coord; Y | prefix) and gradient.

    Wr has shape (n_prefix, m, n_out); p is flattened (n_prefix*m,).  For
    empty prefix groups the gradient uses the uniform-mixture limit, a valid
    supergradient of this concave function.  With one prefix group,
    Wr = W[None], this is I(X; Y) for the laws on W's rows.
    """
    A, pu = _group_sums(Wr, p)
    f = float(p @ wlogw_rows - np.sum(A * _log0(A)) + np.sum(pu * _log0(pu)))
    q = np.empty_like(A)
    alive = pu > 0
    q[alive] = A[alive] / pu[alive, None]
    if not np.all(alive):
        q[~alive] = Wr[~alive].mean(axis=1)
    logq = np.log(np.maximum(q, _TINY))
    grad = (wlogw_rows.reshape(Wr.shape[:2])
            - np.einsum("uvy,uy->uv", Wr, logq)).reshape(-1)
    return f, grad


def _stationarity_matrix(m: int, k: int) -> np.ndarray:
    """Rows enforce equality of the first-k and last-k marginals."""
    t, j = np.arange(m ** (k + 1)), np.arange(m ** k)[:, None]
    return (t // m == j).astype(float) - (t % m ** k == j)


# Newton steps on the budget multiplier in one lp_max call; each swaps in a
# new cycle, so this only guards against a cycle that rounding keeps
# returning.
_CYCLE_STEPS = 100


class _StationaryPolytope:
    """The feasible set of joint laws on grid^(k+1): simplex, equal shifted
    marginals, average intensity at most alpha.  cost is the single-slot
    channel's cost vector, one entry per window in build_block_channel's
    order on an m-point grid.

    A shift-consistent law is a normalized circulation on the de Bruijn
    graph B(m, k): window t is the edge from node t // m (its first k
    inputs) to node t % m^k (its last k).  So the vertices of the polytope
    without the budget are the uniform laws on simple cycles, and lp_max
    solves its linear program with a maximum-mean-cycle oracle (Karp 1978)
    inside a Lagrangian on the budget; no LP solver is involved.  It keeps
    no state: each call passes the mask of windows it may use.  Karp's two
    (V+1) x V tables on V = m^k nodes, D (float64) and pred (intp), are
    alive at once, so their bytes together must fit the byte budget of
    DEFAULT_ENTRY_BUDGET float64 entries.
    """

    def __init__(self, cost: np.ndarray, m: int, k: int, alpha: float):
        V = m ** k
        entry_bytes = np.dtype(np.float64).itemsize + np.dtype(np.intp).itemsize
        nbytes = (V + 1) * V * entry_bytes
        budget = DEFAULT_ENTRY_BUDGET * np.dtype(np.float64).itemsize
        if nbytes > budget:
            raise BudgetExceededError(
                f"the stationary bounds' cycle search needs two {V + 1} x {V} tables "
                f"(float64 and intp) at once, {nbytes} bytes, above the budget of "
                f"{budget} bytes ({m}-point grid, {k + 1} taps); lower --grid or use fewer taps",
                n_inputs=V + 1, n_outputs=V, budget=DEFAULT_ENTRY_BUDGET)
        self.cost = cost
        self.n = cost.size
        self.m, self.n_nodes = m, V
        self.alpha = alpha
        # Edge t = a*m^k + v enters node v; _src[a, v] is the node it leaves.
        self._src = (np.arange(self.n) // m).reshape(m, self.n_nodes)

    def _max_mean_cycle(self, w: np.ndarray, active: np.ndarray) -> np.ndarray:
        """Edges of an active cycle of maximum mean weight w (Karp 1978).

        D_i(v), the heaviest i-edge walk ending at v, takes one max over
        v's m in-edges per level; the best mean is
        max_v min_{j<V} (D_V(v) - D_j(v)) / (V - j) on V nodes, and the
        V-edge walk that attains D_V at the maximizing v contains a cycle
        of that mean, read off at its first repeated node.
        """
        m, V = self.m, self.n_nodes
        weights = np.where(active, w, -np.inf).reshape(m, V)
        D = np.zeros((V + 1, V))
        pred = np.empty((V + 1, V), dtype=np.intp)
        cols = np.arange(V)
        for i in range(1, V + 1):
            cand = D[i - 1][self._src] + weights
            pred[i] = cand.argmax(axis=0)
            D[i] = cand[pred[i], cols]
        with np.errstate(invalid="ignore"):
            means = (D[V] - D[:V]) / (V - np.arange(V))[:, None]
        # nan is -inf - (-inf): no V-edge walk ends at v, so v has no cycle.
        means = np.where(np.isnan(means), -np.inf, means).min(axis=0)
        v = int(means.argmax())
        if means[v] == -np.inf:
            raise RuntimeError("LP step failed: no active window lies on a cycle")
        # Walk back from level V; V + 1 nodes on V repeat before level 0.
        level, edges, i = {}, [], V
        while v not in level:
            level[v] = i
            t = int(pred[i, v]) * V + v
            edges.append(t)
            v, i = t // m, i - 1
        return np.array(edges[V - level[v]:])

    def lp_max(self, g: np.ndarray, active: np.ndarray):
        """(key, law): a vertex maximizing g.p over the polytope's laws on
        the active windows, and an exact name for it, a cycle's sorted edges
        or the pair of the two cycles' keys for a budget mixture.  The same
        key always comes with the same law, bit for bit.

        With cycle means g(C) and c(C), the maximum is
        min_{mu >= 0} max_C [g(C) - mu c(C)] + mu alpha.  If the best cycle
        at mu = 0 fits the budget it is the answer.  Otherwise it and the
        cheapest cycle bracket the budget, and each Newton (Dinkelbach)
        step moves mu to where the two ends' lines meet and swaps in the
        oracle's cycle on its side of alpha, until no cycle rises above
        the lines.  The answer is the mixture of the two ends that spends
        exactly alpha.  Finitely many cycles make this finite.
        """
        def cycle(w):
            C = np.sort(self._max_mean_cycle(w, active))
            return C, float(g[C].mean()), float(self.cost[C].mean())

        def law(C):
            p = np.zeros(self.n)
            p[C] = 1.0 / C.size
            return p

        hi = cycle(g)
        if hi[2] <= self.alpha:
            return tuple(hi[0].tolist()), law(hi[0])
        lo = cycle(-self.cost)
        if lo[2] > self.alpha:
            raise RuntimeError("LP step failed: no active cycle fits the budget")
        for _ in range(_CYCLE_STEPS):
            mu = max((hi[1] - lo[1]) / (hi[2] - lo[2]), 0.0)
            line = lo[1] - mu * lo[2]
            w = g - mu * self.cost
            new = cycle(w)
            # A cycle within rounding of the lines is no better than its ends.
            tol = 1e-14 * (1.0 + float(np.abs(w[active]).max()))
            if new[1] - mu * new[2] <= line + tol:
                theta = (self.alpha - lo[2]) / (hi[2] - lo[2])
                key = (tuple(hi[0].tolist()), tuple(lo[0].tolist()))
                return key, theta * law(hi[0]) + (1.0 - theta) * law(lo[0])
            if new[2] > self.alpha:
                hi = new
            else:
                lo = new
        raise RuntimeError(f"LP step failed: no budget multiplier in {_CYCLE_STEPS} steps")

    def interior_start(self) -> np.ndarray:
        """Feasible point of full support: the uniform law, blended toward
        tuple 0 until the cost constraint has slack.

        Tuple 0 is the all-zero window: stationary, and of cost 0 <= alpha,
        so the blend stays in the polytope."""
        p = np.full(self.n, 1.0 / self.n)
        c = float(self.cost @ p)
        if c <= 0.95 * self.alpha:
            return p
        theta = 0.95 * self.alpha / c
        p *= theta
        p[0] += 1.0 - theta
        return p


def _line_search(Wr, wlogw_rows, p0, p1):
    """argmax over t in [0, 1] of _cmi_value_grad's objective at
    (1 - t) p0 + t p1, a concave function of t.

    The group sums A and pu are affine in t, so with d = p1 - p0,
    phi'(t) = d.w - sum dA log A(t) + sum dpu log pu(t) and
    phi''(t) = -sum dA^2/A(t) + sum dpu^2/pu(t) cost O(n_prefix*|Y|) once
    the sums at both ends are known.  Newton steps on the non-increasing phi'
    are kept inside the bracket [lo, hi] (bisection otherwise), as in
    solver._budget_search.
    """
    (A0, pu0), (A1, pu1) = _group_sums(Wr, p0), _group_sums(Wr, p1)
    dA, dpu = A1 - A0, pu1 - pu0
    slope0 = float((p1 - p0) @ wlogw_rows)

    def derivs(t):
        # phi' = d.w - sum dA log q with q = A/pu, finite where pu is 0.
        A, pu = (1.0 - t) * A0 + t * A1, (1.0 - t) * pu0 + t * pu1
        logq = np.log(np.maximum(A / np.maximum(pu, _TINY)[:, None], _TINY))
        live = pu > 0
        curv = (np.sum(dpu[live] ** 2 / pu[live])
                - np.sum(dA[live] ** 2 / np.maximum(A[live], _TINY)))
        return slope0 - float(np.sum(dA * logq)), curv

    if derivs(1.0)[0] >= 0:
        return 1.0
    lo, hi, t = 0.0, 1.0, 0.0
    for _ in range(_ROOT_STEPS):
        slope, curv = derivs(t)
        lo, hi = (t, hi) if slope > 0 else (lo, t)
        nxt = t - slope / curv if curv < 0 else np.nan
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - t) <= 4e-16:
            break
        t = nxt
    return t


# The lower bound's objective is not differentiable where a prefix group
# loses all mass, and its maximizer often kills whole grid values.  On the
# full support such a run makes no progress while its gap stays high: taps
# (0.7, 0.3), lambda0 5, amax 40, alpha 15, grid 5 is still at gap 6.4e-4
# after 10,000 iterations.  So _frank_wolfe drops a group once its mass is
# at most _GROUP_KILL_THRESHOLD; on the smaller polytope the objective is
# smooth.
_GROUP_KILL_THRESHOLD = 1e-9


def _frank_wolfe(Wr, wlogw_rows, polytope: _StationaryPolytope,
                 config: SolverConfig):
    """Maximize _cmi_value_grad's objective over the polytope by pairwise
    Frank-Wolfe (Lacoste-Julien & Jaggi 2015) with exact line search.

    The iterate is a convex combination of vertices, a map from
    polytope.lp_max's exact keys to (vertex, weight), starting from the
    feasible interior point as a single pseudo-vertex under the key None.
    Each step moves weight from the active vertex worst for the gradient g
    to the exact linear maximizer s = polytope.lp_max(g, active), so only
    those two weights change.  While the gap exceeds config.tol,
    g.s > g.p >= g.v_away, so s is not the away vertex.

    The window mask active starts full, and every iteration first narrows
    it: windows that start or end in a prefix group of mass at most
    _GROUP_KILL_THRESHOLD leave it, the vertices that use them are dropped
    and the rest reweighted to sum to 1.  Each kept vertex is a feasible
    cycle-oracle vertex, so every iterate stays shift-consistent and within
    budget.

    The linearization gap g.(s - p) certifies f* <= f + gap over the support
    that is left.  Returns (p, f, gap, iterations) once the gap is at most
    config.tol; raises ConvergenceError at config.max_iters.
    """
    n_prefix, m = Wr.shape[:2]
    windows = np.arange(polytope.n)
    prefix, suffix = windows // m, windows % n_prefix
    p = polytope.interior_start()
    vertices = {None: (p, 1.0)}
    active = np.ones(polytope.n, dtype=bool)
    for it in range(1, config.max_iters + 1):
        dead = np.bincount(prefix, weights=p, minlength=n_prefix) <= _GROUP_KILL_THRESHOLD
        narrowed = active & ~(dead[prefix] | dead[suffix])
        if narrowed.sum() < active.sum():
            # Under a budget near 0 the interior start already has groups
            # below the threshold, and it is the only vertex; the mask then
            # waits until some vertex avoids the dead groups.
            kept = {key: vw for key, vw in vertices.items() if not vw[0][~narrowed].any()}
            if kept:
                total = sum(w for _, w in kept.values())
                vertices = {key: (v, w / total) for key, (v, w) in kept.items()}
                p = sum(w * v for v, w in vertices.values())
                active = narrowed
        f, g = _cmi_value_grad(Wr, wlogw_rows, p)
        key, s = polytope.lp_max(g, active)
        gap = float(g @ (s - p))
        if gap <= config.tol:
            return p, f, gap, it
        away = min(vertices, key=lambda k: float(g @ vertices[k][0]))
        v_away, w_away = vertices.pop(away)
        w_s = vertices.pop(key, (s, 0.0))[1]
        # The far end is a sum of vertices, so coordinates that the step
        # empties are exactly zero there; p + w_away (s - v_away) would leave
        # rounding noise, and with it a noisy q = A/pu in emptied groups.
        rest = sum((w * v for v, w in vertices.values()), np.zeros_like(p))
        t = _line_search(Wr, wlogw_rows, p, rest + (w_s + w_away) * s)
        # Drop step: the slope at t = 0 is at least w_away * gap > 0 in exact
        # arithmetic, so t = 0 comes from rounding, and repeating the step
        # would spin until max_iters.  Move all of v_away's weight instead.
        if t == 0.0:
            t = 1.0
        for k, v, w in ((away, v_away, (1.0 - t) * w_away), (key, s, w_s + t * w_away)):
            if w > 0:
                vertices[k] = (v, w)
        p = sum(w * v for v, w in vertices.values())
    raise ConvergenceError(
        f"Frank-Wolfe did not reach gap {config.tol} in {config.max_iters} "
        f"iterations (last gap {gap:.3e})", gap=gap, iterations=config.max_iters)


def _simplicial_upper(W, wlogw_rows, polytope: _StationaryPolytope,
                      config: SolverConfig):
    """Maximize I(p) = p.wlogw_rows - H(pW) over the polytope by fully
    corrective simplicial decomposition (Holloway 1974; Lacoste-Julien &
    Jaggi 2015).  The atoms, rows of V, are uniform laws on cycles, first
    the cheapest and the best for wlogw_rows.  On p = lam.V the objective is
    lam.(V wlogw_rows) - H(lam VW), so _blahut solves the master over lam
    with costs V cost.  polytope.lp_max prices g over the whole polytope and
    both cycles of its vertex join the atoms, until g.(s - p) <= config.tol.
    Returns (p, I(p), gap, master iterations in all); raises
    ConvergenceError after config.max_iters masters or when no cycle joins.
    """
    every = np.ones(polytope.n, dtype=bool)
    cycles = {}  # insertion-ordered set of cycles, each its sorted edges

    def add(key):  # how many of key's cycles are new
        new = [C for C in (key if isinstance(key[0], tuple) else (key,)) if C not in cycles]
        cycles.update(dict.fromkeys(new))
        return len(new)

    add(polytope.lp_max(-polytope.cost, every)[0])
    add(polytope.lp_max(wlogw_rows, every)[0])
    iterations, gap = 0, np.inf
    for _ in range(config.max_iters):
        V = np.zeros((len(cycles), polytope.n))
        for j, C in enumerate(cycles):
            V[j, list(C)] = 1.0 / len(C)
        O, cost = V @ W, V @ polytope.cost
        keep, alpha = _cheapest_inputs(cost, polytope.alpha)
        keep &= _duplicate_row_reps(O, cost)
        lam, its, _, _ = _blahut(O[keep], cost[keep], alpha, config.tol, config.max_iters,
                                 wlogw=V[keep] @ wlogw_rows)
        iterations += its
        p = lam @ V[keep]
        f, g = _cmi_value_grad(W[None], wlogw_rows, p)
        key, s = polytope.lp_max(g, every)
        gap = float(g @ (s - p))
        if gap <= config.tol:
            return p, f, gap, iterations
        if not add(key):
            break
    raise ConvergenceError(
        f"simplicial decomposition did not reach gap {config.tol} "
        f"(last gap {gap:.3e}, {len(cycles)} cycles)", gap=gap, iterations=iterations)


def _single_slot_channel(spec: ChannelSpec, grid: InputGrid,
                         tail_eps: float) -> DiscreteChannel:
    return build_block_channel(BlockChannelSpec(spec, grid, r=1, tail_eps=tail_eps))


def _stationary(spec: ChannelSpec, grid: InputGrid, config: SolverConfig,
                tail_eps: float, sides: tuple) -> StationaryBound:
    """Solve each of sides on one build of the single-slot channel and
    polytope: _simplicial_upper for the upper bound, _frank_wolfe with the
    rows split by their k previous inputs for the lower.  A ConvergenceError
    names the bound."""
    ch = _single_slot_channel(spec, grid, tail_eps)
    k, m = spec.impulse.order, len(grid.points)
    W = ch.transition
    wlogw_rows = _wlogw_rows(W)
    poly = _StationaryPolytope(ch.cost, m, k, spec.alpha)
    runs = {}
    for side in sides:
        try:
            runs[side] = (_simplicial_upper(W, wlogw_rows, poly, config) if side == "upper"
                          else _frank_wolfe(W.reshape(m ** k, m, W.shape[1]),
                                            wlogw_rows, poly, config))
        except ConvergenceError as e:
            raise ConvergenceError(f"stationary {side} bound: {e}", gap=e.gap,
                                   iterations=e.iterations) from e
    up, lo = (runs.get(side, (None, None)) for side in ("upper", "lower"))
    return StationaryBound(
        upper=up[1], lower=lo[1], upper_dist=up[0], lower_dist=lo[0],
        fw_gap=max(run[2] for run in runs.values()),
        iterations=sum(run[3] for run in runs.values()))


def stationary_upper_bound(spec: ChannelSpec, grid: InputGrid,
                           config: SolverConfig = SolverConfig(),
                           tail_eps: float = DEFAULT_TAIL_EPS) -> StationaryBound:
    """max I(all k+1 inputs; current output) over shift-consistent joint laws
    with average intensity at most alpha, to a gap of config.tol over the
    whole polytope (see _simplicial_upper)."""
    return _stationary(spec, grid, config, tail_eps, ("upper",))


def stationary_lower_bound(spec: ChannelSpec, grid: InputGrid,
                           config: SolverConfig = SolverConfig(),
                           tail_eps: float = DEFAULT_TAIL_EPS) -> StationaryBound:
    """max I(current input; current output | k previous inputs) over the same
    polytope; any feasible law here yields a valid lower bound on capacity.

    Frank-Wolfe drops the prefix groups that die as it goes (see
    _frank_wolfe), so the reported law is shift-consistent and within
    budget, and fw_gap certifies optimality over the support that is left.
    """
    return _stationary(spec, grid, config, tail_eps, ("lower",))


def stationary_bounds(spec: ChannelSpec, grid: InputGrid,
                      config: SolverConfig = SolverConfig(),
                      tail_eps: float = DEFAULT_TAIL_EPS) -> StationaryBound:
    """Both stationary bounds on one instance, from one channel and polytope."""
    return _stationary(spec, grid, config, tail_eps, ("upper", "lower"))


# ---------------------------------------------------------------------------
# Symmetrized KL divergence bounds


@dataclass(frozen=True)
class SymKLResult:
    """Best found value of the symmetrized-KL functional and its input law."""

    value: float
    support: tuple
    masses: tuple
    n_starts: int


def _sym_kl_matrix(W: np.ndarray) -> np.ndarray:
    """D[x, x'] = D(W_x || W_x') + D(W_x' || W_x), the symmetrized KL
    divergence between two rows; inf where the rows have different supports.

    The byte budget, DEFAULT_ENTRY_BUDGET float64 entries, is checked before
    any n x n array is built, for the most such arrays alive at once here or
    in sym_kl_max: four float64 arrays, D, P, P @ D and P @ D @ P, at its
    step computation.
    """
    n = W.shape[0]
    itemsize = np.dtype(np.float64).itemsize
    nbytes, budget = 4 * n * n * itemsize, DEFAULT_ENTRY_BUDGET * itemsize
    if nbytes > budget:
        raise BudgetExceededError(
            f"the sym-KL matrix and its step need four {n} x {n} float64 arrays at once, "
            f"{nbytes} bytes, above the budget of {budget} bytes ({n} inputs); "
            f"lower --grid or use fewer taps",
            n_inputs=n, n_outputs=n, budget=DEFAULT_ENTRY_BUDGET)
    G = _log0(W) @ W.T  # G[x, x'] = sum_y W[x', y] log W[x, y]
    d = np.diag(G).copy()
    D = d[:, None] + d[None, :]
    D -= G
    D -= G.T
    del G
    support_id = np.unique(W > 0, axis=0, return_inverse=True)[1].ravel()
    D[support_id[:, None] != support_id[None, :]] = np.inf
    return D


def sym_kl_generic(channel: DiscreteChannel, input_dist) -> float:
    """Symmetrized KL divergence between the joint law and the product of its
    marginals: F(p) = (1/2) p'Dp with D the row-pair matrix of _sym_kl_matrix.

    Returns math.inf when two inputs of positive mass have rows with
    different supports (the reverse KL diverges).
    """
    p = _check_pmf(input_dist, channel.n_inputs)
    live = p > 0
    return float(0.5 * p[live] @ _sym_kl_matrix(channel.transition[live]) @ p[live])


def sym_kl_reference_bound(channel: DiscreteChannel, input_dist, ref_out) -> float:
    """Symmetrized-KL functional at the pair (joint, p(x) r(y)) for an
    arbitrary reference output law r(y); with r equal to the true output
    marginal this is sym_kl_generic.  Any valid r yields an upper bound on
    mutual information."""
    p = _check_pmf(input_dist, channel.n_inputs)
    r = _check_pmf(ref_out, channel.n_outputs, "reference output law")
    W = channel.transition
    live = p > 0
    if np.any((W[live] > 0) & (r[None, :] == 0)) or np.any((W[live] == 0) & (r[None, :] > 0)):
        return math.inf
    logW = _log0(W)
    logr = _log0(r)
    fwd = (W * (logW - logr[None, :])).sum(axis=1)       # D(W(.|x) || r)
    rev = (r[None, :] * (logr[None, :] - logW)).sum(axis=1)  # D(r || W(.|x))
    return float(p @ (fwd + rev))


def _project_simplex(v: np.ndarray, cost: np.ndarray, mu: float) -> np.ndarray:
    """Euclidean projection of v − mu·c onto the probability simplex."""
    if mu:
        v = v - mu * cost
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = np.max(np.where(u - css / idx > 0, idx, 0))
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _project_feasible(v: np.ndarray, cost: np.ndarray, alpha) -> np.ndarray:
    """Euclidean projection onto the simplex intersected with cost.p <= alpha
    (alpha >= min cost): the simplex projection p(mu) of v − mu·c at the
    smallest mu >= 0 that meets the budget, found by solver._budget_search.
    """
    return _budget_search(_project_simplex, _projection_slope, v, cost, alpha)[1]


def _projection_slope(p: np.ndarray, cost: np.ndarray, m: float) -> float:
    """On a fixed support S the cost of the projection of v − mu·c is linear
    in mu with slope −|S|·Var_S(c)."""
    c_s = cost[p > 0]
    return c_s.size * float(np.var(c_s))


_SYMKL_RANDOM_STARTS = 16


def _best_pair(D: np.ndarray, cost: np.ndarray, budget: float) -> tuple:
    """The best budgeted law on at most two inputs, (i, j, t, F): mass t on
    input i, 1 − t on j.  It holds at most three n x n float64 arrays at once,
    D included, and none of them outlives the call."""
    # Mass t on the costlier input i of a pair, 1 − t on j: F = t(1 − t)·D_ij
    # peaks at t = 1/2 unless the budget caps t.  The diagonal (D_ii = 0)
    # stands for the single inputs; t = −1 marks infeasible pairs.
    dc = cost[:, None] - cost[None, :]
    slack = budget - cost[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = slack / dc
    t[~(dc > 0)] = np.inf
    np.minimum(0.5, t, out=t)
    t[(dc < 0) | (slack < 0)] = -1.0
    del dc
    # A row can share its support with at most one row of a mismatched pair,
    # so F = inf is reached, if at all, on a pair with the cheapest input k,
    # where the budget leaves t > 0.
    k = int(np.argmin(cost))
    mismatched = np.flatnonzero(np.isinf(D[k]))
    if mismatched.size:
        return mismatched[0], k, float(t[mismatched[0], k]), math.inf
    pair_val = 1.0 - t
    pair_val *= t
    pair_val *= D
    pair_val[t < 0] = -np.inf
    i, j = np.unravel_index(np.argmax(pair_val), pair_val.shape)
    return i, j, float(t[i, j]), float(pair_val[i, j])


def sym_kl_max(channel: DiscreteChannel, alpha: float | None = None,
               config: SolverConfig = SolverConfig(), seed: int = 0) -> SymKLResult:
    """Maximize the symmetrized-KL functional F(p) = (1/2) p'Dp over budgeted
    input laws, with D from _sym_kl_matrix.

    A budget at the cheapest input cost keeps only the cheapest inputs.  Exact
    search over one- and two-point laws (on a pair, F = t(1 − t)·D_ij) comes
    first; F is infinite once two rows with different supports both carry
    mass, and the result is then such a two-point law within the budget.
    Otherwise projected gradient ascent follows, from 2 + _SYMKL_RANDOM_STARTS
    starts, the random ones drawn from seed, each until a step no longer
    raises F or for at most config.max_iters steps; config.tol is not read.
    The result is the best law found; global optimality is only guaranteed
    when two-point supports suffice.
    """
    keep, alpha = _cheapest_inputs(channel.cost, alpha)
    idx = np.flatnonzero(keep)
    budget = math.inf if alpha is None else alpha
    cost = channel.cost[idx]
    n = idx.size
    D = _sym_kl_matrix(channel.transition[idx])

    def result(value, p, n_run):
        keep = np.flatnonzero(p > 1e-12)
        return SymKLResult(
            value=value, support=tuple(channel.input_labels[idx[x]] for x in keep),
            masses=tuple(p[keep] / p[keep].sum()), n_starts=n_run)

    i, j, t, pair_best = _best_pair(D, cost, budget)
    two_point = np.bincount([i, j], weights=[t, 1.0 - t], minlength=n)
    if math.isinf(pair_best):
        return result(pair_best, two_point, 0)

    # Gradient D·p.  Step 1/||PDP||, the curvature on the simplex's tangent
    # space, with P = I − 11'/n the centring matrix: such a step never lowers
    # F in exact arithmetic, so the first step that does not raise it marks
    # the float-level fixed point.
    P = np.eye(n) - 1.0 / n
    step = 1.0 / max(float(np.linalg.norm(P @ D @ P, 2)), 1e-12)
    rng = np.random.default_rng(seed)
    starts = [np.full(n, 1.0 / n), two_point]
    starts += [rng.dirichlet(np.ones(n)) for _ in range(_SYMKL_RANDOM_STARTS)]
    best_val, best_p = -np.inf, None
    for p in starts:
        p = _project_feasible(p, cost, budget)
        grad = D @ p
        val = 0.5 * float(p @ grad)
        for _ in range(config.max_iters):
            p_next = _project_feasible(p + step * grad, cost, budget)
            grad_next = D @ p_next
            val_next = 0.5 * float(p_next @ grad_next)
            if not val_next > val:
                break
            p, grad, val = p_next, grad_next, val_next
        if val > best_val:
            best_val, best_p = val, p

    # Prefer the exact two-point law unless gradient ascent is strictly better.
    if best_val > pair_best + 1e-10:
        return result(best_val, best_p, len(starts))
    return result(pair_best, two_point, len(starts))


def poisson_sym_bound_closed_form(amax: float, alpha: float, lambda0: float) -> float:
    """Closed-form maximum of the symmetrized-KL bound for the memoryless
    Poisson channel with peak amax and average budget alpha, in nats.

    The maximizing law puts mass alpha/amax at amax (rest at zero) while
    alpha < amax/2, after which the bound saturates at (amax/4) log(amax/
    lambda0 + 1).  Requires lambda0 > 0; the bound diverges as lambda0 -> 0.
    """
    if not (np.isfinite(amax) and amax > 0):
        raise ValueError("amax must be positive")
    if not (0 <= alpha <= amax):
        raise ValueError("alpha must lie in [0, amax]")
    if not (np.isfinite(lambda0) and lambda0 > 0):
        raise ValueError("lambda0 must be positive (the bound diverges at 0)")
    span = math.log(amax / lambda0 + 1.0)
    if alpha < amax / 2:
        return (alpha / amax) * (amax - alpha) * span
    return (amax / 4.0) * span


def _support_law(support, masses):
    """A finite 1-D support and its masses, checked to be a pmf of the same
    length."""
    x = np.asarray(support, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("support must be 1-D")
    if not np.all(np.isfinite(x)):
        raise ValueError("support has non-finite entries")
    return x, _check_pmf(masses, x.size, "masses")


def cov_bound_poisson(support, masses, lambda0: float) -> float:
    """Symmetrized-KL bound of a given input law on the memoryless Poisson
    channel: Cov(X + lambda0, log(X + lambda0))."""
    x, p = _support_law(support, masses)
    if np.any(x < 0):
        raise ValueError("support must be nonnegative")
    if not (np.isfinite(lambda0) and lambda0 > 0):
        raise ValueError("lambda0 must be positive")
    shifted = x + lambda0
    logs = np.log(shifted)
    return float(p @ (shifted * logs) - (p @ shifted) * (p @ logs))


def gaussian_sym_bound(support, masses, sigma: float, mu: float = 0.0) -> float:
    """Symmetrized-KL bound for the additive Gaussian channel: Var(X)/sigma^2,
    independent of the noise mean."""
    x, p = _support_law(support, masses)
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be positive")
    mean = float(p @ x)
    var = float(p @ (x - mean) ** 2)
    return var / (sigma * sigma)
