"""Capacity bound families for the filtered-Poisson channel.

Three families:

* sandwich bounds from the block channel: C_r upper, r/(k+r)*C_r lower;
* single-letter stationary bounds over the polytope of shift-consistent
  joint laws: the upper by simplicial decomposition with Blahut-Arimoto as
  its master solver, the lower by a log-barrier Newton method; both certify
  their gap over the whole polytope;
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
    DEFAULT_TAIL_EPS,
    BlockChannelSpec,
    ChannelSpec,
    DiscreteChannel,
    InputGrid,
    _block_factors,
    _check_bytes,
    _freeze,
    _kron_rows,
    build_block_channel,
)
from .errors import ConvergenceError
from .solver import (_TINY, SolverConfig, _capacity, _check_pmf, _cheapest_inputs, _log0,
                     _multiplier, _SlotFactors, _wlogw_rows, ba_capacity)


# No bound calls build_block_channel, ba_capacity or an LP solver, but
# perfbench/tracing.py still wraps `ltipc.bounds.build_block_channel`,
# `ltipc.bounds.ba_capacity` and `ltipc.bounds.linprog`, so the three names
# stay.  linprog resolves on first read, so SciPy stays off `import ltipc`;
# remove them once the tracer stops wrapping them.
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
    scalar alpha of the instance constrains every r the same way.  The solve
    is ba_capacity's on build_block_channel(bspec), done from the channel's
    slot factors (solver._SlotFactors), so the dense matrix is not built.
    The factored products pass over the Λ^r grid of slot-index tuples, so
    the rare channel whose grid outsizes its dense matrix (many distinct
    intensities, few counts) is solved on the matrix (_SlotFactors.rows),
    within the same byte budget.
    """
    table, index, tuples = _block_factors(bspec)
    k, r = bspec.base.impulse.order, bspec.r
    n_grid, n_dense = table.shape[0] ** r, len(index) * table.shape[1] ** r
    W = (_SlotFactors(table, index) if n_grid <= n_dense
         else _SlotFactors.rows(_kron_rows(table, index)))
    res = _capacity(W, tuples.mean(axis=1), bspec.base.alpha, config)
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
    s the exact linear maximizer over the whole polytope: value + fw_gap
    bounds the optimum, and only rounding makes it negative.  iterations
    counts master Blahut-Arimoto steps for the upper bound (_simplicial_upper)
    and Newton steps for the lower (_barrier_lower).  With both sides, fw_gap
    is the larger gap and iterations the sum.
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

    Wr has shape (n_prefix, m, n_out); p is flattened (n_prefix*m,), with
    mass in every prefix group.  With one prefix group, Wr = W[None], this
    is I(X; Y) for the laws on W's rows.
    """
    A, pu = _group_sums(Wr, p)
    f = float(p @ wlogw_rows - np.sum(A * _log0(A)) + np.sum(pu * _log0(pu)))
    logq = np.log(np.maximum(A / pu[:, None], _TINY))
    grad = (wlogw_rows.reshape(Wr.shape[:2])
            - np.einsum("uvy,uy->uv", Wr, logq)).reshape(-1)
    return f, grad


def _cmi_hessian(Wr: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The Hessian of _cmi_value_grad's objective, block-diagonal over
    prefix groups: block u, shape (m, m), is -(W_u diag(1/q_u) W_u' - 11')/pu_u
    with q_u = A_u/pu_u, since W's rows sum to 1.  Outputs with q_uy = 0 have
    W_uvy = 0 in the whole group and add nothing."""
    A, pu = _group_sums(Wr, p)
    B = (Wr / np.maximum(A / pu[:, None], _TINY)[:, None, :]) @ Wr.transpose(0, 2, 1)
    return (1.0 - B) / pu[:, None, None]


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
    channel's cost vector, one entry per window in _block_factors' order on
    an m-point grid.

    A shift-consistent law is a normalized circulation on the de Bruijn
    graph B(m, k): window t is the edge from node t // m (its first k
    inputs) to node t % m^k (its last k).  So the vertices of the polytope
    without the budget are the uniform laws on simple cycles, and lp_max
    solves its linear program with a maximum-mean-cycle oracle (Karp 1978)
    inside a Lagrangian on the budget; no LP solver is involved.  The grid
    starts at 0 and a window costs its mean input, so window 0's self-loop,
    the all-zero law, is the only cycle of cost 0: the cheapest cycle, and a
    feasible point at any alpha >= 0.  Karp's search on V = m^k nodes holds
    two float64 tables at once, its (V+1) x V walk weights D and its V x V
    gain table, counted at D's size; their bytes together must fit the byte
    budget of DEFAULT_ENTRY_BUDGET float64 entries.
    """

    def __init__(self, cost: np.ndarray, m: int, k: int, alpha: float):
        V = m ** k
        _check_bytes(2 * (V + 1) * V * np.dtype(np.float64).itemsize,
                     f"the stationary bounds' cycle search needs two {V + 1} x {V} tables "
                     f"of float64 at once ({m}-point grid, {k + 1} taps)",
                     "lower --grid or use fewer taps")
        self.cost = cost
        self.n = cost.size
        self.m, self.k, self.n_nodes = m, k, V
        self.alpha = alpha
        # Edge t = a*m^k + v enters node v; _src[a, v] is the node it leaves.
        self._src = (np.arange(self.n) // m).reshape(m, self.n_nodes)

    def _max_mean_cycle(self, w: np.ndarray) -> np.ndarray:
        """Edges of a cycle of maximum mean weight w (Karp 1978).

        D_i(v), the heaviest i-edge walk ending at v, takes one max over
        v's m in-edges per level; the best mean is
        max_v min_{j<V} (D_V(v) - D_j(v)) / (V - j) on V nodes, and the
        V-edge walk that attains D_V at the maximizing v contains a cycle
        of that mean, read off at its first repeated node.
        """
        m, V = self.m, self.n_nodes
        weights = w.reshape(m, V)
        D = np.zeros((V + 1, V))
        for i in range(1, V + 1):
            np.max(D[i - 1][self._src] + weights, axis=0, out=D[i])
        gain = D[V] - D[:V]
        gain /= (V - np.arange(V))[:, None]
        v = int(gain.min(axis=0).argmax())
        # Walk back from level V by each level's first max; V + 1 nodes on V repeat before 0.
        level, edges, i = {}, [], V
        while v not in level:
            level[v] = i
            t = int((D[i - 1][self._src[:, v]] + weights[:, v]).argmax()) * V + v
            edges.append(t)
            v, i = t // m, i - 1
        return np.array(edges[V - level[v]:])

    def lp_max(self, g: np.ndarray):
        """(cycles, law): a vertex maximizing g.p over the polytope, and
        the cycles it mixes, a tuple of one or, for a budget mixture, two
        cycles, each a tuple of its sorted edges.  The same cycles always
        come with the same law, bit for bit.

        With cycle means g(C) and c(C), the maximum is
        min_{mu >= 0} max_C [g(C) - mu c(C)] + mu alpha.  If the best cycle
        at mu = 0 fits the budget it is the answer.  Otherwise it and the
        cheapest cycle, window 0's loop, bracket the budget, and each
        Newton (Dinkelbach) step moves mu to where the two ends' lines meet
        and swaps in the oracle's cycle on its side of alpha, until no cycle
        rises above the lines.  The answer is the mixture of the two ends
        that spends exactly alpha.  Finitely many cycles make this finite;
        ConvergenceError (gap inf) guards the step count at _CYCLE_STEPS.
        """
        def cycle(w):
            C = np.sort(self._max_mean_cycle(w))
            return C, float(g[C].mean()), float(self.cost[C].mean())

        def law(C):
            p = np.zeros(self.n)
            p[C] = 1.0 / C.size
            return p

        hi = cycle(g)
        if hi[2] <= self.alpha:
            return (tuple(hi[0].tolist()),), law(hi[0])
        lo = np.zeros(1, dtype=np.intp), float(g[0]), float(self.cost[0])
        for _ in range(_CYCLE_STEPS):
            mu = max((hi[1] - lo[1]) / (hi[2] - lo[2]), 0.0)
            line = lo[1] - mu * lo[2]
            w = g - mu * self.cost
            new = cycle(w)
            # A cycle within rounding of the lines is no better than its ends.
            tol = 1e-14 * (1.0 + float(np.abs(w).max()))
            if new[1] - mu * new[2] <= line + tol:
                theta = (self.alpha - lo[2]) / (hi[2] - lo[2])
                cycles = (tuple(hi[0].tolist()), tuple(lo[0].tolist()))
                return cycles, theta * law(hi[0]) + (1.0 - theta) * law(lo[0])
            if new[2] > self.alpha:
                hi = new
            else:
                lo = new
        raise ConvergenceError(f"cycle oracle found no budget multiplier in {_CYCLE_STEPS} "
                               f"Newton steps", gap=math.inf, iterations=_CYCLE_STEPS)

    def interior_start(self) -> np.ndarray:
        """Feasible point of full support: the uniform law, blended toward
        window 0's loop (cost 0) until the cost constraint has slack."""
        p = np.full(self.n, 1.0 / self.n)
        c = float(self.cost @ p)
        if c <= 0.95 * self.alpha:
            return p
        theta = 0.95 * self.alpha / c
        p *= theta
        p[0] += 1.0 - theta
        return p


# The barrier weight tau starts on the scale of the objective (at most log m
# nats); a tenfold cut keeps each centring to a few Newton steps (B&V 11.3.1).
_TAU_START, _TAU_FACTOR = 1.0, 10.0
_TO_BOUNDARY = 0.99  # share of the way to the nearest face: iterates stay > 0
_HALVINGS = 60  # before the line search gives up; 2^-60 of a step moves nothing


def _barrier_lower(Wr, wlogw_rows, polytope: _StationaryPolytope,
                   config: SolverConfig):
    """Maximize _cmi_value_grad's objective f over the polytope by a
    log-barrier method (Boyd & Vandenberghe 2004, 11.3): damped Newton steps
    on f(p) + tau (sum log p + log r) for tau = 1, 1/10, ..., from
    polytope.interior_start(), under sum p = 1, shift consistency and
    c.p + r = alpha; the budget's slack r is an unknown of its own.  Every
    iterate is strictly positive, so every prefix group keeps mass.

    tau is cut once the Newton decrement is at most max(tol, tau): the
    central point for tau is itself (n + 1) tau from the optimum, so
    centring closer than tau is wasted (B&V 11.3.1: centring need not be
    exact).  Only at a decrement of at most tol is g = grad f priced over
    the whole polytope: the run returns (p, f, gap, Newton steps) once
    gap = g.(lp_max(g) - p) <= tol.  On the central path the gap is at most
    (n + 1) tau, so tau stops shrinking below tol / (n + 1).  A step of
    decrement at most tol skips the line search's slope test, which would
    compare rounding against rounding there.  ConvergenceError carries the
    last gap.
    """
    n, V = polytope.n, polytope.n_nodes
    size = n + V + 2  # unknowns (p, r), then V + 1 multipliers
    # The KKT matrix and the copy that np.linalg.solve factors.
    _check_bytes(2 * size * size * np.dtype(np.float64).itemsize,
                 f"the stationary lower bound's Newton step needs two {size} x {size} "
                 f"float64 arrays at once ({polytope.m}-point grid, {polytope.k + 1} taps)",
                 "lower --grid or use fewer taps")
    p = polytope.interior_start()
    if not p.min() > 0:  # alpha = 0: the all-zero window is the only law
        return p, 0.0, 0.0, 0
    z = np.append(p, polytope.alpha - polytope.cost @ p)
    # Rows: sum p = 1 in place of one stationarity row (they sum to 0), the
    # others, and c.p + r = alpha.
    K = np.zeros((size, size))
    H, A = K[:n + 1, :n + 1], K[n + 1:, :n + 1]
    A[:, :n] = np.vstack([np.ones(n), _stationarity_matrix(polytope.m, polytope.k)[1:],
                          polytope.cost])
    A[V, n] = 1.0
    K[:n + 1, n + 1:] = A.T
    b = np.r_[1.0, np.zeros(V - 1), polytope.alpha]
    diag, blocks = np.arange(n + 1), np.arange(n).reshape(Wr.shape[:2])
    tau, gap = _TAU_START, np.inf

    def newton(z, g, hess):  # the step that also closes A z = b, and its decrement
        H[:] = 0.0
        H[blocks[:, :, None], blocks[:, None, :]] = hess
        H[diag, diag] -= tau / z ** 2
        rhs = np.concatenate([-np.append(g, 0.0) - tau / z, b - A @ z])
        d = np.linalg.solve(K, rhs)[:n + 1]
        return d, -float(d @ H @ d)

    f, g = _cmi_value_grad(Wr, wlogw_rows, z[:n])
    for it in range(config.max_iters):
        hess = _cmi_hessian(Wr, z[:n])
        d, decrement = newton(z, g, hess)
        # The decrement is about twice the barrier objective's distance to
        # its maximum for this tau (B&V 9.5.1).
        if decrement <= config.tol:
            gap = float(g @ (polytope.lp_max(g)[1] - z[:n]))
            if gap <= config.tol:
                return z[:n], f, gap, it
        if decrement <= max(config.tol, tau) and (n + 1) * tau > config.tol:
            tau /= _TAU_FACTOR
            d, decrement = newton(z, g, hess)
        t = min(1.0, _TO_BOUNDARY * float(np.min(-z[d < 0] / d[d < 0], initial=np.inf)))
        # Halve until the slope along d at y is >= -1/2 of that at z, the
        # decrement: a gain of t/4 of it or more by the trapezoid rule.  Values
        # stall in rounding near the optimum; slope >= 0 halves full steps.
        # A step of decrement <= tol passes untested: there the slope test
        # compares rounding against rounding, and the exit still needs the
        # priced gap.
        for _ in range(_HALVINGS):
            y = z + t * d
            f_y, g_y = _cmi_value_grad(Wr, wlogw_rows, y[:n])
            if (decrement <= config.tol
                    or g_y @ d[:n] + tau * np.sum(d / y) >= -decrement / 2):
                break
            t /= 2
        else:
            break
        z, f, g = y, f_y, g_y
    raise ConvergenceError(
        f"log-barrier Newton stopped after {it + 1} steps at tau {tau:.1e} and gap "
        f"{gap:.3e}, above {config.tol}", gap=gap, iterations=it + 1)


def _simplicial_upper(W, wlogw_rows, polytope: _StationaryPolytope,
                      config: SolverConfig):
    """Maximize I(p) = p.wlogw_rows - H(pW) over the polytope by fully
    corrective simplicial decomposition (Holloway 1974; Lacoste-Julien &
    Jaggi 2015).  The atoms, rows of V, are uniform laws on cycles, first
    the cheapest and the best for wlogw_rows.  On p = lam.V the objective is
    lam.(V wlogw_rows) - H(lam VW), so _capacity solves the master over lam
    with costs V cost.  polytope.lp_max prices g over the whole polytope and
    both cycles of its vertex join the atoms, until g.(s - p) <= config.tol.
    Returns (p, I(p), gap, master iterations in all); raises
    ConvergenceError, with the last gap over the polytope (inf before the
    first) and the master iterations in all, when a master solve fails,
    after config.max_iters masters or when no cycle joins.
    """
    cycles = {}  # insertion-ordered set of cycles, each its sorted edges

    def add(found):  # how many of the found cycles are new
        new = [C for C in found if C not in cycles]
        cycles.update(dict.fromkeys(new))
        return len(new)

    add([(0,)])  # window 0's loop, the cheapest cycle
    add(polytope.lp_max(wlogw_rows)[0])
    iterations, gap = 0, np.inf
    for master in range(1, config.max_iters + 1):
        V = np.zeros((len(cycles), polytope.n))
        for j, C in enumerate(cycles):
            V[j, list(C)] = 1.0 / len(C)
        try:
            res = _capacity(_SlotFactors.rows(V @ W), V @ polytope.cost, polytope.alpha,
                            config, wlogw=V @ wlogw_rows)
        except ConvergenceError as e:
            raise ConvergenceError(
                f"simplicial decomposition's master solve {master} did not reach gap "
                f"{config.tol} in {e.iterations} Blahut-Arimoto steps (last gap over the "
                f"polytope {gap:.3e}, {iterations + e.iterations} master steps in all)",
                gap=gap, iterations=iterations + e.iterations) from e
        iterations += res.iterations
        p = res.input_dist @ V
        f, g = _cmi_value_grad(W[None], wlogw_rows, p)
        found, s = polytope.lp_max(g)
        gap = float(g @ (s - p))
        if gap <= config.tol:
            return p, f, gap, iterations
        if not add(found):
            break
    raise ConvergenceError(
        f"simplicial decomposition did not reach gap {config.tol} "
        f"(last gap {gap:.3e}, {len(cycles)} cycles)", gap=gap, iterations=iterations)


def _stationary(spec: ChannelSpec, grid: InputGrid, config: SolverConfig,
                tail_eps: float, sides: tuple) -> StationaryBound:
    """Solve each of sides on one build of the single-slot channel's factors
    and polytope: _simplicial_upper for the upper bound, _barrier_lower with
    the rows split by their k previous inputs for the lower.  A
    ConvergenceError names the bound."""
    table, index, tuples = _block_factors(BlockChannelSpec(spec, grid, r=1, tail_eps=tail_eps))
    k, m = spec.impulse.order, len(grid.points)
    W = table[index[:, 0]]
    wlogw_rows = _wlogw_rows(W)
    poly = _StationaryPolytope(tuples.mean(axis=1), m, k, spec.alpha)
    runs = {}
    for side in sides:
        try:
            runs[side] = (_simplicial_upper(W, wlogw_rows, poly, config) if side == "upper"
                          else _barrier_lower(W.reshape(m ** k, m, W.shape[1]),
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

    The log-barrier method (see _barrier_lower) returns a strictly positive,
    shift-consistent law within budget, and fw_gap certifies optimality
    over the whole polytope to config.tol.
    """
    return _stationary(spec, grid, config, tail_eps, ("lower",))


def stationary_bounds(spec: ChannelSpec, grid: InputGrid,
                      config: SolverConfig = SolverConfig(),
                      tail_eps: float = DEFAULT_TAIL_EPS) -> StationaryBound:
    """Both stationary bounds on one instance, from one channel and polytope;
    the lower first, so that its byte check comes before any solve."""
    return _stationary(spec, grid, config, tail_eps, ("lower", "upper"))


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
    in sym_kl_max, the one caller: four float64 arrays, D, C, C @ D and
    C @ D @ C, at its step computation.  The ascent after it holds D and
    about twenty (2 + _SYMKL_RANDOM_STARTS) x n arrays (laws, gradients,
    projection scratch), some 360·n entries: they fit in the three freed
    n x n arrays once n >= 120, far below the n = 7,072 the budget first
    refuses, so the count covers them too.
    """
    n = W.shape[0]
    _check_bytes(4 * n * n * np.dtype(np.float64).itemsize,
                 f"the sym-KL matrix and its step need four {n} x {n} float64 arrays "
                 f"at once ({n} inputs)", "lower --grid or use fewer taps")
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
    marginals: sym_kl_reference_bound at the true output marginal pW, which
    equals F(p) = (1/2) p'Dp with D the row-pair matrix of _sym_kl_matrix.

    Returns math.inf when two inputs of positive mass have rows with
    different supports (the reverse KL diverges).
    """
    p = _check_pmf(input_dist, channel.n_inputs)
    q = p @ channel.transition  # sums to 1 only within both pmf tolerances
    return sym_kl_reference_bound(channel, p, q / q.sum())


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


def _project_simplex(V: np.ndarray, cost: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of V − mu·c onto the probability
    simplex, mu holding one multiplier per row (Duchi et al., ICML 2008)."""
    V = V - mu[:, None] * cost
    U = np.sort(V, axis=-1)[:, ::-1]
    css = np.cumsum(U, axis=-1) - 1.0
    idx = np.arange(1, V.shape[-1] + 1)
    rho = np.max(np.where(U - css / idx > 0, idx, 0), axis=-1, keepdims=True)
    theta = np.take_along_axis(css, rho - 1, axis=-1) / rho
    return np.maximum(V - theta, 0.0)


def _project_feasible(V: np.ndarray, cost: np.ndarray, alpha: float) -> np.ndarray:
    """Euclidean projection of each row of V (a 1-D V is one row) onto the
    simplex intersected with cost.p <= alpha (alpha >= min cost): the simplex
    projection p(mu) of v − mu·c at the smallest mu >= 0 that meets the budget,
    one mu per row, from solver._multiplier.  On a fixed support S the cost of
    p(mu) is linear in mu with slope −|S|·Var_S(c).
    """
    rows = V.reshape(-1, V.shape[-1])

    def slope(P, _):  # |S|·Var_S(c) for each row of P; its mean is over S alone
        on = P > 0
        mean = np.where(on, cost, 0.0).sum(axis=-1) / on.sum(axis=-1)
        dev = np.where(on, cost - mean[:, None], 0.0)
        return np.vecdot(dev, dev)

    _, P = _multiplier(lambda i, mu: _project_simplex(rows[i], cost, np.array(mu)), slope,
                       cost, alpha, [0.0] * len(rows))
    return P.reshape(V.shape)


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
    Otherwise projected gradient ascent follows from 2 + _SYMKL_RANDOM_STARTS
    starts (uniform, the best two-point law, and random ones drawn from
    seed).  The starts ascend together as the rows of one array, each
    projected with its own budget multiplier; a start leaves the batch at its
    first step that does not raise its F, and none takes more than
    config.max_iters steps; config.tol is not read.  The result is the best
    law found, the two-point law unless ascent beats it by more than 1e-10;
    global optimality is only guaranteed when two-point supports suffice.
    """
    keep, alpha = _cheapest_inputs(channel.cost, alpha)
    idx = np.flatnonzero(keep)
    cost = channel.cost[idx]
    n = idx.size
    D = _sym_kl_matrix(channel.transition[idx])

    def result(value, p, n_run):
        keep = np.flatnonzero(p > 1e-12)
        return SymKLResult(
            value=value, support=tuple(channel.input_labels[idx[x]] for x in keep),
            masses=tuple(p[keep] / p[keep].sum()), n_starts=n_run)

    i, j, t, pair_best = _best_pair(D, cost, alpha)
    two_point = np.bincount([i, j], weights=[t, 1.0 - t], minlength=n)
    if math.isinf(pair_best):
        return result(pair_best, two_point, 0)

    # Gradient D·p, taken for all starts at once as P @ D (D is symmetric).
    # Step 1/||CDC||, the curvature on the simplex's tangent space, with
    # C = I − 11'/n the centring matrix: such a step never lowers F in exact
    # arithmetic, so the first step that does not raise it marks the
    # float-level fixed point, where that start leaves the batch.
    C = np.eye(n) - 1.0 / n
    step = 1.0 / max(float(np.linalg.norm(C @ D @ C, 2)), 1e-12)
    del C
    rng = np.random.default_rng(seed)
    starts = np.array([np.full(n, 1.0 / n), two_point]
                      + [rng.dirichlet(np.ones(n)) for _ in range(_SYMKL_RANDOM_STARTS)])
    P = _project_feasible(starts, cost, alpha)
    G = P @ D
    F = 0.5 * np.vecdot(P, G)
    live = np.arange(len(starts))
    P_live, G_live, F_live = P, G, F
    for _ in range(config.max_iters):
        P_next = _project_feasible(P_live + step * G_live, cost, alpha)
        G_next = P_next @ D
        F_next = 0.5 * np.vecdot(P_next, G_next)
        rise = F_next > F_live
        if not rise.all():
            stop = live[~rise]
            P[stop], F[stop] = P_live[~rise], F_live[~rise]
            live = live[rise]
            if not live.size:
                break
        P_live, G_live, F_live = P_next[rise], G_next[rise], F_next[rise]
    else:
        P[live], F[live] = P_live, F_live
    best = int(np.argmax(F))
    best_val, best_p = float(F[best]), P[best]

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
