"""Capacity bound families for the filtered-Poisson channel.

Three families:

* sandwich bounds from the block channel: C_r upper, r/(k+r)*C_r lower;
* single-letter stationary bounds, maximized by Frank-Wolfe over the
  polytope of shift-consistent joint laws;
* symmetrized-KL upper bounds, generic (quadratic in the input law) and in
  closed form for the Poisson and Gaussian cases.

Grid-restricted maximizations under-estimate the continuous maximum, so the
lower bounds here are valid lower bounds on capacity while the "upper"
bounds are upper bounds of the grid-restricted problem; reports label them
accordingly.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .channel import (
    BlockChannelSpec,
    ChannelSpec,
    DiscreteChannel,
    InputGrid,
    build_block_channel,
)
from .errors import ConvergenceError
from .solver import _TINY, SolverConfig, _check_input_dist, _wlogw_rows, ba_capacity


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
        p = np.asarray(self.input_dist, dtype=np.float64)
        p.flags.writeable = False
        object.__setattr__(self, "input_dist", p)


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
# Stationary single-letter bounds (Frank-Wolfe over the shift-consistent
# polytope)


@dataclass(frozen=True)
class StationaryBound:
    """Single-letter stationary bounds; sides not computed are None."""

    upper: float | None
    lower: float | None
    upper_dist: np.ndarray | None
    lower_dist: np.ndarray | None
    fw_gap: float
    iterations: int


def _mi_value_grad(W: np.ndarray, wlogw_rows: np.ndarray, p: np.ndarray):
    """Mutual information and its gradient, defined for any nonnegative p.

    f(p) = p.d - sum_y q_y log q_y with q = p W; grad_t = d_t - sum_y W_ty
    log q_y - 1.  Restricted to the simplex f is I(X;Y).
    """
    q = p @ W
    logq = np.log(np.maximum(q, _TINY))
    f = float(p @ wlogw_rows - q @ logq)
    grad = wlogw_rows - W @ logq - 1.0
    return f, grad


def _cmi_value_grad(Wr: np.ndarray, wlogw_rows: np.ndarray, p: np.ndarray):
    """Conditional mutual information I(last coord; Y | prefix) and gradient.

    Wr has shape (n_prefix, m, n_out); p is flattened (n_prefix*m,).  For
    empty prefix groups the gradient uses the uniform-mixture limit, a valid
    supergradient of this concave function.
    """
    n_pref, m, n_out = Wr.shape
    P = p.reshape(n_pref, m)
    A = np.einsum("uv,uvy->uy", P, Wr)
    pu = P.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = float(
            p @ wlogw_rows
            - np.sum(np.where(A > 0, A * np.log(np.maximum(A, _TINY)), 0.0))
            + np.sum(np.where(pu > 0, pu * np.log(np.maximum(pu, _TINY)), 0.0))
        )
    q = np.empty_like(A)
    alive = pu > 0
    q[alive] = A[alive] / pu[alive, None]
    if not np.all(alive):
        q[~alive] = Wr[~alive].mean(axis=1)
    logq = np.log(np.maximum(q, _TINY))
    grad = (wlogw_rows.reshape(n_pref, m)
            - np.einsum("uvy,uy->uv", Wr, logq)).reshape(-1)
    return f, grad


def _stationarity_matrix(m: int, k: int) -> np.ndarray:
    """Rows enforce equality of the first-k and last-k marginals."""
    n = m ** (k + 1)
    npref = m ** k
    A = np.zeros((npref, n))
    t = np.arange(n)
    prefix = t // m
    suffix = t % npref
    for j in range(npref):
        A[j, prefix == j] += 1.0
        A[j, suffix == j] -= 1.0
    return A


class _StationaryPolytope:
    """The feasible set of joint laws on grid^(k+1): simplex, equal shifted
    marginals, average intensity at most alpha.  An optional active mask
    pins the remaining coordinates to zero."""

    def __init__(self, grid: InputGrid, k: int, alpha: float, active=None):
        pts = grid.as_array()
        m = pts.size
        self.m = m
        self.k = k
        self.n = m ** (k + 1)
        tuples = np.array(list(itertools.product(pts, repeat=k + 1)))
        self.cost = tuples.mean(axis=1)
        rows = [np.ones((1, self.n))]
        if k > 0:
            rows.append(_stationarity_matrix(m, k))
        self.A_eq = np.vstack(rows)
        self.b_eq = np.zeros(self.A_eq.shape[0])
        self.b_eq[0] = 1.0
        self.alpha = alpha
        self.active = np.ones(self.n, dtype=bool) if active is None else active
        self.bounds = [(0, None) if a else (0, 0) for a in self.active]

    def lp_max(self, g: np.ndarray) -> np.ndarray:
        res = linprog(
            c=-g, A_eq=self.A_eq, b_eq=self.b_eq,
            A_ub=self.cost[None, :], b_ub=[self.alpha],
            bounds=self.bounds, method="highs")
        if not res.success:
            raise RuntimeError(f"LP step failed: {res.message}")
        return np.maximum(res.x, 0.0)

    def interior_start(self) -> np.ndarray:
        """Feasible point positive on the active set: uniform blended toward
        the cheapest constant tuple until the cost constraint has slack.

        Constant tuples (v, ..., v) are stationary, so the blend stays in
        the polytope."""
        p = np.where(self.active, 1.0, 0.0)
        p /= p.sum()
        c = float(self.cost @ p)
        if c <= 0.95 * self.alpha or c == 0:
            return p
        const_idx = np.array([v * (self.n - 1) // (self.m - 1) for v in range(self.m)]) \
            if self.m > 1 else np.array([0])
        const_idx = const_idx[self.active[const_idx]]
        if const_idx.size == 0:
            raise ValueError("no constant tuple is active; cannot build a start")
        anchor = const_idx[np.argmin(self.cost[const_idx])]
        c_anchor = self.cost[anchor]
        if c_anchor > self.alpha:
            raise ValueError("cheapest active constant tuple violates the budget")
        theta = min(1.0, 0.95 * (self.alpha - c_anchor) / max(c - c_anchor, 1e-300))
        delta = np.zeros(self.n)
        delta[anchor] = 1.0
        return theta * p + (1.0 - theta) * delta


def _line_search(value_grad, p, d, gamma_max):
    """Exact line search for a concave objective: the directional derivative
    is non-increasing in gamma, so bisect it to zero on [0, gamma_max]."""
    _, g_hi = value_grad(p + gamma_max * d)
    if float(g_hi @ d) >= 0:
        return gamma_max
    lo, hi = 0.0, gamma_max
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        _, g_mid = value_grad(p + mid * d)
        if float(g_mid @ d) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _vertex_key(v: np.ndarray):
    return tuple(np.round(v, 12))


_STALL_WINDOW = 80
_STALL_TOL = 1e-12
_GROUP_KILL_THRESHOLD = 1e-9


def _frank_wolfe(value_grad, polytope: _StationaryPolytope, tol: float,
                 max_iters: int):
    """Maximize a concave function over the polytope by conditional gradient
    with away steps and exact line search.

    Away steps (dropping weight from the worst active vertex) avoid the
    zigzag stall of the plain iteration when the optimum sits on a face; the
    linearization gap g.(s - p) certifies f* <= f + gap at every iterate,
    and the loop stops once it falls below tol.

    Returns (p, f, gap, iterations, converged).  converged=False means the
    objective stopped improving while the gap stayed high, which happens for
    objectives whose gradient blows up where coordinates group to zero mass;
    the caller may restrict the support and retry.
    """
    start = polytope.interior_start()
    # The feasible start enters the decomposition as a pseudo-vertex; away
    # steps shed it as real LP vertices accumulate.
    vertices = {_vertex_key(start): (start, 1.0)}
    p = start.copy()
    f, g = value_grad(p)
    gap = np.inf
    best_f = f
    last_progress = 0
    for it in range(1, max_iters + 1):
        s = polytope.lp_max(g)
        gap = float(g @ (s - p))
        if gap <= tol:
            return p, f, gap, it, True
        if f > best_f + _STALL_TOL:
            best_f = f
            last_progress = it
        elif it - last_progress >= _STALL_WINDOW:
            return p, f, gap, it, False
        away_key = min(vertices, key=lambda key: float(g @ vertices[key][0]))
        v_away, w_away = vertices[away_key]
        away_gap = float(g @ (p - v_away))
        if gap >= away_gap or w_away >= 1.0 - 1e-15:
            d = s - p
            gamma = _line_search(value_grad, p, d, 1.0)
            if gamma >= 1.0 - 1e-15:
                vertices = {_vertex_key(s): (s, 1.0)}
            else:
                vertices = {k: (v, w * (1.0 - gamma)) for k, (v, w) in vertices.items()}
                key = _vertex_key(s)
                prev = vertices.get(key)
                vertices[key] = (s, gamma + (prev[1] if prev else 0.0))
        else:
            d = p - v_away
            gamma_max = w_away / (1.0 - w_away)
            gamma = _line_search(value_grad, p, d, gamma_max)
            vertices = {k: (v, w * (1.0 + gamma)) for k, (v, w) in vertices.items()}
            v, w = vertices[away_key]
            w -= gamma
            if w <= 1e-15:
                del vertices[away_key]
            else:
                vertices[away_key] = (v, w)
        p = np.zeros_like(p)
        for v, w in vertices.values():
            p += w * v
        f, g = value_grad(p)
    raise ConvergenceError(
        f"Frank-Wolfe did not reach gap {tol} in {max_iters} iterations "
        f"(last gap {gap:.3e})", gap=gap, iterations=max_iters)


def _single_slot_channel(spec: ChannelSpec, grid: InputGrid,
                         tail_eps: float) -> DiscreteChannel:
    return build_block_channel(BlockChannelSpec(spec, grid, r=1, tail_eps=tail_eps))


def stationary_upper_bound(spec: ChannelSpec, grid: InputGrid,
                           config: SolverConfig = SolverConfig(),
                           tail_eps: float = 1e-10) -> StationaryBound:
    """max I(all k+1 inputs; current output) over shift-consistent joint laws
    with average intensity at most alpha."""
    k = spec.impulse.order
    channel = _single_slot_channel(spec, grid, tail_eps)
    W = channel.transition
    d = _wlogw_rows(W)
    poly = _StationaryPolytope(grid, k, spec.alpha)
    p, f, gap, it, converged = _frank_wolfe(
        lambda x: _mi_value_grad(W, d, x), poly, config.tol, config.max_iters)
    if not converged:
        raise ConvergenceError(
            f"stationary upper bound stalled at gap {gap:.3e}", gap=gap, iterations=it)
    return StationaryBound(upper=f, lower=None, upper_dist=p, lower_dist=None,
                           fw_gap=max(gap, 0.0), iterations=it)


def stationary_lower_bound(spec: ChannelSpec, grid: InputGrid,
                           config: SolverConfig = SolverConfig(),
                           tail_eps: float = 1e-10) -> StationaryBound:
    """max I(current input; current output | k previous inputs) over the same
    polytope; any feasible law here yields a valid lower bound on capacity.

    The conditional objective is not differentiable where a prefix group
    loses all mass, and the maximizer often kills whole grid values; when the
    loop stalls on such a boundary the support is restricted to the surviving
    groups (where the objective is smooth) and re-solved, so the reported
    fw_gap certifies optimality over the final support.
    """
    k = spec.impulse.order
    channel = _single_slot_channel(spec, grid, tail_eps)
    m = grid.as_array().size
    W = channel.transition
    Wr = W.reshape(m ** k, m, W.shape[1])
    d = _wlogw_rows(W)
    vg = lambda x: _cmi_value_grad(Wr, d, x)

    npref = m ** k
    t = np.arange(m ** (k + 1))
    prefix, suffix = t // m, t % npref
    active = np.ones(m ** (k + 1), dtype=bool)
    total_it = 0
    for _ in range(1 + npref):
        poly = _StationaryPolytope(grid, k, spec.alpha, active=active)
        p, f, gap, it, converged = _frank_wolfe(vg, poly, config.tol, config.max_iters)
        total_it += it
        if converged:
            return StationaryBound(upper=None, lower=f, upper_dist=None,
                                   lower_dist=p, fw_gap=max(gap, 0.0),
                                   iterations=total_it)
        group_mass = np.bincount(prefix, weights=p, minlength=npref)
        dead = group_mass <= _GROUP_KILL_THRESHOLD
        shrunk = active & ~(dead[prefix] | dead[suffix])
        if not shrunk.any() or shrunk.sum() == active.sum():
            break
        active = shrunk
    raise ConvergenceError(
        f"stationary lower bound stalled at gap {gap:.3e}", gap=gap,
        iterations=total_it)


def stationary_bounds(spec: ChannelSpec, grid: InputGrid,
                      config: SolverConfig = SolverConfig(),
                      tail_eps: float = 1e-10) -> StationaryBound:
    """Both stationary bounds on one instance."""
    up = stationary_upper_bound(spec, grid, config, tail_eps)
    lo = stationary_lower_bound(spec, grid, config, tail_eps)
    return StationaryBound(
        upper=up.upper, lower=lo.lower,
        upper_dist=up.upper_dist, lower_dist=lo.lower_dist,
        fw_gap=max(up.fw_gap, lo.fw_gap),
        iterations=up.iterations + lo.iterations)


# ---------------------------------------------------------------------------
# Symmetrized KL divergence bounds


@dataclass(frozen=True)
class SymKLResult:
    """Best found value of the symmetrized-KL functional and its input law."""

    value: float
    support: tuple
    masses: tuple
    n_starts: int


def _support_mismatch_pair(W: np.ndarray):
    """Indices (x, xt) witnessing rows with different supports, or None."""
    supp = W > 0
    base = supp[0]
    for x in range(1, W.shape[0]):
        if not np.array_equal(supp[x], base):
            return 0, x
    return None


def sym_kl_generic(channel: DiscreteChannel, input_dist) -> float:
    """Symmetrized KL divergence between the joint law and the product of its
    marginals: sum over (x, y) of [p(x,y) - p(x)q(y)] log W(y|x).

    Returns math.inf when some W(y|x) = 0 carries positive product mass
    (the reverse KL diverges).
    """
    p = _check_input_dist(channel, input_dist)
    W = channel.transition
    q = p @ W
    live_rows = p > 0
    if np.any((W[live_rows] == 0) & (q[None, :] > 0)):
        return math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        logW = np.where(W > 0, np.log(np.maximum(W, _TINY)), 0.0)
    d = (W * logW).sum(axis=1)
    return float(p @ d - p @ (logW @ q))


def sym_kl_reference_bound(channel: DiscreteChannel, input_dist, ref_out) -> float:
    """Symmetrized-KL functional at the pair (joint, p(x) r(y)) for an
    arbitrary reference output law r(y); with r equal to the true output
    marginal this is sym_kl_generic.  Any valid r yields an upper bound on
    mutual information."""
    p = _check_input_dist(channel, input_dist)
    r = np.asarray(ref_out, dtype=np.float64)
    if r.shape != (channel.n_outputs,):
        raise ValueError("reference output law has the wrong length")
    if np.any(r < -1e-12) or abs(r.sum() - 1.0) > 1e-9:
        raise ValueError("reference output law must be a pmf")
    r = np.maximum(r, 0.0)
    W = channel.transition
    live = p > 0
    if np.any((W[live] > 0) & (r[None, :] == 0)) or np.any((W[live] == 0) & (r[None, :] > 0)):
        return math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        logW = np.where(W > 0, np.log(np.maximum(W, _TINY)), 0.0)
        logr = np.where(r > 0, np.log(np.maximum(r, _TINY)), 0.0)
    fwd = (W * (logW - logr[None, :])).sum(axis=1)       # D(W(.|x) || r)
    rev = (r[None, :] * (logr[None, :] - logW)).sum(axis=1)  # D(r || W(.|x))
    return float(p @ (fwd + rev))


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = np.max(np.where(u - css / idx > 0, idx, 0))
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _project_feasible(v: np.ndarray, cost: np.ndarray, alpha) -> np.ndarray:
    """Projection onto the simplex intersected with cost.p <= alpha."""
    p = _project_simplex(v)
    if alpha is None or float(cost @ p) <= alpha:
        return p
    # Shift against the cost direction until the budget is met; the achieved
    # cost is non-increasing in the shift, so bisect.
    mu_lo, mu_hi = 0.0, 1.0
    for _ in range(200):
        if float(cost @ _project_simplex(v - mu_hi * cost)) <= alpha:
            break
        mu_hi *= 2.0
    for _ in range(100):
        mu = 0.5 * (mu_lo + mu_hi)
        if float(cost @ _project_simplex(v - mu * cost)) <= alpha:
            mu_hi = mu
        else:
            mu_lo = mu
    return _project_simplex(v - mu_hi * cost)


def _two_point_best(d, G, cost, alpha):
    """Exact maximization of the quadratic over all laws supported on at most
    two inputs, respecting the budget."""
    n = d.size
    best = (-np.inf, None, None)
    feasible_single = [i for i in range(n) if alpha is None or cost[i] <= alpha + 1e-12]
    for i in feasible_single:
        if 0.0 > best[0]:
            best = (0.0, (i,), (1.0,))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            # mass t on i, 1-t on j
            if alpha is None:
                lo, hi = 0.0, 1.0
            else:
                ci, cj = cost[i], cost[j]
                if ci == cj:
                    if ci > alpha + 1e-12:
                        continue
                    lo, hi = 0.0, 1.0
                elif ci > cj:
                    tau = (alpha - cj) / (ci - cj)
                    if tau < 0:
                        continue
                    lo, hi = 0.0, min(1.0, tau)
                else:
                    tau = (alpha - cj) / (ci - cj)
                    if tau > 1:
                        continue
                    lo, hi = max(0.0, tau), 1.0
            a = -(G[i, i] - G[i, j] - G[j, i] + G[j, j])
            b = (d[i] - d[j]) - (G[i, j] + G[j, i] - 2.0 * G[j, j])
            cands = [lo, hi]
            if a < 0:
                t_vert = -b / (2.0 * a)
                if lo < t_vert < hi:
                    cands.append(t_vert)
            for t in cands:
                val = a * t * t + b * t
                if val > best[0]:
                    best = (val, (i, j), (t, 1.0 - t))
    return best


def sym_kl_max(channel: DiscreteChannel, alpha: float | None = None,
               config: SolverConfig = SolverConfig(), n_starts: int = 16,
               seed: int = 0) -> SymKLResult:
    """Maximize the symmetrized-KL functional over budgeted input laws.

    The objective is quadratic in p: F(p) = p.d - p' G p with
    d_x = sum_y W(y|x) log W(y|x) and g(x, xt) = sum_y W(y|xt) log W(y|x).
    Strategy: exact search over one- and two-point supports, then projected
    gradient ascent from multiple starts.  The result is the best law found;
    global optimality is only guaranteed when two-point supports suffice.
    """
    W = channel.transition
    cost = channel.cost
    witness = _support_mismatch_pair(W)
    if witness is not None:
        i, j = witness
        return SymKLResult(
            value=math.inf,
            support=(channel.input_labels[i], channel.input_labels[j]),
            masses=(0.5, 0.5), n_starts=0)
    if alpha is not None and alpha < float(np.min(cost)) - 1e-12:
        raise ValueError("alpha below the cheapest input cost")

    with np.errstate(divide="ignore", invalid="ignore"):
        logW = np.where(W > 0, np.log(np.maximum(W, _TINY)), 0.0)
    d = (W * logW).sum(axis=1)
    G = logW @ W.T  # G[x, xt] = sum_y W[xt, y] log W[x, y]

    best_val, support_idx, masses = _two_point_best(d, G, cost, alpha)
    two_point = (best_val, support_idx, masses)

    Gs = 0.5 * (G + G.T)
    lip = 2.0 * float(np.linalg.norm(Gs, 2))
    step = 1.0 / max(lip, 1e-12)

    def F(p):
        return float(p @ d - p @ (G @ p))

    def gradF(p):
        return d - (G + G.T) @ p

    rng = np.random.default_rng(seed)
    starts = [np.full(W.shape[0], 1.0 / W.shape[0])]
    tp = np.zeros(W.shape[0])
    for i, t in zip(support_idx, masses):
        tp[i] += t
    starts.append(tp)
    for _ in range(n_starts):
        starts.append(rng.dirichlet(np.ones(W.shape[0])))

    best_pgd = (-np.inf, None)
    for p in starts:
        p = _project_feasible(p, cost, alpha)
        for _ in range(config.max_iters):
            p_next = _project_feasible(p + step * gradF(p), cost, alpha)
            if np.abs(p_next - p).sum() < 1e-13:
                p = p_next
                break
            p = p_next
        val = F(p)
        if val > best_pgd[0]:
            best_pgd = (val, p)

    # Prefer the exact two-point law unless gradient ascent is strictly better.
    if best_pgd[0] > two_point[0] + 1e-10:
        p = best_pgd[1]
        keep = np.flatnonzero(p > 1e-12)
        masses_arr = p[keep] / p[keep].sum()
        return SymKLResult(
            value=best_pgd[0],
            support=tuple(channel.input_labels[i] for i in keep),
            masses=tuple(masses_arr), n_starts=len(starts))
    val, support_idx, masses = two_point
    keep = [(i, t) for i, t in zip(support_idx, masses) if t > 1e-15]
    return SymKLResult(
        value=val,
        support=tuple(channel.input_labels[i] for i, _ in keep),
        masses=tuple(t for _, t in keep), n_starts=len(starts))


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


def cov_bound_poisson(support, masses, lambda0: float) -> float:
    """Symmetrized-KL bound of a given input law on the memoryless Poisson
    channel: Cov(X + lambda0, log(X + lambda0))."""
    x = np.asarray(support, dtype=np.float64)
    p = np.asarray(masses, dtype=np.float64)
    if x.shape != p.shape or x.ndim != 1:
        raise ValueError("support and masses must be 1-D and equal length")
    if np.any(x < 0):
        raise ValueError("support must be nonnegative")
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("masses must form a pmf")
    if not (np.isfinite(lambda0) and lambda0 > 0):
        raise ValueError("lambda0 must be positive")
    shifted = x + lambda0
    logs = np.log(shifted)
    return float(p @ (shifted * logs) - (p @ shifted) * (p @ logs))


def gaussian_sym_bound(support, masses, sigma: float, mu: float = 0.0) -> float:
    """Symmetrized-KL bound for the additive Gaussian channel: Var(X)/sigma^2,
    independent of the noise mean."""
    x = np.asarray(support, dtype=np.float64)
    p = np.asarray(masses, dtype=np.float64)
    if x.shape != p.shape or x.ndim != 1:
        raise ValueError("support and masses must be 1-D and equal length")
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("masses must form a pmf")
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be positive")
    mean = float(p @ x)
    var = float(p @ (x - mean) ** 2)
    return var / (sigma * sigma)
